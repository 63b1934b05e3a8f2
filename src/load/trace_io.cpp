#include "load/trace_io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "load/load_model.hpp"

namespace simsweep::load {

namespace {

/// strtod accepts "nan"/"inf", which would poison availability math
/// downstream, so a successful parse additionally requires a finite value.
bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(out);
}

}  // namespace

std::vector<sim::Sample> read_trace_csv(std::istream& in) {
  std::vector<sim::Sample> trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip trailing carriage returns from Windows-authored files.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos)
      throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                  ": expected 'time,load'");
    const std::string time_text = line.substr(0, comma);
    const std::string load_text = line.substr(comma + 1);
    double t = 0.0, v = 0.0;
    if (!parse_double(time_text, t)) {
      // A non-numeric *time* on the first line is a header; anywhere else
      // it is an error.
      if (line_no == 1) continue;
      throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                  ": non-numeric or non-finite time");
    }
    if (!parse_double(load_text, v))
      throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                  ": non-numeric or non-finite load");
    if (!trace.empty() && t < trace.back().time)
      throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                  ": time went backwards");
    if (v < 0.0)
      throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                  ": negative load");
    // Collapse repeated timestamps (step-edge output style) to the last
    // value seen at that instant.
    if (!trace.empty() && t == trace.back().time) {
      trace.back().value = v;
    } else {
      trace.push_back(sim::Sample{t, v});
    }
  }
  if (trace.empty())
    throw std::invalid_argument("trace csv: no samples");
  return trace;
}

std::vector<sim::Sample> read_trace_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open trace file: " + path);
  try {
    return read_trace_csv(file);
  } catch (const std::invalid_argument& e) {
    // Prefix the file so "which of my traces is broken" is answerable from
    // the message alone.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void write_trace_csv(std::ostream& out,
                     const std::vector<sim::Sample>& trace) {
  out << "time,cpu_load\n";
  std::ostringstream buffer;
  buffer.precision(10);
  for (const sim::Sample& s : trace)
    buffer << s.time << ',' << s.value << '\n';
  out << buffer.str();
}

void write_step_trace_csv(std::ostream& out,
                          const std::vector<sim::Sample>& history,
                          double horizon) {
  // std::fixed at precision p formats exactly as printf's %.<p>f.
  std::ostringstream buffer;
  buffer << std::fixed << "time,cpu_load\n";
  const auto row = [&buffer](double time, double load) {
    buffer << std::setprecision(1) << time << ',' << std::setprecision(0)
           << load << '\n';
  };
  double last = 0.0;
  for (const sim::Sample& s : history) {
    if (s.time > horizon) break;
    row(s.time, last);
    row(s.time, s.value);
    last = s.value;
  }
  row(horizon, last);
  out << buffer.str();
}

std::vector<sim::Sample> trace_single_host(const LoadModel& model,
                                           std::uint64_t seed,
                                           double horizon) {
  sim::Simulator simulator;
  platform::Host host(simulator, 0, 300.0e6, "traced");
  auto source = model.make_source(seed);
  source->start(simulator, host);
  simulator.run_until(horizon);
  return host.load_history();
}

}  // namespace simsweep::load
