// Reading and writing CPU-load traces as CSV.
//
// The paper cites NWS-style measurement archives as the realistic (future
// work) alternative to stochastic load models; this module gives TraceModel
// a file format: two columns `time,cpu_load`, header optional, time in
// seconds (strictly non-decreasing), load = competing-process count
// (fractional values are rounded by the replay source).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "simcore/step_series.hpp"

namespace simsweep::load {

class LoadModel;  // load/load_model.hpp

/// Parses a CSV trace.  Throws std::invalid_argument on malformed rows or
/// decreasing times.  Skips blank lines and a leading header row.
[[nodiscard]] std::vector<sim::Sample> read_trace_csv(std::istream& in);

/// Reads a trace from a file path.  Throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] std::vector<sim::Sample> read_trace_file(
    const std::string& path);

/// Writes `time,cpu_load` rows with a header.
void write_trace_csv(std::ostream& out, const std::vector<sim::Sample>& trace);

/// Writes a host's load history over [0, horizon] for plotting: a
/// `time,cpu_load` header, two rows per change (old value, then new value)
/// so the plot is rectangular, and a closing row at `horizon`.  Times print
/// with one decimal, loads as whole counts.
void write_step_trace_csv(std::ostream& out,
                          const std::vector<sim::Sample>& history,
                          double horizon);

/// The load history of one 300 MFlop/s host named `traced`, driven by a
/// source of `model` seeded with `seed` and simulated up to `horizon`: what
/// `simsweep trace` and the load_trace scenarios plot.
[[nodiscard]] std::vector<sim::Sample> trace_single_host(
    const LoadModel& model, std::uint64_t seed, double horizon);

}  // namespace simsweep::load
