#include "strategy/decision_trace.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace simsweep::strategy {

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kBoundary:
      return "boundary";
    case TraceKind::kRecovery:
      return "recovery";
  }
  return "unknown";
}

namespace {

/// `,"key":value` through the shared JSON writer: shortest round-trip
/// form, and null for a non-finite value (an infinite payback means "no
/// gain at all").
void number(std::ostream& os, const char* key, double value) {
  os << ",\"" << key << "\":";
  obs::write_json_number(os, value);
}

void count(std::ostream& os, const char* key, std::uint64_t value) {
  os << ",\"" << key << "\":";
  obs::write_json_number(os, value);
}

}  // namespace

void write_trace_jsonl(std::ostream& os, const std::string& strategy,
                       std::uint64_t seed, std::size_t trial,
                       const std::vector<DecisionRecord>& trace) {
  for (const DecisionRecord& rec : trace) {
    os << "{\"strategy\":";
    obs::write_json_string(os, strategy);
    count(os, "trial", trial);
    count(os, "seed", seed);
    os << ",\"kind\":\"" << to_string(rec.kind) << '"';
    count(os, "iteration", rec.iteration);
    number(os, "time_s", rec.time_s);
    if (rec.kind == TraceKind::kBoundary) {
      number(os, "measured_iter_time_s", rec.measured_iter_time_s);
      number(os, "predicted_iter_time_s", rec.predicted_iter_time_s);
      number(os, "adaptation_cost_s", rec.adaptation_cost_s);
      count(os, "active", rec.active_count);
      count(os, "spares", rec.spare_count);
      count(os, "swaps_planned", rec.swaps_planned);
      count(os, "swaps_applied", rec.swaps_applied);
      os << ",\"considered\":[";
      bool first = true;
      for (const swap::CandidateEvaluation& c : rec.considered) {
        os << (first ? "{\"slot\":" : ",{\"slot\":");
        first = false;
        obs::write_json_number(os, static_cast<std::uint64_t>(c.slot));
        count(os, "from", c.from);
        count(os, "to", c.to);
        number(os, "from_est_speed", c.from_est_speed);
        number(os, "to_est_speed", c.to_est_speed);
        number(os, "payback_iters", c.payback_iters);
        number(os, "process_gain", c.process_gain);
        number(os, "app_gain", c.app_gain);
        os << ",\"rejection\":\"" << swap::to_string(c.rejection) << "\"}";
      }
      os << ']';
    } else {
      os << ",\"action\":";
      obs::write_json_string(os, rec.action);
      count(os, "processes", rec.processes);
    }
    os << "}\n";
  }
}

}  // namespace simsweep::strategy
