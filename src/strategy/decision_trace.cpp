#include "strategy/decision_trace.hpp"

#include <ostream>

namespace simsweep::strategy {

void write_trace_jsonl(std::ostream& os, const std::string& strategy,
                       std::uint64_t seed, std::size_t trial,
                       const std::vector<DecisionRecord>& trace) {
  TraceLine line{strategy, trial, seed, {}};
  for (const DecisionRecord& rec : trace) {
    line.record = rec;
    obs::write_json(os, line);
    os << '\n';
  }
}

}  // namespace simsweep::strategy
