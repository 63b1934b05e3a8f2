#include "resilience/quarantine.hpp"

#include <ostream>

#include "obs/provenance.hpp"

namespace simsweep::resilience {

std::string_view to_string(TrialOutcomeKind kind) noexcept {
  return obs::enum_name(kOutcomeNames, kind);
}

void write_quarantine_json(std::ostream& os,
                           const std::vector<QuarantineRecord>& records,
                           const obs::Provenance* meta) {
  obs::write_json(os, records, meta);
  os << '\n';
}

}  // namespace simsweep::resilience
