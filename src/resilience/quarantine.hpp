// Trial-outcome taxonomy and the quarantine report.
//
// A resilient sweep never lets one pathological cell abort the grid: after
// the retry budget is exhausted the cell is *quarantined* — recorded with
// its config digest, seed, typed outcome, attempt count, and error text —
// and the sweep continues degraded.  The report is a JSON artifact with the
// same provenance meta block as every other emitter, so CI can schema-check
// it and a human can re-run exactly the quarantined cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace simsweep::obs {
struct Provenance;
}

namespace simsweep::resilience {

/// How a trial (or sweep cell) ended.
enum class TrialOutcomeKind : std::uint8_t {
  kOk,           ///< completed normally
  kHung,         ///< cancelled by the wall-clock watchdog
  kCrashed,      ///< threw (model/strategy/engine fault)
  kAuditFailed,  ///< an invariant auditor rejected the run
};

constexpr std::pair<TrialOutcomeKind, const char*> kOutcomeNames[] = {
    {TrialOutcomeKind::kOk, "ok"},
    {TrialOutcomeKind::kHung, "hung"},
    {TrialOutcomeKind::kCrashed, "crashed"},
    {TrialOutcomeKind::kAuditFailed, "audit-failed"},
};

[[nodiscard]] std::string_view to_string(TrialOutcomeKind kind) noexcept;

/// One quarantined cell: everything needed to reproduce it in isolation.
struct QuarantineRecord {
  std::size_t index = 0;      ///< cell index in sweep order
  std::string key;            ///< per-cell config digest
  std::uint64_t seed = 0;     ///< root seed the cell derives its streams from
  std::size_t trials = 0;     ///< trials per cell
  std::string label;          ///< human label, e.g. "x=0.2 strategy=greedy"
  TrialOutcomeKind outcome = TrialOutcomeKind::kCrashed;
  std::size_t attempts = 0;   ///< total attempts including retries
  std::string error;          ///< what() tail of the final failure
};

template <typename V>
void walk(V& v, QuarantineRecord& r) {
  v("index", r.index);
  v("key", r.key, obs::Accept::kDigest);
  v("seed", r.seed);
  v("trials", r.trials);
  v("label", r.label);
  v("outcome", r.outcome, kOutcomeNames, "failure kind");
  if constexpr (V::kReading)
    v.check(r.outcome != TrialOutcomeKind::kOk,
            "outcome 'ok' not a failure kind");
  v("attempts", r.attempts);
  if constexpr (V::kReading) v.check(r.attempts >= 1, "attempts must be >= 1");
  v("error", r.error);
}

/// The quarantine report's body: its records, in strictly increasing cell
/// index order.
template <typename V>
void walk(V& v, std::vector<QuarantineRecord>& records) {
  v.list("quarantined", records, obs::Need::kRequired,
         [&records](auto& r, QuarantineRecord& record, std::size_t i) {
           walk(r, record);
           r.check(i == 0 || records[i - 1].index < record.index,
                   "records not in strictly increasing index order");
         });
}

/// Writes the quarantine report: {"meta":...,"quarantined":[...]} with one
/// object per record, in cell-index order, trailing newline included.
void write_quarantine_json(std::ostream& os,
                           const std::vector<QuarantineRecord>& records,
                           const obs::Provenance* meta = nullptr);

}  // namespace simsweep::resilience
