// `simsweep report` and `simsweep status` — the artifact-analysis front end.
//
//   report summary FILE...   typed summary of each artifact (--json for one
//                            canonical JSON document on stdout)
//   report diff A B          structural comparison with --abs-tol/--rel-tol;
//                            exit 3 on regression (the CI gate)
//   report top FILE          hottest entries (--limit=N, default 10)
//   report validate FILE...  schema-check each artifact: one "ok <kind>
//                            <path>" or "FAIL <path>: <rule>" line per file
//   status FILE              pretty-print a live --status snapshot; exit 4
//                            when the heartbeat is stale (--stale-after=S)
//
// Exit codes: 0 ok, 1 error (or an invalid artifact), 2 usage, 3 diff
// regression, 4 stale heartbeat.
#pragma once

#include "cli/args.hpp"

namespace simsweep::cli {

int cmd_report(Args& args);
int cmd_status(Args& args);

}  // namespace simsweep::cli
