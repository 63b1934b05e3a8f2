#include "cli/report_cmd.hpp"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/config_build.hpp"
#include "report/analyze.hpp"
#include "report/artifact.hpp"

namespace simsweep::cli {

namespace {

constexpr const char* kReportUsage =
    "usage: simsweep report summary FILE... [--json]\n"
    "       simsweep report diff A B [--abs-tol=X] [--rel-tol=X]\n"
    "       simsweep report top FILE [--limit=N]\n"
    "       simsweep report validate FILE...\n";

int usage_error(const char* message) {
  std::fprintf(stderr, "simsweep report: %s\n%s", message, kReportUsage);
  return 2;
}

/// Every file is loaded before anything is printed, so a bad file leaves
/// stdout empty instead of a truncated document.
int report_summary(const std::vector<std::string>& files, bool json) {
  std::vector<report::Artifact> artifacts;
  for (const std::string& file : files)
    artifacts.push_back(report::load_artifact(file));
  if (!json) {
    for (const report::Artifact& artifact : artifacts)
      report::print_summary(std::cout, artifact);
    return 0;
  }
  std::cout << "{\"kind\":\"report-summary\",\"artifacts\":[";
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (i != 0) std::cout << ',';
    report::write_summary_json(std::cout, artifacts[i]);
  }
  std::cout << "]}\n";
  return 0;
}

int report_diff(const std::string& path_a, const std::string& path_b,
                const report::DiffOptions& options) {
  const report::Artifact a = report::load_artifact(path_a);
  const report::Artifact b = report::load_artifact(path_b);
  const report::DiffResult result = report::diff_artifacts(a, b, options);
  report::print_diff(std::cout, a, b, result);
  return result.regression() ? 3 : 0;
}

int report_top(const std::string& file, std::size_t limit) {
  const report::Artifact artifact = report::load_artifact(file);
  const auto entries = report::top_entries(artifact, limit);
  std::cout << "top " << entries.size() << " of " << file << " ("
            << report::to_string(artifact.kind) << ")\n";
  for (std::size_t i = 0; i < entries.size(); ++i)
    std::cout << "  " << (i + 1) << ". " << entries[i].label << ": "
              << entries[i].value << " " << entries[i].unit << '\n';
  return 0;
}

/// One "ok <kind> <path>" or "FAIL <path>: <rule>" line per file; exit 1
/// when any file breaks its schema.
int report_validate(const std::vector<std::string>& files) {
  int code = 0;
  for (const std::string& file : files) {
    try {
      const report::Artifact artifact = report::load_artifact(file);
      std::cout << "ok " << report::to_string(artifact.kind) << ' ' << file
                << '\n';
    } catch (const report::ArtifactError& e) {
      std::cout << "FAIL " << e.path() << ": " << e.rule() << '\n';
      code = 1;
    }
  }
  return code;
}

}  // namespace

int cmd_report(Args& args) {
  const bool json = args.get_bool("json");
  report::DiffOptions diff_options;
  diff_options.abs_tol = args.get_double("abs-tol", 0.0);
  diff_options.rel_tol = args.get_double("rel-tol", 0.0);
  if (diff_options.abs_tol < 0.0 || diff_options.rel_tol < 0.0)
    throw std::invalid_argument("report diff: tolerances must be >= 0");
  const long limit = args.get_int("limit", 10);
  if (limit <= 0) throw std::invalid_argument("report top: --limit must be > 0");
  reject_unused(args);

  const auto& positional = args.positional();
  if (positional.empty()) return usage_error("missing subcommand");
  const std::string& sub = positional.front();
  const std::vector<std::string> files(positional.begin() + 1,
                                       positional.end());
  if (sub == "summary") {
    if (files.empty()) return usage_error("summary needs at least one FILE");
    return report_summary(files, json);
  }
  if (sub == "diff") {
    if (files.size() != 2) return usage_error("diff needs exactly A and B");
    return report_diff(files[0], files[1], diff_options);
  }
  if (sub == "top") {
    if (files.size() != 1) return usage_error("top needs exactly one FILE");
    return report_top(files[0], static_cast<std::size_t>(limit));
  }
  if (sub == "validate") {
    if (files.empty()) return usage_error("validate needs at least one FILE");
    return report_validate(files);
  }
  return usage_error(("unknown subcommand '" + sub + "'").c_str());
}

int cmd_status(Args& args) {
  const double stale_after = args.get_double("stale-after", 30.0);
  if (stale_after < 0.0)
    throw std::invalid_argument("status: --stale-after must be >= 0");
  reject_unused(args);
  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: simsweep status FILE [--stale-after=SECONDS]\n");
    return 2;
  }

  const report::Artifact artifact =
      report::load_artifact(args.positional().front());
  if (artifact.kind != report::ArtifactKind::kStatus)
    throw std::runtime_error("status: '" + artifact.path +
                             "' is a " +
                             std::string(report::to_string(artifact.kind)) +
                             " artifact, not a status snapshot");
  report::print_summary(std::cout, artifact);

  const double now_unix_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const double age = report::staleness_s(artifact.status, now_unix_s);
  std::cout << "  heartbeat " << age << " s ago\n";
  if (report::is_stale(artifact.status, now_unix_s, stale_after)) {
    std::cout << "  STALE: run claims to be live but the heartbeat exceeds "
              << stale_after << " s — the writer is dead or wedged\n";
    return 4;
  }
  return 0;
}

}  // namespace simsweep::cli
