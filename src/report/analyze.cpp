#include "report/analyze.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/provenance.hpp"

namespace simsweep::report {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Shortest round-trip text of a double (the emitters' convention), "nan"
/// for non-finite values.
std::string fmt(double value) {
  if (!std::isfinite(value)) return std::isnan(value) ? "nan" : "inf";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "?";
  return std::string(buf, end);
}

using Flat = std::vector<std::pair<std::string, double>>;

void flatten_stats(Flat& out, const std::string& prefix,
                   const core::TrialStats& s) {
  out.emplace_back(prefix + "/mean", s.mean);
  out.emplace_back(prefix + "/stddev", s.stddev);
  out.emplace_back(prefix + "/min", s.min);
  out.emplace_back(prefix + "/max", s.max);
  out.emplace_back(prefix + "/trials", double(s.trials));
  out.emplace_back(prefix + "/unfinished", double(s.unfinished));
  out.emplace_back(prefix + "/stalled", double(s.stalled));
  out.emplace_back(prefix + "/resource_exhausted",
                   double(s.resource_exhausted));
  out.emplace_back(prefix + "/mean_adaptations", s.mean_adaptations);
  out.emplace_back(prefix + "/mean_crashes", s.mean_crashes);
  out.emplace_back(prefix + "/mean_transfer_failures",
                   s.mean_transfer_failures);
  out.emplace_back(prefix + "/mean_recoveries", s.mean_recoveries);
  out.emplace_back(prefix + "/mean_checkpoint_failures",
                   s.mean_checkpoint_failures);
  out.emplace_back(prefix + "/mean_time_lost_s", s.mean_time_lost_s);
  out.emplace_back(prefix + "/audit_violations", double(s.audit_violations));
}

/// Keys where only growth is bad.  Everything else out of tolerance is
/// "changed", which gates just the same — the distinction is for humans.
bool lower_is_better(const std::string& key) {
  const auto contains = [&key](std::string_view needle) {
    return key.find(needle) != std::string::npos;
  };
  return contains("makespan") || contains("time_lost") ||
         contains("/mean") || contains("/stddev") || contains("unfinished") ||
         contains("stalled") || contains("crashes") || contains("failures") ||
         contains("audit_violations") || contains("quarantine");
}

}  // namespace

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kImproved:
      return "improved";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kChanged:
      return "changed";
    case Verdict::kMissing:
      return "missing";
    case Verdict::kAdded:
      return "added";
  }
  return "?";
}

bool DiffResult::regression() const noexcept {
  return std::any_of(deltas.begin(), deltas.end(), [](const KeyDelta& d) {
    return d.verdict == Verdict::kRegressed || d.verdict == Verdict::kChanged ||
           d.verdict == Verdict::kMissing;
  });
}

Flat flatten(const Artifact& artifact) {
  Flat out;
  switch (artifact.kind) {
    case ArtifactKind::kMetrics: {
      const MetricsModel& m = artifact.metrics;
      for (const auto& [name, value] : m.counters)
        out.emplace_back("counters/" + name, double(value));
      for (const auto& [name, g] : m.gauges) {
        out.emplace_back("gauges/" + name + "/last", g.last);
        out.emplace_back("gauges/" + name + "/min", g.min);
        out.emplace_back("gauges/" + name + "/max", g.max);
      }
      for (const auto& [name, h] : m.histograms) {
        out.emplace_back("histograms/" + name + "/count", double(h.count));
        out.emplace_back("histograms/" + name + "/sum", h.sum);
        out.emplace_back("histograms/" + name + "/min", h.min);
        out.emplace_back("histograms/" + name + "/max", h.max);
        for (std::size_t i = 0; i < h.counts.size(); ++i)
          out.emplace_back(
              "histograms/" + name + "/bucket" + std::to_string(i),
              double(h.counts[i]));
      }
      break;
    }
    case ArtifactKind::kSeries: {
      const SeriesModel& m = artifact.series;
      for (const SeriesModel::Series& s : m.series) {
        for (std::size_t i = 0; i < s.makespan.size(); ++i) {
          const std::string x =
              i < m.x.size() ? fmt(m.x[i]) : std::to_string(i);
          out.emplace_back("series/" + s.name + "/x=" + x + "/makespan",
                           s.makespan[i]);
          if (i < s.adaptations.size())
            out.emplace_back("series/" + s.name + "/x=" + x + "/adaptations",
                             s.adaptations[i]);
        }
      }
      break;
    }
    case ArtifactKind::kJournal: {
      const JournalModel& m = artifact.journal;
      out.emplace_back("journal/cells_total", double(m.cells_total));
      out.emplace_back("journal/trials", double(m.trials));
      out.emplace_back("journal/points", double(m.points));
      for (const JournalModel::Cell& cell : m.cells)
        flatten_stats(out, "cells/" + std::to_string(cell.index), cell.stats);
      break;
    }
    case ArtifactKind::kQuarantine: {
      const QuarantineModel& m = artifact.quarantine;
      out.emplace_back("quarantine/count", double(m.records.size()));
      for (const QuarantineModel::Record& r : m.records)
        out.emplace_back("quarantine/cell" + std::to_string(r.index),
                         double(r.attempts));
      break;
    }
    case ArtifactKind::kProfile:
      // Wall-clock durations are excluded by design; only structure stays.
      out.emplace_back("profile/tasks", double(artifact.profile.tasks));
      out.emplace_back("profile/workers",
                       double(artifact.profile.workers.size()));
      break;
    case ArtifactKind::kStatus: {
      const StatusModel& m = artifact.status;
      out.emplace_back("status/cells_total", double(m.cells_total));
      out.emplace_back("status/done", double(m.cells_done));
      out.emplace_back("status/quarantined", double(m.quarantined));
      for (const StatusModel::Group& g : m.groups) {
        out.emplace_back("status/group/" + g.name + "/done", double(g.done));
        out.emplace_back("status/group/" + g.name + "/total",
                         double(g.total));
      }
      break;
    }
    case ArtifactKind::kTimeline:
      out.emplace_back("timeline/events", double(artifact.timeline.events));
      out.emplace_back("timeline/processes",
                       double(artifact.timeline.processes));
      break;
    case ArtifactKind::kStats:
      flatten_stats(out, "stats", artifact.stats);
      break;
  }
  return out;
}

DiffResult diff_artifacts(const Artifact& a, const Artifact& b,
                          const DiffOptions& options) {
  if (a.kind != b.kind)
    throw std::invalid_argument(
        "report diff: artifact kinds differ (" + std::string(to_string(a.kind)) +
        " vs " + std::string(to_string(b.kind)) + ")");
  const Flat flat_a = flatten(a);
  const Flat flat_b = flatten(b);
  std::map<std::string, double> map_b(flat_b.begin(), flat_b.end());
  std::map<std::string, double> map_a(flat_a.begin(), flat_a.end());

  DiffResult result;
  const auto within = [&options](double va, double vb) {
    const double delta = std::fabs(vb - va);
    return delta <= options.abs_tol ||
           delta <= options.rel_tol * std::max(std::fabs(va), std::fabs(vb));
  };
  for (const auto& [key, va] : flat_a) {
    const auto it = map_b.find(key);
    if (it == map_b.end()) {
      result.deltas.push_back({key, va, kNaN, Verdict::kMissing});
      continue;
    }
    const double vb = it->second;
    ++result.compared;
    const bool nan_a = std::isnan(va);
    const bool nan_b = std::isnan(vb);
    if (nan_a && nan_b) {
      ++result.within_tol;  // a quarantined cell that stayed quarantined
      continue;
    }
    if (nan_a != nan_b) {
      result.deltas.push_back({key, va, vb, Verdict::kRegressed});
      continue;
    }
    if (within(va, vb)) {
      ++result.within_tol;
      continue;
    }
    Verdict verdict = Verdict::kChanged;
    if (lower_is_better(key))
      verdict = vb > va ? Verdict::kRegressed : Verdict::kImproved;
    result.deltas.push_back({key, va, vb, verdict});
  }
  for (const auto& [key, vb] : flat_b)
    if (map_a.find(key) == map_a.end())
      result.deltas.push_back({key, kNaN, vb, Verdict::kAdded});
  return result;
}

void print_diff(std::ostream& os, const Artifact& a, const Artifact& b,
                const DiffResult& result) {
  os << "diff " << a.path << " vs " << b.path << " ("
     << to_string(a.kind) << ")\n";
  if (a.meta && b.meta && a.meta->config_digest != b.meta->config_digest)
    os << "note: config digests differ (" << a.meta->config_digest << " vs "
       << b.meta->config_digest << ") — comparing different experiments\n";
  const bool partial_a = a.meta && a.meta->partial;
  if (partial_a || (b.meta && b.meta->partial))
    os << "note: " << (partial_a ? "A" : "B")
       << " is a partial artifact — an interrupted run flushed what it had\n";
  std::size_t gating = 0;
  for (const KeyDelta& d : result.deltas) {
    os << to_string(d.verdict) << "  " << d.key << "  " << fmt(d.a) << " -> "
       << fmt(d.b);
    if (!std::isnan(d.a) && !std::isnan(d.b))
      os << "  (delta " << fmt(d.b - d.a) << ")";
    os << '\n';
    if (d.verdict == Verdict::kRegressed || d.verdict == Verdict::kChanged ||
        d.verdict == Verdict::kMissing)
      ++gating;
  }
  os << "compared " << result.compared << " key(s): " << result.within_tol
     << " within tolerance, " << result.deltas.size() << " delta(s), "
     << gating << " gating\n";
  os << (result.regression() ? "verdict: REGRESSION\n" : "verdict: ok\n");
}

void print_summary(std::ostream& os, const Artifact& artifact) {
  os << artifact.path << ": " << to_string(artifact.kind);
  if (artifact.meta) {
    os << " (seed " << artifact.meta->seed << ", config "
       << artifact.meta->config_digest
       << (artifact.meta->partial ? ", PARTIAL" : "") << ")";
  }
  os << '\n';
  switch (artifact.kind) {
    case ArtifactKind::kMetrics: {
      const MetricsModel& m = artifact.metrics;
      os << "  " << m.counters.size() << " counter(s), " << m.gauges.size()
         << " gauge(s), " << m.histograms.size() << " histogram(s)\n";
      for (const auto& [name, value] : m.counters)
        os << "  counter " << name << " = " << value << '\n';
      break;
    }
    case ArtifactKind::kTimeline:
      os << "  " << artifact.timeline.events << " event(s) across "
         << artifact.timeline.processes << " process(es), span "
         << fmt(artifact.timeline.span_us) << " us\n";
      break;
    case ArtifactKind::kProfile: {
      const ProfileModel& m = artifact.profile;
      os << "  " << m.tasks << " task(s) in " << fmt(m.wall_s)
         << " s wall; task mean " << fmt(m.mean_task_s) << " s in ["
         << fmt(m.min_task_s) << ", " << fmt(m.max_task_s) << "]\n";
      for (const ProfileModel::Worker& w : m.workers)
        os << "  worker " << w.worker << ": " << w.tasks << " task(s), busy "
           << fmt(w.busy_s) << " s (" << fmt(w.utilization * 100.0) << "%)\n";
      break;
    }
    case ArtifactKind::kJournal: {
      const JournalModel& m = artifact.journal;
      os << "  scenario " << m.scenario << " v" << m.version << ": "
         << m.cells.size() << "/" << m.cells_total << " cell(s) recorded, "
         << m.trials << " trial(s)/cell, " << m.points << " point(s)\n";
      break;
    }
    case ArtifactKind::kQuarantine: {
      os << "  " << artifact.quarantine.records.size()
         << " quarantined cell(s)\n";
      for (const QuarantineModel::Record& r : artifact.quarantine.records)
        os << "  cell " << r.index << " (" << r.label << "): " << r.outcome
           << " after " << r.attempts << " attempt(s)\n";
      break;
    }
    case ArtifactKind::kStatus: {
      const StatusModel& m = artifact.status;
      os << "  scenario " << m.scenario << ": " << m.state << ", "
         << m.cells_done << "/" << m.cells_total << " cell(s) ("
         << fmt(m.percent) << "%), " << m.retries << " retr"
         << (m.retries == 1 ? "y" : "ies") << ", " << m.quarantined
         << " quarantined\n";
      os << "  elapsed " << fmt(m.elapsed_s) << " s, eta " << fmt(m.eta_s)
         << " s (ewma cell " << fmt(m.ewma_cell_s) << " s, jobs " << m.jobs
         << ")\n";
      for (const StatusModel::Group& g : m.groups)
        os << "  " << g.name << ": " << g.done << "/" << g.total << '\n';
      break;
    }
    case ArtifactKind::kSeries: {
      const SeriesModel& m = artifact.series;
      os << "  " << m.title << ": " << m.series.size() << " series over "
         << m.x.size() << " point(s) of " << m.x_label << '\n';
      break;
    }
    case ArtifactKind::kStats: {
      const core::TrialStats& s = artifact.stats;
      os << "  " << s.trials << " trial(s): makespan mean " << fmt(s.mean)
         << " s (stddev " << fmt(s.stddev) << "), " << s.unfinished
         << " unfinished, " << fmt(s.mean_adaptations)
         << " adaptation(s) per run\n";
      break;
    }
  }
}

void write_summary_json(std::ostream& os, const Artifact& artifact) {
  os << "{\"kind\":";
  obs::write_json_string(os, to_string(artifact.kind));
  os << ",\"path\":";
  obs::write_json_string(os, artifact.path);
  os << ",\"meta\":";
  if (artifact.meta)
    artifact.meta->write_json(os);
  else
    os << "null";
  os << ",\"values\":{";
  bool first = true;
  for (const auto& [key, value] : flatten(artifact)) {
    if (!first) os << ',';
    first = false;
    obs::write_json_string(os, key);
    os << ':';
    obs::write_json_number(os, value);
  }
  os << "}}";
}

std::vector<TopEntry> top_entries(const Artifact& artifact,
                                  std::size_t limit) {
  std::vector<TopEntry> entries;
  switch (artifact.kind) {
    case ArtifactKind::kJournal:
      for (const JournalModel::Cell& cell : artifact.journal.cells)
        entries.push_back(
            {"cell " + std::to_string(cell.index) + " (" + cell.label + ")",
             cell.stats.mean, "s simulated makespan"});
      break;
    case ArtifactKind::kMetrics:
      for (const auto& [name, h] : artifact.metrics.histograms) {
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          if (h.counts[i] == 0) continue;
          const std::string lo = i == 0 ? "-inf" : fmt(h.bounds[i - 1]);
          const std::string hi =
              i < h.bounds.size() ? fmt(h.bounds[i]) : "+inf";
          entries.push_back({name + " [" + lo + ", " + hi + ")",
                             double(h.counts[i]), "sample(s)"});
        }
      }
      break;
    case ArtifactKind::kProfile:
      for (const ProfileModel::Worker& w : artifact.profile.workers)
        entries.push_back({"worker " + std::to_string(w.worker), w.busy_s,
                           "s busy"});
      break;
    case ArtifactKind::kStatus:
      for (const ProfileModel::Worker& w : artifact.status.workers)
        entries.push_back({"worker " + std::to_string(w.worker), w.busy_s,
                           "s busy"});
      if (entries.empty())
        throw std::invalid_argument(
            "report top: status snapshot has no worker data (run with "
            "--profile or --profile-json to embed it)");
      break;
    default:
      throw std::invalid_argument(
          "report top: nothing to rank in a " +
          std::string(to_string(artifact.kind)) + " artifact");
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TopEntry& a, const TopEntry& b) {
                     // NaN sinks to the bottom.
                     if (std::isnan(a.value)) return false;
                     if (std::isnan(b.value)) return true;
                     return a.value > b.value;
                   });
  if (entries.size() > limit) entries.resize(limit);
  return entries;
}

double staleness_s(const StatusModel& status, double now_unix_s) {
  return now_unix_s - status.heartbeat_unix_s;
}

bool is_stale(const StatusModel& status, double now_unix_s,
              double threshold_s) {
  return status.state == "running" &&
         staleness_s(status, now_unix_s) > threshold_s;
}

}  // namespace simsweep::report
