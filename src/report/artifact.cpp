#include "report/artifact.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "resilience/json_read.hpp"

namespace simsweep::report {

namespace {

using resilience::JsonValue;
using JsonKind = JsonValue::Kind;
using Keys = std::vector<std::string_view>;

/// A schema rule the document breaks; load_artifact adds the path.
class RuleViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& rule) { throw RuleViolation(rule); }

// Typed reads of one value; `what` names it in the rule text.

std::size_t count(const JsonValue& v, const std::string& what) {
  if (const auto out = v.to_uint64()) return static_cast<std::size_t>(*out);
  fail(what + " must be a non-negative integer");
}

double number(const JsonValue& v, const std::string& what) {
  if (v.kind != JsonKind::kNumber) fail(what + " must be a number");
  return v.as_double();
}

std::string key_list(const Keys& keys, const Keys& optional = {}) {
  std::string out = "[";
  for (const std::string_view key : keys) {
    out += (out.size() > 1 ? ", " : "") + std::string(key);
    if (std::find(optional.begin(), optional.end(), key) != optional.end())
      out += '?';
  }
  return out + "]";
}

/// One JSON object whose keys must be exactly `keys`, in emission order
/// (those also in `optional` may be absent), read member by member.  Rule
/// text reads "<where> <rule>" or "<where> <key> <rule>".
class Obj {
 public:
  Obj(const JsonValue& v, std::string name, const Keys& keys,
      const Keys& optional = {})
      : v_(v), where_(std::move(name)) {
    if (v.kind != JsonKind::kObject) fail("is not an object");
    Keys found;
    for (const auto& member : v.object) found.emplace_back(member.first);
    Keys want;
    for (const std::string_view key : keys)
      if (v.find(key) != nullptr ||
          std::find(optional.begin(), optional.end(), key) == optional.end())
        want.push_back(key);
    if (found != want)
      fail("keys " + key_list(found) + " != " + key_list(keys, optional));
  }

  [[noreturn]] void fail(const std::string& rule) const {
    report::fail(where_ + " " + rule);
  }
  [[nodiscard]] std::string where(std::string_view key) const {
    return where_ + " " + std::string(key);
  }
  [[nodiscard]] const JsonValue& at(std::string_view key) const {
    return v_.at(key);
  }
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    return v_.find(key);
  }

  [[nodiscard]] std::size_t count(std::string_view key) const {
    return report::count(at(key), where(key));
  }
  [[nodiscard]] double number(std::string_view key) const {
    return report::number(at(key), where(key));
  }
  [[nodiscard]] double non_negative(std::string_view key) const {
    const double out = number(key);
    if (out < 0.0) fail(std::string(key) + " must be a non-negative number");
    return out;
  }
  /// The emitters write non-finite doubles as JSON null; they read as NaN.
  [[nodiscard]] double number_or_null(std::string_view key) const {
    return at(key).is_null() ? std::numeric_limits<double>::quiet_NaN()
                             : number(key);
  }
  [[nodiscard]] const std::string& text(std::string_view key) const {
    const JsonValue& v = at(key);
    if (v.kind != JsonKind::kString)
      fail(std::string(key) + " must be a string");
    return v.string;
  }
  [[nodiscard]] const std::string& nonempty(std::string_view key) const {
    const std::string& out = text(key);
    if (out.empty()) fail(std::string(key) + " must be a non-empty string");
    return out;
  }
  /// config_digest / hex64 output: 16 lowercase hex characters.
  [[nodiscard]] const std::string& digest(std::string_view key) const {
    const std::string& out = text(key);
    if (out.size() != 16 ||
        out.find_first_not_of("0123456789abcdef") != std::string::npos)
      fail(std::string(key) + " must be 16 lowercase hex chars");
    return out;
  }
  [[nodiscard]] const std::vector<JsonValue>& list(std::string_view key) const {
    const JsonValue& v = at(key);
    if (v.kind != JsonKind::kArray) fail(std::string(key) + " is not a list");
    return v.array;
  }

 private:
  const JsonValue& v_;
  std::string where_;
};

/// Map-shaped sections (metrics names) emit in std::map order: strictly
/// increasing keys, which also rules out duplicates.
const JsonValue& sorted_object(const Obj& parent, std::string_view key) {
  const JsonValue& v = parent.at(key);
  if (v.kind != JsonKind::kObject)
    parent.fail(std::string(key) + " is not an object");
  for (std::size_t i = 1; i < v.object.size(); ++i)
    if (!(v.object[i - 1].first < v.object[i].first))
      parent.fail(std::string(key) + " keys not sorted");
  return v;
}

using Meta = std::optional<obs::Provenance>;

obs::Provenance parse_meta(const JsonValue& v, const std::string& kind) {
  // "partial" appears only on artifacts from an interrupted run, and only as
  // the literal true — complete artifacts omit it byte-for-byte.
  const Obj m(v, kind + ": meta",
              {"version", "build_type", "seed", "config_digest", "partial"},
              {"partial"});
  obs::Provenance meta;
  meta.version = m.nonempty("version");
  meta.build_type = m.text("build_type");
  meta.seed = m.count("seed");
  meta.config_digest = m.digest("config_digest");
  if (const JsonValue* partial = m.find("partial")) {
    if (partial->kind != JsonKind::kBool || !partial->boolean)
      m.fail("partial must be the literal true when present");
    meta.partial = true;
  }
  return meta;
}

/// The metrics body.  A file artifact leads with a "meta" block; a snapshot
/// embedded in a journal record carries none.
MetricsModel parse_metrics(const JsonValue& v, const std::string& where,
                           Meta* meta) {
  Keys keys = {"meta", "counters", "gauges", "histograms"};
  if (meta == nullptr) keys.erase(keys.begin());
  const Obj doc(v, where, keys);
  if (meta != nullptr) *meta = parse_meta(doc.at("meta"), "metrics");
  MetricsModel model;
  for (const auto& [name, value] : sorted_object(doc, "counters").object)
    model.counters[name] = count(value, where + " counter '" + name + "'");
  for (const auto& [name, value] : sorted_object(doc, "gauges").object) {
    const Obj g(value, where + " gauge '" + name + "'", {"last", "min", "max"});
    const obs::Gauge::Snapshot snap{g.number("last"), g.number("min"),
                                    g.number("max")};
    if (!(snap.min <= snap.max)) g.fail("has min > max");
    if (!(snap.min <= snap.last && snap.last <= snap.max))
      g.fail("last outside [min, max]");
    model.gauges[name] = snap;
  }
  for (const auto& [name, value] : sorted_object(doc, "histograms").object) {
    const Obj h(value, where + " histogram '" + name + "'",
                {"count", "sum", "min", "max", "bounds", "counts"});
    obs::Histogram::Snapshot snap;
    snap.count = h.count("count");
    snap.sum = h.number("sum");
    snap.min = h.number("min");
    snap.max = h.number("max");
    for (const JsonValue& b : h.list("bounds"))
      snap.bounds.push_back(number(b, h.where("bound")));
    std::uint64_t total = 0;
    for (const JsonValue& c : h.list("counts"))
      total += snap.counts.emplace_back(count(c, h.where("bucket count")));
    if (!std::is_sorted(snap.bounds.begin(), snap.bounds.end()))
      h.fail("bounds not sorted");
    if (snap.counts.size() != snap.bounds.size() + 1)
      h.fail("has " + std::to_string(snap.counts.size()) + " counts for " +
             std::to_string(snap.bounds.size()) +
             " bounds (want bounds+1, overflow bucket last)");
    if (total != snap.count) h.fail("bucket counts do not sum to count");
    if (snap.count > 0 && !(snap.min <= snap.max)) h.fail("has min > max");
    model.histograms[name] = std::move(snap);
  }
  return model;
}

/// Event-dense runs write millions of timeline events, so their rule text
/// is only built on failure.
[[noreturn]] void bad_event(std::size_t i, const std::string& rule) {
  fail("timeline: traceEvents[" + std::to_string(i) + "] " + rule);
}

TimelineModel parse_timeline(const JsonValue& v, Meta& meta) {
  const Obj doc(v, "timeline:",
                {"displayTimeUnit", "otherData", "traceEvents"});
  if (doc.text("displayTimeUnit") != "ms") doc.fail("displayTimeUnit != 'ms'");
  const Obj other(doc.at("otherData"), "timeline: otherData", {"meta"});
  meta = parse_meta(other.at("meta"), "timeline");
  // No event at all is valid: a sweep interrupted before its first cell, or
  // one whose every cell was quarantined, has nothing to trace.
  const auto& events = doc.list("traceEvents");

  TimelineModel model;
  std::set<std::uint64_t> pids;
  std::set<std::uint64_t> named;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& ev = events[i];
    if (ev.kind != JsonKind::kObject) bad_event(i, "is not an object");
    const JsonValue* ph = ev.find("ph");
    const std::string_view phase =
        ph != nullptr && ph->kind == JsonKind::kString
            ? std::string_view(ph->string)
            : std::string_view();
    if (phase != "M" && phase != "X" && phase != "i")
      bad_event(i, "has unknown phase '" + std::string(phase) + "'");
    const JsonValue* pid_value = ev.find("pid");
    const std::uint64_t pid =
        pid_value != nullptr ? pid_value->to_uint64().value_or(0) : 0;
    if (pid < 1) bad_event(i, "pid must be an integer >= 1");
    pids.insert(pid);
    const JsonValue* name = ev.find("name");
    const std::string_view label =
        name != nullptr && name->kind == JsonKind::kString
            ? std::string_view(name->string)
            : std::string_view();
    if (phase == "M") {
      if (label != "process_name" && label != "thread_name")
        bad_event(i, "metadata name must be process_name or thread_name");
      if (label == "process_name") named.insert(pid);
      continue;
    }
    if (label.empty()) bad_event(i, "name must be a non-empty string");
    const JsonValue* ts = ev.find("ts");
    if (ts == nullptr || ts->kind != JsonKind::kNumber || ts->as_double() < 0.0)
      bad_event(i, "ts must be a non-negative number");
    if (phase == "X") {
      const JsonValue* dur = ev.find("dur");
      if (dur == nullptr || dur->kind != JsonKind::kNumber ||
          dur->as_double() < 0.0)
        bad_event(i, "dur must be a non-negative number");
      model.span_us =
          std::max(model.span_us, ts->as_double() + dur->as_double());
    }
  }
  for (const std::uint64_t pid : pids)
    if (named.count(pid) == 0)
      doc.fail("pid " + std::to_string(pid) + " has no process_name");
  model.events = events.size();
  model.processes = pids.size();
  return model;
}

/// Profile workers carry their index; the status snapshot's do not.
std::vector<ProfileModel::Worker> parse_workers(const Obj& parent,
                                                const std::string& kind,
                                                bool indexed) {
  std::vector<ProfileModel::Worker> out;
  const auto& entries = parent.list("workers");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Keys keys = {"worker", "tasks", "busy_s", "utilization"};
    if (!indexed) keys.erase(keys.begin());
    const Obj w(entries[i], kind + ": workers[" + std::to_string(i) + "]",
                keys);
    const ProfileModel::Worker worker{
        indexed ? w.count("worker") : i, w.count("tasks"),
        w.non_negative("busy_s"), w.number("utilization")};
    if (worker.worker != i) w.fail("worker index != " + std::to_string(i));
    if (!(worker.utilization >= 0.0 && worker.utilization <= 1.0))
      w.fail("utilization outside [0, 1]");
    out.push_back(worker);
  }
  return out;
}

ProfileModel parse_profile(const JsonValue& v, Meta& meta) {
  const Obj doc(v, "profile:",
                {"meta", "tasks", "wall_s", "mean_task_s", "min_task_s",
                 "max_task_s", "mean_queue_wait_s", "max_queue_wait_s",
                 "workers"});
  meta = parse_meta(doc.at("meta"), "profile");
  ProfileModel model;
  model.tasks = doc.count("tasks");
  model.wall_s = doc.non_negative("wall_s");
  model.mean_task_s = doc.non_negative("mean_task_s");
  model.min_task_s = doc.non_negative("min_task_s");
  model.max_task_s = doc.non_negative("max_task_s");
  model.mean_queue_wait_s = doc.non_negative("mean_queue_wait_s");
  model.max_queue_wait_s = doc.non_negative("max_queue_wait_s");
  model.workers = parse_workers(doc, "profile", /*indexed=*/true);
  std::size_t worker_tasks = 0;
  for (const ProfileModel::Worker& w : model.workers) worker_tasks += w.tasks;
  if (worker_tasks != model.tasks)
    doc.fail("worker task counts do not sum to tasks");
  return model;
}

bool is_outcome(const std::string& outcome, bool allow_ok) {
  return (allow_ok && outcome == "ok") || outcome == "hung" ||
         outcome == "crashed" || outcome == "audit-failed";
}

QuarantineModel parse_quarantine(const JsonValue& v, Meta& meta) {
  const Obj doc(v, "quarantine:", {"meta", "quarantined"});
  meta = parse_meta(doc.at("meta"), "quarantine");
  QuarantineModel model;
  const auto& records = doc.list("quarantined");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Obj r(records[i],
                "quarantine: quarantined[" + std::to_string(i) + "]",
                {"index", "key", "seed", "trials", "label", "outcome",
                 "attempts", "error"});
    QuarantineModel::Record record;
    record.index = r.count("index");
    if (!model.records.empty() && record.index <= model.records.back().index)
      r.fail("records not in strictly increasing index order");
    record.key = r.digest("key");
    record.seed = r.count("seed");
    record.trials = r.count("trials");
    record.label = r.text("label");
    record.outcome = r.text("outcome");
    if (!is_outcome(record.outcome, /*allow_ok=*/false))
      r.fail("outcome '" + record.outcome + "' not a failure kind");
    record.attempts = r.count("attempts");
    if (record.attempts < 1) r.fail("attempts must be >= 1");
    record.error = r.text("error");
    model.records.push_back(std::move(record));
  }
  return model;
}

StatusModel parse_status(const JsonValue& v, Meta& meta) {
  const Obj doc(v, "status:",
                {"kind", "meta", "scenario", "state", "heartbeat_unix_s",
                 "elapsed_s", "heartbeat_s", "jobs", "trials", "cells",
                 "groups", "eta", "workers"},
                {"workers"});
  const obs::Provenance& prov =
      meta.emplace(parse_meta(doc.at("meta"), "status"));
  StatusModel model;
  model.scenario = doc.nonempty("scenario");
  model.state = doc.text("state");
  if (model.state != "running" && model.state != "done" &&
      model.state != "interrupted")
    doc.fail("state '" + model.state + "' not in [done, interrupted, running]");
  // Anything short of "done" is a partial view of the run.
  if ((model.state != "done") != prov.partial)
    doc.fail("state '" + model.state + "' inconsistent with meta.partial");
  model.heartbeat_unix_s = doc.non_negative("heartbeat_unix_s");
  model.elapsed_s = doc.non_negative("elapsed_s");
  model.heartbeat_s = doc.non_negative("heartbeat_s");
  model.jobs = doc.count("jobs");
  model.trials = doc.count("trials");
  if (model.jobs < 1 || model.trials < 1)
    doc.fail("jobs and trials must be positive integers");

  const Obj cells(doc.at("cells"), "status: cells",
                  {"total", "done", "reused", "executed", "in_flight",
                   "retries", "quarantined"});
  model.cells_total = cells.count("total");
  model.cells_done = cells.count("done");
  model.cells_reused = cells.count("reused");
  model.cells_executed = cells.count("executed");
  model.cells_in_flight = cells.count("in_flight");
  model.retries = cells.count("retries");
  model.quarantined = cells.count("quarantined");
  if (model.cells_done > model.cells_total) doc.fail("done > total");
  if (model.cells_done !=
      model.cells_reused + model.cells_executed + model.quarantined)
    doc.fail("done != reused + executed + quarantined");
  if (model.state == "done" && model.cells_in_flight != 0)
    doc.fail("done with cells in flight");

  std::size_t group_done = 0;
  std::size_t group_total = 0;
  const auto& groups = doc.list("groups");
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const Obj g(groups[i], "status: groups[" + std::to_string(i) + "]",
                {"name", "done", "total"});
    StatusModel::Group group{g.nonempty("name"), g.count("done"),
                             g.count("total")};
    if (group.done > group.total) g.fail("done outside [0, total]");
    group_done += group.done;
    group_total += group.total;
    model.groups.push_back(std::move(group));
  }
  if (!model.groups.empty() && group_total != model.cells_total)
    doc.fail("group totals do not sum to cells.total");
  if (!model.groups.empty() && group_done != model.cells_done)
    doc.fail("group done counts do not sum to cells.done");

  const Obj eta(doc.at("eta"), "status: eta",
                {"ewma_cell_s", "eta_s", "percent"});
  model.ewma_cell_s = eta.non_negative("ewma_cell_s");
  model.eta_s = eta.non_negative("eta_s");
  model.percent = eta.number("percent");
  if (!(model.percent >= 0.0 && model.percent <= 100.0))
    eta.fail("percent outside [0, 100]");
  // Present (possibly empty, before the profiler records its first task)
  // exactly when the sweep runs with --profile-json.
  if (doc.find("workers") != nullptr)
    model.workers = parse_workers(doc, "status", /*indexed=*/false);
  return model;
}

SeriesModel parse_series(const JsonValue& v, Meta& meta) {
  const Obj doc(v, "series:", {"meta", "title", "x_label", "x", "series"});
  meta = parse_meta(doc.at("meta"), "series");
  SeriesModel model;
  model.title = doc.text("title");
  model.x_label = doc.text("x_label");
  for (const JsonValue& x : doc.list("x"))
    model.x.push_back(number(x, doc.where("x entry")));
  const auto& entries = doc.list("series");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Obj s(entries[i], "series: series[" + std::to_string(i) + "]",
                {"name", "mean_makespan_s", "mean_adaptations"});
    SeriesModel::Series series;
    series.name = s.text("name");
    const auto column = [&](const char* key, std::vector<double>& out) {
      for (const JsonValue& y : s.list(key))
        out.push_back(y.is_null() ? std::numeric_limits<double>::quiet_NaN()
                                  : number(y, s.where(key)));
      if (out.size() != model.x.size())
        s.fail(std::string(key) + " has " + std::to_string(out.size()) +
               " entries for " + std::to_string(model.x.size()) + " x points");
    };
    column("mean_makespan_s", series.makespan);
    column("mean_adaptations", series.adaptations);
    model.series.push_back(std::move(series));
  }
  return model;
}

/// A TrialStats::print_json object: a `run --json` document (with "meta")
/// or a journal record's "stats" (without).
core::TrialStats parse_stats(const JsonValue& v, const std::string& where,
                             Meta* meta) {
  Keys keys = {"meta", "mean", "stddev", "min", "max", "trials", "unfinished",
               "stalled", "resource_exhausted", "mean_adaptations",
               "mean_crashes", "mean_transfer_failures", "mean_recoveries",
               "mean_checkpoint_failures", "mean_time_lost_s",
               "audit_violations"};
  if (meta == nullptr) keys.erase(keys.begin());
  const Obj o(v, where, keys);
  if (meta != nullptr) *meta = parse_meta(o.at("meta"), "stats");
  core::TrialStats s;
  s.mean = o.number_or_null("mean");
  s.stddev = o.number_or_null("stddev");
  s.min = o.number_or_null("min");
  s.max = o.number_or_null("max");
  s.trials = o.count("trials");
  s.unfinished = o.count("unfinished");
  s.stalled = o.count("stalled");
  s.resource_exhausted = o.count("resource_exhausted");
  s.mean_adaptations = o.number_or_null("mean_adaptations");
  s.mean_crashes = o.number_or_null("mean_crashes");
  s.mean_transfer_failures = o.number_or_null("mean_transfer_failures");
  s.mean_recoveries = o.number_or_null("mean_recoveries");
  s.mean_checkpoint_failures = o.number_or_null("mean_checkpoint_failures");
  s.mean_time_lost_s = o.number_or_null("mean_time_lost_s");
  s.audit_violations = o.count("audit_violations");
  if (!(s.resource_exhausted <= s.stalled && s.stalled <= s.unfinished &&
        s.unfinished <= s.trials))
    o.fail("needs resource_exhausted <= stalled <= unfinished <= trials");
  return s;
}

JournalModel parse_journal(const std::string& text) {
  // One record per line.  A malformed *final* line is a torn write that was
  // never durable (the atomic-rename writer only leaves one when someone
  // else appended to the file) and is ignored, as --resume always ignored
  // it; a malformed line with more lines after it is corruption.
  struct Line {
    std::size_t number;
    std::string_view raw;
    JsonValue value;
  };
  std::vector<Line> lines;
  std::size_t start = 0;
  for (std::size_t number = 1; start < text.size(); ++number) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view raw(text.data() + start, end - start);
    start = end + 1;
    if (raw.empty()) continue;
    try {
      lines.push_back({number, raw, resilience::parse_json(raw)});
    } catch (const resilience::JsonError& e) {
      if (start >= text.size()) break;
      fail("journal: line " + std::to_string(number) + ": " + e.what());
    }
  }
  if (lines.empty()) fail("journal: file is empty");
  const Obj header(lines.front().value, "journal: header",
                   {"kind", "version", "scenario", "sweep", "seed", "trials",
                    "points", "cells"});
  if (header.text("kind") != "sweep-journal")
    header.fail("kind is not sweep-journal");
  JournalModel model;
  model.version = header.count("version");
  if (model.version < 2) header.fail("version must be >= 2");
  model.scenario = header.nonempty("scenario");
  model.sweep_digest = header.digest("sweep");
  model.seed = header.count("seed");
  model.trials = header.count("trials");
  model.points = header.count("points");
  model.cells_total = header.count("cells");
  if (model.cells_total < 1) header.fail("cells must be a positive integer");

  // Every record is checked; the last one per index wins — the exact rule
  // the resume path applies (a re-executed cell appends a fresh record).
  std::map<std::size_t, JournalModel::Cell> by_index;
  for (std::size_t r = 1; r < lines.size(); ++r) {
    const Obj rec(lines[r].value,
                  "journal: line " + std::to_string(lines[r].number) + ":",
                  {"kind", "index", "key", "seed", "trials", "label", "outcome",
                   "stats", "metrics", "timeline"},
                  {"metrics", "timeline"});
    if (rec.text("kind") != "cell") rec.fail("not a cell record");
    JournalModel::Cell cell;
    cell.index = rec.count("index");
    if (cell.index >= model.cells_total)
      rec.fail("index outside [0, " + std::to_string(model.cells_total) + ")");
    cell.key = rec.digest("key");
    if (rec.count("seed") != model.seed) rec.fail("seed differs from header");
    if (rec.count("trials") != model.trials)
      rec.fail("trials differs from header");
    cell.label = rec.text("label");
    cell.outcome = rec.text("outcome");
    if (!is_outcome(cell.outcome, /*allow_ok=*/true))
      rec.fail("unknown outcome '" + cell.outcome + "'");
    cell.stats = parse_stats(rec.at("stats"), rec.where("stats"), nullptr);
    if (rec.find("metrics") != nullptr) {
      JsonValue snapshot;
      try {
        snapshot = resilience::parse_json(rec.nonempty("metrics"));
      } catch (const resilience::JsonError& e) {
        rec.fail(std::string("metrics: ") + e.what());
      }
      cell.metrics = parse_metrics(snapshot, rec.where("metrics:"), nullptr);
    }
    if (rec.find("timeline") != nullptr)
      cell.timeline = rec.nonempty("timeline");
    cell.raw = std::string(lines[r].raw);
    by_index[cell.index] = std::move(cell);
  }
  for (auto& entry : by_index) model.cells.push_back(std::move(entry.second));
  return model;
}

bool is_journal_header(const std::string& first_line) {
  try {
    const JsonValue header = resilience::parse_json(first_line);
    const JsonValue* kind =
        header.kind == JsonKind::kObject ? header.find("kind") : nullptr;
    return kind != nullptr && kind->kind == JsonKind::kString &&
           kind->string == "sweep-journal";
  } catch (const resilience::JsonError&) {
    return false;
  }
}

void load_document(const std::string& text, Artifact& artifact) {
  // A journal is JSONL: sniff its header from the first line so a
  // multi-line file never reaches the single-document parser.
  if (is_journal_header(text.substr(0, text.find('\n')))) {
    artifact.kind = ArtifactKind::kJournal;
    artifact.journal = parse_journal(text);
    return;
  }
  JsonValue doc;
  try {
    doc = resilience::parse_json(text);
  } catch (const resilience::JsonError& e) {
    fail(std::string("invalid JSON: ") + e.what());
  }
  const auto has = [&doc](std::string_view key) {
    return doc.kind == JsonKind::kObject && doc.find(key) != nullptr;
  };
  Meta& meta = artifact.meta;
  if (has("kind") && doc.at("kind").kind == JsonKind::kString &&
      doc.at("kind").string == "sweep-status") {
    artifact.kind = ArtifactKind::kStatus;
    artifact.status = parse_status(doc, meta);
  } else if (has("counters") && has("histograms")) {
    artifact.kind = ArtifactKind::kMetrics;
    artifact.metrics = parse_metrics(doc, "metrics:", &meta);
  } else if (has("traceEvents")) {
    artifact.kind = ArtifactKind::kTimeline;
    artifact.timeline = parse_timeline(doc, meta);
  } else if (has("quarantined")) {
    artifact.kind = ArtifactKind::kQuarantine;
    artifact.quarantine = parse_quarantine(doc, meta);
  } else if (has("tasks") && has("workers")) {
    artifact.kind = ArtifactKind::kProfile;
    artifact.profile = parse_profile(doc, meta);
  } else if (has("title") && has("series")) {
    artifact.kind = ArtifactKind::kSeries;
    artifact.series = parse_series(doc, meta);
  } else if (has("mean") && has("stddev")) {
    artifact.kind = ArtifactKind::kStats;
    artifact.stats = parse_stats(doc, "stats:", &meta);
  } else {
    fail("not a recognized simsweep artifact");
  }
}

}  // namespace

std::string_view to_string(ArtifactKind kind) noexcept {
  constexpr std::string_view kNames[] = {"metrics",    "timeline", "profile",
                                         "journal",    "quarantine", "status",
                                         "series",     "stats"};
  return kNames[static_cast<std::size_t>(kind)];
}

Artifact load_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ArtifactError(path, "cannot open artifact");
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Artifact artifact;
  artifact.path = path;
  try {
    load_document(buffer.str(), artifact);
  } catch (const RuleViolation& e) {
    throw ArtifactError(path, e.what());
  } catch (const resilience::JsonError& e) {
    throw ArtifactError(path, e.what());
  }
  return artifact;
}

}  // namespace simsweep::report
