#include "report/artifact.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "resilience/journal.hpp"
#include "resilience/json_read.hpp"

namespace simsweep::report {

namespace {

using resilience::JsonValue;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Null-tolerant double: the emitters write NaN/inf as JSON null.
double as_double_or_nan(const JsonValue& v) {
  return v.is_null() ? kNaN : v.as_double();
}

Meta parse_meta(const JsonValue& doc) {
  Meta meta;
  const JsonValue* m = doc.find("meta");
  if (m == nullptr) return meta;
  meta.present = true;
  meta.version = m->at("version").as_string();
  meta.build_type = m->at("build_type").as_string();
  meta.seed = m->at("seed").as_uint64();
  meta.config_digest = m->at("config_digest").as_string();
  const JsonValue* partial = m->find("partial");
  meta.partial = partial != nullptr && partial->as_bool();
  return meta;
}

MetricsModel parse_metrics(const JsonValue& doc) {
  MetricsModel model;
  for (const auto& [name, value] : doc.at("counters").object)
    model.counters[name] = value.as_uint64();
  for (const auto& [name, value] : doc.at("gauges").object) {
    MetricsModel::Gauge g;
    g.last = as_double_or_nan(value.at("last"));
    g.min = as_double_or_nan(value.at("min"));
    g.max = as_double_or_nan(value.at("max"));
    model.gauges[name] = g;
  }
  for (const auto& [name, value] : doc.at("histograms").object) {
    MetricsModel::Histogram h;
    h.count = value.at("count").as_uint64();
    h.sum = as_double_or_nan(value.at("sum"));
    h.min = as_double_or_nan(value.at("min"));
    h.max = as_double_or_nan(value.at("max"));
    for (const JsonValue& b : value.at("bounds").as_array())
      h.bounds.push_back(b.as_double());
    for (const JsonValue& c : value.at("counts").as_array())
      h.counts.push_back(c.as_uint64());
    model.histograms[name] = std::move(h);
  }
  return model;
}

TimelineModel parse_timeline(const JsonValue& doc) {
  TimelineModel model;
  std::vector<std::uint64_t> pids;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    ++model.events;
    if (const JsonValue* pid = event.find("pid")) {
      const std::uint64_t value = pid->as_uint64();
      if (std::find(pids.begin(), pids.end(), value) == pids.end())
        pids.push_back(value);
    }
    const JsonValue* ts = event.find("ts");
    const JsonValue* dur = event.find("dur");
    if (ts != nullptr && dur != nullptr)
      model.span_us =
          std::max(model.span_us, ts->as_double() + dur->as_double());
  }
  model.processes = pids.size();
  return model;
}

std::vector<ProfileModel::Worker> parse_workers(const JsonValue& workers) {
  std::vector<ProfileModel::Worker> out;
  for (const JsonValue& w : workers.as_array()) {
    ProfileModel::Worker worker;
    if (const JsonValue* id = w.find("worker")) worker.worker = id->as_size();
    worker.tasks = w.at("tasks").as_size();
    worker.busy_s = as_double_or_nan(w.at("busy_s"));
    worker.utilization = as_double_or_nan(w.at("utilization"));
    out.push_back(worker);
  }
  return out;
}

ProfileModel parse_profile(const JsonValue& doc) {
  ProfileModel model;
  model.tasks = doc.at("tasks").as_size();
  model.wall_s = as_double_or_nan(doc.at("wall_s"));
  model.mean_task_s = as_double_or_nan(doc.at("mean_task_s"));
  model.min_task_s = as_double_or_nan(doc.at("min_task_s"));
  model.max_task_s = as_double_or_nan(doc.at("max_task_s"));
  model.mean_queue_wait_s = as_double_or_nan(doc.at("mean_queue_wait_s"));
  model.max_queue_wait_s = as_double_or_nan(doc.at("max_queue_wait_s"));
  model.workers = parse_workers(doc.at("workers"));
  return model;
}

QuarantineModel parse_quarantine(const JsonValue& doc) {
  QuarantineModel model;
  for (const JsonValue& r : doc.at("quarantined").as_array()) {
    QuarantineModel::Record record;
    record.index = r.at("index").as_size();
    record.key = r.at("key").as_string();
    record.seed = r.at("seed").as_uint64();
    record.trials = r.at("trials").as_size();
    record.label = r.at("label").as_string();
    record.outcome = r.at("outcome").as_string();
    record.attempts = r.at("attempts").as_size();
    record.error = r.at("error").as_string();
    model.records.push_back(std::move(record));
  }
  return model;
}

StatusModel parse_status(const JsonValue& doc) {
  StatusModel model;
  model.scenario = doc.at("scenario").as_string();
  model.state = doc.at("state").as_string();
  model.heartbeat_unix_s = as_double_or_nan(doc.at("heartbeat_unix_s"));
  model.elapsed_s = as_double_or_nan(doc.at("elapsed_s"));
  model.heartbeat_s = as_double_or_nan(doc.at("heartbeat_s"));
  model.jobs = doc.at("jobs").as_size();
  model.trials = doc.at("trials").as_size();
  const JsonValue& cells = doc.at("cells");
  model.cells_total = cells.at("total").as_size();
  model.cells_done = cells.at("done").as_size();
  model.cells_reused = cells.at("reused").as_size();
  model.cells_executed = cells.at("executed").as_size();
  model.cells_in_flight = cells.at("in_flight").as_size();
  model.retries = cells.at("retries").as_size();
  model.quarantined = cells.at("quarantined").as_size();
  for (const JsonValue& g : doc.at("groups").as_array()) {
    StatusModel::Group group;
    group.name = g.at("name").as_string();
    group.done = g.at("done").as_size();
    group.total = g.at("total").as_size();
    model.groups.push_back(std::move(group));
  }
  const JsonValue& eta = doc.at("eta");
  model.ewma_cell_s = as_double_or_nan(eta.at("ewma_cell_s"));
  model.eta_s = as_double_or_nan(eta.at("eta_s"));
  model.percent = as_double_or_nan(eta.at("percent"));
  if (const JsonValue* workers = doc.find("workers"))
    model.workers = parse_workers(*workers);
  return model;
}

SeriesModel parse_series(const JsonValue& doc) {
  SeriesModel model;
  model.title = doc.at("title").as_string();
  model.x_label = doc.at("x_label").as_string();
  for (const JsonValue& x : doc.at("x").as_array())
    model.x.push_back(x.as_double());
  for (const JsonValue& s : doc.at("series").as_array()) {
    SeriesModel::Series series;
    series.name = s.at("name").as_string();
    for (const JsonValue& y : s.at("mean_makespan_s").as_array())
      series.makespan.push_back(as_double_or_nan(y));
    for (const JsonValue& a : s.at("mean_adaptations").as_array())
      series.adaptations.push_back(as_double_or_nan(a));
    model.series.push_back(std::move(series));
  }
  return model;
}

JournalModel parse_journal(const std::string& path) {
  const auto records = resilience::read_journal(path);
  if (records.empty())
    throw std::runtime_error("report: journal '" + path +
                             "' has no readable records");
  const JsonValue& header = records.front().value;
  JournalModel model;
  model.version = header.at("version").as_uint64();
  model.scenario = header.at("scenario").as_string();
  model.sweep_digest = header.at("sweep").as_string();
  model.seed = header.at("seed").as_uint64();
  model.trials = header.at("trials").as_size();
  model.points = header.at("points").as_size();
  model.cells_total = header.at("cells").as_size();

  // Last record per index wins — the exact rule the resume path applies.
  std::vector<const JsonValue*> by_index(model.cells_total, nullptr);
  for (std::size_t r = 1; r < records.size(); ++r) {
    const JsonValue& v = records[r].value;
    const JsonValue* kind = v.find("kind");
    if (kind == nullptr || kind->as_string() != "cell") continue;
    const std::size_t index = v.at("index").as_size();
    if (index >= model.cells_total)
      throw std::runtime_error("report: journal '" + path + "' cell index " +
                               std::to_string(index) + " out of range");
    by_index[index] = &v;
  }
  for (std::size_t index = 0; index < model.cells_total; ++index) {
    if (by_index[index] == nullptr) continue;
    const JsonValue& v = *by_index[index];
    JournalModel::Cell cell;
    cell.index = index;
    cell.key = v.at("key").as_string();
    cell.label = v.at("label").as_string();
    cell.outcome = v.at("outcome").as_string();
    cell.stats = parse_stats(v.at("stats"));
    model.cells.push_back(std::move(cell));
  }
  return model;
}

}  // namespace

core::TrialStats parse_stats(const JsonValue& v) {
  core::TrialStats s;
  s.mean = as_double_or_nan(v.at("mean"));
  s.stddev = as_double_or_nan(v.at("stddev"));
  s.min = as_double_or_nan(v.at("min"));
  s.max = as_double_or_nan(v.at("max"));
  s.trials = v.at("trials").as_size();
  s.unfinished = v.at("unfinished").as_size();
  s.stalled = v.at("stalled").as_size();
  s.resource_exhausted = v.at("resource_exhausted").as_size();
  s.mean_adaptations = as_double_or_nan(v.at("mean_adaptations"));
  s.mean_crashes = as_double_or_nan(v.at("mean_crashes"));
  s.mean_transfer_failures = as_double_or_nan(v.at("mean_transfer_failures"));
  s.mean_recoveries = as_double_or_nan(v.at("mean_recoveries"));
  s.mean_checkpoint_failures =
      as_double_or_nan(v.at("mean_checkpoint_failures"));
  s.mean_time_lost_s = as_double_or_nan(v.at("mean_time_lost_s"));
  s.audit_violations = v.at("audit_violations").as_size();
  return s;
}

std::string_view to_string(ArtifactKind kind) noexcept {
  switch (kind) {
    case ArtifactKind::kMetrics:
      return "metrics";
    case ArtifactKind::kTimeline:
      return "timeline";
    case ArtifactKind::kProfile:
      return "profile";
    case ArtifactKind::kJournal:
      return "journal";
    case ArtifactKind::kQuarantine:
      return "quarantine";
    case ArtifactKind::kStatus:
      return "status";
    case ArtifactKind::kSeries:
      return "series";
  }
  return "unknown";
}

Artifact load_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("report: cannot open artifact '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  Artifact artifact;
  artifact.path = path;

  // A journal is JSONL: sniff its header from the first line so a multi-line
  // file never reaches the single-document parser.
  const std::size_t newline = text.find('\n');
  const std::string first_line =
      newline == std::string::npos ? text : text.substr(0, newline);
  {
    JsonValue header;
    bool parsed = true;
    try {
      header = resilience::parse_json(first_line);
    } catch (const resilience::JsonError&) {
      parsed = false;
    }
    const JsonValue* kind = parsed ? header.find("kind") : nullptr;
    if (kind != nullptr && kind->as_string() == "sweep-journal") {
      artifact.kind = ArtifactKind::kJournal;
      artifact.journal = parse_journal(path);
      return artifact;
    }
  }

  const JsonValue doc = resilience::parse_json(text);
  artifact.meta = parse_meta(doc);
  const JsonValue* kind = doc.find("kind");
  if (kind != nullptr && kind->as_string() == "sweep-status") {
    artifact.kind = ArtifactKind::kStatus;
    artifact.status = parse_status(doc);
  } else if (doc.find("counters") != nullptr &&
             doc.find("histograms") != nullptr) {
    artifact.kind = ArtifactKind::kMetrics;
    artifact.metrics = parse_metrics(doc);
  } else if (doc.find("traceEvents") != nullptr) {
    artifact.kind = ArtifactKind::kTimeline;
    artifact.timeline = parse_timeline(doc);
    // The sweep timeline nests its meta under "otherData".
    if (const JsonValue* other = doc.find("otherData"))
      artifact.meta = parse_meta(*other);
  } else if (doc.find("quarantined") != nullptr) {
    artifact.kind = ArtifactKind::kQuarantine;
    artifact.quarantine = parse_quarantine(doc);
  } else if (doc.find("tasks") != nullptr && doc.find("workers") != nullptr) {
    artifact.kind = ArtifactKind::kProfile;
    artifact.profile = parse_profile(doc);
  } else if (doc.find("title") != nullptr && doc.find("series") != nullptr) {
    artifact.kind = ArtifactKind::kSeries;
    artifact.series = parse_series(doc);
  } else {
    throw std::runtime_error("report: '" + path +
                             "' is not a recognized simsweep artifact");
  }
  return artifact;
}

}  // namespace simsweep::report
