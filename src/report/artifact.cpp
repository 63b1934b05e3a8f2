#include "report/artifact.hpp"

#include <algorithm>
#include <concepts>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "resilience/json_read.hpp"

namespace simsweep::report {

namespace {

using obs::Accept;
using obs::Need;
using resilience::JsonValue;
using JsonKind = JsonValue::Kind;
using Keys = std::vector<std::string_view>;

/// A schema rule the document breaks; load_artifact adds the path.
class RuleViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& rule) { throw RuleViolation(rule); }

template <typename T>
void read(const JsonValue& value, const std::string& where, T&& item);

/// The strict reader.  read() runs a walk over one JSON object twice: a key
/// pass that only collects the keys the walk names (so a document with the
/// wrong keys fails on them before any value is read), then a value pass
/// that reads each member and applies the walk's reading rules.  Rule text
/// reads "<where> <rule>" or "<where> <key> <rule>".
enum class Pass { kKeys, kValues };

template <Pass kPass>
class Reader {
 public:
  /// Reading rules wait for the values.
  static constexpr bool kReading = kPass == Pass::kValues;

  Reader(const JsonValue& object, std::string where)
      : object_(object), where_(std::move(where)) {}

  [[noreturn]] void fail(const std::string& rule) const {
    report::fail(where_ + " " + rule);
  }

  void check(bool ok, std::string_view rule) const {
    if (kReading && !ok) fail(std::string(rule));
  }

  /// "keys [found] != [want]" unless the object's keys are the walk's
  /// (optional keys, marked '?', may be absent).
  void check_keys() const {
    Keys found;
    for (const auto& member : object_.object) found.emplace_back(member.first);
    Keys want;
    std::string all = "[";
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!optional_[i] || object_.find(keys_[i]) != nullptr)
        want.push_back(keys_[i]);
      all += (i > 0 ? ", " : "") + std::string(keys_[i]) +
             (optional_[i] ? "?" : "");
    }
    if (found == want) return;
    std::string got = "[";
    for (std::size_t i = 0; i < found.size(); ++i)
      got += (i > 0 ? ", " : "") + std::string(found[i]);
    fail("keys " + got + "] != " + all + "]");
  }

  template <typename T>
  void operator()(std::string_view key, T& out, Accept accept = Accept::kAny) {
    if (reads(key)) scalar(object_.at(key), std::string(key), out, accept);
  }

  template <typename T>
  void operator()(std::string_view key, std::optional<T>& out,
                  Accept accept = Accept::kAny) {
    if (!reads(key, true)) return;
    if (const JsonValue* v = object_.find(key))
      scalar(*v, std::string(key), out.emplace(), accept);
  }

  /// A list of scalars; `noun` names one entry in the rule text.
  template <typename T>
  void operator()(std::string_view key, std::vector<T>& out,
                  const char* noun) {
    if (!reads(key)) return;
    for (const JsonValue& e : array(key)) scalar(e, noun, out.emplace_back());
  }

  /// A series column: one entry per x point.
  template <typename T>
  void operator()(std::string_view key, std::vector<T>& out, Accept accept,
                  std::size_t points) {
    if (!reads(key)) return;
    const std::string name(key);
    for (const JsonValue& e : array(key))
      scalar(e, name, out.emplace_back(), accept);
    if (out.size() != points)
      fail(name + " has " + std::to_string(out.size()) + " entries for " +
           std::to_string(points) + " x points");
  }

  /// A name from `table`.  The key pass already takes a valid one: it can
  /// gate the keys after it (a decision record's kind).
  template <typename E, obs::NameEntry Entry, std::size_t N>
  void operator()(std::string_view key, E& out, const Entry (&table)[N],
                  const char* noun) {
    const bool reading = reads(key);
    const JsonValue* v = object_.find(key);
    if (!reading && (v == nullptr || v->kind != JsonKind::kString)) return;
    std::string name;
    scalar(*v, std::string(key), name);
    for (const Entry& e : table) {
      if (name != obs::name_of(e)) continue;
      out = obs::value_of(e);
      return;
    }
    if (reading) fail(std::string(key) + " '" + name + "' not a " + noun);
  }

  /// Present only as the literal true.
  void flag(std::string_view key, bool& out) {
    const JsonValue* v = object_.find(key);
    if (!reads(key, true) || v == nullptr) return;
    if (v->kind != JsonKind::kBool || !v->boolean)
      fail(std::string(key) + " must be the literal true when present");
    out = true;
  }

  /// A nested object; `where` replaces the path to it in rule text.
  template <typename T>
  void section(std::string_view key, T&& item, const std::string& where = {}) {
    if (reads(key))
      read(object_.at(key),
           where.empty() ? where_ + " " + std::string(key) : where, item);
  }

  /// A pointer names a section only when set.
  template <typename T>
  void section(std::string_view key, T* item) {
    if (item != nullptr) section(key, *item);
  }

  /// A list of objects.  `each` is an index key each item leads with, or a
  /// callable `(visitor, item, i)` that walks item i.
  template <typename T, typename Each = std::nullptr_t>
  void list(std::string_view key, std::vector<T>& items,
            Need need = Need::kOptional, Each each = nullptr) {
    if (!reads(key, need == Need::kOptional)) return;
    const std::vector<JsonValue>& entries = array(key);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      T& item = items.emplace_back();
      const std::string where =
          where_ + " " + std::string(key) + "[" + std::to_string(i) + "]";
      if constexpr (std::is_same_v<Each, const char*>) {
        read(entries[i], where, [&](auto& v) {
          std::size_t index = 0;
          v(each, index);
          v.check(index == i,
                  std::string(each) + " index != " + std::to_string(i));
          obs::visit(v, item);
        });
      } else if constexpr (std::is_invocable_v<Each&, Reader&, T&,
                                               std::size_t>) {
        read(entries[i], where, [&](auto& v) { each(v, item, i); });
      } else {
        read(entries[i], where, item);
      }
    }
  }

  template <typename T>
  void list(std::string_view key, std::optional<std::vector<T>>& items) {
    if (reads(key, true) && object_.find(key) != nullptr)
      list(key, items.emplace(), Need::kRequired);
  }

  /// Map-shaped sections (metrics names) emit in std::map order: strictly
  /// increasing keys, which also rules out duplicates.
  template <typename T>
  void map(std::string_view key, std::map<std::string, T>& entries,
           const char* noun) {
    if (!reads(key)) return;
    const JsonValue& v = object_.at(key);
    if (v.kind != JsonKind::kObject)
      fail(std::string(key) + " is not an object");
    for (std::size_t i = 1; i < v.object.size(); ++i)
      if (!(v.object[i - 1].first < v.object[i].first))
        fail(std::string(key) + " keys not sorted");
    for (const auto& [name, value] : v.object) {
      const std::string what = std::string(noun) + " '" + name + "'";
      if constexpr (std::is_arithmetic_v<T>)
        scalar(value, what, entries[name]);
      else
        read(value, where_ + " " + what, entries[name]);
    }
  }

  /// A JSON document stored as a non-empty string value.
  template <typename T>
  void embedded(std::string_view key, std::optional<T>& item) {
    const JsonValue* v = object_.find(key);
    if (!reads(key, true) || v == nullptr) return;
    std::string text;
    scalar(*v, std::string(key), text, Accept::kNonEmpty);
    JsonValue doc;
    try {
      doc = resilience::parse_json(text);
    } catch (const resilience::JsonError& e) {
      fail(std::string(key) + ": " + e.what());
    }
    read(doc, where_ + " " + std::string(key) + ":", item.emplace());
  }

  /// A list handed over unread (timeline events are summarised).
  void array(std::string_view key, const std::vector<JsonValue>*& out) {
    if (reads(key)) out = &array(key);
  }

 private:
  /// Records `key` in the key pass; true in the value pass.
  bool reads(std::string_view key, bool optional = false) {
    if (kReading) return true;
    keys_.push_back(key);
    optional_.push_back(optional);
    return false;
  }

  [[nodiscard]] const std::vector<JsonValue>& array(
      std::string_view key) const {
    const JsonValue& v = object_.at(key);
    if (v.kind != JsonKind::kArray) fail(std::string(key) + " is not a list");
    return v.array;
  }

  // One value; `what` names it in the rule text.
  void scalar(const JsonValue& v, const std::string& what, double& out,
              Accept accept = Accept::kAny) const {
    if (accept == Accept::kNull && v.is_null()) {
      out = std::numeric_limits<double>::quiet_NaN();
      return;
    }
    if (v.kind != JsonKind::kNumber) fail(what + " must be a number");
    out = v.as_double();
    if (accept == Accept::kNonNegative && out < 0.0)
      fail(what + " must be a non-negative number");
  }

  template <std::unsigned_integral U>
  void scalar(const JsonValue& v, const std::string& what, U& out,
              Accept = Accept::kAny) const {
    const std::optional<std::uint64_t> n = v.to_uint64();
    if (!n || *n > std::numeric_limits<U>::max())
      fail(what + " must be a non-negative integer");
    out = static_cast<U>(*n);
  }

  void scalar(const JsonValue& v, const std::string& what, std::string& out,
              Accept accept = Accept::kAny) const {
    if (v.kind != JsonKind::kString) fail(what + " must be a string");
    if (accept == Accept::kNonEmpty && v.string.empty())
      fail(what + " must be a non-empty string");
    if (accept == Accept::kDigest &&
        (v.string.size() != 16 ||
         v.string.find_first_not_of("0123456789abcdef") != std::string::npos))
      fail(what + " must be 16 lowercase hex chars");
    out = v.string;
  }

  const JsonValue& object_;
  std::string where_;
  Keys keys_;                   ///< the key pass's keys, in walk order
  std::vector<bool> optional_;  ///< per key: may be absent
};

/// Reads `item` (a struct with a walk, or a callable walking fields) from
/// one JSON object: the key pass, then the value pass.
template <typename T>
void read(const JsonValue& value, const std::string& where, T&& item) {
  if (value.kind != JsonKind::kObject) fail(where + " is not an object");
  Reader<Pass::kKeys> keys(value, where);
  obs::visit(keys, item);
  keys.check_keys();
  Reader<Pass::kValues> reader(value, where);
  obs::visit(reader, item);
}

/// A file artifact led by its provenance block: `kind: meta ...`.
template <typename T>
void read_stamped(const JsonValue& doc, const std::string& kind, T& body,
                  std::optional<obs::Provenance>& meta) {
  obs::Stamped<T> stamped{&meta.emplace(), &body};
  read(doc, kind + ":", stamped);
}

/// Event-dense runs write millions of timeline events, so their rule text
/// is only built on failure.
[[noreturn]] void bad_event(std::size_t i, const std::string& rule) {
  fail("timeline: traceEvents[" + std::to_string(i) + "] " + rule);
}

TimelineModel parse_timeline(const JsonValue& doc, obs::Provenance& meta) {
  const std::vector<JsonValue>* list = nullptr;
  read(doc, "timeline:", [&](auto& v) {
    std::string unit;
    v("displayTimeUnit", unit);
    v.check(unit == "ms", "displayTimeUnit != 'ms'");
    v.section("otherData",
              [&meta](auto& o) { o.section("meta", meta, "timeline: meta"); });
    v.array("traceEvents", list);
  });
  // No event at all is valid: a sweep interrupted before its first cell, or
  // one whose every cell was quarantined, has nothing to trace.
  const std::vector<JsonValue>& events = *list;

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
      fail("timeline: pid " + std::to_string(pid) + " has no process_name");
  model.events = events.size();
  model.processes = pids.size();
  return model;
}

/// One JSON value per non-empty line of a JSONL artifact.
struct Line {
  std::size_t number;
  std::string_view raw;
  JsonValue value;
};

/// With `torn_tail`, a malformed *final* line is a torn write that was
/// never durable (the atomic-rename journal writer only leaves one when
/// someone else appended to the file) and is dropped, as --resume always
/// dropped it; any other malformed line is corruption.
std::vector<Line> parse_lines(const std::string& text, const std::string& kind,
                              bool torn_tail) {
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
      if (torn_tail && start >= text.size()) break;
      fail(kind + ": line " + std::to_string(number) + ": " + e.what());
    }
  }
  return lines;
}

std::string line_where(const std::string& kind, const Line& line) {
  return kind + ": line " + std::to_string(line.number) + ":";
}

JournalModel parse_journal(const std::string& text) {
  const std::vector<Line> lines =
      parse_lines(text, "journal", /*torn_tail=*/true);
  if (lines.empty()) fail("journal: file is empty");
  JournalModel model;
  read(lines.front().value, "journal: header", model.header);
  // Every record is checked; the last one per index wins — the exact rule
  // the resume path applies (a re-executed cell appends a fresh record).
  std::map<std::size_t, JournalModel::Cell> by_index;
  for (std::size_t r = 1; r < lines.size(); ++r) {
    JournalModel::Cell cell{{}, std::string(lines[r].raw)};
    read(lines[r].value, line_where("journal", lines[r]),
         [&](auto& v) { walk(v, cell.record, model.header); });
    by_index[cell.record.index] = std::move(cell);
  }
  for (auto& entry : by_index) model.cells.push_back(std::move(entry.second));
  return model;
}

void load_document(const std::string& text, Artifact& artifact) {
  // JSONL artifacts are sniffed from their first line, so a multi-line file
  // never reaches the single-document parser.
  JsonValue first;
  try {
    first = resilience::parse_json(text.substr(0, text.find('\n')));
  } catch (const resilience::JsonError&) {
  }
  const auto first_has = [&first](std::string_view key) {
    return first.kind == JsonKind::kObject && first.find(key) != nullptr;
  };
  if (first_has("kind") && first.at("kind").kind == JsonKind::kString &&
      first.at("kind").string == "sweep-journal") {
    artifact.kind = ArtifactKind::kJournal;
    artifact.journal = parse_journal(text);
    return;
  }
  if (first_has("strategy")) {
    artifact.kind = ArtifactKind::kDecisions;
    for (const Line& line :
         parse_lines(text, "decisions", /*torn_tail=*/false))
      read(line.value, line_where("decisions", line),
           artifact.decisions.emplace_back());
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
  std::optional<obs::Provenance>& meta = artifact.meta;
  if (has("kind") && doc.at("kind").kind == JsonKind::kString &&
      doc.at("kind").string == "sweep-status") {
    artifact.kind = ArtifactKind::kStatus;
    read(doc, "status:", artifact.status);
    meta = artifact.status.meta;
  } else if (has("counters") && has("histograms")) {
    artifact.kind = ArtifactKind::kMetrics;
    read_stamped(doc, "metrics", artifact.metrics, meta);
  } else if (has("traceEvents")) {
    artifact.kind = ArtifactKind::kTimeline;
    artifact.timeline = parse_timeline(doc, meta.emplace());
  } else if (has("quarantined")) {
    artifact.kind = ArtifactKind::kQuarantine;
    read_stamped(doc, "quarantine", artifact.quarantine, meta);
  } else if (has("tasks") && has("workers")) {
    artifact.kind = ArtifactKind::kProfile;
    read_stamped(doc, "profile", artifact.profile, meta);
  } else if (has("title") && has("series")) {
    artifact.kind = ArtifactKind::kSeries;
    read_stamped(doc, "series", artifact.series, meta);
  } else if (has("mean") && has("stddev")) {
    artifact.kind = ArtifactKind::kStats;
    read_stamped(doc, "stats", artifact.stats, meta);
  } else {
    fail("not a recognized simsweep artifact");
  }
}

}  // namespace

std::string_view to_string(ArtifactKind kind) noexcept {
  constexpr std::string_view kNames[] = {
      "metrics", "timeline", "profile", "journal",  "quarantine",
      "status",  "series",   "stats",   "decisions"};
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
