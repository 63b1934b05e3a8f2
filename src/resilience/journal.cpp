#include "resilience/journal.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/atomic_write.hpp"

namespace simsweep::resilience {

namespace {

/// `key`'s string value; empty when absent or not a string.
std::string_view string_at(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString
             ? std::string_view(v->string)
             : std::string_view();
}

/// `key`'s value when it is a non-negative number.
const JsonValue* non_negative_at(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber &&
                 v->as_double() >= 0.0
             ? v
             : nullptr;
}

}  // namespace

// Event-dense runs write millions of timeline events, so rule text is only
// built on failure.
std::string check_trace_events(const std::vector<JsonValue>& events,
                               TraceFacts& facts) {
  std::set<std::uint64_t> pids;
  std::set<std::uint64_t> named;
  const auto bad = [](std::size_t i, std::string_view rule) {
    std::string text = "traceEvents[";
    text += std::to_string(i);
    text += "] ";
    text += rule;
    return text;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& ev = events[i];
    if (ev.kind != JsonValue::Kind::kObject) return bad(i, "is not an object");
    const std::string_view phase = string_at(ev, "ph");
    if (phase != "M" && phase != "X" && phase != "i")
      return bad(i, std::string("has unknown phase '").append(phase) + "'");
    const JsonValue* pid_value = ev.find("pid");
    const std::uint64_t pid =
        pid_value != nullptr ? pid_value->to_uint64().value_or(0) : 0;
    if (pid < 1) return bad(i, "pid must be an integer >= 1");
    pids.insert(pid);
    const std::string_view label = string_at(ev, "name");
    if (phase == "M") {
      if (label != "process_name" && label != "thread_name")
        return bad(i, "metadata name must be process_name or thread_name");
      if (label == "process_name") named.insert(pid);
      continue;
    }
    if (label.empty()) return bad(i, "name must be a non-empty string");
    const JsonValue* ts = non_negative_at(ev, "ts");
    if (ts == nullptr) return bad(i, "ts must be a non-negative number");
    if (phase == "X") {
      const JsonValue* dur = non_negative_at(ev, "dur");
      if (dur == nullptr) return bad(i, "dur must be a non-negative number");
      facts.span_us =
          std::max(facts.span_us, ts->as_double() + dur->as_double());
    }
  }
  for (const std::uint64_t pid : pids)
    if (named.count(pid) == 0)
      return std::string("pid ").append(std::to_string(pid)) +
             " has no process_name";
  facts.processes = pids.size();
  return {};
}

std::string check_timeline_fragment(std::string_view fragment) {
  std::string text = "[";
  text += fragment;
  text += ']';
  JsonValue list;
  try {
    list = parse_json(text);
  } catch (const JsonError& e) {
    return std::string("not a list of trace events (").append(e.what()) + ")";
  }
  if (list.array.empty()) return "has no trace event";
  TraceFacts facts;
  return check_trace_events(list.array, facts);
}

JournalWriter::JournalWriter(std::string path) : path_(std::move(path)) {}

void JournalWriter::append(std::string line, bool flush_now) {
  if (line.find('\n') != std::string::npos)
    throw std::invalid_argument("journal: record must be a single line");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(std::move(line));
  }
  if (flush_now) flush();
}

void JournalWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string payload;
  for (const std::string& line : lines_) {
    payload += line;
    payload += '\n';
  }
  obs::atomic_write_file(path_, payload);
}

std::size_t JournalWriter::record_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

}  // namespace simsweep::resilience
