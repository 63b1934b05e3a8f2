// ScenarioSpec JSON parsing and canonical serialization, from one schema.
//
// Each section of the schema is one walk(V&, Section&) naming its keys in
// canonical order, with their types, defaults and kind gates.
// parse_scenario runs the walks with a Reader and serialize_scenario with
// the shared obs::Writer, so the two cannot disagree about a key.  Parsing
// is strict: every key must be known to the section that owns it, every
// value must have the expected kind and no key may repeat, with errors
// reported as "<source>:<line>:<col>: ...".  Numbers travel as raw tokens
// (resilience::parse_json) and are re-read with std::from_chars, and the
// writer writes them back shortest-round-trip (obs::write_json_number), so
// parse(serialize(s)) == s bitwise for every numeric field.
#include "scenario/scenario.hpp"

#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "obs/json.hpp"
#include "resilience/json_read.hpp"

namespace simsweep::scenario {

namespace {

using obs::name_of;
using obs::Need;
using obs::value_of;
using obs::visit;
using resilience::JsonValue;
using JsonKind = JsonValue::Kind;

// ---------------------------------------------------------------------------
// Parse context: converts byte offsets into file:line:col error prefixes.

struct Ctx {
  std::string_view text;
  std::string source;

  [[nodiscard]] std::string where(std::size_t offset) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < offset && i < text.size(); ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return source + ":" + std::to_string(line) + ":" + std::to_string(col);
  }

  [[noreturn]] void fail(std::size_t offset, const std::string& what) const {
    throw ScenarioError(where(offset) + ": " + what);
  }
};

// ---------------------------------------------------------------------------
// Enum <-> string tables.

constexpr std::pair<Kind, const char*> kKindNames[] = {
    {Kind::kGrid, "grid"},
    {Kind::kPayback, "payback"},
    {Kind::kLoadTrace, "load_trace"},
    {Kind::kDecisionHistogram, "decision_histogram"},
};

constexpr std::pair<AxisBinding, const char*> kBindingNames[] = {
    {AxisBinding::kNone, "none"},
    {AxisBinding::kLoadDynamism, "load.dynamism"},
    {AxisBinding::kSparesPercentOfActive, "spares.percent_of_active"},
    {AxisBinding::kHyperexpLifetime, "load.mean_lifetime_s"},
    {AxisBinding::kFaultMtbfHours, "faults.mtbf_hours"},
    {AxisBinding::kReclaimedMinutes, "load.mean_reclaimed_min"},
    {AxisBinding::kPolicyPayback, "policy.payback_threshold_iters"},
    {AxisBinding::kPolicyHistoryWindow, "policy.history_window_s"},
    {AxisBinding::kPolicyMinProcess, "policy.min_process_improvement"},
    {AxisBinding::kPolicyMaxSwaps, "policy.max_swaps_per_decision"},
};

constexpr std::pair<Metric, const char*> kMetricNames[] = {
    {Metric::kMakespan, "makespan"},
    {Metric::kAdaptations, "adaptations"},
    {Metric::kCompletionRate, "completion_rate"},
};

constexpr std::pair<StrategyKind, const char*> kStrategyNames[] = {
    {StrategyKind::kNone, "none"},     {StrategyKind::kSwap, "swap"},
    {StrategyKind::kDlb, "dlb"},       {StrategyKind::kDlbSwap, "dlbswap"},
    {StrategyKind::kCr, "cr"},
};

constexpr std::pair<EstimatorKind, const char*> kEstimatorNames[] = {
    {EstimatorKind::kPolicy, "policy"}, {EstimatorKind::kWindow, "window"},
    {EstimatorKind::kEwma, "ewma"},     {EstimatorKind::kMedian, "median"},
    {EstimatorKind::kNws, "nws"},
};

constexpr std::pair<strategy::InitialSchedule, const char*> kScheduleNames[] = {
    {strategy::InitialSchedule::kFastestEffective, "effective"},
    {strategy::InitialSchedule::kFastestPeak, "peak"},
    {strategy::InitialSchedule::kLoadBlind, "blind"},
};

constexpr std::pair<LoadKind, const char*> kLoadNames[] = {
    {LoadKind::kOnOff, "onoff"},
    {LoadKind::kHyperExp, "hyperexp"},
    {LoadKind::kReclaim, "reclaim"},
    {LoadKind::kTrace, "trace"},
};

/// Policy bases are kept as their names (PolicySpec::base).
constexpr const char* kPolicyBases[] = {"greedy", "safe", "friendly"};

// ---------------------------------------------------------------------------
// The reader the schema walks run with (obs::Writer writes them).

/// The first repeated key met.  It is reported only once the rest of the
/// document reads clean, so a document with another error keeps that
/// error's message.
struct Repeat {
  std::size_t offset = 0;
  std::string message;
};

/// Reads one JSON object strictly.  A key is marked used when the walk
/// finds it; finish() reports the first unused key as unknown, so each
/// scenario kind only admits the keys its walk reads.
class Reader {
 public:
  static constexpr bool kReading = true;

  /// The document itself: its sections are named by their key alone.
  Reader(const Ctx& ctx, const JsonValue& value, Repeat& repeat)
      : Reader(ctx, value, "scenario", "", repeat) {}

  [[nodiscard]] const std::string& what() const noexcept { return what_; }

  [[nodiscard]] bool has(std::string_view key) const {
    return member(key) != nullptr;
  }

  /// A value of the type the walk hands in; an absent optional key keeps
  /// the field's default.
  template <typename T>
  void operator()(std::string_view key, T& out, Need need = Need::kOptional) {
    const JsonValue* v = get(key, need);
    if (v == nullptr) return;
    if constexpr (std::is_same_v<T, bool>) {
      expect(*v, JsonKind::kBool, key, "a boolean");
      out = v->boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
      expect(*v, JsonKind::kString, key, "a string");
      out = v->string;
    } else if constexpr (std::is_unsigned_v<T>) {
      expect(*v, JsonKind::kNumber, key, "a number");
      const std::optional<std::uint64_t> n = v->to_uint64();
      if (!n) must(*v, key, "a non-negative integer, got '" + v->number + "'");
      out = static_cast<T>(*n);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      expect(*v, JsonKind::kArray, key, "an array");
      for (const JsonValue& e : v->array) out.push_back(number(e, key));
    } else if constexpr (std::is_same_v<T, std::vector<sim::Sample>>) {
      if (v->kind != JsonKind::kArray || v->array.empty())
        must(*v, key, "a non-empty array");
      for (const JsonValue& pair : v->array) {
        if (pair.kind != JsonKind::kArray || pair.array.size() != 2)
          ctx_.fail(pair.offset, "'" + std::string(key) +
                                     "' entries must be [time, load] pairs");
        out.push_back({number(pair.array[0], key), number(pair.array[1], key)});
      }
    } else {
      out = number(*v, key);  // a double, or an optional one
    }
  }

  /// A name from `table`: an enum, or a string checked against the table.
  template <typename T, typename Entry, std::size_t N>
  void operator()(std::string_view key, T& out, const Entry (&table)[N],
                  const char* noun, Need need = Need::kOptional) {
    const JsonValue* v = get(key, need);
    if (v == nullptr) return;
    expect(*v, JsonKind::kString, key, "a string");
    out = choose(*v, table, noun);
  }

  template <typename T, typename Entry, std::size_t N>
  void operator()(std::string_view key, std::vector<T>& out,
                  const Entry (&table)[N], const char* noun,
                  Need need = Need::kOptional) {
    const JsonValue* v = get(key, need);
    if (v == nullptr) return;
    expect(*v, JsonKind::kArray, key, "an array");
    for (const JsonValue& e : v->array) {
      if (e.kind != JsonKind::kString)
        ctx_.fail(e.offset,
                  "'" + std::string(key) + "' entries must be strings");
      out.push_back(choose(e, table, noun));
    }
  }

  /// A present value must be > 0 (the default is trusted).
  void positive(std::string_view key, double& out) {
    const JsonValue* v = find(key);
    if (v == nullptr) return;
    out = number(*v, key);
    if (!(out > 0.0)) must(*v, key, "> 0");
  }

  template <typename T>
  void section(std::string_view key, T&& item, Need need = Need::kOptional) {
    if (const JsonValue* v = get(key, need)) read(*v, path(key), item);
  }

  template <typename T>
  void section(std::string_view key, std::optional<T>& item) {
    if (const JsonValue* v = find(key)) read(*v, path(key), item.emplace());
  }

  /// A null value leaves the pointer null.
  template <typename T>
  void section(std::string_view key, std::shared_ptr<T>& item) {
    const JsonValue* v = find(key);
    if (v == nullptr || v->is_null()) return;
    item = std::make_shared<T>();
    read(*v, path(key), *item);
  }

  /// A list of sections.  An optional list is only written when it is not
  /// empty, so a present one must be a non-empty array.  `check_item`
  /// returns the error text, if any, for an item just read.
  template <typename T>
  void list(std::string_view key, std::vector<T>& items,
            Need need = Need::kOptional,
            std::string (*check_item)(const std::vector<T>&,
                                      std::size_t) = nullptr) {
    const JsonValue* v = get(key, need);
    if (v == nullptr) return;
    const bool optional = need == Need::kOptional;
    if (v->kind != JsonKind::kArray || (optional && v->array.empty()))
      must(*v, key, optional ? "a non-empty array" : "an array");
    const std::string name = path(key);
    for (std::size_t i = 0; i < v->array.size(); ++i) {
      const JsonValue& e = v->array[i];
      read(e, name + "[" + std::to_string(i) + "]", items.emplace_back());
      if (check_item == nullptr) continue;
      if (const std::string error = check_item(items, i); !error.empty())
        ctx_.fail(e.offset, error);
    }
  }

  void check(std::string_view key, bool ok, std::string_view rule) const {
    if (!ok) fail(key, rule);
  }

  /// Fails at `key`'s value, or at the section when the key is absent.
  [[noreturn]] void fail(std::string_view key, std::string_view rule) const {
    const auto* m = member(key);
    ctx_.fail(m != nullptr ? m->second.offset : value_.offset,
              std::string(rule));
  }

  void finish() {
    const auto& members = value_.object;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (used_[i]) continue;
      const auto& [key, v] = members[i];
      if (member(key) == &members[i])
        ctx_.fail(v.key_offset, what_ + ": unknown key '" + key + "'");
      if (repeat_.message.empty())
        repeat_ = {v.key_offset, what_ + ": duplicate key '" + key + "'"};
    }
  }

 private:
  using Member = std::pair<std::string, JsonValue>;

  Reader(const Ctx& ctx, const JsonValue& value, std::string what,
         std::string prefix, Repeat& repeat)
      : ctx_(ctx),
        value_(value),
        what_(std::move(what)),
        prefix_(std::move(prefix)),
        repeat_(repeat) {
    if (value.kind != JsonKind::kObject)
      ctx.fail(value.offset, what_ + " must be an object");
    used_.resize(value.object.size());
  }

  /// The first member named `key`: the one a repeated key resolves to.
  [[nodiscard]] const Member* member(std::string_view key) const {
    for (const Member& m : value_.object)
      if (m.first == key) return &m;
    return nullptr;
  }

  const JsonValue* find(std::string_view key) {
    const Member* m = member(key);
    if (m == nullptr) return nullptr;
    used_[static_cast<std::size_t>(m - value_.object.data())] = true;
    return &m->second;
  }

  const JsonValue* get(std::string_view key, Need need) {
    const JsonValue* v = find(key);
    if (v == nullptr && need == Need::kRequired)
      ctx_.fail(value_.offset, what_ + " is missing required key '" +
                                   std::string(key) + "'");
    return v;
  }

  /// The name errors give the section under `key`.
  [[nodiscard]] std::string path(std::string_view key) const {
    std::string name = prefix_;
    name += key;
    return name;
  }

  template <typename T>
  void read(const JsonValue& value, std::string name, T& item) {
    Reader child(ctx_, value, name, name + ".", repeat_);
    visit(child, item);
    child.finish();
  }

  [[noreturn]] void must(const JsonValue& v, std::string_view key,
                         const std::string& rule) const {
    ctx_.fail(v.offset, "'" + std::string(key) + "' must be " + rule);
  }

  void expect(const JsonValue& v, JsonKind kind, std::string_view key,
              const char* rule) const {
    if (v.kind != kind) must(v, key, rule);
  }

  double number(const JsonValue& v, std::string_view key) const {
    expect(v, JsonKind::kNumber, key, "a number");
    return v.as_double();
  }

  /// The value of the `table` entry that string `v` names.
  template <typename Entry, std::size_t N>
  auto choose(const JsonValue& v, const Entry (&table)[N],
              const char* noun) const {
    for (const Entry& e : table)
      if (v.string == name_of(e)) return value_of(e);
    std::string choices;
    for (const Entry& e : table) {
      if (!choices.empty()) choices += '|';
      choices += name_of(e);
    }
    ctx_.fail(v.offset, std::string("unknown ") + noun + " '" + v.string +
                            "' (" + choices + ")");
  }

  const Ctx& ctx_;
  const JsonValue& value_;
  std::string what_;
  std::string prefix_;  ///< what_ + "." for nested sections
  Repeat& repeat_;
  std::vector<bool> used_;  ///< per member, in document order
};

/// Error text when variants[i] reuses an earlier variant's name.
std::string repeated_name(const std::vector<VariantSpec>& variants,
                          std::size_t i) {
  for (std::size_t j = 0; j < i; ++j)
    if (variants[j].name == variants[i].name)
      return "variants[" + std::to_string(i) + "] duplicates name '" +
             variants[i].name + "'";
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// The schema: one walk per section, keys in canonical order.  The walks
// sit outside the anonymous namespace so that argument-dependent lookup
// finds them from obs::visit.

template <typename V>
void walk(V& v, LoadSpec& l) {
  v("model", l.kind, kLoadNames, "load model", Need::kRequired);
  switch (l.kind) {
    case LoadKind::kOnOff:
      if constexpr (V::kReading) {
        // Shorthand for the paper's symmetric chain: p = q = dynamism.
        if (v.has("dynamism")) {
          v.check("dynamism", !v.has("p") && !v.has("q"),
                  "'dynamism' excludes explicit 'p'/'q' values");
          v("dynamism", l.p);
          l.q = l.p;
        }
      }
      v("p", l.p);
      v("q", l.q);
      v("step_s", l.step_s);
      v("stationary_start", l.stationary_start);
      break;
    case LoadKind::kHyperExp:
      v("mean_lifetime_s", l.mean_lifetime_s);
      v("long_prob", l.long_prob);
      v("mean_interarrival_s", l.mean_interarrival_s);
      break;
    case LoadKind::kReclaim:
      v("mean_available_s", l.mean_available_s);
      v("mean_reclaimed_s", l.mean_reclaimed_s);
      v("start_available", l.start_available);
      v.section("base", l.base);
      break;
    case LoadKind::kTrace:
      v("samples", l.samples, Need::kRequired);
      // Same default as `--period`: one second past the last sample.
      if constexpr (V::kReading) l.period_s = l.samples.back().time + 1.0;
      v.positive("period_s", l.period_s);
      v("random_phase", l.random_phase);
      break;
  }
}

template <typename V>
void walk(V& v, PolicySpec& p) {
  v("base", p.base, kPolicyBases, "policy base");
  v("payback_threshold_iters", p.payback_threshold_iters);
  v("min_process_improvement", p.min_process_improvement);
  v("min_app_improvement", p.min_app_improvement);
  v("history_window_s", p.history_window_s);
  v("max_swaps_per_decision", p.max_swaps_per_decision);
}

template <typename V>
void walk(V& v, EstimatorSpec& e) {
  v("kind", e.kind, kEstimatorNames, "estimator kind", Need::kRequired);
  if (e.kind == EstimatorKind::kWindow) v("window_s", e.window_s);
  if (e.kind == EstimatorKind::kEwma) v("tau_s", e.tau_s);
  if (e.kind == EstimatorKind::kMedian) v("k", e.k);
}

template <typename V>
void walk(V& v, StrategySpec& s) {
  v("kind", s.kind, kStrategyNames, "strategy kind", Need::kRequired);
  if (s.kind == StrategyKind::kSwap || s.kind == StrategyKind::kDlbSwap ||
      s.kind == StrategyKind::kCr)
    v.section("policy", s.policy);
  if (s.kind == StrategyKind::kSwap) {
    v.section("estimator", s.estimator);
    v("guard", s.guard);
    v("stall_factor", s.stall_factor);
  }
}

template <typename V>
void walk(V& v, AxisSpec& a) {
  v("label", a.label);
  v("binds", a.binding, kBindingNames, "axis binding");
  v("x", a.x);
  v.check("x", !a.x.empty(), "'x' must not be empty");
  v("interarrival_factor", a.interarrival_factor);
  v("on_positive_swap_fail_prob", a.on_positive_swap_fail_prob);
  v("on_positive_checkpoint_fail_prob", a.on_positive_checkpoint_fail_prob);
}

template <typename V>
void walk(V& v, VariantSpec& var) {
  v("name", var.name, Need::kRequired);
  v.section("strategy", var.strategy, Need::kRequired);
  v("state_mb", var.state_mb);
  v.section("load", var.load);
  v("initial_schedule", var.initial_schedule, kScheduleNames,
    "initial schedule");
}

template <typename V>
void walk(V& v, SeriesSpec& s) {
  v("name", s.name, Need::kRequired);
  v("variant", s.variant);
  v("metric", s.metric, kMetricNames, "metric");
}

template <typename V>
void walk(V& v, ReportSpec& r) {
  v("title", r.title, Need::kRequired);
  v("expectation", r.expectation);
  v.list("series", r.series, Need::kRequired);
  if constexpr (V::kReading)
    if (r.series.empty())
      v.fail("series", v.what() + ": 'series' must not be empty");
}

template <typename V>
void walk(V& v, ScenarioSpec& s) {
  v("name", s.name, Need::kRequired);
  v("kind", s.kind, kKindNames, "scenario kind");
  v("title", s.title);
  v("expectation", s.expectation);

  if (s.kind == Kind::kGrid || s.kind == Kind::kDecisionHistogram) {
    v.section("config", [&s](V& c) {
      c("hosts", s.hosts);
      c("active", s.active);
      c("iterations", s.iterations);
      c("iter_minutes", s.iter_minutes);
      c("state_mb", s.state_mb);
      c("comm_kb", s.comm_kb);
      // Every host not active is a spare.  With more active processes than
      // hosts there are none, and base_config rejects the shape.
      if constexpr (V::kReading)
        s.spares = s.hosts >= s.active ? s.hosts - s.active : 0;
      c("spares", s.spares);
      c("seed", s.seed);
      c("horizon_hours", s.horizon_hours);
      c("initial_schedule", s.initial_schedule, kScheduleNames,
        "initial schedule");
      c("max_events", s.max_events);
    });
    v.section("faults", [&s](V& f) {
      f("mtbf_hours", s.mtbf_hours);
      f("swap_fail_prob", s.swap_fail_prob);
      f("checkpoint_fail_prob", s.checkpoint_fail_prob);
      f("max_transfer_retries", s.max_transfer_retries);
      f("retry_backoff_s", s.retry_backoff_s);
      f("retry_backoff_cap_s", s.retry_backoff_cap_s);
      f("blacklist_after", s.blacklist_after);
    });
    v("trials", s.trials);
    v.check("trials", s.trials >= 1, "'trials' must be >= 1");
  }

  switch (s.kind) {
    case Kind::kGrid:
      v("forbid_stalls", s.forbid_stalls);
      v.section("load", s.load);
      v.section("axis", s.axis);
      v.list("variants", s.variants, Need::kRequired, repeated_name);
      v.check("variants", !s.variants.empty(), "'variants' must not be empty");
      v.list("reports", s.reports);
      if constexpr (V::kReading)
        for (const ReportSpec& report : s.reports)
          for (const SeriesSpec& series : report.series)
            if (series.variant >= s.variants.size())
              v.fail("reports", "report series '" + series.name +
                                    "' references variant " +
                                    std::to_string(series.variant) +
                                    " but only " +
                                    std::to_string(s.variants.size()) +
                                    " variant(s) are defined");
      break;
    case Kind::kPayback:
      v.section("payback", [&s](V& p) {
        p.positive("iter_s", s.payback_iter_s);
        p.positive("swap_s", s.payback_swap_s);
      });
      break;
    case Kind::kLoadTrace:
      v.section("load", s.load, Need::kRequired);
      v.section("trace", [&s](V& t) {
        t.positive("horizon_s", s.trace_horizon_s);
        t("seed", s.trace_seed);
      });
      break;
    case Kind::kDecisionHistogram:
      v.section(
          "histogram",
          [&s](V& h) {
            h("policies", s.histogram_policies, kPolicyBases, "policy",
              Need::kRequired);
            h("dynamisms", s.histogram_dynamisms);
          },
          Need::kRequired);
      v.check("histogram",
              !s.histogram_policies.empty() && !s.histogram_dynamisms.empty(),
              "'histogram' needs non-empty policies and dynamisms");
      break;
  }
}

const char* kind_name(Kind kind) { return obs::enum_name(kKindNames, kind); }

bool operator==(const LoadSpec& a, const LoadSpec& b) {
  const bool base_equal =
      (a.base == nullptr && b.base == nullptr) ||
      (a.base != nullptr && b.base != nullptr && *a.base == *b.base);
  return a.kind == b.kind && a.p == b.p && a.q == b.q &&
         a.step_s == b.step_s && a.stationary_start == b.stationary_start &&
         a.mean_lifetime_s == b.mean_lifetime_s &&
         a.long_prob == b.long_prob &&
         a.mean_interarrival_s == b.mean_interarrival_s &&
         a.mean_available_s == b.mean_available_s &&
         a.mean_reclaimed_s == b.mean_reclaimed_s &&
         a.start_available == b.start_available && base_equal &&
         a.samples == b.samples && a.period_s == b.period_s &&
         a.random_phase == b.random_phase;
}

ScenarioSpec parse_scenario(std::string_view text,
                            std::string_view source_name) {
  const Ctx ctx{text, std::string(source_name)};
  JsonValue doc;
  try {
    doc = resilience::parse_json(text);
  } catch (const resilience::JsonError& e) {
    // json_read reports "... at byte N"; convert to line:col context.
    const std::string what = e.what();
    const std::string marker = " at byte ";
    const std::size_t pos = what.rfind(marker);
    if (pos != std::string::npos) {
      const std::size_t offset =
          static_cast<std::size_t>(std::stoull(what.substr(pos + marker.size())));
      ctx.fail(offset, what.substr(0, pos));
    }
    throw ScenarioError(ctx.source + ": " + what);
  }

  Repeat repeat;
  Reader reader(ctx, doc, repeat);
  ScenarioSpec out;
  walk(reader, out);
  reader.finish();
  if (!repeat.message.empty()) ctx.fail(repeat.offset, repeat.message);
  return out;
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::ostringstream os;
  obs::write_json(os, spec);
  return os.str();
}

std::string ScenarioSpec::digest() const {
  // The seed stays out of the digest (provenance reports it separately, and
  // resumable sweeps validate it against the journal header on its own),
  // but everything else — platform, load model, strategy lineup, axis,
  // reports — is folded in through the canonical serialization, so callers
  // can no longer forget the `extra` argument.
  ScenarioSpec canonical = *this;
  canonical.seed = 0;
  return core::config_digest(
      base_config(*this),
      "scenario;name=" + name + ";spec=" + serialize_scenario(canonical));
}

}  // namespace simsweep::scenario
