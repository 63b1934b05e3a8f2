// ScenarioSpec JSON parsing and canonical serialization.
//
// Parsing is strict: every key must be known to the section that owns it
// and every value must have the expected kind, with errors reported as
// "<source>:<line>:<col>: ...".  Numbers travel as raw tokens
// (resilience::parse_json) and are re-read with std::from_chars, and the
// serializer writes them back shortest-round-trip (obs::write_json_number),
// so parse(serialize(s)) == s bitwise for every numeric field.
#include "scenario/scenario.hpp"

#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "resilience/json_read.hpp"

namespace simsweep::scenario {

namespace {

using resilience::JsonValue;

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

/// One JSON object with strict key accounting: every member must be
/// consumed by find()/require() before finish(), which reports the first
/// untouched key as unknown — so each scenario kind only admits the keys it
/// actually reads.
class Section {
 public:
  Section(const Ctx& ctx, const JsonValue& value, std::string what)
      : ctx_(ctx), value_(value), what_(std::move(what)) {
    if (value.kind != JsonValue::Kind::kObject)
      ctx.fail(value.offset, what_ + " must be an object");
  }

  [[nodiscard]] const Ctx& ctx() const noexcept { return ctx_; }
  [[nodiscard]] const JsonValue& value() const noexcept { return value_; }

  const JsonValue* find(std::string_view key) {
    for (const auto& [k, v] : value_.object) {
      if (k == key) {
        used_.insert(std::string(key));
        return &v;
      }
    }
    return nullptr;
  }

  const JsonValue& require(std::string_view key) {
    const JsonValue* v = find(key);
    if (v == nullptr)
      ctx_.fail(value_.offset,
                what_ + " is missing required key '" + std::string(key) + "'");
    return *v;
  }

  double to_double(const JsonValue& v, std::string_view key) {
    if (v.kind != JsonValue::Kind::kNumber)
      ctx_.fail(v.offset, "'" + std::string(key) + "' must be a number");
    return v.as_double();
  }

  std::uint64_t to_uint(const JsonValue& v, std::string_view key) {
    if (v.kind != JsonValue::Kind::kNumber)
      ctx_.fail(v.offset, "'" + std::string(key) + "' must be a number");
    try {
      return v.as_uint64();
    } catch (const resilience::JsonError&) {
      ctx_.fail(v.offset, "'" + std::string(key) +
                              "' must be a non-negative integer, got '" +
                              v.number + "'");
    }
  }

  double get_double(std::string_view key, double fallback) {
    const JsonValue* v = find(key);
    return v == nullptr ? fallback : to_double(*v, key);
  }

  /// A present value must be > 0 (the fallback is trusted).
  double get_positive(std::string_view key, double fallback) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    const double out = to_double(*v, key);
    if (!(out > 0.0))
      ctx_.fail(v->offset, "'" + std::string(key) + "' must be > 0");
    return out;
  }

  std::uint64_t get_uint(std::string_view key, std::uint64_t fallback) {
    const JsonValue* v = find(key);
    return v == nullptr ? fallback : to_uint(*v, key);
  }

  std::size_t get_size(std::string_view key, std::size_t fallback) {
    return static_cast<std::size_t>(
        get_uint(key, static_cast<std::uint64_t>(fallback)));
  }

  bool get_bool(std::string_view key, bool fallback) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    if (v->kind != JsonValue::Kind::kBool)
      ctx_.fail(v->offset, "'" + std::string(key) + "' must be a boolean");
    return v->boolean;
  }

  std::string get_string(std::string_view key, std::string fallback) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    if (v->kind != JsonValue::Kind::kString)
      ctx_.fail(v->offset, "'" + std::string(key) + "' must be a string");
    return v->string;
  }

  std::string require_string(std::string_view key) {
    const JsonValue& v = require(key);
    if (v.kind != JsonValue::Kind::kString)
      ctx_.fail(v.offset, "'" + std::string(key) + "' must be a string");
    return v.string;
  }

  /// Sets `out` only when the key is present (policy-override semantics).
  void get_optional(std::string_view key, std::optional<double>& out) {
    const JsonValue* v = find(key);
    if (v != nullptr) out = to_double(*v, key);
  }

  std::vector<double> get_double_list(std::string_view key) {
    const JsonValue* v = find(key);
    std::vector<double> out;
    if (v == nullptr) return out;
    if (v->kind != JsonValue::Kind::kArray)
      ctx_.fail(v->offset, "'" + std::string(key) + "' must be an array");
    for (const JsonValue& e : v->array) out.push_back(to_double(e, key));
    return out;
  }

  void finish() {
    for (const auto& [k, v] : value_.object)
      if (used_.find(k) == used_.end())
        ctx_.fail(v.key_offset, what_ + ": unknown key '" + k + "'");
  }

 private:
  const Ctx& ctx_;
  const JsonValue& value_;
  std::string what_;
  std::set<std::string, std::less<>> used_;
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

template <typename E, std::size_t N>
const char* enum_name(const std::pair<E, const char*> (&table)[N], E value) {
  for (const auto& [e, name] : table)
    if (e == value) return name;
  return "?";
}

template <typename E, std::size_t N>
E parse_enum(const Ctx& ctx, const JsonValue& v,
             const std::pair<E, const char*> (&table)[N],
             const std::string& what, const std::string& token) {
  for (const auto& [e, name] : table)
    if (token == name) return e;
  std::string choices;
  for (const auto& [e, name] : table) {
    if (!choices.empty()) choices += '|';
    choices += name;
  }
  ctx.fail(v.offset, "unknown " + what + " '" + token + "' (" + choices + ")");
}

// ---------------------------------------------------------------------------
// Section parsers.

LoadSpec parse_load(const Ctx& ctx, const JsonValue& value,
                    const std::string& what) {
  Section s(ctx, value, what);
  LoadSpec out;
  const JsonValue& model = s.require("model");
  if (model.kind != JsonValue::Kind::kString)
    ctx.fail(model.offset, "'model' must be a string");
  out.kind = parse_enum(ctx, model, kLoadNames, "load model", model.string);
  switch (out.kind) {
    case LoadKind::kOnOff: {
      const JsonValue* dynamism = s.find("dynamism");
      if (dynamism != nullptr) {
        // Shorthand for the paper's symmetric chain: p = q = dynamism.
        if (s.find("p") != nullptr || s.find("q") != nullptr)
          ctx.fail(dynamism->offset,
                   "'dynamism' excludes explicit 'p'/'q' values");
        out.p = out.q = s.to_double(*dynamism, "dynamism");
      } else {
        out.p = s.get_double("p", out.p);
        out.q = s.get_double("q", out.q);
      }
      out.step_s = s.get_double("step_s", out.step_s);
      out.stationary_start = s.get_bool("stationary_start", out.stationary_start);
      break;
    }
    case LoadKind::kHyperExp:
      out.mean_lifetime_s = s.get_double("mean_lifetime_s", out.mean_lifetime_s);
      out.long_prob = s.get_double("long_prob", out.long_prob);
      out.mean_interarrival_s =
          s.get_double("mean_interarrival_s", out.mean_interarrival_s);
      break;
    case LoadKind::kReclaim: {
      out.mean_available_s = s.get_double("mean_available_s", out.mean_available_s);
      out.mean_reclaimed_s = s.get_double("mean_reclaimed_s", out.mean_reclaimed_s);
      out.start_available = s.get_bool("start_available", out.start_available);
      const JsonValue* base = s.find("base");
      if (base != nullptr && !base->is_null())
        out.base = std::make_shared<LoadSpec>(
            parse_load(ctx, *base, what + ".base"));
      break;
    }
    case LoadKind::kTrace: {
      const JsonValue& samples = s.require("samples");
      if (samples.kind != JsonValue::Kind::kArray || samples.array.empty())
        ctx.fail(samples.offset, "'samples' must be a non-empty array");
      for (const JsonValue& pair : samples.array) {
        if (pair.kind != JsonValue::Kind::kArray || pair.array.size() != 2)
          ctx.fail(pair.offset, "'samples' entries must be [time, load] pairs");
        out.samples.push_back({s.to_double(pair.array[0], "samples"),
                               s.to_double(pair.array[1], "samples")});
      }
      // Same default as `--period`: one second past the last sample.
      out.period_s = s.get_positive("period_s", out.samples.back().time + 1.0);
      out.random_phase = s.get_bool("random_phase", out.random_phase);
      break;
    }
  }
  s.finish();
  return out;
}

PolicySpec parse_policy(const Ctx& ctx, const JsonValue& value,
                        const std::string& what) {
  Section s(ctx, value, what);
  PolicySpec out;
  const JsonValue* base = s.find("base");
  if (base != nullptr) {
    if (base->kind != JsonValue::Kind::kString)
      ctx.fail(base->offset, "'base' must be a string");
    if (base->string != "greedy" && base->string != "safe" &&
        base->string != "friendly")
      ctx.fail(base->offset, "unknown policy base '" + base->string +
                                 "' (greedy|safe|friendly)");
    out.base = base->string;
  }
  s.get_optional("payback_threshold_iters", out.payback_threshold_iters);
  s.get_optional("min_process_improvement", out.min_process_improvement);
  s.get_optional("min_app_improvement", out.min_app_improvement);
  s.get_optional("history_window_s", out.history_window_s);
  s.get_optional("max_swaps_per_decision", out.max_swaps_per_decision);
  s.finish();
  return out;
}

EstimatorSpec parse_estimator(const Ctx& ctx, const JsonValue& value,
                              const std::string& what) {
  Section s(ctx, value, what);
  EstimatorSpec out;
  const JsonValue& kind = s.require("kind");
  if (kind.kind != JsonValue::Kind::kString)
    ctx.fail(kind.offset, "'kind' must be a string");
  out.kind =
      parse_enum(ctx, kind, kEstimatorNames, "estimator kind", kind.string);
  switch (out.kind) {
    case EstimatorKind::kWindow:
      out.window_s = s.get_double("window_s", out.window_s);
      break;
    case EstimatorKind::kEwma:
      out.tau_s = s.get_double("tau_s", out.tau_s);
      break;
    case EstimatorKind::kMedian:
      out.k = s.get_size("k", out.k);
      break;
    case EstimatorKind::kPolicy:
    case EstimatorKind::kNws:
      break;
  }
  s.finish();
  return out;
}

StrategySpec parse_strategy(const Ctx& ctx, const JsonValue& value,
                            const std::string& what) {
  Section s(ctx, value, what);
  StrategySpec out;
  const JsonValue& kind = s.require("kind");
  if (kind.kind != JsonValue::Kind::kString)
    ctx.fail(kind.offset, "'kind' must be a string");
  out.kind =
      parse_enum(ctx, kind, kStrategyNames, "strategy kind", kind.string);
  const bool has_policy = out.kind == StrategyKind::kSwap ||
                          out.kind == StrategyKind::kDlbSwap ||
                          out.kind == StrategyKind::kCr;
  if (has_policy) {
    const JsonValue* policy = s.find("policy");
    if (policy != nullptr)
      out.policy = parse_policy(ctx, *policy, what + ".policy");
  }
  if (out.kind == StrategyKind::kSwap) {
    const JsonValue* estimator = s.find("estimator");
    if (estimator != nullptr)
      out.estimator = parse_estimator(ctx, *estimator, what + ".estimator");
    out.guard = s.get_bool("guard", out.guard);
    out.stall_factor = s.get_double("stall_factor", out.stall_factor);
  }
  s.finish();
  return out;
}

AxisSpec parse_axis(const Ctx& ctx, const JsonValue& value) {
  Section s(ctx, value, "axis");
  AxisSpec out;
  out.label = s.get_string("label", out.label);
  const JsonValue* binds = s.find("binds");
  if (binds != nullptr) {
    if (binds->kind != JsonValue::Kind::kString)
      ctx.fail(binds->offset, "'binds' must be a string");
    out.binding =
        parse_enum(ctx, *binds, kBindingNames, "axis binding", binds->string);
  }
  const JsonValue* x = s.find("x");
  out.x = s.get_double_list("x");
  if (out.x.empty())
    ctx.fail(x != nullptr ? x->offset : value.offset, "'x' must not be empty");
  out.interarrival_factor =
      s.get_double("interarrival_factor", out.interarrival_factor);
  out.on_positive_swap_fail_prob = s.get_double(
      "on_positive_swap_fail_prob", out.on_positive_swap_fail_prob);
  out.on_positive_checkpoint_fail_prob = s.get_double(
      "on_positive_checkpoint_fail_prob", out.on_positive_checkpoint_fail_prob);
  s.finish();
  return out;
}

VariantSpec parse_variant(const Ctx& ctx, const JsonValue& value,
                          std::size_t index) {
  const std::string what = "variants[" + std::to_string(index) + "]";
  Section s(ctx, value, what);
  VariantSpec out;
  out.name = s.require_string("name");
  out.strategy = parse_strategy(ctx, s.require("strategy"), what + ".strategy");
  const JsonValue* state = s.find("state_mb");
  if (state != nullptr) out.state_mb = s.to_double(*state, "state_mb");
  const JsonValue* load = s.find("load");
  if (load != nullptr) out.load = parse_load(ctx, *load, what + ".load");
  const JsonValue* schedule = s.find("initial_schedule");
  if (schedule != nullptr) {
    if (schedule->kind != JsonValue::Kind::kString)
      ctx.fail(schedule->offset, "'initial_schedule' must be a string");
    out.initial_schedule = parse_enum(ctx, *schedule, kScheduleNames,
                                      "initial schedule", schedule->string);
  }
  s.finish();
  return out;
}

ReportSpec parse_report(const Ctx& ctx, const JsonValue& value,
                        std::size_t index) {
  const std::string what = "reports[" + std::to_string(index) + "]";
  Section s(ctx, value, what);
  ReportSpec out;
  out.title = s.require_string("title");
  out.expectation = s.get_string("expectation", "");
  const JsonValue& series = s.require("series");
  if (series.kind != JsonValue::Kind::kArray)
    ctx.fail(series.offset, "'series' must be an array");
  for (std::size_t i = 0; i < series.array.size(); ++i) {
    const std::string swhat = what + ".series[" + std::to_string(i) + "]";
    Section e(ctx, series.array[i], swhat);
    SeriesSpec entry;
    entry.name = e.require_string("name");
    entry.variant = e.get_size("variant", 0);
    const JsonValue* metric = e.find("metric");
    if (metric != nullptr) {
      if (metric->kind != JsonValue::Kind::kString)
        ctx.fail(metric->offset, "'metric' must be a string");
      entry.metric =
          parse_enum(ctx, *metric, kMetricNames, "metric", metric->string);
    }
    e.finish();
    out.series.push_back(std::move(entry));
  }
  if (out.series.empty())
    ctx.fail(series.offset, what + ": 'series' must not be empty");
  s.finish();
  return out;
}

void parse_config(const Ctx& ctx, const JsonValue& value, ScenarioSpec& out) {
  Section s(ctx, value, "config");
  out.hosts = s.get_size("hosts", out.hosts);
  out.active = s.get_size("active", out.active);
  out.iterations = s.get_size("iterations", out.iterations);
  out.iter_minutes = s.get_double("iter_minutes", out.iter_minutes);
  out.state_mb = s.get_double("state_mb", out.state_mb);
  out.comm_kb = s.get_double("comm_kb", out.comm_kb);
  out.spares = s.get_size("spares", out.hosts - out.active);
  out.seed = s.get_uint("seed", out.seed);
  out.horizon_hours = s.get_double("horizon_hours", out.horizon_hours);
  const JsonValue* schedule = s.find("initial_schedule");
  if (schedule != nullptr) {
    if (schedule->kind != JsonValue::Kind::kString)
      ctx.fail(schedule->offset, "'initial_schedule' must be a string");
    out.initial_schedule = parse_enum(ctx, *schedule, kScheduleNames,
                                      "initial schedule", schedule->string);
  }
  out.max_events = s.get_uint("max_events", out.max_events);
  s.finish();
}

void parse_faults(const Ctx& ctx, const JsonValue& value, ScenarioSpec& out) {
  Section s(ctx, value, "faults");
  out.mtbf_hours = s.get_double("mtbf_hours", out.mtbf_hours);
  out.swap_fail_prob = s.get_double("swap_fail_prob", out.swap_fail_prob);
  out.checkpoint_fail_prob =
      s.get_double("checkpoint_fail_prob", out.checkpoint_fail_prob);
  out.max_transfer_retries =
      s.get_size("max_transfer_retries", out.max_transfer_retries);
  out.retry_backoff_s = s.get_double("retry_backoff_s", out.retry_backoff_s);
  out.retry_backoff_cap_s =
      s.get_double("retry_backoff_cap_s", out.retry_backoff_cap_s);
  out.blacklist_after = s.get_size("blacklist_after", out.blacklist_after);
  s.finish();
}

}  // namespace

const char* kind_name(Kind kind) { return enum_name(kKindNames, kind); }

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

  Section s(ctx, doc, "scenario");
  ScenarioSpec out;
  out.name = s.require_string("name");
  const JsonValue* kind = s.find("kind");
  if (kind != nullptr) {
    if (kind->kind != JsonValue::Kind::kString)
      ctx.fail(kind->offset, "'kind' must be a string");
    out.kind =
        parse_enum(ctx, *kind, kKindNames, "scenario kind", kind->string);
  }
  out.title = s.get_string("title", "");
  out.expectation = s.get_string("expectation", "");

  const bool has_platform = out.kind == Kind::kGrid ||
                            out.kind == Kind::kDecisionHistogram;
  if (has_platform) {
    const JsonValue* config = s.find("config");
    if (config != nullptr) {
      parse_config(ctx, *config, out);
    } else {
      out.spares = out.hosts - out.active;
    }
    const JsonValue* faults = s.find("faults");
    if (faults != nullptr) parse_faults(ctx, *faults, out);
    const JsonValue* trials = s.find("trials");
    out.trials = s.get_size("trials", out.trials);
    if (trials != nullptr && out.trials == 0)
      ctx.fail(trials->offset, "'trials' must be >= 1");
  }

  switch (out.kind) {
    case Kind::kGrid: {
      out.forbid_stalls = s.get_bool("forbid_stalls", out.forbid_stalls);
      const JsonValue* load = s.find("load");
      if (load != nullptr) out.load = parse_load(ctx, *load, "load");
      const JsonValue* axis = s.find("axis");
      if (axis != nullptr) out.axis = parse_axis(ctx, *axis);
      const JsonValue& variants = s.require("variants");
      if (variants.kind != JsonValue::Kind::kArray)
        ctx.fail(variants.offset, "'variants' must be an array");
      for (std::size_t i = 0; i < variants.array.size(); ++i) {
        out.variants.push_back(parse_variant(ctx, variants.array[i], i));
        for (std::size_t j = 0; j < i; ++j)
          if (out.variants[j].name == out.variants[i].name)
            ctx.fail(variants.array[i].offset,
                     "variants[" + std::to_string(i) + "] duplicates name '" +
                         out.variants[i].name + "'");
      }
      if (out.variants.empty())
        ctx.fail(variants.offset, "'variants' must not be empty");
      const JsonValue* reports = s.find("reports");
      if (reports != nullptr) {
        if (reports->kind != JsonValue::Kind::kArray || reports->array.empty())
          ctx.fail(reports->offset, "'reports' must be a non-empty array");
        for (std::size_t i = 0; i < reports->array.size(); ++i)
          out.reports.push_back(parse_report(ctx, reports->array[i], i));
        for (const ReportSpec& report : out.reports)
          for (const SeriesSpec& series : report.series)
            if (series.variant >= out.variants.size())
              ctx.fail(reports->offset,
                       "report series '" + series.name +
                           "' references variant " +
                           std::to_string(series.variant) + " but only " +
                           std::to_string(out.variants.size()) +
                           " variant(s) are defined");
      }
      break;
    }
    case Kind::kPayback: {
      const JsonValue* payback = s.find("payback");
      if (payback != nullptr) {
        Section p(ctx, *payback, "payback");
        out.payback_iter_s = p.get_positive("iter_s", out.payback_iter_s);
        out.payback_swap_s = p.get_positive("swap_s", out.payback_swap_s);
        p.finish();
      }
      break;
    }
    case Kind::kLoadTrace: {
      out.load = parse_load(ctx, s.require("load"), "load");
      const JsonValue* trace = s.find("trace");
      if (trace != nullptr) {
        Section t(ctx, *trace, "trace");
        out.trace_horizon_s =
            t.get_positive("horizon_s", out.trace_horizon_s);
        out.trace_seed = t.get_uint("seed", out.trace_seed);
        t.finish();
      }
      break;
    }
    case Kind::kDecisionHistogram: {
      const JsonValue& histogram = s.require("histogram");
      Section h(ctx, histogram, "histogram");
      const JsonValue& policies = h.require("policies");
      if (policies.kind != JsonValue::Kind::kArray)
        ctx.fail(policies.offset, "'policies' must be an array");
      for (const JsonValue& p : policies.array) {
        if (p.kind != JsonValue::Kind::kString)
          ctx.fail(p.offset, "'policies' entries must be strings");
        if (p.string != "greedy" && p.string != "safe" &&
            p.string != "friendly")
          ctx.fail(p.offset, "unknown policy '" + p.string +
                                 "' (greedy|safe|friendly)");
        out.histogram_policies.push_back(p.string);
      }
      out.histogram_dynamisms = h.get_double_list("dynamisms");
      h.finish();
      if (out.histogram_policies.empty() || out.histogram_dynamisms.empty())
        ctx.fail(histogram.offset,
                 "'histogram' needs non-empty policies and dynamisms");
      break;
    }
  }
  s.finish();
  return out;
}

// ---------------------------------------------------------------------------
// Canonical serialization.

namespace {

void write_num(std::ostream& os, double v) { obs::write_json_number(os, v); }
void write_num(std::ostream& os, std::uint64_t v) {
  obs::write_json_number(os, v);
}
void write_str(std::ostream& os, const std::string& s) {
  obs::write_json_string(os, s);
}
void write_bool(std::ostream& os, bool b) { os << (b ? "true" : "false"); }

void write_load(std::ostream& os, const LoadSpec& l) {
  os << "{\"model\":\"" << enum_name(kLoadNames, l.kind) << '"';
  switch (l.kind) {
    case LoadKind::kOnOff:
      os << ",\"p\":";
      write_num(os, l.p);
      os << ",\"q\":";
      write_num(os, l.q);
      os << ",\"step_s\":";
      write_num(os, l.step_s);
      os << ",\"stationary_start\":";
      write_bool(os, l.stationary_start);
      break;
    case LoadKind::kHyperExp:
      os << ",\"mean_lifetime_s\":";
      write_num(os, l.mean_lifetime_s);
      os << ",\"long_prob\":";
      write_num(os, l.long_prob);
      os << ",\"mean_interarrival_s\":";
      write_num(os, l.mean_interarrival_s);
      break;
    case LoadKind::kReclaim:
      os << ",\"mean_available_s\":";
      write_num(os, l.mean_available_s);
      os << ",\"mean_reclaimed_s\":";
      write_num(os, l.mean_reclaimed_s);
      os << ",\"start_available\":";
      write_bool(os, l.start_available);
      if (l.base != nullptr) {
        os << ",\"base\":";
        write_load(os, *l.base);
      }
      break;
    case LoadKind::kTrace:
      os << ",\"samples\":[";
      for (std::size_t i = 0; i < l.samples.size(); ++i) {
        os << (i > 0 ? ",[" : "[");
        write_num(os, l.samples[i].time);
        os << ',';
        write_num(os, l.samples[i].value);
        os << ']';
      }
      os << "],\"period_s\":";
      write_num(os, l.period_s);
      os << ",\"random_phase\":";
      write_bool(os, l.random_phase);
      break;
  }
  os << '}';
}

void write_policy(std::ostream& os, const PolicySpec& p) {
  os << "{\"base\":";
  write_str(os, p.base);
  const auto field = [&os](const char* key, const std::optional<double>& v) {
    if (!v.has_value()) return;
    os << ",\"" << key << "\":";
    write_num(os, *v);
  };
  field("payback_threshold_iters", p.payback_threshold_iters);
  field("min_process_improvement", p.min_process_improvement);
  field("min_app_improvement", p.min_app_improvement);
  field("history_window_s", p.history_window_s);
  field("max_swaps_per_decision", p.max_swaps_per_decision);
  os << '}';
}

void write_estimator(std::ostream& os, const EstimatorSpec& e) {
  os << "{\"kind\":\"" << enum_name(kEstimatorNames, e.kind) << '"';
  switch (e.kind) {
    case EstimatorKind::kWindow:
      os << ",\"window_s\":";
      write_num(os, e.window_s);
      break;
    case EstimatorKind::kEwma:
      os << ",\"tau_s\":";
      write_num(os, e.tau_s);
      break;
    case EstimatorKind::kMedian:
      os << ",\"k\":";
      write_num(os, e.k);
      break;
    case EstimatorKind::kPolicy:
    case EstimatorKind::kNws:
      break;
  }
  os << '}';
}

void write_strategy(std::ostream& os, const StrategySpec& s) {
  os << "{\"kind\":\"" << enum_name(kStrategyNames, s.kind) << '"';
  if (s.kind == StrategyKind::kSwap || s.kind == StrategyKind::kDlbSwap ||
      s.kind == StrategyKind::kCr) {
    os << ",\"policy\":";
    write_policy(os, s.policy);
  }
  if (s.kind == StrategyKind::kSwap) {
    os << ",\"estimator\":";
    write_estimator(os, s.estimator);
    os << ",\"guard\":";
    write_bool(os, s.guard);
    os << ",\"stall_factor\":";
    write_num(os, s.stall_factor);
  }
  os << '}';
}

void write_variant(std::ostream& os, const VariantSpec& v) {
  os << "{\"name\":";
  write_str(os, v.name);
  os << ",\"strategy\":";
  write_strategy(os, v.strategy);
  if (v.state_mb.has_value()) {
    os << ",\"state_mb\":";
    write_num(os, *v.state_mb);
  }
  if (v.load.has_value()) {
    os << ",\"load\":";
    write_load(os, *v.load);
  }
  if (v.initial_schedule.has_value())
    os << ",\"initial_schedule\":\""
       << enum_name(kScheduleNames, *v.initial_schedule) << '"';
  os << '}';
}

void write_axis(std::ostream& os, const AxisSpec& a) {
  os << "{\"label\":";
  write_str(os, a.label);
  os << ",\"binds\":\"" << enum_name(kBindingNames, a.binding)
     << "\",\"x\":[";
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    if (i > 0) os << ',';
    write_num(os, a.x[i]);
  }
  os << "],\"interarrival_factor\":";
  write_num(os, a.interarrival_factor);
  os << ",\"on_positive_swap_fail_prob\":";
  write_num(os, a.on_positive_swap_fail_prob);
  os << ",\"on_positive_checkpoint_fail_prob\":";
  write_num(os, a.on_positive_checkpoint_fail_prob);
  os << '}';
}

void write_report(std::ostream& os, const ReportSpec& r) {
  os << "{\"title\":";
  write_str(os, r.title);
  os << ",\"expectation\":";
  write_str(os, r.expectation);
  os << ",\"series\":[";
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"name\":";
    write_str(os, r.series[i].name);
    os << ",\"variant\":";
    write_num(os, r.series[i].variant);
    os << ",\"metric\":\"" << enum_name(kMetricNames, r.series[i].metric)
       << "\"}";
  }
  os << "]}";
}

}  // namespace

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "{\"name\":";
  write_str(os, spec.name);
  os << ",\"kind\":\"" << enum_name(kKindNames, spec.kind) << "\",\"title\":";
  write_str(os, spec.title);
  os << ",\"expectation\":";
  write_str(os, spec.expectation);

  const bool has_platform =
      spec.kind == Kind::kGrid || spec.kind == Kind::kDecisionHistogram;
  if (has_platform) {
    os << ",\"config\":{\"hosts\":";
    write_num(os, spec.hosts);
    os << ",\"active\":";
    write_num(os, spec.active);
    os << ",\"iterations\":";
    write_num(os, spec.iterations);
    os << ",\"iter_minutes\":";
    write_num(os, spec.iter_minutes);
    os << ",\"state_mb\":";
    write_num(os, spec.state_mb);
    os << ",\"comm_kb\":";
    write_num(os, spec.comm_kb);
    os << ",\"spares\":";
    write_num(os, spec.spares);
    os << ",\"seed\":";
    write_num(os, spec.seed);
    os << ",\"horizon_hours\":";
    write_num(os, spec.horizon_hours);
    os << ",\"initial_schedule\":\""
       << enum_name(kScheduleNames, spec.initial_schedule)
       << "\",\"max_events\":";
    write_num(os, spec.max_events);
    os << "},\"faults\":{\"mtbf_hours\":";
    write_num(os, spec.mtbf_hours);
    os << ",\"swap_fail_prob\":";
    write_num(os, spec.swap_fail_prob);
    os << ",\"checkpoint_fail_prob\":";
    write_num(os, spec.checkpoint_fail_prob);
    os << ",\"max_transfer_retries\":";
    write_num(os, spec.max_transfer_retries);
    os << ",\"retry_backoff_s\":";
    write_num(os, spec.retry_backoff_s);
    os << ",\"retry_backoff_cap_s\":";
    write_num(os, spec.retry_backoff_cap_s);
    os << ",\"blacklist_after\":";
    write_num(os, spec.blacklist_after);
    os << "},\"trials\":";
    write_num(os, spec.trials);
  }

  switch (spec.kind) {
    case Kind::kGrid: {
      os << ",\"forbid_stalls\":";
      write_bool(os, spec.forbid_stalls);
      os << ",\"load\":";
      write_load(os, spec.load);
      os << ",\"axis\":";
      write_axis(os, spec.axis);
      os << ",\"variants\":[";
      for (std::size_t i = 0; i < spec.variants.size(); ++i) {
        if (i > 0) os << ',';
        write_variant(os, spec.variants[i]);
      }
      os << ']';
      if (!spec.reports.empty()) {
        os << ",\"reports\":[";
        for (std::size_t i = 0; i < spec.reports.size(); ++i) {
          if (i > 0) os << ',';
          write_report(os, spec.reports[i]);
        }
        os << ']';
      }
      break;
    }
    case Kind::kPayback:
      os << ",\"payback\":{\"iter_s\":";
      write_num(os, spec.payback_iter_s);
      os << ",\"swap_s\":";
      write_num(os, spec.payback_swap_s);
      os << '}';
      break;
    case Kind::kLoadTrace:
      os << ",\"load\":";
      write_load(os, spec.load);
      os << ",\"trace\":{\"horizon_s\":";
      write_num(os, spec.trace_horizon_s);
      os << ",\"seed\":";
      write_num(os, spec.trace_seed);
      os << '}';
      break;
    case Kind::kDecisionHistogram: {
      os << ",\"histogram\":{\"policies\":[";
      for (std::size_t i = 0; i < spec.histogram_policies.size(); ++i) {
        if (i > 0) os << ',';
        write_str(os, spec.histogram_policies[i]);
      }
      os << "],\"dynamisms\":[";
      for (std::size_t i = 0; i < spec.histogram_dynamisms.size(); ++i) {
        if (i > 0) os << ',';
        write_num(os, spec.histogram_dynamisms[i]);
      }
      os << "]}";
      break;
    }
  }
  os << '}';
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
