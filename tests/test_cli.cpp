// Tests for the CLI flag parser and the flag overlays on scenario specs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/bench_cmd.hpp"
#include "cli/config_build.hpp"
#include "core/trial_runner.hpp"
#include "load/hyperexp.hpp"
#include "load/onoff.hpp"
#include "load/reclamation.hpp"
#include "scenario/scenario.hpp"

namespace cli = simsweep::cli;
namespace scn = simsweep::scenario;

TEST(Args, ParsesEqualsAndSpaceSeparatedFlags) {
  cli::Args args({"--alpha=3.5", "--beta", "7", "--gamma"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.get_bool("gamma"));
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_TRUE(args.unused_flags().empty());
}

TEST(Args, PositionalArgumentsPreserveOrder) {
  cli::Args args({"one", "--flag=x", "two"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"one", "two"}));
}

TEST(Args, FallbacksWhenAbsent) {
  cli::Args args({});
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_int("n", -3), -3);
  EXPECT_EQ(args.get_double_list("xs", {1.0, 2.0}),
            (std::vector<double>{1.0, 2.0}));
}

TEST(Args, MalformedValuesThrow) {
  cli::Args a({"--x=abc"});
  EXPECT_THROW((void)a.get_double("x", 0.0), std::invalid_argument);
  cli::Args b({"--n=1.5x"});
  EXPECT_THROW((void)b.get_int("n", 0), std::invalid_argument);
  cli::Args c({"--b=maybe"});
  EXPECT_THROW((void)c.get_bool("b"), std::invalid_argument);
  cli::Args d({"--xs=1,,2"});
  EXPECT_THROW((void)d.get_double_list("xs", {}), std::invalid_argument);
  // strtod parses these, but no flag means a non-finite number.
  for (const char* text : {"nan", "inf", "-inf", "infinity"}) {
    cli::Args e({std::string("--x=") + text});
    EXPECT_THROW((void)e.get_double("x", 0.0), std::invalid_argument) << text;
    cli::Args f({std::string("--xs=0,") + text});
    EXPECT_THROW((void)f.get_double_list("xs", {}), std::invalid_argument)
        << text;
  }
  // Counts reject negatives instead of wrapping; the fallback is not checked.
  cli::Args g({"--n=-1"});
  EXPECT_THROW((void)g.get_count("n", 0), std::invalid_argument);
  cli::Args h({"--n=7"});
  EXPECT_EQ(h.get_count("n", 0), 7u);
  EXPECT_EQ(h.get_count("absent", ~std::uint64_t{0}), ~std::uint64_t{0});
  // The whole string must be the count: no suffixes, signs, fractions,
  // exponents or values past 2^64 - 1.
  for (const char* text : {"2x", "+3", " 3", "", "2.7", "1e3",
                           "18446744073709551616"}) {
    cli::Args bad({std::string("--n=") + text});
    EXPECT_THROW((void)bad.get_count("n", 0), std::invalid_argument) << text;
  }
  // Cell-index lists (--inject-fail / --inject-hang) parse each element as
  // a count instead of truncating a double.
  for (const char* text : {"2.7", "1e30", "-1", "1,,2", "0,x"}) {
    cli::Args bad({std::string("--cells=") + text});
    EXPECT_THROW((void)bad.get_count_list("cells"), std::invalid_argument)
        << text;
  }
  cli::Args cells({"--cells=3,0"});
  EXPECT_EQ(cells.get_count_list("cells"), (std::vector<std::size_t>{3, 0}));
  EXPECT_TRUE(cells.get_count_list("absent").empty());
}

TEST(Args, DoubleListParses) {
  cli::Args args({"--points=0,0.5,1"});
  EXPECT_EQ(args.get_double_list("points", {}),
            (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(Args, UnusedFlagsAreReported) {
  cli::Args args({"--used=1", "--typo=2"});
  (void)args.get_int("used", 0);
  EXPECT_EQ(args.unused_flags(), (std::vector<std::string>{"typo"}));
  EXPECT_THROW(cli::reject_unused(args), std::invalid_argument);
}

TEST(Args, EditDistanceMatchesKnownCases) {
  EXPECT_EQ(cli::edit_distance("", ""), 0u);
  EXPECT_EQ(cli::edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(cli::edit_distance("abc", ""), 3u);
  EXPECT_EQ(cli::edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(cli::edit_distance("trails", "trials"), 2u);  // transposition
  EXPECT_EQ(cli::edit_distance("jobs", "job"), 1u);
}

TEST(Args, SuggestFlagPicksNearestOrNothing) {
  const std::vector<std::string> vocab{"trials", "points", "jobs", "seed"};
  EXPECT_EQ(cli::suggest_flag("trails", vocab), "trials");
  EXPECT_EQ(cli::suggest_flag("point", vocab), "points");
  // Nothing plausibly close: stay silent rather than mislead.
  EXPECT_EQ(cli::suggest_flag("frobnicate", vocab), "");
  EXPECT_EQ(cli::suggest_flag("x", {}), "");
}

TEST(Args, UnknownFlagErrorCarriesSuggestion) {
  cli::Args args({"--trails=3", "--seed=1"});
  (void)args.get_int("trials", 8);  // the getter builds the vocabulary
  (void)args.get_int("seed", 1);
  try {
    cli::reject_unused(args);
    FAIL() << "reject_unused should have thrown";
  } catch (const cli::UnknownFlagError& e) {
    EXPECT_EQ(e.flags(), (std::vector<std::string>{"trails"}));
    const std::string what = e.what();
    EXPECT_NE(what.find("--trails"), std::string::npos);
    EXPECT_NE(what.find("did you mean '--trials'?"), std::string::npos);
  }
}

TEST(Args, UnknownFlagWithoutNearMatchHasNoSuggestion) {
  cli::Args args({"--frobnicate=3"});
  (void)args.get_int("trials", 8);
  try {
    cli::reject_unused(args);
    FAIL() << "reject_unused should have thrown";
  } catch (const cli::UnknownFlagError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--frobnicate"), std::string::npos);
    EXPECT_EQ(what.find("did you mean"), std::string::npos);
  }
}

TEST(Args, BooleanValueForms) {
  cli::Args args({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_FALSE(args.get_bool("b"));
  EXPECT_TRUE(args.get_bool("c"));
  EXPECT_FALSE(args.get_bool("d"));
}

/// The paper spec with the platform flags laid over it, as `run` builds it.
simsweep::core::ExperimentConfig build_config(cli::Args& args) {
  scn::ScenarioSpec spec;
  cli::apply_config_flags(args, spec);
  return scn::base_config(spec);
}

/// A default load section with the load flags laid over it.
std::shared_ptr<const simsweep::load::LoadModel> build_load_model(
    cli::Args& args) {
  scn::LoadSpec spec;
  cli::apply_load_flags(args, spec);
  return scn::make_load_model(spec);
}

/// `run`'s default strategy section (SWAP) with the strategy flags over it.
std::unique_ptr<simsweep::strategy::Strategy> build_strategy(cli::Args& args) {
  scn::StrategySpec spec;
  spec.kind = scn::StrategyKind::kSwap;
  cli::apply_strategy_flags(args, spec);
  return scn::make_strategy(spec);
}

TEST(ConfigBuild, DefaultsMatchPaperPlatform) {
  cli::Args args({});
  const auto cfg = build_config(args);
  EXPECT_EQ(cfg.cluster.host_count, 32u);
  EXPECT_EQ(cfg.app.active_processes, 4u);
  EXPECT_EQ(cfg.spare_count, 28u);  // everything not active is a spare
  EXPECT_EQ(cfg.app.iterations, 60u);
  EXPECT_DOUBLE_EQ(cfg.app.state_bytes_per_process, simsweep::app::kMiB);
}

TEST(ConfigBuild, FlagsOverrideAndValidate) {
  cli::Args args({"--hosts=16", "--active=8", "--spares=4", "--state-mb=100",
                  "--seed=99"});
  const auto cfg = build_config(args);
  EXPECT_EQ(cfg.cluster.host_count, 16u);
  EXPECT_EQ(cfg.spare_count, 4u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_DOUBLE_EQ(cfg.app.state_bytes_per_process,
                   100.0 * simsweep::app::kMiB);

  cli::Args bad({"--hosts=4", "--active=4", "--spares=1"});
  EXPECT_THROW((void)build_config(bad), std::invalid_argument);

  // Inputs that used to wrap size_t / uint64_t or run silently.
  for (const std::vector<std::string>& flags :
       std::vector<std::vector<std::string>>{
           {"--hosts=4", "--active=8"},  // default spares = hosts - active
           // active + spares wraps to 0
           {"--hosts=4", "--active=1", "--spares=18446744073709551615"},
           {"--spares=-1"},
           {"--seed=-1"},
           {"--hosts=-32"},
           {"--iters=-1"},
           {"--fault-retries=-1"},
           {"--blacklist-after=-1"},
           {"--max-events=-1"},
           {"--iter-minutes=nan"},
           {"--iter-minutes=0"},
           {"--comm-kb=1e308"},  // overflows to inf bytes
           {"--iter-minutes=1e308"},
           {"--state-mb=1e308"},
       }) {
    cli::Args args_bad(flags);
    EXPECT_THROW((void)build_config(args_bad), std::invalid_argument)
        << flags.front();
  }
  cli::Args nan_load({"--dynamism=nan"});
  EXPECT_THROW((void)build_load_model(nan_load), std::invalid_argument);
}

TEST(ConfigBuild, AuditFlagSelectsMode) {
  namespace audit = simsweep::audit;
  cli::Args off({});
  EXPECT_EQ(cli::parse_audit_flag(off), audit::AuditMode::kOff);
  cli::Args bare({"--audit"});  // bare flag means fail-fast
  EXPECT_EQ(cli::parse_audit_flag(bare), audit::AuditMode::kFail);
  cli::Args warn({"--audit=warn"});
  EXPECT_EQ(cli::parse_audit_flag(warn), audit::AuditMode::kWarn);
  cli::Args fail({"--audit=fail"});
  EXPECT_EQ(cli::parse_audit_flag(fail), audit::AuditMode::kFail);
  cli::Args bad({"--audit=loud"});
  EXPECT_THROW((void)cli::parse_audit_flag(bad), std::invalid_argument);
}

TEST(ConfigBuild, LoadModels) {
  cli::Args onoff({"--model=onoff", "--dynamism=0.3"});
  const auto m1 = build_load_model(onoff);
  const auto* onoff_model =
      dynamic_cast<const simsweep::load::OnOffModel*>(m1.get());
  ASSERT_NE(onoff_model, nullptr);
  EXPECT_DOUBLE_EQ(onoff_model->params().p, 0.3);

  cli::Args hyper({"--model=hyperexp", "--lifetime=150"});
  const auto m2 = build_load_model(hyper);
  const auto* hyper_model =
      dynamic_cast<const simsweep::load::HyperExpModel*>(m2.get());
  ASSERT_NE(hyper_model, nullptr);
  EXPECT_DOUBLE_EQ(hyper_model->params().mean_lifetime_s, 150.0);

  cli::Args reclaim({"--model=reclaim", "--reclaim-min=5"});
  const auto m3 = build_load_model(reclaim);
  const auto* reclaim_model =
      dynamic_cast<const simsweep::load::ReclamationModel*>(m3.get());
  ASSERT_NE(reclaim_model, nullptr);
  EXPECT_DOUBLE_EQ(reclaim_model->params().mean_reclaimed_s, 300.0);

  cli::Args bad({"--model=nope"});
  EXPECT_THROW((void)build_load_model(bad), std::invalid_argument);
}

TEST(ConfigBuild, Strategies) {
  cli::Args none({"--strategy=none"});
  EXPECT_EQ(build_strategy(none)->name(), "NONE");

  cli::Args swap({"--strategy=swap", "--policy=safe"});
  EXPECT_EQ(build_strategy(swap)->name(), "SWAP(safe)");

  cli::Args dlb({"--strategy=dlb"});
  EXPECT_EQ(build_strategy(dlb)->name(), "DLB");

  cli::Args cr({"--strategy=cr"});
  EXPECT_EQ(build_strategy(cr)->name(), "CR");

  cli::Args dlbswap({"--strategy=dlbswap", "--policy=greedy"});
  EXPECT_EQ(build_strategy(dlbswap)->name(), "DLB+SWAP(greedy)");

  cli::Args bad({"--strategy=warp"});
  EXPECT_THROW((void)build_strategy(bad), std::invalid_argument);
  cli::Args badpol({"--strategy=swap", "--policy=reckless"});
  EXPECT_THROW((void)build_strategy(badpol), std::invalid_argument);
}

TEST(ConfigBuild, PolicyOverridesApply) {
  cli::Args args({"--strategy=swap", "--policy=greedy", "--payback=1.5",
                  "--min-process=0.1", "--history=120"});
  auto s = build_strategy(args);
  const auto* swap_s = dynamic_cast<simsweep::strategy::SwapStrategy*>(s.get());
  ASSERT_NE(swap_s, nullptr);
  EXPECT_DOUBLE_EQ(swap_s->policy().payback_threshold_iters, 1.5);
  EXPECT_DOUBLE_EQ(swap_s->policy().min_process_improvement, 0.1);
  EXPECT_DOUBLE_EQ(swap_s->policy().history_window_s, 120.0);
}

TEST(ConfigBuild, PredictorSelection) {
  for (const char* p : {"window", "nws", "ewma", "median"}) {
    cli::Args args({"--strategy=swap", std::string("--predictor=") + p});
    EXPECT_NO_THROW((void)build_strategy(args)) << p;
  }
  cli::Args bad({"--strategy=swap", "--predictor=psychic"});
  EXPECT_THROW((void)build_strategy(bad), std::invalid_argument);
}

TEST(ConfigBuild, KindFlagsRestartAndOtherFlagsOverlay) {
  // A scenario's hyperexp section: parameter flags overlay it, and
  // --lifetime resets the interarrival to twice the lifetime.
  scn::LoadSpec load;
  load.kind = scn::LoadKind::kHyperExp;
  load.long_prob = 0.05;
  cli::Args lifetime({"--lifetime=50"});
  cli::apply_load_flags(lifetime, load);
  EXPECT_EQ(load.long_prob, 0.05);
  EXPECT_EQ(load.mean_lifetime_s, 50.0);
  EXPECT_EQ(load.mean_interarrival_s, 100.0);
  // Naming the model restarts from the scenario defaults for it.
  cli::Args model({"--model=hyperexp"});
  cli::apply_load_flags(model, load);
  EXPECT_EQ(load.long_prob, 0.2);
  EXPECT_EQ(load.mean_lifetime_s, 100.0);
  EXPECT_EQ(load.mean_interarrival_s, 200.0);
  // Flags of another model stay unread, so reject_unused reports them.
  cli::Args other({"--p=0.5"});
  cli::apply_load_flags(other, load);
  EXPECT_THROW(cli::reject_unused(other), cli::UnknownFlagError);

  // A scenario's CR variant keeps its policy overrides under --policy;
  // --strategy restarts the section.
  scn::StrategySpec strategy;
  strategy.kind = scn::StrategyKind::kCr;
  strategy.policy.history_window_s = 60.0;
  cli::Args safe({"--policy=safe", "--payback=0.5"});
  cli::apply_strategy_flags(safe, strategy);
  EXPECT_EQ(strategy.policy.base, "safe");
  EXPECT_EQ(strategy.policy.payback_threshold_iters, 0.5);
  EXPECT_EQ(strategy.policy.history_window_s, 60.0);
  cli::Args restart({"--strategy=cr"});
  cli::apply_strategy_flags(restart, strategy);
  scn::StrategySpec fresh_cr;
  fresh_cr.kind = scn::StrategyKind::kCr;
  EXPECT_EQ(strategy, fresh_cr);
  // Policy flags mean nothing to NONE.
  strategy.kind = scn::StrategyKind::kNone;
  cli::Args ignored({"--payback=2"});
  cli::apply_strategy_flags(ignored, strategy);
  EXPECT_THROW(cli::reject_unused(ignored), cli::UnknownFlagError);
}

// ---------------------------------------------------------------------------
// Environment variables parse like flags: "" means unset, anything malformed
// fails with an error naming the variable.

/// Sets (or, with nullptr, unsets) one variable for the guard's lifetime.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Expects `body` to throw std::invalid_argument whose message names `what`.
template <typename Body>
void expect_named_error(Body body, const std::string& what,
                        const std::string& value) {
  try {
    body();
    ADD_FAILURE() << what << "='" << value << "' was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

/// A one-cell grid: the env checks fail before anything is simulated.
cli::GridFlags tiny_bench() {
  cli::GridFlags flags;
  flags.plan.spec = simsweep::scenario::sweep_scenario();
  flags.plan.spec.hosts = 8;
  flags.plan.spec.spares = 4;
  flags.plan.spec.iterations = 5;
  flags.plan.spec.axis.x = {0.0};
  flags.plan.spec.variants.resize(1);
  flags.plan.jobs = 1;
  flags.plan.hooks.interrupted = [] { return false; };
  return flags;
}

TEST(EnvVars, JobsParsesWholeString) {
  for (const char* value : {"2x", "abc", "-3"}) {
    const EnvGuard env("SIMSWEEP_JOBS", value);
    expect_named_error(
        [] { (void)simsweep::core::TrialRunner::default_parallelism(); },
        "SIMSWEEP_JOBS", value);
  }
  const EnvGuard three("SIMSWEEP_JOBS", "3");
  EXPECT_EQ(simsweep::core::TrialRunner::default_parallelism(), 3u);
  const EnvGuard empty("SIMSWEEP_JOBS", "");  // unset, as for SIMSWEEP_METRICS
  EXPECT_GE(simsweep::core::TrialRunner::default_parallelism(), 1u);
}

TEST(EnvVars, TrialsParsesWholeString) {
  for (const char* value : {"2x", "abc", "-3"}) {
    const EnvGuard env("SIMSWEEP_TRIALS", value);
    std::ostringstream out;
    expect_named_error(
        [&out] { (void)cli::run_bench_scenario(tiny_bench(), out); },
        "SIMSWEEP_TRIALS", value);
    EXPECT_TRUE(out.str().empty());
  }
  const EnvGuard empty("SIMSWEEP_TRIALS", "");
  std::ostringstream out;
  cli::GridFlags flags = tiny_bench();
  flags.plan.spec.trials = 1;
  EXPECT_EQ(cli::run_bench_scenario(flags, out), 0);
  EXPECT_NE(out.str().find("-- json --"), std::string::npos);
}

TEST(EnvVars, TrialTimeoutParsesWholeString) {
  for (const char* value : {"inf", "nan", "-1", "2s"}) {
    const EnvGuard env("SIMSWEEP_TRIAL_TIMEOUT", value);
    std::ostringstream out;
    expect_named_error(
        [&out] { (void)cli::run_bench_scenario(tiny_bench(), out); },
        "SIMSWEEP_TRIAL_TIMEOUT", value);
  }
}
