// Tests for the declarative scenario layer: JSON round-trip identity
// (bitwise numerics), strict parsing with line-context errors, the
// provenance digest folding in load model and strategy lineup, the registry
// with did-you-mean support, and the headline bench guarantee — `simsweep
// bench <name>` is byte-identical to the retired standalone figure binaries
// whose outputs are recorded under tests/golden_bench/.  `run`, `sweep` (and
// its journal) and `trace` are likewise pinned under tests/golden_cli/.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "cli/bench_cmd.hpp"
#include "scenario/scenario.hpp"

#ifndef SIMSWEEP_BINARY_PATH
#define SIMSWEEP_BINARY_PATH "simsweep"
#endif
#ifndef SIMSWEEP_GOLDEN_BENCH_DIR
#define SIMSWEEP_GOLDEN_BENCH_DIR "golden_bench"
#endif
#ifndef SIMSWEEP_GOLDEN_CLI_DIR
#define SIMSWEEP_GOLDEN_CLI_DIR "golden_cli"
#endif
#ifndef SIMSWEEP_SCENARIO_SRC_DIR
#define SIMSWEEP_SCENARIO_SRC_DIR "scenarios"
#endif

namespace {

namespace cli = simsweep::cli;
namespace scn = simsweep::scenario;

std::string scenario_dir() { return SIMSWEEP_SCENARIO_SRC_DIR; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `command` (already shell-quoted), captures stdout+stderr, and
/// returns the exit code through `exit_code`.
std::string run_command(const std::string& command, int& exit_code) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    output.append(buffer, n);
  const int status = ::pclose(pipe);
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return output;
}

// ---------------------------------------------------------------------------
// Round-trip identity

TEST(ScenarioRoundTrip, EveryShippedScenarioIsIdentity) {
  const auto names = scn::list_scenarios(scenario_dir());
  ASSERT_GE(names.size(), 19u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const scn::ScenarioSpec spec =
        scn::load_scenario_file(scenario_dir() + "/" + name + ".json");
    const std::string canonical = scn::serialize_scenario(spec);
    const scn::ScenarioSpec reparsed =
        scn::parse_scenario(canonical, name + " (canonical)");
    EXPECT_TRUE(spec == reparsed);
    // Serialization is a fixpoint: canonical text re-serializes to itself.
    EXPECT_EQ(scn::serialize_scenario(reparsed), canonical);
  }
}

TEST(ScenarioRoundTrip, NumbersSurviveBitwise) {
  scn::ScenarioSpec spec;
  spec.name = "bitwise";
  spec.title = "bitwise numerics";
  spec.iter_minutes = 0.1 + 0.2;  // 0.30000000000000004
  spec.state_mb = 1e-320;         // subnormal
  spec.horizon_hours = 1.0 / 3.0;
  spec.load.p = 0.1;
  spec.load.q = 2.2250738585072014e-308;  // smallest normal
  spec.axis.x = {0.0, 0.30000000000000004, 1e22};
  spec.variants.push_back({"none", {}, std::nullopt, std::nullopt,
                           std::nullopt});
  const scn::ScenarioSpec reparsed =
      scn::parse_scenario(scn::serialize_scenario(spec), "bitwise");
  EXPECT_TRUE(spec == reparsed);
  EXPECT_EQ(reparsed.iter_minutes, 0.30000000000000004);
  EXPECT_EQ(reparsed.state_mb, 1e-320);
}

TEST(ScenarioRoundTrip, TraceLoadSamplesSurviveBitwise) {
  // A replayed trace is part of the spec, so `run --model=trace` is a
  // scenario like any other and its digest covers every sample.
  scn::ScenarioSpec spec;
  spec.name = "trace";
  spec.load.kind = scn::LoadKind::kTrace;
  spec.load.samples = {{0.0, 1.0}, {0.1 + 0.2, 2.0}, {1.0 / 3.0, 0.5},
                       {1e22, 3.0}};
  spec.load.period_s = 2e22;
  spec.load.random_phase = false;
  spec.axis.x = {0.0};
  spec.variants.push_back({"none", {}, std::nullopt, std::nullopt,
                           std::nullopt});
  const std::string canonical = scn::serialize_scenario(spec);
  const scn::ScenarioSpec reparsed = scn::parse_scenario(canonical, "trace");
  EXPECT_TRUE(spec == reparsed);
  EXPECT_EQ(reparsed.load.samples[1].time, 0.30000000000000004);
  EXPECT_EQ(scn::serialize_scenario(reparsed), canonical);

  scn::ScenarioSpec moved = spec;
  moved.load.samples[2].value = 0.25;
  EXPECT_NE(spec.digest(), moved.digest());
  // The period defaults to one second past the last sample, like --period.
  const scn::ScenarioSpec defaulted = scn::parse_scenario(
      R"({"name":"t","load":{"model":"trace","samples":[[0,1],[5,0]]},)"
      R"("variants":[{"name":"none","strategy":{"kind":"none"}}]})",
      "defaulted");
  EXPECT_EQ(defaulted.load.period_s, 6.0);
  EXPECT_TRUE(defaulted.load.random_phase);
  EXPECT_THROW((void)scn::parse_scenario(
                   R"({"name":"t","load":{"model":"trace","samples":[]},)"
                   R"("variants":[{"name":"none","strategy":{"kind":"none"}}]})",
                   "empty"),
               scn::ScenarioError);
}

// ---------------------------------------------------------------------------
// Strict parsing

TEST(ScenarioParse, MalformedJsonCarriesSourceName) {
  try {
    (void)scn::parse_scenario("{\"name\": ", "broken.json");
    FAIL() << "expected ScenarioError";
  } catch (const scn::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("broken.json"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioParse, UnknownKeyReportsLineContext) {
  const std::string text =
      "{\n"
      "  \"name\": \"x\",\n"
      "  \"variants\": [{\"name\": \"none\", \"strategy\": {\"kind\": "
      "\"none\"}}],\n"
      "  \"bogus\": 1\n"
      "}";
  try {
    (void)scn::parse_scenario(text, "bad.json");
    FAIL() << "expected ScenarioError";
  } catch (const scn::ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("bad.json:4:"), std::string::npos) << what;
  }
}

TEST(ScenarioParse, WrongValueKindIsRejected) {
  EXPECT_THROW(
      (void)scn::parse_scenario(R"({"name": "x", "trials": "eight"})",
                                "kind.json"),
      scn::ScenarioError);
}

TEST(ScenarioParse, ValueChecksFailAtParseTimeWithLineContext) {
  const std::string variants =
      R"("variants": [{"name": "A", "strategy": {"kind": "none"}}])";
  const struct {
    std::string text;
    std::string rule;
    std::string where;
  } cases[] = {
      {"{\"name\": \"x\",\n \"trials\": 0,\n " + variants + "}",
       "'trials' must be >= 1", "bad.json:2:12"},
      {"{\"name\": \"x\",\n \"variants\": [\n"
       "  {\"name\": \"A\", \"strategy\": {\"kind\": \"none\"}},\n"
       "  {\"name\": \"A\", \"strategy\": {\"kind\": \"dlb\"}}]}",
       "variants[1] duplicates name 'A'", "bad.json:4:3"},
      {"{\"name\": \"x\", \"kind\": \"payback\",\n"
       " \"payback\": {\"iter_s\": 0, \"swap_s\": 10}}",
       "'iter_s' must be > 0", "bad.json:2:24"},
      {"{\"name\": \"x\", \"kind\": \"payback\",\n"
       " \"payback\": {\"swap_s\": -1}}",
       "'swap_s' must be > 0", "bad.json:2:24"},
      {"{\"name\": \"x\", \"kind\": \"load_trace\",\n"
       " \"load\": {\"model\": \"onoff\"}, \"trace\": {\"horizon_s\": 0}}",
       "'horizon_s' must be > 0", "bad.json:2:53"},
      {"{\"name\": \"x\",\n \"axis\": {\"x\": []},\n " + variants + "}",
       "'x' must not be empty", "bad.json:2:16"},
      {"{\"name\": \"x\",\n \"axis\": {\"label\": \"l\"},\n " + variants + "}",
       "'x' must not be empty", "bad.json:2:10"},
      {"{\"name\": \"x\",\n \"reports\": [],\n " + variants + "}",
       "'reports' must be a non-empty array", "bad.json:2:13"},
      // A missing required key, at the top and in a section.
      {"{\"title\": \"t\",\n " + variants + "}",
       "scenario is missing required key 'name'", "bad.json:1:1"},
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\"}]}",
       "variants[0] is missing required key 'strategy'", "bad.json:2:15"},
      // A wrong value kind, for each value type.
      {"{\"name\": \"x\",\n \"config\": 4,\n " + variants + "}",
       "config must be an object", "bad.json:2:12"},
      {"{\"name\": \"x\",\n \"config\": {\"hosts\": \"8\"},\n " + variants +
           "}",
       "'hosts' must be a number", "bad.json:2:22"},
      {"{\"name\": \"x\",\n \"config\": {\"seed\": -3},\n " + variants + "}",
       "'seed' must be a non-negative integer, got '-3'", "bad.json:2:21"},
      {"{\"name\": \"x\",\n \"config\": {\"iter_minutes\": true},\n " +
           variants + "}",
       "'iter_minutes' must be a number", "bad.json:2:29"},
      {"{\"name\": \"x\",\n \"forbid_stalls\": 1,\n " + variants + "}",
       "'forbid_stalls' must be a boolean", "bad.json:2:19"},
      {"{\"name\": \"x\",\n \"title\": 7,\n " + variants + "}",
       "'title' must be a string", "bad.json:2:11"},
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\", \"strategy\": "
       "{\"kind\": \"none\"},\n  \"state_mb\": \"big\"}]}",
       "'state_mb' must be a number", "bad.json:3:15"},
      {"{\"name\": \"x\",\n \"axis\": {\"x\": 0.5},\n " + variants + "}",
       "'x' must be an array", "bad.json:2:16"},
      {"{\"name\": \"x\",\n \"axis\": {\"x\": [0.1, \"a\"]},\n " + variants +
           "}",
       "'x' must be a number", "bad.json:2:22"},
      {"{\"name\": \"x\",\n \"kind\": 3,\n " + variants + "}",
       "'kind' must be a string", "bad.json:2:10"},
      {"{\"name\": \"x\",\n \"variants\": {}}", "'variants' must be an array",
       "bad.json:2:14"},
      // An unknown name, for each enum table.
      {"{\"name\": \"x\",\n \"kind\": \"sweep\",\n " + variants + "}",
       "unknown scenario kind 'sweep' "
       "(grid|payback|load_trace|decision_histogram)",
       "bad.json:2:10"},
      {"{\"name\": \"x\",\n \"axis\": {\"x\": [1], \"binds\": \"load.p\"},\n " +
           variants + "}",
       "unknown axis binding 'load.p' (none|load.dynamism|"
       "spares.percent_of_active|load.mean_lifetime_s|faults.mtbf_hours|"
       "load.mean_reclaimed_min|policy.payback_threshold_iters|"
       "policy.history_window_s|policy.min_process_improvement|"
       "policy.max_swaps_per_decision)",
       "bad.json:2:30"},
      {"{\"name\": \"x\",\n \"reports\": [{\"title\": \"t\",\n  \"series\": "
       "[{\"name\": \"s\", \"metric\": \"speed\"}]}],\n " +
           variants + "}",
       "unknown metric 'speed' (makespan|adaptations|completion_rate)",
       "bad.json:3:38"},
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\", \"strategy\": "
       "{\"kind\": \"magic\"}}]}",
       "unknown strategy kind 'magic' (none|swap|dlb|dlbswap|cr)",
       "bad.json:2:50"},
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\", \"strategy\": "
       "{\"kind\": \"swap\",\n  \"estimator\": {\"kind\": \"crystal\"}}}]}",
       "unknown estimator kind 'crystal' (policy|window|ewma|median|nws)",
       "bad.json:3:25"},
      {"{\"name\": \"x\",\n \"config\": {\"initial_schedule\": \"fast\"},\n " +
           variants + "}",
       "unknown initial schedule 'fast' (effective|peak|blind)",
       "bad.json:2:33"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"wavy\"},\n " + variants +
           "}",
       "unknown load model 'wavy' (onoff|hyperexp|reclaim|trace)",
       "bad.json:2:20"},
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\", \"strategy\": "
       "{\"kind\": \"cr\",\n  \"policy\": {\"base\": \"lazy\"}}}]}",
       "unknown policy base 'lazy' (greedy|safe|friendly)", "bad.json:3:22"},
      // The ON/OFF shorthand excludes explicit probabilities.
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"onoff\", \"p\": 0.1, "
       "\"dynamism\": 0.2},\n " +
           variants + "}",
       "'dynamism' excludes explicit 'p'/'q' values", "bad.json:2:51"},
      // Every bad shape of a trace's samples, and its period.
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\"},\n " + variants +
           "}",
       "load is missing required key 'samples'", "bad.json:2:10"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\", "
       "\"samples\": []},\n " +
           variants + "}",
       "'samples' must be a non-empty array", "bad.json:2:40"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\", "
       "\"samples\": 3},\n " +
           variants + "}",
       "'samples' must be a non-empty array", "bad.json:2:40"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\", \"samples\": "
       "[[0, 1], 5]},\n " +
           variants + "}",
       "'samples' entries must be [time, load] pairs", "bad.json:2:49"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\", \"samples\": "
       "[[0, 1, 2]]},\n " +
           variants + "}",
       "'samples' entries must be [time, load] pairs", "bad.json:2:41"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\", \"samples\": "
       "[[0, \"a\"]]},\n " +
           variants + "}",
       "'samples' must be a number", "bad.json:2:45"},
      {"{\"name\": \"x\",\n \"load\": {\"model\": \"trace\", \"samples\": "
       "[[0, 1]], \"period_s\": 0},\n " +
           variants + "}",
       "'period_s' must be > 0", "bad.json:2:62"},
      // Reports: an empty series, and a series naming a missing variant.
      {"{\"name\": \"x\",\n \"reports\": [{\"title\": \"t\", "
       "\"series\": []}],\n " +
           variants + "}",
       "reports[0]: 'series' must not be empty", "bad.json:2:39"},
      {"{\"name\": \"x\",\n \"reports\": [{\"title\": \"t\", \"series\": "
       "[{\"name\": \"s\", \"variant\": 1}]}],\n " +
           variants + "}",
       "report series 's' references variant 1 but only 1 variant(s) are "
       "defined",
       "bad.json:2:13"},
      // Histogram policies.
      {"{\"name\": \"x\", \"kind\": \"decision_histogram\",\n \"histogram\": "
       "{\"policies\": [\"safe\", \"lazy\"], \"dynamisms\": [0.1]}}",
       "unknown policy 'lazy' (greedy|safe|friendly)", "bad.json:2:37"},
      {"{\"name\": \"x\", \"kind\": \"decision_histogram\",\n \"histogram\": "
       "{\"policies\": [1], \"dynamisms\": [0.1]}}",
       "'policies' entries must be strings", "bad.json:2:29"},
      {"{\"name\": \"x\", \"kind\": \"decision_histogram\",\n \"histogram\": "
       "{\"policies\": [], \"dynamisms\": [0.1]}}",
       "'histogram' needs non-empty policies and dynamisms", "bad.json:2:15"},
      // A key its section's kind does not take.
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\", \"strategy\": "
       "{\"kind\": \"none\",\n  \"policy\": {}}}]}",
       "variants[0].strategy: unknown key 'policy'", "bad.json:3:3"},
      {"{\"name\": \"x\", \"kind\": \"payback\",\n \"trials\": 2}",
       "scenario: unknown key 'trials'", "bad.json:2:2"},
  };
  for (const auto& c : cases) {
    try {
      (void)scn::parse_scenario(c.text, "bad.json");
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const scn::ScenarioError& e) {
      EXPECT_EQ(std::string(e.what()), c.where + ": " + c.rule);
    }
  }
}

TEST(ScenarioParse, RepeatedKeyFailsAtItsSecondOccurrence) {
  const std::string variants =
      R"("variants": [{"name": "A", "strategy": {"kind": "none"}}])";
  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {"{\"name\": \"a\",\n " + variants + ",\n \"name\": \"b\"}",
       "bad.json:3:2: scenario: duplicate key 'name'"},
      {"{\"name\": \"x\", \"trials\": 2,\n \"trials\": 3,\n " + variants + "}",
       "bad.json:2:2: scenario: duplicate key 'trials'"},
      {"{\"name\": \"x\",\n \"variants\": [{\"name\": \"A\", \"strategy\": "
       "{\"kind\": \"none\",\n  \"kind\": \"swap\"}}]}",
       "bad.json:3:3: variants[0].strategy: duplicate key 'kind'"},
      // Any other error in the document is still the one reported.
      {"{\"name\": \"x\", \"name\": \"y\",\n \"bogus\": 1,\n " + variants + "}",
       "bad.json:2:2: scenario: unknown key 'bogus'"},
      {"{\"name\": \"x\", \"config\": {\"hosts\": 8, \"hosts\": 9},\n "
       "\"faults\": {\"mtbf\": 1},\n " +
           variants + "}",
       "bad.json:2:13: faults: unknown key 'mtbf'"},
  };
  for (const auto& c : cases) {
    try {
      (void)scn::parse_scenario(c.text, "bad.json");
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const scn::ScenarioError& e) {
      EXPECT_EQ(std::string(e.what()), c.error);
    }
  }
}

// ---------------------------------------------------------------------------
// Digest: one entry point, everything folded

scn::ScenarioSpec digest_base() {
  scn::ScenarioSpec spec;
  spec.name = "digest-probe";
  spec.variants.push_back({"none", {}, std::nullopt, std::nullopt,
                           std::nullopt});
  return spec;
}

TEST(ScenarioDigest, LoadModelOnlyDifferenceChangesDigest) {
  // The historical bug: two sweeps differing only in load model shared a
  // provenance digest because callers forgot to fold the model in.  The
  // spec digest has no `extra` parameter to forget.
  scn::ScenarioSpec a = digest_base();
  scn::ScenarioSpec b = a;
  b.load.kind = scn::LoadKind::kHyperExp;
  EXPECT_NE(a.digest(), b.digest());

  scn::ScenarioSpec c = a;
  c.load.p = 0.31;
  EXPECT_NE(a.digest(), c.digest());
}

TEST(ScenarioDigest, StrategyLineupDifferenceChangesDigest) {
  scn::ScenarioSpec a = digest_base();
  scn::ScenarioSpec b = a;
  b.variants[0].strategy.kind = scn::StrategyKind::kSwap;
  EXPECT_NE(a.digest(), b.digest());
}

TEST(ScenarioDigest, ShippedScenariosKeepTheirDigests) {
  // Every journal header carries its scenario's digest, so a change to the
  // canonical form would make --resume refuse every existing journal.
  const std::pair<const char*, const char*> pinned[] = {
      {"abl_decision_trace", "c6835cdf28676c42"},
      {"abl_history_window", "5cb9d30b630b7b32"},
      {"abl_improvement_threshold", "d788b94d2e2db8ea"},
      {"abl_initial_schedule", "cc37c1a48748437f"},
      {"abl_payback_threshold", "e502142cc858ab20"},
      {"abl_predictor", "bdfc945698a95058"},
      {"abl_swap_count", "6d5cc7bb8579ed12"},
      {"ext_dlb_overalloc", "4f102143700e1086"},
      {"ext_reclamation", "5a32f75ce49c792f"},
      {"fig1", "716b214d39a28d44"},
      {"fig10", "eaffa34e428d3d61"},
      {"fig2", "a83b1f3c1a47bbc5"},
      {"fig3", "67f1141082bc3ac9"},
      {"fig4", "766382f55d26df19"},
      {"fig5", "bccdf9d595fcb074"},
      {"fig6", "f3ee4e63ee818c81"},
      {"fig7", "aa52cae72f84d52c"},
      {"fig8", "07237f392bccb761"},
      {"fig9", "74bf6789dc482789"},
      {"golden_calm", "9dd125c3572bed96"},
      {"golden_faulty", "9bcd58bc8d222b0e"},
      {"golden_hostile", "ad6c5b9a1409ddcf"},
      {"golden_reclaim", "2e24e585e68631bc"},
  };
  for (const auto& [name, digest] : pinned) {
    SCOPED_TRACE(name);
    EXPECT_EQ(scn::find_scenario(name, scenario_dir()).digest(), digest);
  }
  EXPECT_EQ(scn::sweep_scenario().digest(), "966cf7490b2c3bfb");
}

TEST(ScenarioDigest, SeedDoesNotChangeDigest) {
  // Seeds stay out of the digest so resume keys survive seed-bearing reruns
  // (the journal records the seed separately).
  scn::ScenarioSpec a = digest_base();
  scn::ScenarioSpec b = a;
  b.seed = 99;
  EXPECT_EQ(a.digest(), b.digest());
}

// ---------------------------------------------------------------------------
// Value checks before any trial runs

/// Expects `body` to throw E whose message names `field`.
template <typename E, typename Body>
void expect_error_naming(Body body, const std::string& field) {
  try {
    body();
    ADD_FAILURE() << field << ": accepted";
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioMaterialize, OutOfRangePolicyAndStrategyValuesAreRejected) {
  // Every command builds its strategies through make_policy/make_strategy,
  // so flags and scenario files meet the same checks.
  struct Case {
    std::optional<double> scn::PolicySpec::*field;
    const char* name;
    double value;
  };
  for (const Case& c : {
           Case{&scn::PolicySpec::payback_threshold_iters,
                "payback_threshold_iters", -3.0},
           Case{&scn::PolicySpec::history_window_s, "history_window_s", -5.0},
           Case{&scn::PolicySpec::min_process_improvement,
                "min_process_improvement", -1.0},
           Case{&scn::PolicySpec::min_app_improvement, "min_app_improvement",
                -1.0},
           Case{&scn::PolicySpec::max_swaps_per_decision,
                "max_swaps_per_decision", -1.0},
           Case{&scn::PolicySpec::max_swaps_per_decision,
                "max_swaps_per_decision", 1e300},
           Case{&scn::PolicySpec::max_swaps_per_decision,
                "max_swaps_per_decision", 2.5},
       }) {
    SCOPED_TRACE(std::string(c.name) + "=" + std::to_string(c.value));
    scn::PolicySpec policy;
    policy.*c.field = c.value;
    expect_error_naming<scn::ScenarioError>(
        [&] { (void)scn::make_policy(policy); }, c.name);
    // The same value in a scenario fails at materialize, before any cell.
    scn::ScenarioSpec spec = scn::sweep_scenario();
    spec.variants[1].strategy.policy = policy;  // SWAP(greedy)
    expect_error_naming<scn::ScenarioError>(
        [&] { (void)scn::materialize(spec); }, c.name);
  }
  scn::PolicySpec edge;
  edge.payback_threshold_iters = 0.0;
  edge.max_swaps_per_decision = 4.0;
  EXPECT_EQ(scn::make_policy(edge).max_swaps_per_decision, 4u);

  for (const double stall_factor : {-1.0, 0.0}) {
    scn::StrategySpec guard;
    guard.kind = scn::StrategyKind::kSwap;
    guard.guard = true;
    guard.stall_factor = stall_factor;
    expect_error_naming<scn::ScenarioError>(
        [&] { (void)scn::make_strategy(guard); }, "stall_factor");
  }

  // Estimator parameters fail here too, not in the middle of a trial.
  struct EstimatorCase {
    scn::EstimatorSpec estimator;
    const char* name;
  };
  for (const EstimatorCase& c : {
           EstimatorCase{{.kind = scn::EstimatorKind::kMedian, .k = 0}, "'k'"},
           EstimatorCase{{.kind = scn::EstimatorKind::kEwma, .tau_s = 0.0},
                         "'tau_s'"},
           EstimatorCase{{.kind = scn::EstimatorKind::kEwma, .tau_s = -1.0},
                         "'tau_s'"},
           // The label's int cast is undefined from 2^31 s on.
           EstimatorCase{
               {.kind = scn::EstimatorKind::kEwma, .tau_s = 2147483648.0},
               "'tau_s'"},
           EstimatorCase{{.kind = scn::EstimatorKind::kEwma, .tau_s = 1e300},
                         "'tau_s'"},
           EstimatorCase{{.kind = scn::EstimatorKind::kWindow, .window_s = -5.0},
                         "'window_s'"},
       }) {
    SCOPED_TRACE(c.name);
    scn::StrategySpec swap;
    swap.kind = scn::StrategyKind::kSwap;
    swap.estimator = c.estimator;
    expect_error_naming<scn::ScenarioError>(
        [&] { (void)scn::make_strategy(swap); }, c.name);
    scn::ScenarioSpec spec = scn::sweep_scenario();
    spec.variants[1].strategy = swap;
    expect_error_naming<scn::ScenarioError>(
        [&] { (void)scn::materialize(spec); }, c.name);
  }
  scn::StrategySpec instantaneous;
  instantaneous.kind = scn::StrategyKind::kSwap;
  instantaneous.estimator = {.kind = scn::EstimatorKind::kWindow,
                             .window_s = 0.0};
  EXPECT_NE(scn::make_strategy(instantaneous), nullptr);
  scn::StrategySpec slowest;
  slowest.kind = scn::StrategyKind::kSwap;
  slowest.estimator = {.kind = scn::EstimatorKind::kEwma,
                       .tau_s = 2147483647.5};
  EXPECT_NE(scn::make_strategy(slowest), nullptr);
}

TEST(ScenarioMaterialize, NonPositiveHorizonIsRejected) {
  for (const double hours : {0.0, -1.0}) {
    scn::ScenarioSpec spec = scn::sweep_scenario();
    spec.horizon_hours = hours;
    expect_error_naming<std::invalid_argument>(
        [&] { (void)scn::base_config(spec); }, "horizon_hours");
    expect_error_naming<std::invalid_argument>(
        [&] { (void)scn::materialize(spec); }, "horizon_hours");
  }
}

TEST(ScenarioMaterialize, SparesAxisPointIsCheckedBeforeTheCast) {
  // A percentage that is negative or over-allocates fails with the axis
  // point named, instead of casting into a wrapped spare count.
  scn::ScenarioSpec spec = scn::find_scenario("fig5", scenario_dir());
  for (const double x : {-100.0, -1e300, 1e300, 400.0}) {
    SCOPED_TRACE(x);
    spec.axis.x = {0.0, x};
    try {
      (void)scn::materialize(spec);
      ADD_FAILURE() << "accepted";
    } catch (const scn::ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("axis point"), std::string::npos)
          << e.what();
    }
  }
  spec.axis.x = {300.0};  // 24 spares for 8 active on 32 hosts: fits
  EXPECT_EQ(scn::materialize(spec).cells.front().config.spare_count, 24u);
}

TEST(ScenarioMaterialize, SpareCountsThatWouldWrapFailBeforeAnyCell) {
  // Without `spares`, every host not active is a spare: none when active >
  // hosts, not hosts - active wrapped.  An explicit count near 2^64 would
  // wrap the sum active + spares.
  const auto grid = [](const std::string& config) {
    return scn::parse_scenario(
        R"({"name": "wrap", "config": )" + config +
            R"(, "axis": {"x": [0]},
               "variants": [{"name": "NONE", "strategy": {"kind": "none"}}]})",
        "wrap.json");
  };
  const scn::ScenarioSpec defaulted = grid(R"({"hosts": 2, "active": 4})");
  EXPECT_EQ(defaulted.spares, 0u);
  const scn::ScenarioSpec huge =
      grid(R"({"hosts": 8, "active": 4, "spares": 18446744073709551615})");
  for (const scn::ScenarioSpec& spec : {defaulted, huge}) {
    try {
      (void)scn::materialize(spec);
      ADD_FAILURE() << "accepted " << spec.spares << " spares";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "config: active + spares exceeds --hosts");
    }
  }
}

TEST(ScenarioMaterialize, TrialCountsPastTheResultLimitFailBeforeAnyCell) {
  // Each cell keeps one result per trial and the sweep schedules cells x
  // trials tasks.  2^63 trials of fig4's 44 cells is 0 tasks mod 2^64.
  const scn::ScenarioSpec spec = scn::find_scenario("fig4", scenario_dir());
  const std::size_t cells = spec.axis.x.size() * spec.variants.size();
  const std::size_t limit =
      std::vector<simsweep::strategy::RunResult>().max_size() / cells;
  EXPECT_EQ(scn::materialize(spec, limit).trials, limit);
  for (const std::size_t trials :
       {limit + 1, std::size_t{1} << 63, SIZE_MAX}) {
    SCOPED_TRACE(trials);
    expect_error_naming<std::invalid_argument>(
        [&] { (void)scn::materialize(spec, trials); },
        "sweep: trial count " + std::to_string(trials) + " exceeds");
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(ScenarioRegistry, UnknownNameCarriesListingForSuggestions) {
  try {
    (void)scn::find_scenario("fig77", scenario_dir());
    FAIL() << "expected UnknownScenarioError";
  } catch (const scn::UnknownScenarioError& e) {
    EXPECT_EQ(e.name(), "fig77");
    const auto& available = e.available();
    EXPECT_NE(std::find(available.begin(), available.end(), "fig7"),
              available.end());
  }
}

TEST(ScenarioRegistry, ExplicitPathBypassesRegistry) {
  const scn::ScenarioSpec spec =
      scn::find_scenario(scenario_dir() + "/fig4.json", "/nonexistent");
  EXPECT_EQ(spec.name, "fig4");
}

// ---------------------------------------------------------------------------
// Bench byte-identity: every scenario vs the recorded pre-refactor output

class BenchGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchGolden, MatchesRecordedOutput) {
  const std::string name = GetParam();
  cli::GridFlags flags;
  flags.plan.spec = scn::find_scenario(name, scenario_dir());
  // The recorded outputs were captured at SIMSWEEP_TRIALS=2.
  flags.plan.trials = 2;
  std::ostringstream out;
  ASSERT_EQ(cli::run_bench_scenario(flags, out), 0);
  EXPECT_EQ(out.str(), read_file(std::string(SIMSWEEP_GOLDEN_BENCH_DIR) +
                                 "/" + name + ".txt"));
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, BenchGolden,
    ::testing::Values("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                      "fig8", "fig9", "fig10", "abl_payback_threshold",
                      "abl_history_window", "abl_improvement_threshold",
                      "abl_swap_count", "abl_predictor",
                      "abl_initial_schedule", "abl_decision_trace",
                      "ext_reclamation", "ext_dlb_overalloc"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

// ---------------------------------------------------------------------------
// Bench resilience: interrupted-then-resumed == uninterrupted, byte for byte

class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static std::atomic<unsigned> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("simsweep_" + stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

/// A small grid scenario (2 points x 4 variants) for resume tests.
scn::ScenarioSpec small_grid() {
  scn::ScenarioSpec spec = scn::sweep_scenario();
  spec.hosts = 8;
  spec.active = 4;
  spec.iterations = 10;
  spec.spares = 4;
  spec.axis.x = {0.0, 0.3};
  spec.trials = 2;
  return spec;
}

TEST(BenchResume, InterruptedThenResumedIsByteIdentical) {
  cli::GridFlags flags;
  flags.plan.spec = small_grid();
  flags.plan.jobs = 1;
  flags.plan.hooks.interrupted = [] { return false; };

  std::ostringstream full;
  ASSERT_EQ(cli::run_bench_scenario(flags, full), 0);

  TempPath journal("bench_resume");
  cli::GridFlags stopped = flags;
  stopped.plan.journal_path = journal.str();
  stopped.plan.hooks.stop_after_cells = 3;
  // The bench report format carries no provenance block (byte parity with
  // the retired binaries), so "partial" shows only in the stderr diagnostic
  // and the missing cells' NaN entries.
  std::ostringstream partial;
  (void)cli::run_bench_scenario(stopped, partial);
  EXPECT_NE(partial.str(), full.str());

  cli::GridFlags resumed = flags;
  resumed.plan.journal_path = journal.str();
  resumed.plan.resume_path = journal.str();
  std::ostringstream second;
  ASSERT_EQ(cli::run_bench_scenario(resumed, second), 0);
  EXPECT_EQ(full.str(), second.str());
}

TEST(BenchResume, EditedScenarioIsRejectedAgainstOldJournal) {
  cli::GridFlags flags;
  flags.plan.spec = small_grid();
  flags.plan.jobs = 1;
  flags.plan.hooks.interrupted = [] { return false; };

  TempPath journal("bench_resume_edited");
  cli::GridFlags first = flags;
  first.plan.journal_path = journal.str();
  std::ostringstream out;
  ASSERT_EQ(cli::run_bench_scenario(first, out), 0);

  cli::GridFlags resume = flags;
  resume.plan.spec.load.p = 0.9;  // a different experiment entirely
  resume.plan.resume_path = journal.str();
  std::ostringstream ignored;
  EXPECT_THROW((void)cli::run_bench_scenario(resume, ignored),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// The installed binary end to end

std::string binary_invocation() {
  return std::string("SIMSWEEP_SCENARIO_DIR=") + scenario_dir() + " " +
         SIMSWEEP_BINARY_PATH;
}

TEST(BenchCli, Fig1MatchesRecordedOutputThroughTheBinary) {
  int exit_code = -1;
  const std::string output =
      run_command(binary_invocation() + " bench fig1", exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(output,
            read_file(std::string(SIMSWEEP_GOLDEN_BENCH_DIR) + "/fig1.txt"));
}

TEST(BenchCli, ListShowsEveryShippedScenario) {
  int exit_code = -1;
  const std::string output =
      run_command(binary_invocation() + " bench --list", exit_code);
  EXPECT_EQ(exit_code, 0);
  for (const std::string& name : scn::list_scenarios(scenario_dir()))
    EXPECT_NE(output.find(name), std::string::npos) << name;
}

TEST(BenchCli, UnknownScenarioExitsTwoWithSuggestion) {
  int exit_code = -1;
  const std::string output =
      run_command(binary_invocation() + " bench fig77", exit_code);
  EXPECT_EQ(exit_code, 2);
  EXPECT_NE(output.find("unknown scenario 'fig77'"), std::string::npos)
      << output;
  EXPECT_NE(output.find("did you mean 'fig7'?"), std::string::npos) << output;
  EXPECT_NE(output.find("available scenarios:"), std::string::npos) << output;
}

TEST(BenchCli, MissingNameIsAnError) {
  int exit_code = -1;
  const std::string output =
      run_command(binary_invocation() + " bench", exit_code);
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(output.find("missing scenario name"), std::string::npos)
      << output;
}

/// Runs `bench <scenario> <flags>` and expects the refusal of `flag` for
/// the scenario's `kind`, before anything ran or was written.
void expect_bench_refuses(const std::string& scenario,
                          const std::string& flags, const std::string& flag,
                          const std::string& kind) {
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() + " bench " + scenario + " " + flags, exit_code);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("--" + flag + " does not apply to " + kind),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("===="), std::string::npos) << output;
}

TEST(BenchCli, PaybackScenarioRefusesTheFlagsItIgnores) {
  TempPath metrics("bench_payback_metrics");
  expect_bench_refuses("fig1", "--metrics=" + metrics.str(), "metrics",
                       "payback");
  EXPECT_FALSE(std::filesystem::exists(metrics.str()));
}

TEST(BenchCli, LoadTraceScenarioRefusesTheFlagsItIgnores) {
  TempPath profile("bench_trace_profile");
  expect_bench_refuses("fig2", "--profile-json=" + profile.str(),
                       "profile-json", "load_trace");
  EXPECT_FALSE(std::filesystem::exists(profile.str()));
}

TEST(BenchCli, DecisionHistogramRefusesTheFlagsItIgnores) {
  TempPath metrics("bench_hist_metrics");
  TempPath journal("bench_hist_journal");
  TempPath status("bench_hist_status");
  expect_bench_refuses("abl_decision_trace",
                       "--trials=1 --jobs=1 --audit --metrics=" +
                           metrics.str() + " --journal=" + journal.str() +
                           " --status=" + status.str(),
                       "metrics", "decision_histogram");
  for (const TempPath* path : {&metrics, &journal, &status})
    EXPECT_FALSE(std::filesystem::exists(path->str())) << path->str();
  expect_bench_refuses("abl_decision_trace", "--profile", "profile",
                       "decision_histogram");
}

// ---------------------------------------------------------------------------
// run / sweep / trace through the binary, pinned to recorded outputs

std::string golden_cli(const std::string& name) {
  return read_file(std::string(SIMSWEEP_GOLDEN_CLI_DIR) + "/" + name);
}

TEST(CliGolden, RunMatchesRecordedOutput) {
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() + " run --hosts=8 --active=4 --iters=10 --trials=3",
      exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(output, golden_cli("run.txt"));
}

TEST(CliGolden, SweepAndItsJournalMatchRecordedOutput) {
  TempPath journal("cli_golden_sweep");
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() +
          " sweep --points=0,0.2 --trials=2 --hosts=8 --active=4 --iters=10"
          " --jobs=1 --journal=" +
          journal.str(),
      exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(output, golden_cli("sweep.txt"));
  // The journal carries no build stamp, so it pins the per-cell stats JSON
  // byte for byte.
  EXPECT_EQ(read_file(journal.str()), golden_cli("sweep.journal"));
}

TEST(CliGolden, RunOnTraceModel) {
  // The recorded trace doubles as the replayed load.
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() + " run --model=trace --trace-file=" +
          SIMSWEEP_GOLDEN_CLI_DIR + "/trace.txt --strategy=swap --trials=2",
      exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(output, golden_cli("run_trace.txt"));
}

TEST(CliGolden, TraceMatchesRecordedOutput) {
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() +
          " trace --model=hyperexp --lifetime=150 --duration=500",
      exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(output, golden_cli("trace.txt"));
}

TEST(CliGolden, TraceRejectsNonPositiveDuration) {
  for (const char* duration : {"0", "-5"}) {
    int exit_code = -1;
    const std::string output = run_command(
        binary_invocation() + " trace --duration=" + duration, exit_code);
    EXPECT_EQ(exit_code, 1) << output;
    EXPECT_NE(output.find("--duration"), std::string::npos) << output;
    EXPECT_EQ(output.find("time,cpu_load"), std::string::npos) << output;
  }
}

TEST(CliRun, ScenarioTakesLoadAndPolicyFlags) {
  // fig4's platform is the paper default and its first variant is NONE, so
  // its one-cell run with a dynamism flag is the plain NONE run.
  int scenario_code = -1;
  const std::string scenario = run_command(
      binary_invocation() + " run --scenario=fig4 --dynamism=0.5 --trials=2",
      scenario_code);
  int flags_code = -1;
  const std::string flags = run_command(
      binary_invocation() + " run --strategy=none --dynamism=0.5 --trials=2",
      flags_code);
  EXPECT_EQ(scenario_code, 0) << scenario;
  EXPECT_EQ(flags_code, 0) << flags;
  EXPECT_EQ(scenario, flags);

  int policy_code = -1;
  const std::string policy = run_command(
      binary_invocation() +
          " run --scenario=abl_payback_threshold --policy=safe --payback=0.5"
          " --trials=1",
      policy_code);
  EXPECT_EQ(policy_code, 0) << policy;
  EXPECT_EQ(policy.rfind("strategy        SWAP(safe)\n", 0), 0u) << policy;
}

TEST(CliRun, ResourceExhaustionIsNotReportedAsDeadlock) {
  // Every trial loses more hosts than CR has spares: the runs give up
  // cleanly.  They count as stalled, but none of them deadlocked.
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() +
          " run --strategy=cr --hosts=6 --active=4 --iters=30"
          " --mtbf-hours=2 --trials=4",
      exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(output.find("4 run(s) exhausted the spare pool"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("deadlock"), std::string::npos) << output;
}

TEST(CliRun, EwmaTauPastIntMaxIsRejected) {
  // The estimator's label truncates tau to an int, so a tau of 2^31 s or
  // more fails before any trial instead of building an undefined label.
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() +
          " run --strategy=swap --predictor=ewma --ewma-tau=1e300 --trials=1",
      exit_code);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("'tau_s' must be < 2147483648"), std::string::npos)
      << output;
  EXPECT_EQ(output.find("makespan"), std::string::npos) << output;
}

TEST(CliGolden, SweepWithMoreActiveThanHostsFailsBeforeAnyCell) {
  TempPath journal("cli_bad_shape");
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() + " sweep --hosts=4 --active=8 --journal=" +
          journal.str(),
      exit_code);
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(output.find("--hosts"), std::string::npos) << output;
  EXPECT_EQ(output.find("quarantined"), std::string::npos) << output;
  // The journal is published before the first cell runs; no file means the
  // sweep stopped at validation.
  EXPECT_FALSE(std::filesystem::exists(journal.str()));
}

TEST(BenchCli, TrialCountsThatWouldWrapFailBeforeAnyTrial) {
  // Each of these wrapped the task count to 0 (an empty "interrupted"
  // figure, exit 0) or leaked a std::length_error from a result vector.
  const std::string huge = "9223372036854775808";
  for (const std::string& command :
       {binary_invocation() + " bench fig4 --trials=" + huge,
        binary_invocation() + " sweep --points=0,0.1 --trials=" + huge,
        binary_invocation() + " run --trials=" + huge,
        binary_invocation() + " bench abl_decision_trace --trials=" + huge,
        "SIMSWEEP_TRIALS=" + huge + " " + binary_invocation() +
            " bench fig4"}) {
    SCOPED_TRACE(command);
    int exit_code = -1;
    const std::string output = run_command(command, exit_code);
    EXPECT_EQ(exit_code, 1) << output;
    EXPECT_NE(output.find("trial count " + huge + " exceeds the limit"),
              std::string::npos)
        << output;
    EXPECT_EQ(output.find("interrupted"), std::string::npos) << output;
    EXPECT_EQ(output.find("vector"), std::string::npos) << output;
  }
}

TEST(CliGolden, SweepWithZeroIterationMinutesFailsBeforeAnyCell) {
  TempPath journal("cli_zero_work");
  int exit_code = -1;
  const std::string output = run_command(
      binary_invocation() + " sweep --iter-minutes=0 --journal=" +
          journal.str(),
      exit_code);
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(output.find("work must be finite and positive"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("quarantined"), std::string::npos) << output;
  EXPECT_FALSE(std::filesystem::exists(journal.str()));
}

}  // namespace
