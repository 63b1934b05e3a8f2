// Unit and statistical tests for the CPU load models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "load/hyperexp.hpp"
#include "load/load_model.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "platform/cluster.hpp"
#include "simcore/simulator.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace load = simsweep::load;

namespace {

/// Runs `model` against one host for `duration` and returns the
/// time-averaged competing-process count.
double observed_mean_load(const load::LoadModel& model, double duration,
                          std::uint64_t seed) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto source = model.make_source(seed);
  source->start(s, h);
  s.run_until(duration);
  double area = 0.0;
  double value = 0.0;
  sim::SimTime cursor = 0.0;
  for (const sim::Sample& sample : h.load_history()) {
    if (sample.time >= duration) break;
    area += value * (sample.time - cursor);
    cursor = sample.time;
    value = sample.value;
  }
  area += value * (duration - cursor);
  return area / duration;
}

/// Flip times of one ON/OFF chain drawn directly with
/// sample_geometric_sojourn on the stream sim::Rng(seed), up to `flips`
/// flips or absorption.
std::vector<sim::SimTime> reference_flips(const load::OnOffParams& params,
                                          std::uint64_t seed,
                                          std::size_t flips) {
  sim::Rng rng(seed);
  const double total = params.p + params.q;
  bool on = params.stationary_start &&
            rng.bernoulli(total > 0.0 ? params.p / total : 0.0);
  std::vector<sim::SimTime> out;
  sim::SimTime now = 0.0;
  while (out.size() < flips) {
    const double sojourn = load::sample_geometric_sojourn(
        rng, on ? params.q : params.p, params.step_s);
    if (sojourn == sim::kTimeInfinity) break;
    now += sojourn;
    out.push_back(now);
    on = !on;
  }
  return out;
}

/// The first `flips` load-change times a source of `model` drives on one
/// host, leaving out the initial state set at time 0.  The source runs
/// until the time `expected` ends at (or until absorbed when `expected`
/// ends early); far out, a short sojourn can round to no time at all, so
/// more flips may land at that instant.
std::vector<sim::SimTime> source_flips(
    const load::LoadModel& model, std::uint64_t seed,
    const std::vector<sim::SimTime>& expected, std::size_t flips) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto source = model.make_source(seed);
  source->start(s, h);
  const std::size_t initial = h.load_history().size();
  s.run_until(expected.size() == flips ? expected.back() : sim::kTimeInfinity);
  std::vector<sim::SimTime> out;
  for (std::size_t i = initial;
       i < h.load_history().size() && out.size() < flips; ++i)
    out.push_back(h.load_history()[i].time);
  return out;
}

}  // namespace

TEST(GeometricSojourn, MeanMatchesGeometricDistribution) {
  sim::Rng rng(3);
  const double p = 0.25, step = 10.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += load::sample_geometric_sojourn(rng, p, step);
  // Mean of geometric(p) in steps is 1/p = 4 steps = 40 s.
  EXPECT_NEAR(sum / n, 40.0, 1.5);
}

TEST(GeometricSojourn, EdgeCases) {
  sim::Rng rng(3);
  EXPECT_EQ(load::sample_geometric_sojourn(rng, 0.0, 10.0), sim::kTimeInfinity);
  EXPECT_DOUBLE_EQ(load::sample_geometric_sojourn(rng, 1.0, 10.0), 10.0);
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(load::sample_geometric_sojourn(rng, 0.9, 10.0), 10.0);
  // 1 - exit_p rounds to 1 at or below 2^-54 (about 5.6e-17).  The mean
  // sojourn is still about 1 / exit_p steps, not one step.
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(load::sample_geometric_sojourn(rng, 1e-20, 1.0), 1e12);
  // Near the smallest subnormal the sojourn overflows to +inf: absorbed.
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(load::sample_geometric_sojourn(rng, 4.9e-324, 1.0), 1e12);
}

TEST(GeometricSojourn, TinyExitProbabilitiesKeepTheirMean) {
  // Just above 2^-54, 1 - exit_p rounds to 1 - 2^-53 and ln(1 - exit_p)
  // to -2^-53: 6e-17 would get sojourns 1.85x too short, 1.5e-16 1.35x
  // too long.  The mean sojourn must stay 1 / exit_p steps.
  for (const double p : {6e-17, 1.5e-16, 1e-12}) {
    sim::Rng rng(5);
    double sum = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
      sum += load::sample_geometric_sojourn(rng, p, 1.0) * p;
    EXPECT_NEAR(sum / n, 1.0, 0.1) << "exit_p " << p;
  }
}

TEST(OnOffModel, StationaryFractionFormula) {
  load::OnOffModel m(load::OnOffParams{.p = 0.3, .q = 0.08, .step_s = 10.0});
  EXPECT_NEAR(m.stationary_on_fraction(), 0.3 / 0.38, 1e-12);
  load::OnOffModel quiet(load::OnOffParams{.p = 0.0, .q = 0.0});
  EXPECT_DOUBLE_EQ(quiet.stationary_on_fraction(), 0.0);
}

TEST(OnOffModel, ObservedLoadMatchesStationaryFraction) {
  const load::OnOffParams params{.p = 0.3, .q = 0.08, .step_s = 10.0};
  load::OnOffModel m(params);
  double total = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t)
    total += observed_mean_load(m, 200000.0, static_cast<std::uint64_t>(t));
  EXPECT_NEAR(total / trials, m.stationary_on_fraction(), 0.03);
}

TEST(OnOffModel, ZeroDynamismNeverChangesState) {
  load::OnOffModel m(load::OnOffParams::dynamism(0.0));
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = m.make_source(1);
  src->start(s, h);
  s.run_until(100000.0);
  EXPECT_EQ(h.load_history().size(), 1u);  // only the construction sample
  EXPECT_EQ(h.external_load(), 0);
}

TEST(OnOffModel, DynamismOneFlipsEveryStep) {
  load::OnOffParams params = load::OnOffParams::dynamism(1.0);
  params.stationary_start = false;
  params.step_s = 10.0;
  load::OnOffModel m(params);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = m.make_source(1);
  src->start(s, h);
  s.run_until(100.0);
  // One transition per 10 s step.
  EXPECT_GE(h.load_history().size(), 9u);
}

TEST(OnOffModel, SojournsMatchTheSamplerOnACopyOfTheStreamBitwise) {
  // Each state's sojourn law is set up once per source; its flips must be
  // exactly what sample_geometric_sojourn draws on a copy of the stream,
  // on both sides of the log1p / log switch at 2^-26 and at both absorbing
  // ends.  A one-part composite source draws the same on its part's
  // stream.
  const double below = std::nextafter(0x1p-26, 0.0);
  const std::vector<double> probs{0.0, 1e-20, below, 0x1p-26, 0.05, 0.3, 1.0};
  constexpr std::size_t kFlips = 1000;
  constexpr std::uint64_t kSeed = 7;
  const std::uint64_t part_seed =
      sim::derive_seed(sim::Rng(kSeed).next_u64(), 0);
  for (const bool stationary : {true, false})
    for (const double p : probs)
      for (const double q : probs) {
        SCOPED_TRACE(testing::Message() << "p " << p << " q " << q
                                        << " stationary " << stationary);
        const load::OnOffParams params{
            .p = p, .q = q, .step_s = 100.0, .stationary_start = stationary};
        const std::vector<sim::SimTime> expected =
            reference_flips(params, kSeed, kFlips);
        EXPECT_EQ(
            source_flips(load::OnOffModel(params), kSeed, expected, kFlips),
            expected);
        const std::vector<sim::SimTime> part =
            reference_flips(params, part_seed, kFlips);
        EXPECT_EQ(source_flips(load::CompositeOnOffModel({params}), kSeed,
                               part, kFlips),
                  part);
      }
}

TEST(OnOffModel, RejectsInvalidParams) {
  EXPECT_THROW(load::OnOffModel(load::OnOffParams{.p = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(load::OnOffModel(load::OnOffParams{.p = 0.5, .q = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      load::OnOffModel(load::OnOffParams{.p = 0.5, .q = 0.5, .step_s = 0.0}),
      std::invalid_argument);
}

TEST(HyperExpModel, OfferedLoadMatchesTheory) {
  load::HyperExpParams params;
  params.mean_lifetime_s = 100.0;
  params.mean_interarrival_s = 200.0;
  params.long_prob = 0.2;
  load::HyperExpModel m(params);
  EXPECT_DOUBLE_EQ(m.offered_load(), 0.5);
  double total = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t)
    total += observed_mean_load(m, 400000.0, static_cast<std::uint64_t>(t));
  EXPECT_NEAR(total / trials, 0.5, 0.05);
}

TEST(HyperExpModel, Cv2GrowsAsLongProbShrinks) {
  load::HyperExpParams params;
  params.long_prob = 0.5;
  load::HyperExpModel a(params);
  params.long_prob = 0.1;
  load::HyperExpModel b(params);
  EXPECT_GT(b.lifetime_cv2(), a.lifetime_cv2());
  EXPECT_NEAR(a.lifetime_cv2(), 3.0, 1e-12);
}

TEST(HyperExpModel, AllowsMultipleSimultaneousCompetitors) {
  load::HyperExpParams params;
  params.mean_lifetime_s = 5000.0;
  params.mean_interarrival_s = 100.0;  // offered load 50: many overlap
  params.long_prob = 1.0;
  load::HyperExpModel m(params);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = m.make_source(5);
  src->start(s, h);
  s.run_until(20000.0);
  int max_load = 0;
  for (const sim::Sample& sample : h.load_history())
    max_load = std::max(max_load, static_cast<int>(sample.value));
  EXPECT_GT(max_load, 1);
}

TEST(HyperExpModel, RejectsInvalidParams) {
  load::HyperExpParams p;
  p.mean_lifetime_s = 0.0;
  EXPECT_THROW(load::HyperExpModel{p}, std::invalid_argument);
  p = {};
  p.long_prob = 0.0;
  EXPECT_THROW(load::HyperExpModel{p}, std::invalid_argument);
  p = {};
  p.mean_interarrival_s = -1.0;
  EXPECT_THROW(load::HyperExpModel{p}, std::invalid_argument);
}

TEST(ConstantModel, HoldsLoadForever) {
  load::ConstantModel m(2);
  EXPECT_DOUBLE_EQ(observed_mean_load(m, 1000.0, 1), 2.0);
  EXPECT_THROW(load::ConstantModel(-1), std::invalid_argument);
}

TEST(TraceModel, ReplaysAndWraps) {
  // 0 on [0,10), 1 on [10,20), period 20.
  std::vector<sim::Sample> trace{{0.0, 0.0}, {10.0, 1.0}};
  load::TraceModel m(trace, 20.0, /*random_phase=*/false);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = m.make_source(1);
  src->start(s, h);
  std::vector<std::pair<double, int>> seen;
  s.run_until(45.0);
  // Load at 5 -> 0, 15 -> 1, 25 -> 0, 35 -> 1.
  EXPECT_DOUBLE_EQ(h.mean_availability(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(h.mean_availability(10.0, 20.0), 0.5);
  EXPECT_DOUBLE_EQ(h.mean_availability(20.0, 30.0), 1.0);
  EXPECT_DOUBLE_EQ(h.mean_availability(30.0, 40.0), 0.5);
}

TEST(TraceModel, ValidatesInput) {
  EXPECT_THROW(load::TraceModel({}, 10.0), std::invalid_argument);
  EXPECT_THROW(load::TraceModel({{5.0, 1.0}, {2.0, 0.0}}, 10.0),
               std::invalid_argument);
  EXPECT_THROW(load::TraceModel({{0.0, 1.0}, {20.0, 0.0}}, 10.0),
               std::invalid_argument);
}

TEST(CompositeOnOffModel, AggregatesSources) {
  // Two always-on-after-first-step sources would need p=1,q=0; use heavy
  // sources and check loads above 1 occur.
  std::vector<load::OnOffParams> parts(3, load::OnOffParams{.p = 0.9,
                                                            .q = 0.05,
                                                            .step_s = 10.0});
  load::CompositeOnOffModel m(parts);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = m.make_source(2);
  src->start(s, h);
  s.run_until(5000.0);
  int max_load = 0;
  for (const sim::Sample& sample : h.load_history())
    max_load = std::max(max_load, static_cast<int>(sample.value));
  EXPECT_GT(max_load, 1);
  EXPECT_LE(max_load, 3);
  EXPECT_THROW(load::CompositeOnOffModel{std::vector<load::OnOffParams>{}},
               std::invalid_argument);
}

TEST(LoadModelAttachAll, DrivesEveryHostIndependently) {
  sim::Simulator s;
  sim::Rng cluster_rng(1);
  pf::ClusterSpec spec;
  spec.host_count = 8;
  pf::Cluster cluster(s, spec, cluster_rng);
  load::OnOffModel m(load::OnOffParams{.p = 0.5, .q = 0.5, .step_s = 10.0});
  auto sources = load::LoadModel::attach_all(m, s, cluster, 99);
  EXPECT_EQ(sources.size(), 8u);
  s.run_until(1000.0);
  // With independent streams, not every host can have an identical history.
  bool any_difference = false;
  const auto& first = cluster.host(0).load_history();
  for (std::size_t i = 1; i < cluster.size(); ++i)
    if (cluster.host(static_cast<pf::HostId>(i)).load_history() != first)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}
