// Golden identity: the technique-runtime refactor is a pure restructuring
// of the strategy layer and may not move a single simulated event.  Every
// (scenario, technique, seed) cell below was captured from the pre-refactor
// monolith (strategies.cpp); makespans, counters and FailureStats must stay
// bitwise identical.  Doubles are spelled as hexfloats so the expected
// values round-trip exactly.  Two re-recordings so far:
//   * rounding: when sim::FairShare moved to one countdown clock per
//     resource, four doubles of faulty/dlb_swap/3 and hostile/dlb_swap/3
//     moved by at most 1.6e-15 relative, with every count unchanged;
//   * a bug fix: host_crashes counted every crash until the end of the
//     simulation's 24-hour run chunk, not only those the run lived
//     through.  The 36 faulty and hostile cells re-recorded only that
//     count (for example faulty/none/1: 31 -> 4).
//
// A second test proves run_trials_results is jobs-invariant: fanning the
// same trials over a 4-worker pool returns bitwise-identical results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden_scenarios.hpp"

namespace {

using golden::Row;

const std::vector<Row>& golden_rows() {
  static const std::vector<Row> kRows{
    {"calm", "none", 1, 0x1.d82b570d3791bp+11, 25, 0, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "none", 2, 0x1.b1c5149d357cfp+11, 25, 0, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "none", 3, 0x1.d0bce51ec8036p+11, 25, 0, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "swap_greedy", 1, 0x1.e7cf8a5b9ff67p+11, 25, 43, 0x1.77bd9d6c455ccp+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "swap_greedy", 2, 0x1.c29804399613bp+11, 25, 42, 0x1.6f00b0f27bb31p+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "swap_greedy", 3, 0x1.de999e4919e59p+11, 25, 41, 0x1.6643baa41cf1ep+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "swap_safe_guard", 1, 0x1.0424018a427fp+12, 25, 20, 0x1.5d86e51a59d6cp+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "swap_safe_guard", 2, 0x1.ef838567ac557p+11, 25, 19, 0x1.4c0cf87d9c548p+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "swap_safe_guard", 3, 0x1.eed6a7d48775fp+11, 25, 17, 0x1.2919050d3e65p+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "dlb", 1, 0x1.98d4a948fa09ap+11, 25, 24, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "dlb", 2, 0x1.74bc1576b2436p+11, 25, 24, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "dlb", 3, 0x1.947a5976e59eap+11, 25, 24, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "dlb_swap", 1, 0x1.a5b3ab8deb53fp+11, 25, 34, 0x1.2918f16414354p+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "dlb_swap", 2, 0x1.a280fc7a6757ap+11, 25, 29, 0x1.fad03d2abc242p+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "dlb_swap", 3, 0x1.ae633ae9556e3p+11, 25, 34, 0x1.2918f1641435p+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "cr", 1, 0x1.ad9e92a817085p+12, 25, 23, 0x1.9a9467c3ece28p+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "cr", 2, 0x1.9cef027789051p+12, 25, 23, 0x1.9a9467c3ece2ap+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"calm", "cr", 3, 0x1.838eb92d5f986p+12, 25, 20, 0x1.65069d0369d04p+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"faulty", "none", 1, 0x1.442276969dbd2p+12, 25, 0, 0x1.4abd17e5ca77ap+10,
     {4, 0, 0, 0, 0, 1, 0, 10, 0x1.4abd17e5ca77ap+10}},
    {"faulty", "none", 2, 0x1.b72bb357bd347p+11, 25, 0, 0x0p+0,
     {4, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"faulty", "none", 3, 0x1.8d17575f8c7e3p+12, 25, 0, 0x1.4e26e41cbfc4p+11,
     {6, 0, 0, 0, 0, 1, 0, 19, 0x1.4e26e41cbfc4p+11}},
    {"faulty", "swap_greedy", 1, 0x1.11d69e91eadb4p+12, 25, 48, 0x1.cd0e36866a308p+9,
     {4, 8, 8, 0, 0, 0, 0, 0, 0x1.3dbbfd317e116p+7}},
    {"faulty", "swap_greedy", 2, 0x1.11b3f3402e3fcp+12, 25, 47, 0x1.db196e6012136p+9,
     {6, 12, 12, 0, 0, 0, 0, 0, 0x1.158e2cb9d40acp+8}},
    {"faulty", "swap_greedy", 3, 0x1.2c0b3b5ff6ba6p+12, 25, 60, 0x1.42bfe0e7b8e1bp+10,
     {5, 15, 15, 0, 0, 1, 0, 0, 0x1.1d6f5567b2922p+9}},
    {"faulty", "swap_safe_guard", 1, 0x1.fece0c41d990ep+11, 25, 14, 0x1.a9674c7b3614bp+8,
     {4, 4, 4, 0, 0, 1, 0, 0, 0x1.8c6be6a669f9ep+7}},
    {"faulty", "swap_safe_guard", 2, 0x1.0cc2b34c9ae66p+12, 25, 19, 0x1.55b646eb78d95p+9,
     {6, 5, 5, 0, 0, 2, 0, 0, 0x1.9e53932132bb8p+8}},
    {"faulty", "swap_safe_guard", 3, 0x1.ff79ecd4291a2p+11, 25, 17, 0x1.377fe435d9be6p+8,
     {3, 1, 1, 0, 0, 0, 0, 0, 0x1.ecdaaa80c82p+4}},
    {"faulty", "dlb", 1, 0x1.0a0cc144f0f0fp+12, 25, 24, 0x1.34bb4ba06c4ap+5,
     {4, 0, 0, 0, 0, 1, 0, 0, 0x1.34bb4ba06c4ap+5}},
    {"faulty", "dlb", 2, 0x1.a7e8b6f4a1d21p+11, 25, 24, 0x0p+0,
     {4, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"faulty", "dlb", 3, 0x1.e57b58636a03bp+11, 25, 24, 0x1.ac21d6649cap+4,
     {3, 0, 0, 0, 0, 1, 0, 0, 0x1.ac21d6649cap+4}},
    {"faulty", "dlb_swap", 1, 0x1.fdcbddaf27a34p+11, 25, 43, 0x1.a15d6a456cc93p+9,
     {4, 8, 8, 0, 0, 1, 0, 0, 0x1.8b6a1fbcc59eap+7}},
    {"faulty", "dlb_swap", 2, 0x1.f1144dae5b0a4p+11, 25, 41, 0x1.92239bf1b2c92p+9,
     {5, 8, 8, 0, 0, 0, 0, 0, 0x1.f783f4fdde6d8p+7}},
    {"faulty", "dlb_swap", 3, 0x1.15692ea6e6b16p+12, 25, 55, 0x1.0ce187d2a70d2p+10,
     {4, 12, 12, 0, 0, 0, 0, 0, 0x1.50e0558fe3f88p+8}},
    {"faulty", "cr", 1, 0x1.a0636dd6bd31fp+12, 25, 18, 0x1.6d0394237fa8ap+11,
     {6, 0, 0, 0, 5, 0, 0, 0, 0x1.5d869d0369cf8p+8}},
    {"faulty", "cr", 2, 0x1.9abc19342eb6cp+12, 25, 18, 0x1.6d0394237fa8ap+11,
     {6, 0, 0, 0, 5, 0, 0, 0, 0x1.5d869d0369cf8p+8}},
    {"faulty", "cr", 3, 0x1.b64c3952de6c8p+12, 25, 21, 0x1.8b0a08da96a68p+11,
     {8, 0, 0, 0, 3, 1, 0, 0, 0x1.301b5eb966b34p+8}},
    {"hostile", "none", 1, 0x1.ac7786ba6452ep+12, 25, 0, 0x1.94e424b037d4cp+11,
     {4, 0, 0, 0, 0, 2, 0, 22, 0x1.94e424b037d4cp+11}},
    {"hostile", "none", 2, 0x1.b64475cf84871p+11, 25, 0, 0x0p+0,
     {3, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"hostile", "none", 3, 0x1.ac6ec7ba01a1dp+11, 25, 0, 0x0p+0,
     {1, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"hostile", "swap_greedy", 1, 0x1.8c7f3717bf7eep+12, 25, 21, 0x1.46dbd353d3ba2p+10,
     {4, 99, 81, 18, 0, 0, 25, 0, 0x1.c6f521447746cp+10}},
    {"hostile", "swap_greedy", 2, 0x1.c42627fab6709p+12, 25, 17, 0x1.7797a7ab0a762p+10,
     {6, 123, 100, 23, 0, 0, 27, 0, 0x1.24a58fe689695p+11}},
    {"hostile", "swap_greedy", 3, 0x1.8ccd685fb93dbp+12, 25, 22, 0x1.62074249d6a66p+10,
     {3, 101, 80, 21, 0, 0, 24, 0, 0x1.f76de7739cb4p+10}},
    {"hostile", "swap_safe_guard", 1, 0x1.fc874a5ba05dcp+11, 25, 4, 0x1.72a6c883671fap+8,
     {3, 25, 19, 6, 0, 0, 6, 0, 0x1.2cbefbd98e2c2p+8}},
    {"hostile", "swap_safe_guard", 2, 0x1.d0c1a4503d9f2p+11, 25, 5, 0x1.6353d9229587bp+8,
     {3, 24, 19, 5, 0, 0, 5, 0, 0x1.0bf2194e4656fp+8}},
    {"hostile", "swap_safe_guard", 3, 0x1.e69a8e44ee852p+11, 25, 7, 0x1.2a32ef3fd8f42p+8,
     {2, 14, 12, 2, 0, 0, 3, 0, 0x1.5fba922d3a93cp+7}},
    {"hostile", "dlb", 1, 0x1.ef1c47fae24aep+11, 25, 24, 0x1.942e557acafp+4,
     {3, 0, 0, 0, 0, 1, 0, 0, 0x1.942e557acafp+4}},
    {"hostile", "dlb", 2, 0x1.87fe92936bd0ep+11, 25, 24, 0x0p+0,
     {2, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"hostile", "dlb", 3, 0x1.c436a0b6ecee5p+11, 25, 24, 0x0p+0,
     {2, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"hostile", "dlb_swap", 1, 0x1.69f32c37158d1p+12, 25, 19, 0x1.219be441d14bp+10,
     {4, 87, 68, 19, 0, 0, 20, 0, 0x1.b35a359c677b6p+10}},
    {"hostile", "dlb_swap", 2, 0x1.23f65f5751f92p+12, 25, 12, 0x1.dce204ae14106p+9,
     {3, 73, 59, 14, 0, 0, 18, 0, 0x1.43b8014b0a6d3p+10}},
    {"hostile", "dlb_swap", 3, 0x1.490dfff974c1dp+12, 25, 19, 0x1.3f9dfa3493f41p+10,
     {3, 83, 69, 14, 0, 1, 20, 0, 0x1.a5bf6b275ac7dp+10}},
    {"hostile", "cr", 1, 0x1.7e0d65594d24p+12, 25, 9, 0x1.1afee402bb0d2p+11,
     {4, 0, 0, 0, 14, 0, 0, 0, 0x1.e9560f04c756ap+9}},
    {"hostile", "cr", 2, 0x1.84b2eea3d5d0dp+12, 25, 10, 0x1.241bdb22d0e57p+11,
     {6, 0, 0, 0, 13, 0, 0, 0, 0x1.c66232846ff4cp+9}},
    {"hostile", "cr", 3, 0x1.7ad0b3beb71f5p+12, 25, 11, 0x1.247bdb22d0e58p+11,
     {3, 0, 0, 0, 11, 0, 0, 0, 0x1.807a7983c132p+9}},
    {"reclaim", "none", 1, 0x1.1119daeb5f43p+13, 25, 0, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "none", 2, 0x1.2e7a98b999fd7p+13, 25, 0, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "none", 3, 0x1.e124f80015c07p+12, 25, 0, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "swap_greedy", 1, 0x1.81b597a785349p+12, 25, 43, 0x1.77bdadce932f4p+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "swap_greedy", 2, 0x1.e5024e05b957ap+13, 25, 42, 0x1.6f00a71de694cp+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "swap_greedy", 3, 0x1.d3bf490ace8a2p+12, 25, 29, 0x1.fad050d3e6561p+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "swap_safe_guard", 1, 0x1.b3db4ce25859dp+12, 25, 27, 0x1.7353c022d8f75p+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "swap_safe_guard", 2, 0x1.9a7e3379df351p+12, 25, 21, 0x1.63280018b7b7p+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "swap_safe_guard", 3, 0x1.4f9b4f1bdfb62p+12, 25, 23, 0x1.9b456d15a86bbp+10,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "dlb", 1, 0x1.88bf765b65162p+12, 25, 24, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "dlb", 2, 0x1.173c778bf1429p+13, 25, 24, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "dlb", 3, 0x1.87af0ad47149bp+12, 25, 24, 0x0p+0,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "dlb_swap", 1, 0x1.2805b6404701fp+13, 25, 37, 0x1.434fde23c58dfp+9,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "dlb_swap", 2, 0x1.8365da909aad5p+13, 25, 28, 0x1.e956508dfe9f8p+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "dlb_swap", 3, 0x1.31c552869a69p+12, 25, 17, 0x1.2918fe7f85abcp+8,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "cr", 1, 0x1.9e0f330fe28bfp+13, 25, 23, 0x1.9a9467c3ece07p+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "cr", 2, 0x1.b76f482921201p+13, 25, 23, 0x1.9a9467c3ecdfdp+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
    {"reclaim", "cr", 3, 0x1.400f2ca2983a5p+13, 25, 19, 0x1.532caec33e1e1p+11,
     {0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0}},
  };
  return kRows;
}

}  // namespace

TEST(GoldenIdentity, EveryCellBitwiseIdentical) {
  ASSERT_EQ(golden_rows().size(), golden::scenarios().size() *
                                      golden::techniques().size() *
                                      golden::seeds().size());
  for (const Row& row : golden_rows()) {
    SCOPED_TRACE(std::string(row.scenario) + "/" + row.technique + "/seed=" +
                 std::to_string(row.seed));
    const simsweep::strategy::RunResult result =
        golden::run_cell(row.scenario, row.technique, row.seed);
    // Exact == on purpose: "close enough" would hide a reordered event.
    EXPECT_EQ(result.makespan_s, row.makespan_s);
    EXPECT_EQ(result.iterations_completed, row.iterations);
    EXPECT_EQ(result.adaptations, row.adaptations);
    EXPECT_EQ(result.adaptation_overhead_s, row.adaptation_overhead_s);
    EXPECT_TRUE(result.failures == row.failures)
        << "FailureStats diverged (crashes " << result.failures.host_crashes
        << " vs " << row.failures.host_crashes << ", transfers_failed "
        << result.failures.transfers_failed << " vs "
        << row.failures.transfers_failed << ", abandoned "
        << result.failures.transfers_abandoned << " vs "
        << row.failures.transfers_abandoned << ", blacklisted "
        << result.failures.hosts_blacklisted << " vs "
        << row.failures.hosts_blacklisted << ")";
  }
}

TEST(GoldenIdentity, ParallelTrialsMatchSerial) {
  // The faulty scenario exercises the full recovery ladder; four trials over
  // a 4-worker pool must reproduce the serial results bit for bit.
  for (const std::string& technique : golden::techniques()) {
    SCOPED_TRACE(technique);
    auto cfg = golden::config_for("faulty");
    cfg.seed = 1;
    const auto model = golden::model_for("faulty");
    const auto serial_strategy = golden::make_technique(technique);
    const auto serial = golden::core::run_trials_results(
        cfg, *model, *serial_strategy, /*trials=*/4, /*jobs=*/1);
    const auto pooled_strategy = golden::make_technique(technique);
    const auto pooled = golden::core::run_trials_results(
        cfg, *model, *pooled_strategy, /*trials=*/4, /*jobs=*/4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
      SCOPED_TRACE("trial " + std::to_string(t));
      EXPECT_EQ(serial[t].makespan_s, pooled[t].makespan_s);
      EXPECT_EQ(serial[t].iterations_completed,
                pooled[t].iterations_completed);
      EXPECT_EQ(serial[t].adaptations, pooled[t].adaptations);
      EXPECT_EQ(serial[t].adaptation_overhead_s,
                pooled[t].adaptation_overhead_s);
      EXPECT_TRUE(serial[t].failures == pooled[t].failures);
    }
  }
}
