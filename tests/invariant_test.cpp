// The chaos harness under ctest (label: chaos): a grid of seeded failure
// schedules must run violation-free and quiesce, the runs must be exactly
// reproducible from their config, and the detection machinery itself is
// tested by injecting the §4.1 bug the overlap checker exists to catch
// (skipping the MASC waiting period) and requiring a replayable violation,
// and by losing one BGP update for the session-consistency checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "eval/chaos.hpp"

namespace eval {
namespace {

ChaosConfig grid_cell(std::uint64_t seed, int domains) {
  ChaosConfig config;
  config.seed = seed;
  config.domains = domains;
  config.steps = 12;
  config.check_every = 3;
  return config;
}

std::string transcript(const ChaosResult& r) {
  std::string out = "seed " + std::to_string(r.config.seed) + ", " +
                    std::to_string(r.config.domains) + " domains:\n";
  for (const std::string& line : r.schedule) out += "  " + line + "\n";
  for (const ChaosViolation& v : r.violations) {
    out += "  VIOLATION step " + std::to_string(v.step) + " [" +
           v.invariant + "] " + v.subject + ": " + v.detail + "\n";
  }
  if (!r.quiesced) out += "  (network did not quiesce after final heal)\n";
  return out;
}

// ------------------------------------------------------------------ grid

class ChaosGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChaosGrid, RunsViolationFreeAndQuiesces) {
  const auto [domains, seed] = GetParam();
  const ChaosResult r =
      run_chaos(grid_cell(static_cast<std::uint64_t>(seed), domains));
  EXPECT_TRUE(r.passed()) << transcript(r);
  EXPECT_GT(r.checks_run, 0u);
}

// 2 topology sizes x 16 seeds = 32 cells.
INSTANTIATE_TEST_SUITE_P(
    Cells, ChaosGrid,
    ::testing::Combine(::testing::Values(12, 24), ::testing::Range(1, 17)));

// ------------------------------------------------------- chaos + workload

/// A chaos-scale workload: ticks aligned with the step gap, lifetimes
/// short enough that membership churns (and trees join/prune) inside a
/// 12-step run, a couple of flash crowds inside the horizon.
workload::Spec chaos_workload(const ChaosConfig& config) {
  workload::Spec w = workload::Spec::small();
  w.tick_seconds = config.step_gap.to_seconds();
  w.sim_days =
      2.0 * config.steps * config.step_gap.to_seconds() / 86400.0 + 1.0 / 96.0;
  w.groups = 12;
  w.arrivals_per_second = 20.0;
  w.mean_lifetime_seconds = 300.0;
  w.span_base = 8;
  w.flash_crowds = 2;
  w.flash_duration_seconds = 120.0;
  return w;
}

ChaosConfig workload_cell(std::uint64_t seed, int domains) {
  ChaosConfig config = grid_cell(seed, domains);
  config.workload = chaos_workload(config);
  return config;
}

class ChaosWorkloadGrid : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(ChaosWorkloadGrid, RunsViolationFreeWithLiveMembershipChurn) {
  // Every invariant (lease overlap, G-RIB consistency, quiescence) must
  // keep holding while the aggregate member layer drives joins/prunes
  // through the same trees the perturbations are tearing at.
  const auto [domains, seed] = GetParam();
  const ChaosResult r =
      run_chaos(workload_cell(static_cast<std::uint64_t>(seed), domains));
  EXPECT_TRUE(r.passed()) << transcript(r);
  EXPECT_GT(r.checks_run, 0u);
  EXPECT_GT(r.workload_ticks, 0);
  EXPECT_GT(r.workload_members, 0u)
      << "workload never built membership — the layer is inert";
}

// 2 topology sizes x 8 seeds = 16 cells (chaos label: nightly budget).
INSTANTIATE_TEST_SUITE_P(
    Cells, ChaosWorkloadGrid,
    ::testing::Combine(::testing::Values(12, 24), ::testing::Range(1, 9)));

// --------------------------------------------------------------- determinism

TEST(ChaosDeterminism, EqualConfigsProduceEqualRuns) {
  const ChaosConfig config = grid_cell(5, 16);
  const ChaosResult a = run_chaos(config);
  const ChaosResult b = run_chaos(config);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.quiesced, b.quiesced);
}

TEST(ChaosDeterminism, WorkloadRunsReplayToTheSameEngineDigest) {
  const ChaosConfig config = workload_cell(5, 16);
  const ChaosResult a = run_chaos(config);
  const ChaosResult b = run_chaos(config);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.workload_members, b.workload_members);
  EXPECT_EQ(a.workload_ticks, b.workload_ticks);
  ASSERT_NE(a.workload_engine_digest, 0u);
  EXPECT_EQ(a.workload_engine_digest, b.workload_engine_digest);
}

// ----------------------------------------------------------- fault injection

ChaosConfig injected_cell(std::uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.domains = 16;
  config.steps = 4;
  config.check_every = 1;  // the overlap window is narrow
  config.inject_skip_waiting_period = true;
  return config;
}

TEST(ChaosInjection, SkippedWaitingPeriodIsCaughtByOverlapChecker) {
  const ChaosResult r = run_chaos(injected_cell(1));
  ASSERT_FALSE(r.violations.empty())
      << "the injected bug went undetected:\n" << transcript(r);
  EXPECT_FALSE(r.passed());
  bool overlap_seen = false;
  for (const ChaosViolation& v : r.violations) {
    if (v.invariant == "masc-overlap") overlap_seen = true;
  }
  EXPECT_TRUE(overlap_seen)
      << "violations found, but none from masc-overlap:\n" << transcript(r);
}

TEST(ChaosInjection, LostUpdateIsCaughtBySessionConsistencyChecker) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    ChaosConfig config = grid_cell(seed, 16);
    config.inject_lost_update = true;
    const ChaosResult r = run_chaos(config);
    bool seen = false;
    for (const ChaosViolation& v : r.violations) {
      if (v.invariant == "bgp-session-consistency") seen = true;
    }
    EXPECT_TRUE(seen) << "the lost update went undetected:\n"
                      << transcript(r);
    // The same schedule without the fault is clean: the checker fires on
    // the injected divergence, not on the run.
    config.inject_lost_update = false;
    EXPECT_TRUE(run_chaos(config).passed()) << "seed " << seed;
  }
}

TEST(ChaosInjection, ViolationReplaysExactlyFromSeed) {
  // The {seed, step, schedule} triple a failure dumps must reproduce the
  // identical violations when the config is replayed.
  const ChaosConfig config = injected_cell(2);
  const ChaosResult a = run_chaos(config);
  const ChaosResult b = run_chaos(config);
  ASSERT_FALSE(a.violations.empty());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.schedule, b.schedule);
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].step, b.violations[i].step);
    EXPECT_EQ(a.violations[i].invariant, b.violations[i].invariant);
    EXPECT_EQ(a.violations[i].subject, b.violations[i].subject);
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
  }
}

}  // namespace
}  // namespace eval
