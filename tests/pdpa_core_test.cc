// Unit tests for the PDPA search automaton and the coordinated
// multiprogramming-level rule (Sec. 4.2 / 4.3 of the paper).
#include "src/core/pdpa.h"

#include <gtest/gtest.h>

namespace pdpa {
namespace {

PdpaParams DefaultParams() {
  PdpaParams params;
  params.target_eff = 0.7;
  params.high_eff = 0.9;
  params.step = 4;
  return params;
}

TEST(PdpaAutomatonTest, StartsInNoRefWithMinOfRequestAndFree) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  EXPECT_EQ(automaton.OnJobStart(60), 30);
  EXPECT_EQ(automaton.state(), PdpaState::kNoRef);

  PdpaAutomaton small(DefaultParams(), 30);
  EXPECT_EQ(small.OnJobStart(8), 8);
}

TEST(PdpaAutomatonTest, NoRefHighEfficiencyGoesInc) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(8);  // alloc = 8
  // Efficiency 0.95 > high_eff.
  const PdpaDecision decision = automaton.OnReport(/*speedup=*/7.6, /*procs=*/8, /*free=*/20);
  EXPECT_EQ(decision.next_state, PdpaState::kInc);
  EXPECT_EQ(decision.next_alloc, 12);  // +step
  EXPECT_TRUE(decision.changed);
}

TEST(PdpaAutomatonTest, NoRefLowEfficiencyGoesDec) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(30);
  // Efficiency 0.4 < target_eff.
  const PdpaDecision decision = automaton.OnReport(12.0, 30, 0);
  EXPECT_EQ(decision.next_state, PdpaState::kDec);
  EXPECT_EQ(decision.next_alloc, 26);
}

TEST(PdpaAutomatonTest, NoRefAcceptableEfficiencyGoesStable) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(30);
  // Efficiency 0.8 in [target, high].
  const PdpaDecision decision = automaton.OnReport(24.0, 30, 10);
  EXPECT_EQ(decision.next_state, PdpaState::kStable);
  EXPECT_EQ(decision.next_alloc, 30);
  EXPECT_FALSE(decision.changed);
}

TEST(PdpaAutomatonTest, IncGrowthLimitedByFreeProcessors) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(8);
  const PdpaDecision decision = automaton.OnReport(7.6, 8, /*free=*/2);
  EXPECT_EQ(decision.next_state, PdpaState::kInc);
  EXPECT_EQ(decision.next_alloc, 10);  // step clipped by free pool
}

TEST(PdpaAutomatonTest, RelativeSpeedupStopsSuperlinearGrowth) {
  // swim-like: superlinear up to 16, then flat relative speedup.
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(12);
  // eff(12) = 16.5/12 = 1.37 -> INC to 16.
  PdpaDecision d = automaton.OnReport(16.5, 12, 48);
  ASSERT_EQ(d.next_alloc, 16);
  // eff(16) = 23/16 = 1.44 > 0.9, speedup grew, relative speedup
  // 23/16.5 = 1.39 > 1 + (4/12)*0.9 = 1.30 -> keep growing to 20.
  d = automaton.OnReport(23.0, 16, 44);
  ASSERT_EQ(d.next_state, PdpaState::kInc);
  ASSERT_EQ(d.next_alloc, 20);
  // eff(20) = 25.5/20 = 1.27 > 0.9 and speedup grew, but relative speedup
  // 25.5/23 = 1.11 < 1 + (4/16)*0.9 = 1.225 -> STABLE; efficiency is still
  // above target so the processors gained are kept.
  d = automaton.OnReport(25.5, 20, 40);
  EXPECT_EQ(d.next_state, PdpaState::kStable);
  EXPECT_EQ(d.next_alloc, 20);
}

TEST(PdpaAutomatonTest, RelativeSpeedupAblationKeepsGrowing) {
  PdpaParams params = DefaultParams();
  params.use_relative_speedup = false;
  PdpaAutomaton automaton(params, 30);
  automaton.OnJobStart(12);
  automaton.OnReport(16.5, 12, 48);
  automaton.OnReport(23.0, 16, 44);
  // Without the RelativeSpeedup test the efficiency (1.27) and monotone
  // speedup checks still pass: PDPA overshoots to 24.
  const PdpaDecision d = automaton.OnReport(25.5, 20, 40);
  EXPECT_EQ(d.next_state, PdpaState::kInc);
  EXPECT_EQ(d.next_alloc, 24);
}

TEST(PdpaAutomatonTest, IncRollsBackWhenEfficiencyDropsBelowTarget) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(8);
  automaton.OnReport(7.6, 8, 40);  // INC -> 12
  // At 12 procs efficiency collapses to 0.55: go STABLE and lose the step.
  const PdpaDecision d = automaton.OnReport(6.6, 12, 36);
  EXPECT_EQ(d.next_state, PdpaState::kStable);
  EXPECT_EQ(d.next_alloc, 8);
}

TEST(PdpaAutomatonTest, IncKeepsProcessorsWhenEfficiencyAcceptable) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(8);
  automaton.OnReport(7.6, 8, 40);  // INC -> 12
  // eff = 0.8: acceptable, growth stops but the 12 procs stay.
  const PdpaDecision d = automaton.OnReport(9.6, 12, 36);
  EXPECT_EQ(d.next_state, PdpaState::kStable);
  EXPECT_EQ(d.next_alloc, 12);
}

TEST(PdpaAutomatonTest, DecShrinksUntilTargetReached) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(30);
  PdpaDecision d = automaton.OnReport(9.0, 30, 0);  // eff 0.3 -> DEC 26
  ASSERT_EQ(d.next_alloc, 26);
  d = automaton.OnReport(8.8, 26, 0);  // eff 0.34 -> DEC 22
  ASSERT_EQ(d.next_alloc, 22);
  d = automaton.OnReport(16.0, 22, 0);  // eff 0.73 -> STABLE, keep 22
  EXPECT_EQ(d.next_state, PdpaState::kStable);
  EXPECT_EQ(d.next_alloc, 22);
}

TEST(PdpaAutomatonTest, DecNeverGoesBelowOneProcessor) {
  PdpaAutomaton automaton(DefaultParams(), 2);
  automaton.OnJobStart(2);
  PdpaDecision d = automaton.OnReport(1.2, 2, 10);  // eff 0.6 -> DEC
  EXPECT_EQ(d.next_alloc, 1);
  d = automaton.OnReport(1.0, 1, 10);  // eff 1.0 at 1 proc... stable
  EXPECT_EQ(d.next_state, PdpaState::kStable);
  EXPECT_EQ(d.next_alloc, 1);
}

TEST(PdpaAutomatonTest, BadPerformanceFlagAtFloor) {
  PdpaParams params = DefaultParams();
  PdpaAutomaton automaton(params, 4);
  automaton.OnJobStart(4);
  automaton.OnReport(1.2, 4, 0);  // eff 0.3 -> DEC 1
  ASSERT_EQ(automaton.current_alloc(), 1);
  // Still below target at 1 CPU (speedup 0.5 means slowdown): stuck.
  automaton.OnReport(0.5, 1, 0);
  EXPECT_TRUE(automaton.BadPerformance());
  EXPECT_TRUE(automaton.Settled());
}

TEST(PdpaAutomatonTest, StableReactsToPerformanceDrop) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(20);
  automaton.OnReport(15.0, 20, 0);  // eff 0.75 -> STABLE
  ASSERT_EQ(automaton.state(), PdpaState::kStable);
  // Input set grew; efficiency collapsed.
  const PdpaDecision d = automaton.OnReport(10.0, 20, 0);
  EXPECT_EQ(d.next_state, PdpaState::kDec);
  EXPECT_EQ(d.next_alloc, 16);
}

TEST(PdpaAutomatonTest, StableExitLimitPreventsPingPong) {
  PdpaParams params = DefaultParams();
  params.max_stable_exits = 1;
  PdpaAutomaton automaton(params, 30);
  automaton.OnJobStart(20);
  automaton.OnReport(15.0, 20, 0);          // STABLE
  automaton.OnReport(10.0, 20, 0);          // exit 1: DEC 16
  automaton.OnReport(12.8, 16, 0);          // eff 0.8 -> STABLE
  const PdpaDecision d = automaton.OnReport(9.0, 16, 0);  // eff 0.56, but limit hit
  EXPECT_EQ(d.next_state, PdpaState::kStable);
  EXPECT_EQ(d.next_alloc, 16);
}

TEST(PdpaAutomatonTest, ReportAtStaleAllocationIsIgnored) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(8);
  automaton.OnReport(7.6, 8, 40);  // INC -> 12
  // A late report measured at 8 procs must not trigger a transition.
  const PdpaDecision d = automaton.OnReport(7.6, 8, 40);
  EXPECT_FALSE(d.changed);
  EXPECT_EQ(automaton.current_alloc(), 12);
}

TEST(PdpaAutomatonTest, OnFreeCapacityResumesSearchOnlyWhenVeryEfficient) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(8);
  automaton.OnReport(7.6, 8, 0);  // eff 0.95 but no free procs -> STABLE
  ASSERT_EQ(automaton.state(), PdpaState::kStable);
  // A job finished; 10 processors free up: resume the climb.
  const PdpaDecision d = automaton.OnFreeCapacity(10);
  EXPECT_EQ(d.next_state, PdpaState::kInc);
  EXPECT_EQ(d.next_alloc, 12);

  // An application that was merely acceptable does not move.
  PdpaAutomaton meh(DefaultParams(), 30);
  meh.OnJobStart(20);
  meh.OnReport(15.0, 20, 0);  // eff 0.75 -> STABLE
  EXPECT_FALSE(meh.OnFreeCapacity(10).changed);
}

TEST(PdpaMlPolicyTest, AdmitsWithinDefaultMl) {
  PdpaMlParams params;
  params.default_ml = 4;
  EXPECT_TRUE(PdpaShouldAdmit(params, 10, 0, /*all_settled=*/true, /*any_bad=*/false));
  EXPECT_TRUE(PdpaShouldAdmit(params, 10, 3, /*all_settled=*/false, /*any_bad=*/false));
}

TEST(PdpaMlPolicyTest, NoFreeCpuRefusesEvenWithinDefaultMl) {
  PdpaMlParams params;
  params.default_ml = 4;
  // Jobs run to completion on at least one processor: with none free, the
  // default-ML credit does not admit.
  EXPECT_FALSE(PdpaShouldAdmit(params, 0, 0, /*all_settled=*/true, /*any_bad=*/false));
  EXPECT_FALSE(PdpaShouldAdmit(params, 0, 3, /*all_settled=*/true, /*any_bad=*/true));
  params.coordinated = false;
  EXPECT_FALSE(PdpaShouldAdmit(params, 0, 3, /*all_settled=*/true, /*any_bad=*/false));
}

TEST(PdpaMlPolicyTest, BeyondDefaultNeedsFreeAndSettled) {
  PdpaMlParams params;
  params.default_ml = 4;
  EXPECT_FALSE(PdpaShouldAdmit(params, 10, 4, /*all_settled=*/false, /*any_bad=*/false));
  EXPECT_TRUE(PdpaShouldAdmit(params, 10, 4, /*all_settled=*/true, /*any_bad=*/false));
  EXPECT_FALSE(PdpaShouldAdmit(params, 0, 4, /*all_settled=*/true, /*any_bad=*/false));
}

TEST(PdpaMlPolicyTest, UncoordinatedEnforcesFixedMl) {
  PdpaMlParams params;
  params.default_ml = 4;
  params.coordinated = false;
  EXPECT_TRUE(PdpaShouldAdmit(params, 10, 3, /*all_settled=*/true, /*any_bad=*/false));
  // Even with everything settled and plenty of free CPUs: ML stays fixed.
  EXPECT_FALSE(PdpaShouldAdmit(params, 10, 4, /*all_settled=*/true, /*any_bad=*/false));
}

TEST(PdpaAutomatonTest, SetTargetEffChangesDecisionAtRuntime) {
  PdpaAutomaton automaton(DefaultParams(), 30);
  automaton.OnJobStart(20);
  automaton.OnReport(15.0, 20, 0);  // eff 0.75 -> STABLE at target 0.7
  ASSERT_EQ(automaton.state(), PdpaState::kStable);
  // The administrator (or the dynamic-target mode) tightens the target:
  // 0.75 is no longer acceptable.
  automaton.SetTargetEff(0.8);
  const PdpaDecision d = automaton.OnReport(15.0, 20, 0);
  EXPECT_EQ(d.next_state, PdpaState::kDec);
  EXPECT_EQ(d.next_alloc, 16);
}

TEST(PdpaMlPolicyTest, BadPerformanceOverridesUnsettled) {
  PdpaMlParams params;
  params.default_ml = 4;
  EXPECT_TRUE(PdpaShouldAdmit(params, 5, 4, /*all_settled=*/false, /*any_bad=*/true));
}

// Property sweep: for any parameterization, allocations stay within
// [1, request] and grows/shrinks are bounded by step and the free pool.
struct SweepParam {
  double target_eff;
  double high_eff;
  int step;
  int request;
};

class PdpaSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PdpaSweepTest, AllocationsAlwaysWithinBounds) {
  const SweepParam& sweep = GetParam();
  PdpaParams params;
  params.target_eff = sweep.target_eff;
  params.high_eff = sweep.high_eff;
  params.step = sweep.step;
  PdpaAutomaton automaton(params, sweep.request);
  int alloc = automaton.OnJobStart(60);
  EXPECT_GE(alloc, 1);
  EXPECT_LE(alloc, sweep.request);
  // Deterministic pseudo-random speedups exercise every state.
  unsigned seed = 12345;
  for (int i = 0; i < 200; ++i) {
    seed = seed * 1664525u + 1013904223u;
    const double eff = static_cast<double>(seed % 1000) / 800.0;  // 0 .. 1.25
    const int free = static_cast<int>((seed >> 10) % 20);
    const int before = automaton.current_alloc();
    const PdpaDecision d = automaton.OnReport(eff * before, before, free);
    EXPECT_GE(d.next_alloc, 1);
    EXPECT_LE(d.next_alloc, sweep.request);
    EXPECT_LE(d.next_alloc - before, std::min(params.step, free));
    EXPECT_LE(before - d.next_alloc, params.step);
    alloc = d.next_alloc;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamSweep, PdpaSweepTest,
    ::testing::Values(SweepParam{0.5, 0.7, 2, 8}, SweepParam{0.7, 0.9, 4, 30},
                      SweepParam{0.7, 0.9, 1, 4}, SweepParam{0.6, 0.95, 8, 60},
                      SweepParam{0.9, 0.9, 4, 30}, SweepParam{0.3, 0.5, 3, 15}));

}  // namespace
}  // namespace pdpa
