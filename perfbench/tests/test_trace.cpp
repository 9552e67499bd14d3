// Tests of the benchmark's own arithmetic: the nearest-rank percentile with
// the ten-samples-beyond rule, phase/gap attribution from hook timestamps,
// and span self time.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailQuantile, NearestRankWhenTheTailIsLongEnough) {
  // 200 samples: p95 is the 190th value and leaves exactly 10 beyond it.
  const Quantile q = tail_quantile(one_to(200), 95.0);
  EXPECT_EQ(q.value, 190.0);
  EXPECT_DOUBLE_EQ(q.percentile, 95.0);
  EXPECT_EQ(q.samples, 200u);
}

TEST(TailQuantile, LowersTheRankToKeepTenSamplesBeyond) {
  // 100 samples: p95 (rank 95) would leave 5 beyond; rank 90 leaves 10.
  const Quantile q = tail_quantile(one_to(100), 95.0);
  EXPECT_EQ(q.value, 90.0);
  EXPECT_DOUBLE_EQ(q.percentile, 90.0);
}

TEST(TailQuantile, FallsBackToTheMedianWithTooFewSamples) {
  // 15 samples: only rank 5 leaves 10 beyond, below the median's rank 8.
  Quantile q = tail_quantile(one_to(15), 95.0);
  EXPECT_EQ(q.value, 8.0);
  EXPECT_NEAR(q.percentile, 100.0 * 8 / 15, 1e-9);
  q = tail_quantile({3.0}, 95.0);
  EXPECT_EQ(q.value, 3.0);
  EXPECT_EQ(q.samples, 1u);
}

TEST(TailQuantile, SortsItsInputAndHandlesEmpty) {
  EXPECT_EQ(median({5.0, 1.0, 4.0, 2.0, 3.0}).value, 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}).value, 2.0);  // nearest rank: 2nd
  const Quantile q = median({});
  EXPECT_EQ(q.value, 0.0);
  EXPECT_EQ(q.samples, 0u);
}

TEST(Attribute, SplitsPhasesRoundsAndGaps) {
  // Call at 0, return at 100. Phase A starts at 10 with rounds ending at 15,
  // 25; phase B starts at 40 with one round ending at 90.
  const std::vector<PhaseMarks> marks = {{10.0, {15.0, 25.0}}, {40.0, {90.0}}};
  const Attribution a = attribute(0.0, 100.0, marks);
  ASSERT_EQ(a.phase_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(a.phase_ms[0], 15.0);
  EXPECT_DOUBLE_EQ(a.phase_ms[1], 50.0);
  EXPECT_EQ(a.round_ms, (std::vector<double>{5.0, 10.0, 50.0}));
  // Gaps: 0->10, 25->40, 90->100.
  EXPECT_DOUBLE_EQ(a.gap_ms, 35.0);
  EXPECT_DOUBLE_EQ(a.phase_ms[0] + a.phase_ms[1] + a.gap_ms, 100.0);
}

TEST(Attribute, PhaseWithoutRoundsGoesToTheGap) {
  const std::vector<PhaseMarks> marks = {{10.0, {}}, {30.0, {35.0}}};
  const Attribution a = attribute(0.0, 50.0, marks);
  EXPECT_EQ(a.phase_ms, (std::vector<double>{0.0, 5.0}));
  EXPECT_TRUE(a.round_ms.size() == 1 && a.round_ms[0] == 5.0);
  EXPECT_DOUBLE_EQ(a.gap_ms, 45.0);
}

TEST(Attribute, NoPhasesIsAllGap) {
  const Attribution a = attribute(2.0, 9.0, {});
  EXPECT_TRUE(a.phase_ms.empty());
  EXPECT_DOUBLE_EQ(a.gap_ms, 7.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // solve [0,100] -> span [10,80] -> phases [10,30], [50,80]; check [90,95].
  // A round [12,20] under the first phase is not a child of the span.
  const std::vector<Span> spans = {
      {0, -1, "solve", "core", 0.0, 100.0},  {1, 0, "span", "core", 10.0, 80.0},
      {2, 1, "phase a", "decomp", 10.0, 30.0}, {3, 1, "phase b", "core", 50.0, 80.0},
      {4, 2, "round 1", "sim", 12.0, 20.0},  {5, 0, "check", "graph", 90.0, 95.0}};
  const std::vector<double> self = self_ms(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 70.0 - 5.0);
  EXPECT_DOUBLE_EQ(self[1], 70.0 - 20.0 - 30.0);
  EXPECT_DOUBLE_EQ(self[2], 20.0 - 8.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 8.0);
  EXPECT_DOUBLE_EQ(self[5], 5.0);
}

TEST(SelfTime, ClipsAndMergesOverlappingChildren) {
  // Children overlap each other and stick out of the parent.
  const std::vector<Span> spans = {{0, -1, "p", "core", 10.0, 20.0},
                                   {1, 0, "a", "sim", 5.0, 14.0},
                                   {2, 0, "b", "sim", 12.0, 16.0},
                                   {3, 0, "c", "sim", 18.0, 30.0}};
  // Covered: [10,16] and [18,20] = 8 of the parent's 10.
  EXPECT_DOUBLE_EQ(self_ms(spans)[0], 2.0);
}

}  // namespace
}  // namespace perfbench
