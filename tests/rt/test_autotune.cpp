// Block-size tuner: exploration order, convergence, bucketing, and the
// end-to-end Kernel::autotuned() path through a Context.
#include <gtest/gtest.h>

#include "rt_test_util.hpp"
#include "runtime/autotune.hpp"

namespace psched::rt {
namespace {

// The tuner keys kernels by their registry definition.
KernelDef named(const char* name) {
  KernelDef def;
  def.name = name;
  return def;
}
const KernelDef kK = named("k");
const KernelDef kA = named("a");
const KernelDef kB = named("b");

TEST(Autotune, CandidatesMatchPaperSweep) {
  const auto& c = BlockSizeTuner::candidates();
  ASSERT_GE(c.size(), 2u);
  EXPECT_EQ(c.front(), 32);
  EXPECT_EQ(c.back(), 1024);
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_EQ(c[i], 2 * c[i - 1]);
}

TEST(Autotune, ExploresEveryCandidateFirst) {
  BlockSizeTuner t;
  for (long expected : BlockSizeTuner::candidates()) {
    const long got = t.recommend(kK, 1e6);
    EXPECT_EQ(got, expected);
    t.record(kK, got, /*solo_us=*/100, /*work_items=*/1e6);
  }
  EXPECT_TRUE(t.explored(kK, 1e6));
}

TEST(Autotune, ConvergesToFastestObserved) {
  BlockSizeTuner t;
  // 256 is twice as fast per item as everything else.
  for (long c : BlockSizeTuner::candidates()) {
    t.record(kK, c, c == 256 ? 50.0 : 100.0, 1e6);
  }
  EXPECT_EQ(t.recommend(kK, 1e6), 256);
}

TEST(Autotune, TiesBreakTowardLargerBlocks) {
  BlockSizeTuner t;
  for (long c : BlockSizeTuner::candidates()) t.record(kK, c, 100.0, 1e6);
  EXPECT_EQ(t.recommend(kK, 1e6), 1024);
}

TEST(Autotune, BucketsSeparateDataSizes) {
  BlockSizeTuner t;
  for (long c : BlockSizeTuner::candidates()) {
    t.record(kK, c, c == 32 ? 1.0 : 2.0, /*work_items=*/1e3);
  }
  EXPECT_EQ(t.recommend(kK, 1e3), 32);        // tuned bucket
  EXPECT_EQ(t.recommend(kK, 1e6), 32 /*explore from scratch*/);
  EXPECT_FALSE(t.explored(kK, 1e6));
}

TEST(Autotune, KernelsAreIndependent) {
  BlockSizeTuner t;
  for (long c : BlockSizeTuner::candidates()) t.record(kA, c, 100.0, 1e6);
  EXPECT_FALSE(t.explored(kB, 1e6));
  EXPECT_EQ(t.recommend(kB, 1e6), 32);
}

TEST(Autotune, LaterBetterSampleReplacesIncumbent) {
  BlockSizeTuner t;
  for (long c : BlockSizeTuner::candidates()) t.record(kK, c, 100.0, 1e6);
  t.record(kK, 64, 10.0, 1e6);  // conditions changed: 64 now wins
  EXPECT_EQ(t.recommend(kK, 1e6), 64);
}

TEST(Autotune, IgnoresDegenerateSamples) {
  BlockSizeTuner t;
  t.record(kK, 32, 0.0, 1e6);
  t.record(kK, 32, 100.0, 0.0);
  EXPECT_EQ(t.samples(kK, 1e6), 0);
}

TEST(Autotune, ContextRecordsLaunchHistory) {
  test::Fixture f;
  auto& ctx = *f.ctx;
  constexpr long kN = 1 << 12;
  auto x = ctx.array<float>(static_cast<std::size_t>(kN), "X");
  x.fill(1.0);
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  scale(16, 256)(x, kN, 2.0);
  scale(32, 128)(x, kN, 2.0);
  ctx.synchronize();
  EXPECT_EQ(ctx.tuner().samples(scale.def(), kN), 2);
}

TEST(Autotune, AutotunedLaunchExploresThenExploits) {
  test::Fixture f;
  auto& ctx = *f.ctx;
  constexpr long kN = 1 << 14;
  auto x = ctx.array<float>(static_cast<std::size_t>(kN), "X");
  x.fill(1.0);
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  // Warm-up loop: the tuner walks the candidate list.
  const auto n_cand = BlockSizeTuner::candidates().size();
  for (std::size_t i = 0; i < n_cand; ++i) {
    scale.autotuned(kN)(x, kN, 2.0);
    ctx.synchronize();
  }
  EXPECT_TRUE(ctx.tuner().explored(scale.def(), kN));
  // The exploit-phase recommendation never leaves the candidate set and
  // stays stable across repeated queries.
  const long pick = ctx.tuner().recommend(scale.def(), kN);
  const auto& cands = BlockSizeTuner::candidates();
  EXPECT_NE(std::find(cands.begin(), cands.end(), pick), cands.end());
  EXPECT_EQ(ctx.tuner().recommend(scale.def(), kN), pick);
  // On the latency-hiding cost model, bigger blocks dominate tiny ones.
  EXPECT_GT(pick, 32);
}

TEST(Autotune, AutotunedValidatesInput) {
  test::Fixture f;
  auto scale = f.ctx->build_kernel("scale", "pointer, sint32, float");
  EXPECT_THROW((void)scale.autotuned(0), sim::ApiError);
  EXPECT_THROW((void)scale.autotuned(-5), sim::ApiError);
}

}  // namespace
}  // namespace psched::rt
