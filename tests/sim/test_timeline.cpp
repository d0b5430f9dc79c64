#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "sim/timeline.hpp"

namespace psched::sim {
namespace {

TimelineEntry entry(OpKind kind, StreamId stream, TimeUs start, TimeUs end) {
  TimelineEntry e;
  e.kind = kind;
  e.stream = stream;
  e.start = start;
  e.end = end;
  return e;
}

/// Record one entry on `t` under `name` (interned into t's name table).
void add(Timeline& t, OpKind kind, StreamId stream, TimeUs start, TimeUs end,
         const std::string& name = "op") {
  TimelineEntry e = entry(kind, stream, start, end);
  e.name = t.intern(name);
  t.record(e);
}

// Reference for overlap_metrics(): the direct per-entry reading of
// section V-F. For every counted entry it measures the overlap with the
// union of all *other* entries, rebuilding that union from scratch, so it
// costs O(n^2 log n). Kept here as the oracle for the one-sweep version.
OverlapMetrics overlap_oracle(const Timeline& t) {
  auto counted = [](const TimelineEntry& e) {
    return e.kind != OpKind::Marker && e.kind != OpKind::Host;
  };
  const std::vector<TimelineEntry>& entries = t.entries();
  const IntervalSet kernels = t.kernel_cover();
  const IntervalSet transfers = t.transfer_cover();

  TimeUs kernel_total = 0, kernel_ct = 0, kernel_cc = 0;
  TimeUs transfer_total = 0, transfer_tc = 0;
  TimeUs any_total = 0, any_overlap = 0;
  for (const auto& e : entries) {
    if (!counted(e)) continue;
    const Interval iv = e.interval();
    if (e.kind == OpKind::Kernel) {
      kernel_total += iv.length();
      kernel_ct += transfers.intersection_measure(iv);
      std::vector<Interval> others;
      for (const auto& o : entries) {
        if (&o != &e && o.kind == OpKind::Kernel) {
          others.push_back(o.interval());
        }
      }
      kernel_cc += IntervalSet(std::move(others)).intersection_measure(iv);
    } else if (is_transfer(e.kind)) {
      transfer_total += iv.length();
      transfer_tc += kernels.intersection_measure(iv);
    }
    std::vector<Interval> others;
    for (const auto& o : entries) {
      if (&o != &e && counted(o)) others.push_back(o.interval());
    }
    any_total += iv.length();
    any_overlap += IntervalSet(std::move(others)).intersection_measure(iv);
  }
  OverlapMetrics m;
  m.ct = kernel_total > 0 ? kernel_ct / kernel_total : 0;
  m.tc = transfer_total > 0 ? transfer_tc / transfer_total : 0;
  m.cc = kernel_total > 0 ? kernel_cc / kernel_total : 0;
  m.tot = any_total > 0 ? any_overlap / any_total : 0;
  return m;
}

// A seeded random timeline of a few hundred entries on a coarse time grid
// (so endpoints often coincide), with every counted kind, exact duplicates,
// ops that start where another ends, zero-length ops, and Marker and Host
// spans that the metrics must ignore.
std::vector<TimelineEntry> random_entries(unsigned seed) {
  std::mt19937 rng(seed);
  constexpr OpKind kKinds[] = {OpKind::Kernel,  OpKind::CopyH2D,
                               OpKind::CopyD2H, OpKind::Fault,
                               OpKind::CopyP2P, OpKind::Marker,
                               OpKind::Host};
  std::uniform_int_distribution<int> kind_of(0, 6);
  std::uniform_int_distribution<int> tick(0, 400);
  std::uniform_int_distribution<int> ticks(0, 12);
  std::uniform_int_distribution<int> shape(0, 9);
  const TimeUs unit = 0.25 + seed;  // grid multiples stay exact
  std::vector<TimelineEntry> out;
  const int n = 200 + static_cast<int>(seed % 7) * 30;
  for (int i = 0; i < n; ++i) {
    const OpKind kind = kKinds[kind_of(rng)];
    const int s = shape(rng);
    TimeUs start = tick(rng) * unit;
    if (s == 0 && !out.empty()) {
      out.push_back(out[rng() % out.size()]);  // exact duplicate
      continue;
    }
    if (s == 1 && !out.empty()) start = out[rng() % out.size()].end;  // touch
    const TimeUs len = s == 2 ? 0 : ticks(rng) * unit;  // zero-length ops
    out.push_back(entry(kind, i % 5, start, start + len));
  }
  return out;
}

void expect_near_rel(double got, double want, const char* what,
                     unsigned seed) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::max(1.0, std::abs(want)))
      << what << " seed " << seed << ": got " << got << " want " << want;
}

TEST(Timeline, EmptyDefaults) {
  Timeline t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.makespan(), 0);
  EXPECT_DOUBLE_EQ(t.total_kernel_time(), 0);
  const OverlapMetrics m = t.overlap_metrics();
  EXPECT_DOUBLE_EQ(m.ct, 0);
  EXPECT_DOUBLE_EQ(m.tot, 0);
}

TEST(Timeline, MakespanSpansFirstToLast) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 10, 20);
  add(t, OpKind::CopyH2D, 1, 5, 8);
  add(t, OpKind::Kernel, 1, 30, 45);
  EXPECT_DOUBLE_EQ(t.begin_time(), 5);
  EXPECT_DOUBLE_EQ(t.end_time(), 45);
  EXPECT_DOUBLE_EQ(t.makespan(), 40);
}

TEST(Timeline, MarkersAndHostSpansExcludedFromMakespan) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 10, 20);
  add(t, OpKind::Host, 0, 0, 100);
  add(t, OpKind::Marker, 0, 0, 200);
  EXPECT_DOUBLE_EQ(t.makespan(), 10);
}

TEST(Timeline, TotalsByCategory) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10);
  add(t, OpKind::Kernel, 1, 10, 15);
  add(t, OpKind::CopyH2D, 0, 0, 4);
  add(t, OpKind::Fault, 1, 4, 6);
  EXPECT_DOUBLE_EQ(t.total_kernel_time(), 15);
  EXPECT_DOUBLE_EQ(t.total_transfer_time(), 6);
}

TEST(Timeline, OverlapKernelWithTransfer) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10);
  add(t, OpKind::CopyH2D, 1, 5, 15);
  const OverlapMetrics m = t.overlap_metrics();
  EXPECT_DOUBLE_EQ(m.ct, 0.5);   // 5 of 10 kernel us under transfer
  EXPECT_DOUBLE_EQ(m.tc, 0.5);   // 5 of 10 transfer us under kernel
  EXPECT_DOUBLE_EQ(m.cc, 0.0);
  EXPECT_DOUBLE_EQ(m.tot, 0.5);  // 10 of 20 op us overlapped
}

TEST(Timeline, OverlapTwoIdenticalKernels) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10);
  add(t, OpKind::Kernel, 1, 0, 10);
  const OverlapMetrics m = t.overlap_metrics();
  EXPECT_DOUBLE_EQ(m.cc, 1.0);
  EXPECT_DOUBLE_EQ(m.ct, 0.0);
  EXPECT_DOUBLE_EQ(m.tot, 1.0);
}

TEST(Timeline, OverlapSerialScheduleIsZero) {
  // Half-open intervals: ops that only meet at endpoints do not overlap,
  // nor do a zero-length kernel and a Host span sitting on the seams.
  Timeline t;
  add(t, OpKind::CopyH2D, 0, 0, 5);
  add(t, OpKind::Kernel, 0, 5, 15);
  add(t, OpKind::CopyD2H, 0, 15, 20);
  add(t, OpKind::CopyP2P, 1, 20, 30);
  add(t, OpKind::Fault, 2, 30, 40);
  add(t, OpKind::Kernel, 3, 15, 15);
  add(t, OpKind::Host, 4, 0, 40);
  const OverlapMetrics m = t.overlap_metrics();
  EXPECT_DOUBLE_EQ(m.ct, 0);
  EXPECT_DOUBLE_EQ(m.tc, 0);
  EXPECT_DOUBLE_EQ(m.cc, 0);
  EXPECT_DOUBLE_EQ(m.tot, 0);
}

TEST(Timeline, OverlapCountedOnceInTot) {
  // One kernel overlapped by two transfers simultaneously: the union of
  // overlap intervals counts once (section V-F).
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10);
  add(t, OpKind::CopyH2D, 1, 0, 10);
  add(t, OpKind::CopyH2D, 2, 0, 10);
  const OverlapMetrics m = t.overlap_metrics();
  EXPECT_DOUBLE_EQ(m.ct, 1.0);
  EXPECT_DOUBLE_EQ(m.tot, 1.0);  // not > 1 despite double coverage
}

TEST(Timeline, MetricsBounded) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 7);
  add(t, OpKind::Kernel, 1, 3, 12);
  add(t, OpKind::Fault, 2, 1, 4);
  add(t, OpKind::CopyD2H, 0, 8, 14);
  const OverlapMetrics m = t.overlap_metrics();
  for (double v : {m.ct, m.tc, m.cc, m.tot}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // TOT is at least as large as each category's contribution share.
  EXPECT_GE(m.tot, 0.0);
}

TEST(Timeline, KernelProfileAggregation) {
  Timeline t;
  KernelProfile a;
  a.flops_sp = 100;
  a.dram_bytes = 50;
  KernelProfile b;
  b.flops_dp = 40;
  b.dram_bytes = 30;
  b.l2_bytes = 7;
  b.instructions = 9;
  t.record(entry(OpKind::Kernel, 0, 0, 10), a);
  t.record(entry(OpKind::Kernel, 0, 10, 20), b);
  const KernelProfile p = t.total_kernel_profile();
  EXPECT_DOUBLE_EQ(p.flops_sp, 100);
  EXPECT_DOUBLE_EQ(p.flops_dp, 40);
  EXPECT_DOUBLE_EQ(p.flops_total(), 140);
  EXPECT_DOUBLE_EQ(p.dram_bytes, 80);
  EXPECT_DOUBLE_EQ(p.l2_bytes, 7);
  EXPECT_DOUBLE_EQ(p.instructions, 9);
}

TEST(Timeline, AsciiRenderContainsStreamsAndNames) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10, "matmul");
  add(t, OpKind::CopyH2D, 1, 0, 5, "x");
  const std::string s = t.render_ascii(40);
  EXPECT_NE(s.find("S0"), std::string::npos);
  EXPECT_NE(s.find("S1"), std::string::npos);
  EXPECT_NE(s.find("matmul"), std::string::npos);
  EXPECT_NE(s.find('>'), std::string::npos);  // transfer glyph
}

TEST(Timeline, AsciiRenderRejectsNonPositiveWidth) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10, "k");
  EXPECT_THROW((void)t.render_ascii(0), ApiError);
  EXPECT_THROW((void)t.render_ascii(-3), ApiError);
  EXPECT_NE(t.render_ascii(1).find("S0 |k|"), std::string::npos);
}

TEST(Timeline, OverlapMatchesPerEntryOracleOnRandomTimelines) {
  for (unsigned seed = 0; seed < 24; ++seed) {
    Timeline t;
    for (const auto& e : random_entries(seed)) t.record(e);
    const OverlapMetrics got = t.overlap_metrics();
    const OverlapMetrics want = overlap_oracle(t);
    expect_near_rel(got.ct, want.ct, "ct", seed);
    expect_near_rel(got.tc, want.tc, "tc", seed);
    expect_near_rel(got.cc, want.cc, "cc", seed);
    expect_near_rel(got.tot, want.tot, "tot", seed);
    // Every metric is exercised, not vacuously zero or one.
    EXPECT_GT(want.cc, 0) << seed;
    EXPECT_LT(want.tot, 1) << seed;
  }
}

TEST(Timeline, OverlapIgnoresMarkersHostSpansAndZeroLengthOps) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    Timeline all, counted;
    for (const auto& e : random_entries(seed)) {
      all.record(e);
      if (e.kind != OpKind::Marker && e.kind != OpKind::Host &&
          e.end > e.start) {
        counted.record(e);
      }
    }
    const OverlapMetrics a = all.overlap_metrics();
    const OverlapMetrics c = counted.overlap_metrics();
    EXPECT_EQ(a.ct, c.ct) << seed;
    EXPECT_EQ(a.tc, c.tc) << seed;
    EXPECT_EQ(a.cc, c.cc) << seed;
    EXPECT_EQ(a.tot, c.tot) << seed;
  }
}

TEST(Timeline, CoverMergesAdjacentOps) {
  Timeline t;
  add(t, OpKind::Kernel, 0, 0, 10);
  add(t, OpKind::Kernel, 0, 10, 20);
  const IntervalSet k = t.kernel_cover();
  ASSERT_EQ(k.size(), 1u);
  EXPECT_DOUBLE_EQ(k.measure(), 20);
}

}  // namespace
}  // namespace psched::sim
