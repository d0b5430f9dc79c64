#include <gtest/gtest.h>

#include "sim/profiler.hpp"

namespace psched::sim {
namespace {

/// Record one kernel entry on `t` with the given counters.
void record_kernel(Timeline& t, TimeUs start, TimeUs end, double dram,
                   double l2, double instr, double flops_sp,
                   double flops_dp = 0) {
  TimelineEntry e;
  e.kind = OpKind::Kernel;
  e.stream = 0;
  e.start = start;
  e.end = end;
  KernelProfile prof;
  prof.dram_bytes = dram;
  prof.l2_bytes = l2;
  prof.instructions = instr;
  prof.flops_sp = flops_sp;
  prof.flops_dp = flops_dp;
  t.record(e, prof);
}

TEST(Profiler, EmptyTimeline) {
  Timeline t;
  const HwMetrics m = Profiler::compute(t, DeviceSpec::test_device());
  EXPECT_DOUBLE_EQ(m.dram_gbps, 0);
  EXPECT_DOUBLE_EQ(m.ipc, 0);
}

TEST(Profiler, ThroughputIsBytesOverMakespan) {
  Timeline t;
  // 1e6 bytes over a 100us makespan = 1e6 / 1e-4s = 1e10 B/s = 10 GB/s.
  record_kernel(t, 0, 100, 1e6, 2e6, 0, 0);
  const HwMetrics m = Profiler::compute(t, DeviceSpec::test_device());
  EXPECT_NEAR(m.dram_gbps, 10.0, 1e-9);
  EXPECT_NEAR(m.l2_gbps, 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.makespan_us, 100);
}

TEST(Profiler, GflopsCountsBothPrecisions) {
  Timeline t;
  record_kernel(t, 0, 1000, 0, 0, 0, 3e6, /*flops_dp=*/1e6);
  // 4e6 flops over 1000us = 4e6 / 1e-3 s = 4e9 flop/s = 4 GFLOPS.
  const HwMetrics m = Profiler::compute(t, DeviceSpec::test_device());
  EXPECT_NEAR(m.gflops, 4.0, 1e-9);
}

TEST(Profiler, IpcNormalizedPerSm) {
  Timeline t;
  // Test device: 4 SMs @ 1 GHz. 100us -> 1e5 cycles; 4e5 * 32 per-thread
  // instructions = 4e5 warp instructions over 4 SMs -> warp IPC 1.0
  // (nvprof semantics: one issued instruction covers a 32-thread warp).
  record_kernel(t, 0, 100, 0, 0, 4e5 * 32, 0);
  const HwMetrics m = Profiler::compute(t, DeviceSpec::test_device());
  EXPECT_NEAR(m.ipc, 1.0, 1e-9);
}

TEST(Profiler, ShorterMakespanRaisesThroughput) {
  // The parallel-scheduling effect of Fig. 12: same counters, smaller
  // makespan, higher observed utilization.
  Timeline serial, parallel;
  record_kernel(serial, 0, 50, 1e6, 0, 0, 0);
  record_kernel(serial, 50, 100, 1e6, 0, 0, 0);
  record_kernel(parallel, 0, 60, 1e6, 0, 0, 0);
  record_kernel(parallel, 0, 60, 1e6, 0, 0, 0);
  const auto spec = DeviceSpec::test_device();
  const HwMetrics ms = Profiler::compute(serial, spec);
  const HwMetrics mp = Profiler::compute(parallel, spec);
  EXPECT_GT(mp.dram_gbps, ms.dram_gbps);
  EXPECT_NEAR(mp.dram_gbps / ms.dram_gbps, 100.0 / 60.0, 1e-9);
}

TEST(Profiler, TransfersDoNotContributeCounters) {
  Timeline t;
  record_kernel(t, 0, 100, 1e6, 0, 0, 0);
  TimelineEntry copy;
  copy.kind = OpKind::CopyH2D;
  copy.start = 0;
  copy.end = 100;
  copy.bytes = 5e9;
  t.record(copy);
  const HwMetrics m = Profiler::compute(t, DeviceSpec::test_device());
  EXPECT_NEAR(m.dram_gbps, 10.0, 1e-9);  // only the kernel's DRAM traffic
}

}  // namespace
}  // namespace psched::sim
