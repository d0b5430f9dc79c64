// GpuRuntime transactional batch API: begin_submit/commit semantics,
// implicit flushes at host observation points, batched TaskGraph replay,
// and per-device residency accounting surfaced by the runtime.
#include <gtest/gtest.h>

#include <vector>

#include "sim/graph.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"

namespace psched::sim {
namespace {

LaunchSpec simple_kernel(const std::string& name, std::vector<ArrayUse> arrays,
                         double flops_sp = 1e6) {
  LaunchSpec s;
  s.name = name;
  s.config = LaunchConfig::linear(16, 256);
  s.profile.flops_sp = flops_sp;
  s.arrays = std::move(arrays);
  return s;
}

class BatchRuntimeTest : public ::testing::Test {
 protected:
  GpuRuntime rt_{DeviceSpec::test_device()};
};

TEST_F(BatchRuntimeTest, OpsFreezeUntilCommitThenRun) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.begin_submit();
  EXPECT_TRUE(rt_.submitting());
  const OpId k = rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_NE(k, kInvalidOp);  // ids exist immediately (eager ingest)
  EXPECT_FALSE(rt_.engine().op_done(k));
  EXPECT_EQ(rt_.engine().op(k).state, OpState::Queued);  // frozen
  const std::size_t n = rt_.commit();
  EXPECT_GE(n, 1u);
  EXPECT_FALSE(rt_.submitting());
  rt_.synchronize_device();
  EXPECT_TRUE(rt_.engine().op_done(k));
  EXPECT_EQ(rt_.batch_commits(), 1);
  EXPECT_GE(rt_.batched_ops(), 1);
}

TEST_F(BatchRuntimeTest, BatchedCallsAreCheaperOnTheHostClock) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.begin_submit();
  const TimeUs t0 = rt_.now();
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_DOUBLE_EQ(rt_.now() - t0, GpuRuntime::kBatchedCallCpuOverheadUs);
  rt_.commit();
  rt_.synchronize_device();
}

TEST_F(BatchRuntimeTest, BlockingCallsFlushTheOpenBatch) {
  const ArrayId a = rt_.alloc(1000, "a");
  bool ran = false;
  LaunchSpec s = simple_kernel("k", {{a, true}});
  s.functional = [&ran] { ran = true; };
  rt_.begin_submit();
  rt_.launch(kDefaultStream, s);
  // synchronize_device flushes the open transaction and drains it; the
  // explicit batch bracket stays open for subsequent calls.
  rt_.synchronize_device();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(rt_.submitting());
  const ArrayId b = rt_.alloc(1000, "b");
  rt_.launch(kDefaultStream, simple_kernel("k2", {{b, true}}));
  rt_.commit();
  rt_.synchronize_device();
  EXPECT_EQ(rt_.batch_commits(), 2);  // implicit flush + explicit commit
}

TEST_F(BatchRuntimeTest, BatchedRunMatchesPerCallStructureAndBytes) {
  // The same two-stream program driven per-call and batched: identical op
  // sequence (kinds, names, streams), identical byte counters; the batched
  // makespan is never worse (issue overhead compresses).
  auto drive = [](GpuRuntime& rt, bool batched) {
    const StreamId s1 = rt.create_stream();
    const StreamId s2 = rt.create_stream();
    const ArrayId a = rt.alloc(20000, "a");
    const ArrayId b = rt.alloc(30000, "b");
    rt.host_write(a);
    rt.host_write(b);
    const EventId ev = rt.create_event();
    if (batched) rt.begin_submit();
    rt.mem_prefetch_async(a, s1);
    rt.launch(s1, simple_kernel("k1", {{a, false}}));
    rt.record_event(ev, s1);
    rt.stream_wait_event(s2, ev);
    rt.launch(s2, simple_kernel("k2", {{a, false}, {b, true}}));
    if (batched) rt.commit();
    rt.synchronize_device();
  };
  GpuRuntime per_call(DeviceSpec::test_device());
  drive(per_call, false);
  GpuRuntime batched(DeviceSpec::test_device());
  drive(batched, true);

  EXPECT_DOUBLE_EQ(batched.bytes_h2d(), per_call.bytes_h2d());
  EXPECT_DOUBLE_EQ(batched.bytes_faulted(), per_call.bytes_faulted());
  EXPECT_DOUBLE_EQ(batched.bytes_d2h(), per_call.bytes_d2h());

  const auto& pc = per_call.timeline().entries();
  const auto& ba = batched.timeline().entries();
  ASSERT_EQ(pc.size(), ba.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    EXPECT_EQ(ba[i].kind, pc[i].kind) << i;
    EXPECT_EQ(batched.timeline().name(ba[i]), per_call.timeline().name(pc[i]))
        << i;
    EXPECT_EQ(ba[i].stream, pc[i].stream) << i;
  }
  EXPECT_LE(batched.timeline().makespan(),
            per_call.timeline().makespan() + 1e-9);
}

TEST_F(BatchRuntimeTest, CaptureAndBatchAreExclusive) {
  TaskGraph g;
  rt_.begin_submit();
  EXPECT_THROW(rt_.begin_capture(g), ApiError);
  rt_.commit();
  rt_.begin_capture(g);
  EXPECT_THROW(rt_.begin_submit(), ApiError);
  rt_.end_capture();
}

TEST_F(BatchRuntimeTest, BatchBracketMisuseThrows) {
  EXPECT_THROW((void)rt_.commit(), ApiError);
  rt_.begin_submit();
  EXPECT_THROW(rt_.begin_submit(), ApiError);
  rt_.commit();
}

// --- batched TaskGraph replay ---

TEST_F(BatchRuntimeTest, GraphReplayModesAgreeOnStructureAndBytes) {
  auto run_graph = [](TaskGraph::Replay replay) {
    GpuRuntime rt(DeviceSpec::test_device());
    const ArrayId a = rt.alloc(10000, "a");
    const ArrayId b = rt.alloc(10000, "b");
    rt.host_write(a);
    rt.host_write(b);
    TaskGraph g;
    const auto root = g.add_kernel(simple_kernel("root", {{a, true}}));
    const auto left = g.add_kernel(simple_kernel("left", {{a, false}}));
    const auto right = g.add_kernel(simple_kernel("right", {{b, true}}));
    const auto join =
        g.add_kernel(simple_kernel("join", {{a, false}, {b, false}}));
    g.add_dependency(root, left);
    g.add_dependency(root, right);
    g.add_dependency(left, join);
    g.add_dependency(right, join);
    auto exec = g.instantiate(rt);
    exec.launch(rt, replay);
    rt.synchronize_device();
    struct Result {
      double makespan;
      double faulted;
      std::vector<std::string> kernels;
      Timeline timeline;
    } r;
    r.makespan = rt.timeline().makespan();
    r.faulted = rt.bytes_faulted();
    for (const auto& e : rt.timeline().entries()) {
      if (e.kind == OpKind::Kernel) r.kernels.push_back(rt.timeline().name(e));
    }
    r.timeline = rt.timeline();
    return r;
  };
  const auto batched = run_graph(TaskGraph::Replay::Batched);
  const auto per_call = run_graph(TaskGraph::Replay::PerCall);
  EXPECT_EQ(batched.kernels, per_call.kernels);
  EXPECT_DOUBLE_EQ(batched.faulted, per_call.faulted);
  // One transaction per launch compresses per-node issue overhead.
  EXPECT_LE(batched.makespan, per_call.makespan + 1e-9);
  // Dependencies still hold under batched replay.
  TimeUs root_end = 0, join_start = 0;
  for (const auto& e : batched.timeline.entries()) {
    if (batched.timeline.name(e) == "root") root_end = e.end;
    if (batched.timeline.name(e) == "join") join_start = e.start;
  }
  EXPECT_GE(join_start, root_end);
}

// --- per-device residency accounting through the runtime ---

TEST_F(BatchRuntimeTest, SingleDeviceResidencyCounters) {
  const ArrayId a = rt_.alloc(12345, "a");
  rt_.host_write(a);
  EXPECT_EQ(rt_.device_bytes_used(0), 0u);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, false}}));
  rt_.synchronize_device();
  EXPECT_EQ(rt_.device_bytes_used(0), 12345u);
  EXPECT_EQ(rt_.device_bytes_peak(0), 12345u);
  rt_.free_array(a);
  EXPECT_EQ(rt_.device_bytes_used(0), 0u);
  EXPECT_EQ(rt_.device_bytes_peak(0), 12345u);
}

TEST_F(BatchRuntimeTest, OverCapacityMigrationEvictsInsteadOfThrowing) {
  // Two 60k arrays against a 100k device: the second migration stalls on
  // the first launch's in-flight ops, pages `a` out, and completes —
  // oversubscription is a priced event, not an error.
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 100000;
  GpuRuntime rt{Machine::uniform(spec, 2)};
  const ArrayId a = rt.alloc(60000, "a");
  const ArrayId b = rt.alloc(60000, "b");
  rt.host_write(a);
  rt.host_write(b);
  rt.launch(kDefaultStream, simple_kernel("k1", {{a, false}}));
  EXPECT_NO_THROW(
      rt.launch(kDefaultStream, simple_kernel("k2", {{b, false}})));
  rt.synchronize_device();
  EXPECT_EQ(rt.device_bytes_evicted(0), 60000u);  // `a` paged out
  EXPECT_EQ(rt.device_bytes_used(0), 60000u);     // only `b` resident

  // OutOfMemoryError remains for a single op that can never fit.
  const ArrayId big = rt.alloc(120000, "big");
  rt.host_write(big);
  EXPECT_THROW(rt.launch(kDefaultStream, simple_kernel("k3", {{big, false}})),
               OutOfMemoryError);
}

}  // namespace
}  // namespace psched::sim
