// Per-op footprint guardrails: the engine's hot op record and the retained
// timeline entry stay small, steady-state engine-direct ingestion makes
// (almost) no heap allocations per op, and entry names — ids into the
// Timeline's name table — resolve across clear(), copies and the bench
// runner's retained timeline.
//
// Allocations (count and bytes) are counted by replacing the global
// operator new/delete in this test binary; each test compares two readings
// taken around the region it measures, on the test's own thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "bench_suite/runner.hpp"
#include "sim/engine.hpp"
#include "sim_test_util.hpp"

namespace {
std::atomic<long> g_allocs{0};
std::atomic<long> g_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<long>(n), std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
// Out of line: inlined into a call site in this file, free() would pair
// with an operator new there and trip -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace psched::sim {
namespace {

static_assert(sizeof(TimelineEntry) <= 64,
              "a long run retains one TimelineEntry per op");
static_assert(sizeof(OpCore) <= 128, "the engine's hot op record");
static_assert(sizeof(OpLocator) == 4, "the engine keeps one per op id");

long allocs() { return g_allocs.load(std::memory_order_relaxed); }
long alloc_bytes() { return g_bytes.load(std::memory_order_relaxed); }

constexpr int kStreams = 32;

/// One wave of the contention mix (kernels of varying demand and DRAM
/// appetite, explicit copies both ways, page-fault migrations, a
/// cross-stream event edge every 8th op) committed as one Submission and
/// drained. Returns the number of ops it committed, wait markers included.
long run_wave(Engine& eng, Submission& sub, int wave, int n) {
  const TimeUs t = eng.now();
  for (int j = 0; j < n; ++j) {
    const int i = wave * n + j;
    const auto s = static_cast<StreamId>(i % kStreams);
    Op op;
    op.stream = s;
    if (i % 3 == 1) {
      op.kind = (i % 6 == 1) ? OpKind::CopyH2D : OpKind::CopyD2H;
      op.bytes = 1e4 + (i % 7) * 1e3;
      op.work = op.bytes;
      op.name = "cp";
    } else if (i % 16 == 9) {
      op.kind = OpKind::Fault;
      op.bytes = 5e3 + (i % 5) * 1e3;
      op.work = op.bytes;
      op.name = "fault";
    } else {
      op.kind = OpKind::Kernel;
      op.work = 5.0 + (i % 11);
      op.sm_demand = 1 + (i % 4);
      op.occupancy = 0.5 + 0.5 * ((i % 3) / 2.0);
      op.bw_need = (i % 5 == 0) ? 50.0 : 0.0;
      op.name = "k";
    }
    if (i % 8 == 7) {
      const EventId ev = eng.create_event();
      sub.record_event(ev, static_cast<StreamId>((i + 5) % kStreams), t);
      sub.wait_event(s, ev, t);
    }
    sub.enqueue(std::move(op), t);
  }
  const auto n_ops = static_cast<long>(sub.num_ops());
  eng.commit(sub);
  eng.run_all();
  return n_ops;
}

TEST(OpFootprint, SteadyStateWavesAllocateAlmostNothingPerOp) {
  Engine eng(DeviceSpec::test_device());
  for (int s = 1; s < kStreams; ++s) eng.create_stream();
  constexpr int kWave = 2000;
  Submission sub;
  sub.reserve(kWave + kWave / 4);
  // Warm-up: slab, cold slots, class mirrors, finish heaps, waiter pool
  // and scratch buffers reach their working capacity.
  int wave = 0;
  for (; wave < 4; ++wave) run_wave(eng, sub, wave, kWave);

  const long a0 = allocs();
  const long b0 = alloc_bytes();
  long ops = 0;
  for (; wave < 20; ++wave) ops += run_wave(eng, sub, wave, kWave);
  const long made = allocs() - a0;
  const long bytes = alloc_bytes() - b0;
  ASSERT_EQ(eng.timeline().entries().size(),
            static_cast<std::size_t>(20 * kWave));
  const double per_op = static_cast<double>(made) / static_cast<double>(ops);
  const double bytes_per_op =
      static_cast<double>(bytes) / static_cast<double>(ops);
  RecordProperty("allocs_per_op", std::to_string(per_op));
  RecordProperty("bytes_per_op", std::to_string(bytes_per_op));
  // What remains is amortized growth of the run-length arrays (per-id
  // locators, timeline entries, the marker log, events) and one id vector
  // per commit — not per-op lists, closures, heaps or FIFO chunks.
  // Bytes: mostly the doubling of the timeline entries, plus 4 bytes of
  // locator per op id — about 213 per op; a 32-byte per-id record and
  // deque FIFO chunks would put it near 291.
  EXPECT_LE(per_op, 0.005) << made << " allocations over " << ops << " ops";
  EXPECT_LE(bytes_per_op, 250.0)
      << bytes << " bytes allocated over " << ops << " ops";
}

TEST(OpFootprint, CopyClassRefillReusesItsFinishHeap) {
  // A DMA copy class holds one copy at a time, so it empties on every
  // completion; its finish-heap buffer must survive the empty spell.
  Engine eng(DeviceSpec::test_device());
  auto copy = [&eng] {
    eng.enqueue(test::raw_copy(kDefaultStream, OpKind::CopyH2D, 1e4), 0);
    eng.run_all();
  };
  for (int i = 0; i < 1100; ++i) copy();
  // 1100..1600 ops: no doubling of the per-id locators or timeline entries
  // (capacity 2048), and the stream's FIFO ring keeps its capacity.
  const long a0 = allocs();
  for (int i = 0; i < 500; ++i) copy();
  EXPECT_EQ(allocs() - a0, 0);
}

// ---------------------------------------------------------------------
// The Timeline's name table.
// ---------------------------------------------------------------------

TimelineEntry kernel_entry(Timeline& t, const std::string& name, TimeUs end) {
  TimelineEntry e;
  e.kind = OpKind::Kernel;
  e.end = end;
  e.name = t.intern(name);
  return e;
}

TEST(TimelineNames, InternIsStableAndZeroIsTheEmptyName) {
  Timeline t;
  EXPECT_EQ(t.name(0), "");
  const Timeline::NameId a = t.intern("alpha");
  const Timeline::NameId b = t.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("alpha"), a);
  EXPECT_EQ(t.name(a), "alpha");
  EXPECT_EQ(t.name(b), "beta");
}

TEST(TimelineNames, ClearKeepsTheNameTable) {
  Timeline t;
  t.record(kernel_entry(t, "before", 10));
  const Timeline::NameId id = t.entries().front().name;
  t.clear();
  EXPECT_TRUE(t.entries().empty());
  EXPECT_EQ(t.makespan(), 0);
  EXPECT_EQ(t.name(id), "before");  // ids held by in-flight ops stay valid
  EXPECT_EQ(t.intern("before"), id);
}

TEST(TimelineNames, CopiedTimelineCarriesItsTable) {
  Timeline t;
  t.record(kernel_entry(t, "k0", 10));
  t.record(kernel_entry(t, "k1", 20));
  const Timeline copy = t;
  ASSERT_EQ(copy.entries().size(), 2u);
  EXPECT_EQ(copy.name(copy.entries()[0]), "k0");
  EXPECT_EQ(copy.name(copy.entries()[1]), "k1");
  // The copy's table is its own: names added to the original later do not
  // leak into it.
  const Timeline::NameId later = t.intern("later");
  EXPECT_THROW((void)copy.name(later), std::out_of_range);
}

TEST(TimelineNames, EngineClearMidRunKeepsInFlightNames) {
  Engine eng(DeviceSpec::test_device());
  eng.enqueue(test::raw_kernel(0, 10, 4, 1.0, 0, "first"), 0);
  eng.enqueue(test::raw_kernel(0, 10, 4, 1.0, 0, "second"), 0);
  eng.advance_to(10);  // "first" done, "second" running
  eng.timeline().clear();
  eng.run_all();
  const Timeline& tl = eng.timeline();
  ASSERT_EQ(tl.entries().size(), 1u);
  EXPECT_EQ(tl.name(tl.entries().front()), "second");
}

TEST(TimelineNames, SnapshotsResolveNamesLiveAndRetired) {
  Engine eng(DeviceSpec::test_device());
  const OpId a = eng.enqueue(test::raw_kernel(0, 10, 4, 1.0, 0, "alpha"), 0);
  const OpId b = eng.enqueue(test::raw_kernel(0, 10, 4, 1.0, 0, "beta"), 0);
  eng.advance_to(15);
  const Op done = eng.op(a);
  const Op live = eng.op(b);
  EXPECT_EQ(done.state, OpState::Done);
  EXPECT_EQ(done.name, "alpha");
  EXPECT_EQ(live.state, OpState::Running);
  EXPECT_EQ(live.name, "beta");
  EXPECT_NEAR(live.done, 5.0, 1e-9);
}

TEST(TimelineNames, RunResultTimelineResolvesNames) {
  const benchsuite::BenchId id = benchsuite::all_benchmarks().front();
  const auto bench = benchsuite::make_benchmark(id);
  benchsuite::RunConfig cfg;
  cfg.scale = bench->test_scale();
  benchsuite::RunOptions opts;
  opts.keep_timeline = true;
  opts.keep_timeline_ascii = true;
  const benchsuite::RunResult r = benchsuite::run_benchmark(
      *bench, benchsuite::Variant::GrcudaParallel, DeviceSpec::test_device(),
      cfg, opts);
  ASSERT_FALSE(r.timeline.empty());
  long kernels = 0;
  for (const TimelineEntry& e : r.timeline.entries()) {
    if (e.kind != OpKind::Kernel) continue;
    ++kernels;
    EXPECT_FALSE(r.timeline.name(e).empty());
  }
  EXPECT_GT(kernels, 0);
  // The ASCII legend names every kernel: rendered from the copy, it must
  // match the rendering taken from the engine's own timeline.
  EXPECT_EQ(r.timeline.render_ascii(), r.timeline_ascii);
}

}  // namespace
}  // namespace psched::sim
