// Per-launch footprint of the paper's path: a bench_suite program driven
// through rt::Context — timing-only, parallel policy, per-call submission,
// the way perfbench's paper_suite drives it — makes at most two heap
// allocations per timeline entry once warm, and launches every kernel onto
// the timeline exactly once. The budget covers the Context layer (the
// computation itself, its uses, parents and dependency set, the launch
// description) and GpuRuntime::launch (hazard tracking, the bind and
// completion closures of the kernel and of its staging transfers).
//
// Allocations are counted by replacing the global operator new/delete in
// this test binary, as in tests/sim/test_op_footprint.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "kernels/registry.hpp"
#include "runtime/execution_context.hpp"

namespace {
std::atomic<long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Out of line: inlined into a call site in this file, malloc() and free()
// would pair with operator new/delete there and trip
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) { return counted_alloc(n); }
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return counted_alloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace psched::rt {
namespace {

static_assert(sizeof(Computation) <= 256,
              "one per DAG element, kept for the context's lifetime");

long allocs() { return g_allocs.load(std::memory_order_relaxed); }

constexpr int kWarmupIterations = 3;
constexpr int kMeasuredIterations = 20;

class LaunchFootprint
    : public ::testing::TestWithParam<benchsuite::BenchId> {};

TEST_P(LaunchFootprint, AtMostTwoAllocationsPerTimelineEntry) {
  const auto bench = benchsuite::make_benchmark(GetParam());
  sim::GpuRuntime gpu(sim::DeviceSpec::gtx1660super());
  Options opts = kernels::default_options();
  opts.functional = false;
  opts.policy = SchedulePolicy::Parallel;
  opts.batch_submit = false;
  Context ctx(gpu, opts);
  benchsuite::RunConfig cfg;
  cfg.scale = bench->test_scale();
  const benchsuite::Program prog = bench->build(ctx, cfg);

  // The host program holds its kernel handles across iterations.
  std::vector<Kernel> kernels(prog.iteration.size());
  for (std::size_t i = 0; i < prog.iteration.size(); ++i) {
    const benchsuite::Step& st = prog.iteration[i];
    if (st.kind == benchsuite::Step::Kind::Kernel) {
      kernels[i] = ctx.build_kernel(st.kernel, st.signature);
    }
  }
  for (const benchsuite::Step& st : prog.setup) {
    DeviceArray a = st.array;
    a.touch_write();
  }
  long launches = 0;
  auto run_iterations = [&](int n) {
    for (int it = 0; it < n; ++it) {
      for (std::size_t i = 0; i < prog.iteration.size(); ++i) {
        const benchsuite::Step& st = prog.iteration[i];
        switch (st.kind) {
          case benchsuite::Step::Kind::Kernel:
            kernels[i].configure(st.config).launch(st.values);
            ++launches;
            break;
          case benchsuite::Step::Kind::HostWrite: {
            DeviceArray a = st.array;
            a.touch_write();
            break;
          }
          case benchsuite::Step::Kind::HostRead:
            st.array.touch_read();
            break;
        }
      }
    }
    ctx.synchronize();
  };

  run_iterations(kWarmupIterations);
  const std::size_t entries0 = gpu.timeline().entries().size();
  const long a0 = allocs();
  run_iterations(kMeasuredIterations);
  const long a1 = allocs();
  const std::size_t entries1 = gpu.timeline().entries().size();

  const auto entries = static_cast<double>(entries1 - entries0);
  ASSERT_GT(entries, 0);
  const double per_entry = static_cast<double>(a1 - a0) / entries;
  EXPECT_LE(per_entry, 2.0) << benchsuite::name(GetParam()) << ": "
                            << (a1 - a0) << " allocations for " << entries
                            << " timeline entries";

  long kernel_entries = 0;
  for (const sim::TimelineEntry& e : gpu.timeline().entries()) {
    kernel_entries += e.kind == sim::OpKind::Kernel ? 1 : 0;
  }
  EXPECT_EQ(kernel_entries, launches);
  EXPECT_EQ(ctx.stats().kernels, launches);
}

INSTANTIATE_TEST_SUITE_P(
    BenchSuite, LaunchFootprint,
    ::testing::ValuesIn(benchsuite::all_benchmarks()),
    [](const ::testing::TestParamInfo<benchsuite::BenchId>& info) {
      std::string name;  // test names are alphanumeric ("B&S" -> "BS")
      for (const char ch : std::string(benchsuite::name(info.param))) {
        if (std::isalnum(static_cast<unsigned char>(ch)) != 0) name += ch;
      }
      return name;
    });

}  // namespace
}  // namespace psched::rt
