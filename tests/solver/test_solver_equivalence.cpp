// Legacy-vs-incremental solver equivalence (the PR-8 guardrail).
//
// The virtual-service solver (Engine::SolverPath::Incremental, the
// default) must reproduce the legacy per-member fold's schedules across
// the full golden scenario matrix — single- and multi-GPU, tenancy,
// batched ingest, and the five paper benchmark DAGs driven through the
// full runtime stack (dependency inference, prefetching, paged memory).
// Structure (op kind / stream / name / completion order) must match
// exactly; times to within 1e-9 relative (1e-6 us absolute under it):
// the two paths accumulate the identical fluid-model integrals in a
// different association order, which perturbs the last ulps only.
//
// The legacy path is selected per engine via the PSCHED_LEGACY_SOLVER
// environment variable (read at construction), so scenario runners that
// build their own engines run unmodified on both paths.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "../sim/golden_scenarios.hpp"
#include "../sim/sim_test_util.hpp"

namespace psched::sim::golden {
namespace {

constexpr double kAbsTol = 1e-6;
constexpr double kRelTol = 1e-9;

void expect_time_eq(TimeUs got, TimeUs want, const std::string& what) {
  const double tol = std::max(kAbsTol, kRelTol * std::abs(want));
  EXPECT_NEAR(got, want, tol) << what;
}

void compare_runs(const GoldenRun& inc, const GoldenRun& leg,
                  const std::string& name) {
  expect_time_eq(inc.makespan, leg.makespan, name + ": makespan");
  const auto& inc_entries = inc.timeline.entries();
  const auto& leg_entries = leg.timeline.entries();
  ASSERT_EQ(inc_entries.size(), leg_entries.size())
      << name << ": timeline length diverged between solver paths";
  for (std::size_t i = 0; i < leg_entries.size(); ++i) {
    const TimelineEntry& got = inc_entries[i];
    const TimelineEntry& want = leg_entries[i];
    const std::string& want_name = leg.timeline.name(want);
    const std::string what =
        name + ": entry " + std::to_string(i) + " (" + want_name + ")";
    EXPECT_EQ(got.kind, want.kind) << what;
    EXPECT_EQ(got.stream, want.stream) << what;
    EXPECT_EQ(inc.timeline.name(got), want_name) << what;
    expect_time_eq(got.start, want.start, what + " start");
    expect_time_eq(got.end, want.end, what + " end");
  }
}

/// Run `fn` with the legacy fold selected for every engine it builds.
template <typename Fn>
auto with_legacy_solver(Fn&& fn) {
  ::setenv("PSCHED_LEGACY_SOLVER", "1", /*overwrite=*/1);
  auto result = fn();
  ::unsetenv("PSCHED_LEGACY_SOLVER");
  return result;
}

// ---------------------------------------------------------------------
// The pinned golden matrix: contention, transfer churn, and the five
// paper benchmarks through the full runtime stack.
// ---------------------------------------------------------------------

TEST(SolverEquivalence, GoldenScenarioMatrix) {
  const auto legacy = with_legacy_solver(run_all_scenarios);
  const auto incremental = run_all_scenarios();
  ASSERT_EQ(legacy.size(), incremental.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    ASSERT_EQ(legacy[i].first, incremental[i].first);
    compare_runs(incremental[i].second, legacy[i].second, legacy[i].first);
  }
}

// ---------------------------------------------------------------------
// Matrix axes the pinned fixtures don't reach: multi-GPU rosters with
// P2P link classes, multi-tenant weighted sharing, batched ingest.
// ---------------------------------------------------------------------

GoldenRun run_multi_gpu_scenario() {
  Machine machine = Machine::uniform(DeviceSpec::test_device(), 4,
                                     /*nvlink_all_pairs=*/true);
  Engine eng(std::move(machine));
  build_multi_device_contention_dag(eng, 2000, 32);
  GoldenRun r;
  r.makespan = eng.run_all();
  r.timeline = eng.timeline();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

TEST(SolverEquivalence, MultiGpuContention) {
  const GoldenRun legacy = with_legacy_solver(run_multi_gpu_scenario);
  compare_runs(run_multi_gpu_scenario(), legacy, "multi_gpu_contention");
}

/// Three tenants with weights {1, 2, 3} churning a shared kernel class
/// (plus per-tenant copies), including a mid-flight re-weighting — the
/// water-fill budget-split arithmetic on both solver paths.
GoldenRun run_tenant_scenario() {
  Engine eng(DeviceSpec::test_device());
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 3; ++t) {
    eng.set_tenant_weight(t, static_cast<double>(t));
    for (int s = 0; s < 2; ++s) {
      streams.push_back(eng.create_stream(kDefaultDevice, t));
    }
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (int k = 0; k < 20; ++k) {
      // Varied fills: some members cap at solo speed, so the bounded
      // water-fill's surplus redistribution engages.
      eng.enqueue(test::raw_kernel(streams[i], 4.0 + 0.5 * (k % 3),
                                   k % 2 == 0 ? 4.0 : 1.0,
                                   k % 2 == 0 ? 1.0 : 0.5),
                  0);
      if (k % 5 == 0) {
        eng.enqueue(test::raw_copy(streams[i], OpKind::CopyH2D, 1e5), 0);
      }
    }
  }
  eng.advance_to(100.0);
  eng.set_tenant_weight(2, 5.0);  // mid-flight re-pricing
  GoldenRun r;
  r.makespan = eng.run_all();
  r.timeline = eng.timeline();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

TEST(SolverEquivalence, TenantWeightedSharing) {
  const GoldenRun legacy = with_legacy_solver(run_tenant_scenario);
  compare_runs(run_tenant_scenario(), legacy, "tenant_weighted");
}

GoldenRun run_batched_ingest_scenario() {
  Engine eng(DeviceSpec::test_device());
  eng.begin_transaction(0);
  build_contention_dag(eng, 500, 16);
  eng.commit_transaction();
  GoldenRun r;
  r.makespan = eng.run_all();
  r.timeline = eng.timeline();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

TEST(SolverEquivalence, BatchedIngest) {
  const GoldenRun legacy = with_legacy_solver(run_batched_ingest_scenario);
  compare_runs(run_batched_ingest_scenario(), legacy, "batched_ingest");
}

// ---------------------------------------------------------------------
// Path-selection plumbing.
// ---------------------------------------------------------------------

TEST(SolverEquivalence, EnvSelectsLegacyPath) {
  const auto path = with_legacy_solver([] {
    Engine eng(DeviceSpec::test_device());
    return eng.solver_path();
  });
  EXPECT_EQ(path, Engine::SolverPath::Legacy);
  Engine eng(DeviceSpec::test_device());
  EXPECT_EQ(eng.solver_path(), Engine::SolverPath::Incremental);
}

TEST(SolverEquivalence, MidRunPathSwitchPreservesSchedule) {
  // Switching solver paths while ops are mid-flight (incremental state
  // demoted to materialized remaining-work) must not perturb the
  // schedule.
  const GoldenRun legacy = with_legacy_solver(run_contention_scenario);
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 1000, 16);
  eng.advance_to(legacy.makespan / 2);
  eng.set_solver_path(Engine::SolverPath::Legacy);
  GoldenRun run;
  run.makespan = eng.run_all();
  run.timeline = eng.timeline();
  compare_runs(run, legacy, "mid_run_switch");
}

// ---------------------------------------------------------------------
// The acceptance asymmetry: equivalence is only interesting because the
// incremental path does asymptotically less work. On the high-fan-in
// contention scenario the legacy fold touches every member per re-solve
// while the virtual-service path touches members only on genuine
// rate-ratio changes.
// ---------------------------------------------------------------------

TEST(SolverEquivalence, IncrementalTouchesFarFewerMembers) {
  auto touches = [](Engine::SolverPath path) {
    Engine eng(DeviceSpec::test_device());
    eng.set_solver_path(path);
    build_contention_dag(eng, 1000, 16);
    eng.run_all();
    return eng.member_touch_count();
  };
  const long legacy = touches(Engine::SolverPath::Legacy);
  const long incremental = touches(Engine::SolverPath::Incremental);
  EXPECT_LT(incremental * 4, legacy);
}

}  // namespace
}  // namespace psched::sim::golden
