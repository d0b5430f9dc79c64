// Randomized join/leave churn and mid-flight re-weighting across the two
// solver paths (legacy per-member fold vs virtual-service incremental).
//
// The churn harness drives a seeded random mix of kernels, transfers and
// faults across several tenants and devices, interleaving enqueues with
// host-clock advances so ops join and leave classes at arbitrary points
// of other members' lifetimes — the regime where the virtual-service
// bookkeeping (lazy V advance, finish-heap epochs, group aggregate
// joins/leaves) has to agree with folding every member on every change.
// Schedules must be identical between the paths: same op order, same
// times to 1e-9 relative. The scaling cases bound the incremental path's
// per-op solver counters on the contention sweep and a many-tenant
// water-fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "../sim/sim_test_util.hpp"
#include "sim/engine.hpp"
#include "sim/synthetic.hpp"

namespace psched::sim {
namespace {

constexpr double kAbsTol = 1e-6;
constexpr double kRelTol = 1e-9;

void expect_time_eq(TimeUs got, TimeUs want, const std::string& what) {
  const double tol = std::max(kAbsTol, kRelTol * std::abs(want));
  EXPECT_NEAR(got, want, tol) << what;
}

void compare_timelines(const Timeline& inc_tl, const Timeline& leg_tl,
                       const std::string& name) {
  const auto& inc = inc_tl.entries();
  const auto& leg = leg_tl.entries();
  ASSERT_EQ(inc.size(), leg.size()) << name << ": timeline length diverged";
  for (std::size_t i = 0; i < leg.size(); ++i) {
    const TimelineEntry& got = inc[i];
    const TimelineEntry& want = leg[i];
    const std::string& want_name = leg_tl.name(want);
    const std::string what =
        name + ": entry " + std::to_string(i) + " (" + want_name + ")";
    ASSERT_EQ(got.kind, want.kind) << what;
    ASSERT_EQ(got.stream, want.stream) << what;
    ASSERT_EQ(inc_tl.name(got), want_name) << what;
    expect_time_eq(got.start, want.start, what + " start");
    expect_time_eq(got.end, want.end, what + " end");
  }
}

/// One seeded churn run: every random draw is made from the same
/// deterministic sequence regardless of solver path, so both runs see
/// the identical op stream.
Timeline run_churn(Engine::SolverPath path, unsigned seed) {
  std::mt19937 rng(seed);
  Machine machine = Machine::uniform(DeviceSpec::test_device(), 2,
                                     /*nvlink_all_pairs=*/true);
  Engine eng(std::move(machine));
  eng.set_solver_path(path);

  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 4; ++t) {
    eng.set_tenant_weight(t, 1.0 + 0.5 * t);
    for (DeviceId d = 0; d < 2; ++d) {
      streams.push_back(eng.create_stream(d, t));
    }
  }

  std::uniform_int_distribution<std::size_t> pick(0, streams.size() - 1);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_real_distribution<double> work(1.0, 12.0);
  std::uniform_real_distribution<double> occ(0.25, 1.0);
  std::uniform_real_distribution<double> gap(0.0, 3.0);

  TimeUs t = 0;
  for (int i = 0; i < 400; ++i) {
    const StreamId s = streams[pick(rng)];
    switch (kind(rng)) {
      case 0:
      case 1:
        eng.enqueue(test::raw_copy(s, OpKind::CopyH2D, 1e4 * work(rng)), t);
        break;
      case 2:
        eng.enqueue(test::raw_copy(s, OpKind::CopyD2H, 1e4 * work(rng)), t);
        break;
      case 3:
        eng.enqueue(test::raw_copy(s, OpKind::Fault, 5e3 * work(rng)), t);
        break;
      default:
        // Mixed fills: some saturate the device, some cap at solo speed.
        eng.enqueue(
            test::raw_kernel(s, work(rng), kind(rng) < 7 ? 4.0 : 1.0,
                             occ(rng)),
            t);
        break;
    }
    // Advance between enqueues so joins hit classes mid-epoch; every few
    // steps stay put so transactions of same-instant joins occur too.
    if (i % 4 != 3) {
      t += gap(rng);
      eng.advance_to(t);
    }
  }
  eng.run_all();
  return eng.timeline();
}

TEST(SolverChurn, RandomJoinLeaveSchedulesIdentical) {
  for (const unsigned seed : {1u, 7u, 1234u}) {
    compare_timelines(run_churn(Engine::SolverPath::Incremental, seed),
                      run_churn(Engine::SolverPath::Legacy, seed),
                      "churn seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------
// Mid-flight set_tenant_weight: re-pricing must be immediate AND stay on
// the group-aggregate path — the weight change re-splits tenant budgets
// without a member scan.
// ---------------------------------------------------------------------

TEST(SolverChurn, WeightChangeRepricesWithoutMemberScan) {
  Engine eng(DeviceSpec::test_device());
  ASSERT_EQ(eng.solver_path(), Engine::SolverPath::Incremental);
  const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
  const StreamId s2 = eng.create_stream(kDefaultDevice, 2);
  // Saturated: fill 1.0 each, base rate 0.5 apiece at equal weights.
  eng.enqueue(test::raw_kernel(s1, 100.0, 4, 1.0), 0);
  eng.enqueue(test::raw_kernel(s2, 100.0, 4, 1.0), 0);
  eng.advance_to(10.0);  // 5.0 work each at equal weights

  const long scans_before = eng.full_scan_count();
  const long touches_before = eng.member_touch_count();
  eng.set_tenant_weight(1, 3.0);
  EXPECT_EQ(eng.full_scan_count(), scans_before)
      << "weight change fell back to a full member scan";
  EXPECT_EQ(eng.member_touch_count(), touches_before)
      << "weight change touched members";

  eng.advance_to(20.0);  // [10, 20]: rates 0.75 / 0.25
  EXPECT_NEAR(eng.tenant_inflight_work(1), 12.5, 1e-9);
  EXPECT_NEAR(eng.tenant_inflight_work(2), 7.5, 1e-9);
}

TEST(SolverChurn, WeightChangeMatchesLegacyPath) {
  // The same mid-flight re-weighting sequence on both paths must land
  // the same completions.
  auto run = [](Engine::SolverPath path) {
    Engine eng(DeviceSpec::test_device());
    eng.set_solver_path(path);
    std::vector<StreamId> streams;
    for (TenantId t = 1; t <= 3; ++t) {
      streams.push_back(eng.create_stream(kDefaultDevice, t));
    }
    for (const StreamId s : streams) {
      for (int k = 0; k < 8; ++k) {
        eng.enqueue(test::raw_kernel(s, 6.0, 4, 1.0), 0);
      }
    }
    eng.advance_to(15.0);
    eng.set_tenant_weight(1, 4.0);
    eng.advance_to(40.0);
    eng.set_tenant_weight(1, 1.0);
    eng.set_tenant_weight(3, 0.5);
    eng.run_all();
    return eng.timeline();
  };
  compare_timelines(run(Engine::SolverPath::Incremental),
                    run(Engine::SolverPath::Legacy), "weight_change");
}

// ---------------------------------------------------------------------
// Counter contract: the churn scenario's incremental run must do far
// less member work than the legacy fold, and per-class stats must add
// up to the engine-wide totals.
// ---------------------------------------------------------------------

TEST(SolverChurn, PerClassStatsSumToTotals) {
  Engine eng(DeviceSpec::test_device());
  eng.set_solve_timing(true);
  build_contention_dag(eng, 500, 16);
  eng.run_all();

  long scans = 0;
  long touches = 0;
  double time_us = 0;
  for (const OpKind kind : {OpKind::Kernel, OpKind::CopyH2D,
                            OpKind::CopyD2H, OpKind::Fault}) {
    const auto s = eng.class_solver_stats(kDefaultDevice, kind);
    scans += s.full_scans;
    touches += s.member_touches;
    time_us += s.solve_time_us;
  }
  EXPECT_EQ(scans, eng.full_scan_count());
  EXPECT_EQ(touches, eng.member_touch_count());
  EXPECT_GT(time_us, 0.0);  // timing was enabled
  EXPECT_NEAR(time_us, eng.solve_time_us(), 1e-9);
}

// ---------------------------------------------------------------------
// Scaling contract: re-solves cost O(changed members), not O(members).
// Exact counters per op over the 10k-op contention DAG (a stream x
// device sweep and three DAG shapes) and over a many-tenant water-fill.
// ---------------------------------------------------------------------

struct SolverWork {
  double solved_ops_per_op = 0;
  double touches_per_op = 0;
  long full_scans = 0;
};

SolverWork solver_work(const Engine& eng, long n_ops) {
  return {static_cast<double>(eng.solved_ops()) / static_cast<double>(n_ops),
          static_cast<double>(eng.member_touch_count()) /
              static_cast<double>(n_ops),
          eng.full_scan_count()};
}

constexpr int kSweepOps = 10000;

/// One sweep cell: the contention DAG on one device, or its multi-GPU
/// variant spread across an NVLinked uniform roster.
SolverWork run_sweep_cell(int n_streams, int n_devices) {
  Engine eng(Machine::uniform(DeviceSpec::test_device(), n_devices,
                              /*nvlink_all_pairs=*/n_devices > 1));
  if (n_devices == 1) {
    build_contention_dag(eng, kSweepOps, n_streams);
  } else {
    build_multi_device_contention_dag(eng, kSweepOps, n_streams);
  }
  eng.run_all();
  return solver_work(eng, kSweepOps);
}

TEST(SolverScaling, MemberTouchesStayFlatAsFanInGrows) {
  const SolverWork low = run_sweep_cell(8, 1);    // measured 0.0399
  const SolverWork high = run_sweep_cell(128, 1);  // measured 0.0086
  // The absolute term keeps the bound meaningful as the 8-stream value
  // nears zero.
  EXPECT_LE(high.touches_per_op, std::max(8.0 * low.touches_per_op, 0.5));
}

// A solve prices each changed group once, so an op is priced about once
// per join or leave it causes (measured 0.98-1.38 per op). A re-solve
// that re-prices whole classes multiplies this by the class size.
TEST(SolverScaling, SolvedOpsPerOpBoundedAcrossTheSweep) {
  for (const int n_streams : {8, 32, 128, 256, 512}) {
    for (const int n_devices : {1, 2, 4}) {
      EXPECT_LE(run_sweep_cell(n_streams, n_devices).solved_ops_per_op, 1.5)
          << n_streams << " streams, " << n_devices << " devices";
    }
  }
}

TEST(SolverScaling, SolvedOpsPerOpBoundedAcrossDagShapes) {
  for (const DagShape shape :
       {DagShape::Wide, DagShape::Deep, DagShape::Diamond}) {
    Engine eng(DeviceSpec::test_device());
    build_shaped_dag(eng, shape, kSweepOps, 32);
    eng.run_all();
    EXPECT_LE(solver_work(eng, kSweepOps).solved_ops_per_op, 1.5)
        << to_string(shape);
  }
}

/// `n_tenants` tenants with alternating 2:1 weights share one saturated
/// kernel class, four streams of 200 ops apiece, so every completion
/// re-splits the tenant budgets through the water-fill.
SolverWork run_tenant_waterfill(int n_tenants) {
  constexpr int kStreamsPerTenant = 4;
  constexpr int kOpsPerStream = 200;
  Engine eng(DeviceSpec::test_device());
  for (TenantId t = 1; t <= n_tenants; ++t) {
    eng.set_tenant_weight(t, t % 2 == 0 ? 2.0 : 1.0);
    for (int s = 0; s < kStreamsPerTenant; ++s) {
      const StreamId st = eng.create_stream(kDefaultDevice, t);
      for (int i = 0; i < kOpsPerStream; ++i) {
        eng.enqueue(test::raw_kernel(st, 5.0, 4.0, 1.0, 0, "wf"), 0);
      }
    }
  }
  eng.run_all();
  return solver_work(eng, static_cast<long>(n_tenants) * kStreamsPerTenant *
                              kOpsPerStream);
}

// Budget re-splits touch per-tenant group aggregates, not members: one
// full scan at the first admission (the drain tail may add a few as the
// rate cap trips) and near-zero member touches (measured 1 and 0.005).
TEST(SolverScaling, TenantWaterfillStaysOnGroupAggregates) {
  for (const int n_tenants : {8, 32}) {
    const SolverWork w = run_tenant_waterfill(n_tenants);
    EXPECT_LE(w.full_scans, 64) << n_tenants << " tenants";
    EXPECT_LE(w.touches_per_op, 1.0) << n_tenants << " tenants";
  }
}

}  // namespace
}  // namespace psched::sim
