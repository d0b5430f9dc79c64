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
// times to 1e-9 relative.
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

}  // namespace
}  // namespace psched::sim
