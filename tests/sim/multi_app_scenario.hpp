// Concurrent multi-app scenarios (the tenancy and QoS acceptance runs).
//
// run_multi_app drives N independent synthetic applications onto ONE
// GpuRuntime through TenantManager handles: every app runs the same
// mixed-shape DAG (rounds cycle wide -> deep -> diamond over its own
// streams and arrays) so equal-weight tenants have identical demand,
// except the LAST tenant, whose working set oversubscribes both its quota
// and the device — the thrash victim the quota-biased LRU must contain.
// Reported per tenant: completed kernel work (solo-us), work per virtual
// ms of its own runtime, and bytes evicted; plus Jain's fairness index
// over the equal-demand tenants and over all tenants.
//
// run_weighted_pair floods one saturated kernel class from two tenants
// with weights {2, 1} and reports their completed-work ratio at a fixed
// virtual horizon — the weighted-fair-sharing acceptance number
// (2.0 +- 10%). run_qos_mixed is the latency-QoS acceptance scenario.
//
// Everything here is deterministic in virtual time. Shared by
// test_tenant.cpp and test_qos.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/qos.hpp"
#include "sim/tenant.hpp"

namespace psched::sim::scenario {

struct TenantMetrics {
  double work_us = 0;         ///< completed kernel work, solo-us
  double work_per_ms = 0;     ///< work_us per virtual ms of *its* runtime
  std::size_t bytes_evicted = 0;
  bool oversubscribed = false;
};

struct MultiAppMetrics {
  double jain_equal = 1.0;    ///< Jain over the equal-demand tenants
  double jain_all = 1.0;      ///< Jain over every tenant
  std::vector<TenantMetrics> tenants;
};

namespace detail {

/// The kernel every app launches: fills the whole test device (sm_demand
/// 4, occupancy 1.0, 5us solo), so concurrent apps contend in one
/// saturated kernel class and fair sharing is what decides throughput.
inline sim::LaunchSpec app_kernel(const std::string& name) {
  sim::LaunchSpec k;
  k.name = name;
  k.config = sim::LaunchConfig::linear(8, 512);
  k.profile.flops_sp = 2.56e6;
  return k;
}

/// One round of one app's DAG: `shape` 0 = wide (independent kernels
/// round-robined over the app's streams), 1 = deep (a cross-stream event
/// chain), 2 = diamond (root -> children -> join). Every kernel writes
/// one of the app's arrays so residency, freshness, and eviction churn.
inline void submit_round(sim::GpuRuntime& rt, sim::Tenant& app,
                         const std::vector<sim::StreamId>& streams,
                         const std::vector<sim::ArrayId>& arrays, int shape,
                         int kernels_per_round) {
  const auto stream_of = [&](int i) {
    return streams[static_cast<std::size_t>(i) % streams.size()];
  };
  const auto array_of = [&](int i) {
    return arrays[static_cast<std::size_t>(i) % arrays.size()];
  };
  sim::LaunchSpec k = app_kernel(app.name());
  sim::EventId prev = sim::kInvalidEvent;
  std::vector<sim::EventId> child_evs;
  for (int i = 0; i < kernels_per_round; ++i) {
    const sim::StreamId s = stream_of(i);
    switch (shape) {
      case 1:  // deep: kernel i waits kernel i-1 across streams
        if (prev != sim::kInvalidEvent) rt.stream_wait_event(s, prev);
        break;
      case 2:  // diamond: children wait the root, the join collects all
        if (i > 0 && i + 1 < kernels_per_round) {
          rt.stream_wait_event(s, child_evs.front());  // root's event
        } else if (i + 1 == kernels_per_round) {
          for (std::size_t c = 1; c < child_evs.size(); ++c) {
            rt.stream_wait_event(s, child_evs[c]);
          }
        }
        break;
      default:
        break;  // wide: independent
    }
    k.arrays = {{array_of(i), /*write=*/true}};
    app.launch(s, k);
    if (shape == 1) {
      prev = rt.create_event();
      rt.record_event(prev, s);
    } else if (shape == 2 && i + 1 < kernels_per_round) {
      const sim::EventId ev = rt.create_event();
      rt.record_event(ev, s);
      child_evs.push_back(ev);
    }
  }
}

}  // namespace detail

/// Run `n_tenants` concurrent apps (equal weight 1.0, per-tenant quota
/// cap / n) on one capped test device.
inline MultiAppMetrics run_multi_app(int n_tenants) {
  const std::size_t cap = 64ull << 20;
  const std::size_t page = cap / 64;
  // Rounds are sized so every roster issues the same 1024 launches (plus
  // their fault/eviction traffic): small rosters run more rounds.
  const int kernels_per_round = 16;
  const int rounds = std::max(1, 1024 / (n_tenants * kernels_per_round));
  const int streams_per_app = 2;
  const int arrays_per_app = 4;

  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.memory_bytes = cap;
  sim::GpuRuntime rt(sim::Machine::single(spec), page);
  sim::TenantManager mgr(rt);

  const std::size_t quota = cap / static_cast<std::size_t>(n_tenants);
  // Equal-demand tenants keep 60% of their quota resident; the last
  // tenant's working set is sized past BOTH the device's remaining frames
  // and its own quota, so it faults and pages against itself.
  const std::size_t light_ws = quota * 6 / 10;
  const std::size_t heavy_ws =
      (cap - static_cast<std::size_t>(n_tenants - 1) * light_ws) * 12 / 10;

  struct App {
    sim::Tenant* tenant = nullptr;
    std::vector<sim::StreamId> streams;
    std::vector<sim::ArrayId> arrays;
  };
  std::vector<App> apps;
  for (int t = 0; t < n_tenants; ++t) {
    const bool heavy = t == n_tenants - 1;
    App app;
    app.tenant = &mgr.create_tenant({"app" + std::to_string(t), 1.0, quota});
    for (int s = 0; s < streams_per_app; ++s) {
      app.streams.push_back(app.tenant->create_stream());
    }
    const std::size_t ws = heavy ? heavy_ws : light_ws;
    for (int a = 0; a < arrays_per_app; ++a) {
      const sim::ArrayId id = app.tenant->alloc(
          ws / arrays_per_app, "t" + std::to_string(t) + "a" +
                                   std::to_string(a));
      app.tenant->host_write(id);
      app.arrays.push_back(id);
    }
    apps.push_back(std::move(app));
  }

  // Rounds interleave tenant-by-tenant, all asynchronous: every app's
  // backlog contends in the shared kernel class for the whole run.
  for (int r = 0; r < rounds; ++r) {
    for (App& app : apps) {
      detail::submit_round(rt, *app.tenant, app.streams, app.arrays, r % 3,
                           kernels_per_round);
    }
  }
  rt.synchronize_device();

  // Per-tenant completion time: the latest end of any op on the tenant's
  // own streams. All apps launch the same kernel budget, so *throughput*
  // differences live in the denominator — the thrashing tenant finishes
  // late, the fairly-shared equal tenants finish together.
  std::vector<double> finish(static_cast<std::size_t>(n_tenants), 0);
  for (const sim::TimelineEntry& e : rt.timeline().entries()) {
    for (int t = 0; t < n_tenants; ++t) {
      const auto& ss = apps[static_cast<std::size_t>(t)].streams;
      if (std::find(ss.begin(), ss.end(), e.stream) != ss.end()) {
        finish[static_cast<std::size_t>(t)] =
            std::max(finish[static_cast<std::size_t>(t)], e.end);
        break;
      }
    }
  }

  MultiAppMetrics m;
  std::vector<double> equal_tp;
  std::vector<double> all_tp;
  for (int t = 0; t < n_tenants; ++t) {
    const sim::Tenant& ten = mgr.tenant(t);
    const double finish_us = finish[static_cast<std::size_t>(t)];
    TenantMetrics tm;
    tm.work_us = ten.work_completed();
    tm.work_per_ms = finish_us > 0 ? tm.work_us * 1e3 / finish_us : 0;
    tm.bytes_evicted = ten.bytes_evicted();
    tm.oversubscribed = t == n_tenants - 1;
    all_tp.push_back(tm.work_per_ms);
    if (!tm.oversubscribed) equal_tp.push_back(tm.work_per_ms);
    m.tenants.push_back(tm);
  }
  m.jain_equal = sim::TenantManager::jain_index(equal_tp);
  m.jain_all = sim::TenantManager::jain_index(all_tp);
  return m;
}

struct WeightedPairMetrics {
  double weight_hi = 2.0;
  double weight_lo = 1.0;
  double work_hi = 0;
  double work_lo = 0;
  double work_ratio = 0;  ///< hi / lo at the horizon (target: 2.0 +- 10%)
  double horizon_us = 0;
};

/// Two tenants with the given weights, identical backlogged kernel
/// floods into one saturated kernel class (no arrays — pure compute
/// sharing). The progressed-work ratio at a mid-run virtual horizon is
/// the weighted fair-sharing acceptance number (w_hi/w_lo exactly,
/// under saturation).
inline WeightedPairMetrics run_weighted_pair(double w_hi, double w_lo) {
  const int streams_per_app = 4;
  const int kernels_per_stream = 30;

  sim::GpuRuntime rt(sim::DeviceSpec::test_device());
  sim::TenantManager mgr(rt);
  sim::Tenant& hi = mgr.create_tenant({"hi", w_hi});
  sim::Tenant& lo = mgr.create_tenant({"lo", w_lo});

  std::vector<sim::StreamId> hi_streams;
  std::vector<sim::StreamId> lo_streams;
  for (int s = 0; s < streams_per_app; ++s) {
    hi_streams.push_back(hi.create_stream());
    lo_streams.push_back(lo.create_stream());
  }
  const sim::LaunchSpec k = detail::app_kernel("flood");
  // One batched submission: every stream's whole backlog lands at one
  // host instant, so the class is saturated for the entire horizon.
  rt.begin_submit();
  for (int i = 0; i < kernels_per_stream; ++i) {
    for (int s = 0; s < streams_per_app; ++s) {
      hi.launch(hi_streams[static_cast<std::size_t>(s)], k);
      lo.launch(lo_streams[static_cast<std::size_t>(s)], k);
    }
  }
  rt.commit();

  // Total work = 2 apps * streams * kernels * 5us at aggregate rate 1.0;
  // observe at ~40% of that so both backlogs are still saturated.
  WeightedPairMetrics w;
  w.weight_hi = w_hi;
  w.weight_lo = w_lo;
  w.horizon_us = 2.0 * streams_per_app * kernels_per_stream * 5.0 * 0.4;
  rt.host_advance(w.horizon_us - rt.now());
  // Progress readings (completed + in-flight) are free of completion
  // quantization: the ratio is the integrated rate share itself.
  w.work_hi = hi.work_progress();
  w.work_lo = lo.work_progress();
  w.work_ratio = w.work_lo > 0 ? w.work_hi / w.work_lo : 0;
  rt.synchronize_device();  // drain before teardown
  return w;
}

struct QosMixedMetrics {
  double target_p99_us = 0;   ///< the latency tenant's declared p99 target
  long latency_ops = 0;       ///< measured latency requests (post-warmup)
  double base_p50_us = 0;     ///< plain weighted fair sharing, no QoS
  double base_p99_us = 0;
  double qos_p50_us = 0;      ///< same workload with a QosManager attached
  double qos_p99_us = 0;
  double p99_ratio = 0;       ///< qos_p99 / base_p99 (target: <= 0.5)
  double base_batch_work = 0; ///< batch work over the measured window
  double qos_batch_work = 0;
  double batch_ratio = 0;     ///< qos / base batch work (target: >= 0.8)
  double final_weight = 0;    ///< latency tenant's controller-boosted weight
  long deadline_misses = 0;   ///< QoS-variant completions over target
};

/// The QoS acceptance scenario: ONE latency-critical tenant (one 2us-solo
/// request every 50us, p99 target 3us) against THREE batch tenants whose
/// floods keep the shared kernel class permanently saturated. The same
/// deterministic loop runs twice — plain weighted fair sharing, then with
/// a QosManager attached (its tick replacing the baseline's poll, so both
/// variants advance the clock identically). Request latency is measured
/// exactly from the engine timeline (issue -> op end, nth_element
/// percentiles), with the first quarter of rounds excluded as controller
/// warmup. Under equal weights the request runs at a 1/4 share (~8us);
/// the controller boosts the latency tenant's weight until its window p99
/// clears the 3us target (~2.8us), so p99_ratio lands near 0.35 while
/// batch keeps >= 95% of its throughput (the request is 4% of the
/// device). `smoke` runs 60 rounds instead of the full 400.
inline QosMixedMetrics run_qos_mixed(bool smoke) {
  const int rounds = smoke ? 60 : 400;
  const int warmup = rounds / 4;
  const double period_us = 50.0;
  const double target_us = 3.0;
  const int n_batch = 3;
  const int streams_per_batch = 2;
  const int batch_per_stream_round = 2;  // 60us-solo inflow per 48us round

  struct VariantResult {
    double p50 = 0, p99 = 0, batch_work = 0, weight = 0;
    long misses = 0, samples = 0;
  };
  const auto run_variant = [&](bool with_qos) {
    sim::GpuRuntime rt(sim::DeviceSpec::test_device());
    sim::TenantManager mgr(rt);

    sim::TenantSpec lat_spec;
    lat_spec.name = "latency";
    lat_spec.service_class = sim::ServiceClass::LatencyCritical;
    lat_spec.target_p99_us = target_us;
    sim::Tenant& lat = mgr.create_tenant(lat_spec);
    const sim::StreamId lat_stream = lat.create_stream();

    struct BatchApp {
      sim::Tenant* tenant = nullptr;
      std::vector<sim::StreamId> streams;
    };
    std::vector<BatchApp> batch;
    for (int t = 0; t < n_batch; ++t) {
      BatchApp app;
      app.tenant = &mgr.create_tenant({"batch" + std::to_string(t)});
      for (int s = 0; s < streams_per_batch; ++s) {
        app.streams.push_back(app.tenant->create_stream());
      }
      batch.push_back(std::move(app));
    }

    std::unique_ptr<sim::QosManager> qos;
    if (with_qos) qos = std::make_unique<sim::QosManager>(mgr);

    const sim::LaunchSpec flood = detail::app_kernel("flood");
    sim::LaunchSpec request = detail::app_kernel("request");
    request.profile.flops_sp = 1.024e6;  // 2us solo on the test device

    const auto batch_progress = [&] {
      double sum = 0;
      for (const BatchApp& app : batch) sum += app.tenant->work_progress();
      return sum;
    };

    VariantResult res;
    double batch_start = 0;
    std::vector<std::pair<sim::OpId, double>> issued;  // (op, issue time)
    for (int r = 0; r < rounds; ++r) {
      for (BatchApp& app : batch) {
        for (const sim::StreamId s : app.streams) {
          for (int i = 0; i < batch_per_stream_round; ++i) {
            app.tenant->launch(s, flood);
          }
        }
      }
      const sim::OpId id = lat.launch(lat_stream, request);
      // Issue = when the op became visible to the device (after the
      // launch call's fixed CPU overhead) — the same timestamp the
      // QosManager samples, so the percentiles measure the
      // scheduling latency the controller actually governs.
      if (r >= warmup) issued.push_back({id, rt.now()});
      rt.host_advance(period_us);
      // The QoS tick polls the runtime itself; the baseline polls in the
      // same place so both variants advance through identical states.
      if (with_qos) {
        qos->tick();
      } else {
        rt.poll();
      }
      if (r + 1 == warmup) {
        batch_start = batch_progress();
        if (with_qos) qos->reset_stats();
      }
    }
    res.batch_work = batch_progress() - batch_start;
    rt.synchronize_device();  // retire the tail so every latency is exact

    std::vector<double> lats;
    lats.reserve(issued.size());
    for (const auto& [id, issue] : issued) {
      lats.push_back(rt.engine().op(id).end_time - issue);
    }
    res.samples = static_cast<long>(lats.size());
    if (!lats.empty()) {
      const auto nth = [&](double q) {
        const auto k = static_cast<std::ptrdiff_t>(
            q * static_cast<double>(lats.size() - 1) + 0.5);
        std::nth_element(lats.begin(), lats.begin() + k, lats.end());
        return lats[static_cast<std::size_t>(k)];
      };
      res.p50 = nth(0.50);
      res.p99 = nth(0.99);
    }
    if (with_qos) {
      const sim::QosTenantStats qs = lat.qos_stats();
      res.weight = qs.weight;
      res.misses = qs.deadline_misses;
    }
    return res;
  };

  const VariantResult base = run_variant(/*with_qos=*/false);
  const VariantResult qos = run_variant(/*with_qos=*/true);

  QosMixedMetrics m;
  m.target_p99_us = target_us;
  m.latency_ops = qos.samples;
  m.base_p50_us = base.p50;
  m.base_p99_us = base.p99;
  m.qos_p50_us = qos.p50;
  m.qos_p99_us = qos.p99;
  m.p99_ratio = base.p99 > 0 ? qos.p99 / base.p99 : 0;
  m.base_batch_work = base.batch_work;
  m.qos_batch_work = qos.batch_work;
  m.batch_ratio = base.batch_work > 0 ? qos.batch_work / base.batch_work : 0;
  m.final_weight = qos.weight;
  m.deadline_misses = qos.misses;
  return m;
}

}  // namespace psched::sim::scenario
