// multi_tenant: one GpuRuntime shared through TenantManager by three batch
// tenants and one latency-critical tenant under a QosManager.
//
//   * Batch tenants run the multi_app mixed-shape rounds (wide, deep and
//     diamond DAGs of 16 device-filling kernels over two streams), each
//     round writing two of the tenant's arrays in turn. The last tenant's
//     arrays add up to more than the device holds, so admission evicts
//     and the residency planner prefetches while the others stay
//     resident. Rounds enter through the IngestService as closures, in a
//     closed loop: a producer drains or waits for a round's commit before
//     it gets more than one round (single-producer pass) or four rounds
//     (threaded pass) ahead.
//   * The latency tenant issues a 2 us request every 50 us of virtual time
//     (an open loop in virtual time). Latency is timed from when each
//     request was due, so a late generator counts against it.
//
// Every repetition runs the single-producer pass; it gives every
// end-to-end figure. Its arrival order is fixed, and by the ingest
// determinism contract it is bit-identical to direct submission. There a
// batch tenant keeps at most two rounds in flight in virtual time, which
// bounds the pages in-flight work pins (a launch whose working set cannot
// be admitted would stall the host until the whole device drains). The
// main thread drains each posted round itself at the service's flush
// point, so the timed pass never sleeps waiting for another thread to
// wake.
//
// Traced repetitions add a threaded pass over a fresh set-up: producer
// threads post the same rounds, each released in the request period the
// single-producer pass posted it in, and wait on the ingest thread's
// commits. The thread count, ingest shard thread included, stays within
// the machine's cores. Its wall time depends on how the host schedules
// those threads (over ten 30-second runs on a shared 4-core machine it
// spread by more than a quarter of its median), so it feeds only the
// per-layer ingest metrics, not run_s.
#include <algorithm>
#include <climits>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/qos.hpp"
#include "sim/tenant.hpp"

namespace perfbench {

using namespace psched;

namespace {

constexpr double kPeriodUs = 50.0;
constexpr double kTargetUs = 3.0;
constexpr int kBatchTenants = 3;
constexpr int kStreamsPerApp = 2;
constexpr int kKernelsPerRound = 16;
constexpr int kArraysPerRound = 2;
constexpr std::size_t kRoundsInFlight = 2;
// Threaded pass: posts a producer keeps outstanding before it waits for the
// oldest commit, so the ingest thread drains back to back instead of
// sleeping between rounds.
constexpr std::size_t kPostWindow = 4;
// Device memory: 4 MiB in 64 KiB pages, 256 KiB arrays. The equal-demand
// tenants hold 4 arrays each (resident after first touch); the last holds
// 16, twice what the frames the others leave free can keep.
constexpr std::size_t kDeviceBytes = 4ull << 20;
constexpr std::size_t kPageBytes = 64ull << 10;
constexpr std::size_t kArrayBytes = 256ull << 10;
constexpr int kLightArrays = 4;
constexpr int kHeavyArrays = 16;

struct App {
  sim::Tenant* tenant = nullptr;
  std::vector<sim::StreamId> streams;
  std::vector<sim::ArrayId> arrays;
  std::vector<double> flops;  ///< per kernel of a round (seeded)
  int first_shape = 0;
  int rounds_posted = 0;
  std::deque<std::vector<sim::EventId>> in_flight;  ///< virt pass only
  std::vector<int> post_period;  ///< request period each round was posted in
};

/// What one posted round reports back once its future resolves.
struct RoundOut {
  std::vector<sim::OpId> ops;
  std::vector<sim::EventId> done;  ///< one event per stream at round end
};

struct Scenario {
  // Declaration order is teardown order reversed: the ingest service and
  // QoS manager detach before the tenants and the runtime go away.
  std::unique_ptr<sim::GpuRuntime> rt;
  std::unique_ptr<sim::TenantManager> mgr;
  std::unique_ptr<sim::QosManager> qos;
  std::unique_ptr<sim::IngestService> ingest;
  std::vector<App> apps;
  sim::Tenant* lat = nullptr;
  sim::StreamId lat_stream = sim::kInvalidStream;
  sim::LaunchSpec request;
};

sim::LaunchSpec app_kernel(const std::string& name, double flops) {
  sim::LaunchSpec k;
  k.name = name;
  k.config = sim::LaunchConfig::linear(8, 512);  // fills the test device
  k.profile.flops_sp = flops;                   // 2.56e6 = 5 us solo
  return k;
}

void make_scenario(Scenario& sc, std::uint64_t seed) {
  Span phase(Layer::Driver, "multi_tenant.setup");
  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.memory_bytes = kDeviceBytes;
  sc.rt = std::make_unique<sim::GpuRuntime>(sim::Machine::single(spec),
                                            kPageBytes);
  sc.mgr = std::make_unique<sim::TenantManager>(*sc.rt);

  sim::TenantSpec lat_spec;
  lat_spec.name = "latency";
  lat_spec.service_class = sim::ServiceClass::LatencyCritical;
  lat_spec.target_p99_us = kTargetUs;
  sc.lat = &sc.mgr->create_tenant(lat_spec);
  {
    Span c(Layer::Tenant, "tenant.create_stream");
    sc.lat_stream = sc.lat->create_stream();
  }
  sc.request = app_kernel("request", 1.024e6);  // 2 us solo

  Rng rng(seed);
  for (int t = 0; t < kBatchTenants; ++t) {
    App app;
    std::string name = "batch";
    name += std::to_string(t);
    app.tenant = &sc.mgr->create_tenant({name, 1.0, kDeviceBytes / kBatchTenants});
    for (int s = 0; s < kStreamsPerApp; ++s) {
      Span c(Layer::Tenant, "tenant.create_stream");
      app.streams.push_back(app.tenant->create_stream());
    }
    const int n_arrays = t == kBatchTenants - 1 ? kHeavyArrays : kLightArrays;
    for (int a = 0; a < n_arrays; ++a) {
      Span c(Layer::Tenant, "tenant.alloc_and_write");
      const sim::ArrayId id = app.tenant->alloc(kArrayBytes, name);
      app.tenant->host_write(id);
      app.arrays.push_back(id);
    }
    for (int k = 0; k < kKernelsPerRound; ++k) {
      app.flops.push_back(2.56e6 * (0.8 + 0.4 * rng.uniform()));
    }
    app.first_shape = static_cast<int>(rng.below(3));
    sc.apps.push_back(std::move(app));
  }
  sc.qos = std::make_unique<sim::QosManager>(*sc.mgr);
  sc.ingest = std::make_unique<sim::IngestService>(*sc.rt);
  sc.mgr->attach_ingest(*sc.ingest);
}

/// Round `round` of one app, issued on the ingest thread inside the
/// shard's open batch: shape 0 = wide, 1 = deep (cross-stream event chain),
/// 2 = diamond (root, children, join). Kernel i writes the round's array
/// i % 2 (rounds walk the app's arrays two at a time); the round's working
/// sets are announced to the residency planner up front so it can
/// prefetch ahead of the launches.
void issue_round(sim::GpuRuntime& rt, const App& app, int round, int shape,
                 RoundOut& out) {
  Span task(Layer::Driver, "multi_tenant.round");
  const auto stream_of = [&](int i) {
    return app.streams[static_cast<std::size_t>(i) % app.streams.size()];
  };
  const auto array_of = [&](int i) {
    const auto a = static_cast<std::size_t>(round * kArraysPerRound +
                                            i % kArraysPerRound);
    return app.arrays[a % app.arrays.size()];
  };
  {
    std::vector<sim::FrontierEntry> frontier;
    for (int i = 0; i < kKernelsPerRound; ++i) {
      frontier.push_back({sim::DeviceId{0}, {array_of(i)}});
    }
    Span c(Layer::Runtime, "runtime.announce_frontier");
    rt.announce_frontier(std::move(frontier));
  }
  sim::EventId prev = sim::kInvalidEvent;
  std::vector<sim::EventId> child_evs;
  const auto new_event_on = [&](sim::StreamId s) {
    sim::EventId ev;
    {
      Span c(Layer::Runtime, "runtime.create_event");
      ev = rt.create_event();
    }
    Span c(Layer::Runtime, "runtime.record_event");
    rt.record_event(ev, s);
    return ev;
  };
  const auto wait_on = [&](sim::StreamId s, sim::EventId ev) {
    Span c(Layer::Runtime, "runtime.stream_wait_event");
    rt.stream_wait_event(s, ev);
  };
  for (int i = 0; i < kKernelsPerRound; ++i) {
    const sim::StreamId s = stream_of(i);
    if (shape == 1 && prev != sim::kInvalidEvent) {
      wait_on(s, prev);
    } else if (shape == 2 && i > 0 && i + 1 < kKernelsPerRound) {
      wait_on(s, child_evs.front());
    } else if (shape == 2 && i + 1 == kKernelsPerRound) {
      for (std::size_t c = 1; c < child_evs.size(); ++c) wait_on(s, child_evs[c]);
    }
    sim::LaunchSpec k = app_kernel(app.tenant->name(),
                                   app.flops[static_cast<std::size_t>(i)]);
    k.arrays = {{array_of(i), /*write=*/true}};
    {
      Span c(Layer::Runtime, "runtime.launch");
      out.ops.push_back(rt.launch(s, k));
    }
    if (shape == 1) {
      prev = new_event_on(s);
    } else if (shape == 2 && i + 1 < kKernelsPerRound) {
      child_evs.push_back(new_event_on(s));
    }
  }
  for (const sim::StreamId s : app.streams) out.done.push_back(new_event_on(s));
  Span c(Layer::Runtime, "runtime.clear_frontier");
  rt.clear_frontier();
}

/// A posted round: its commit token and what it reports once committed.
/// The report lives on the heap so it stays put while the closure writes it.
struct Posted {
  std::future<void> committed;
  std::unique_ptr<RoundOut> out = std::make_unique<RoundOut>();
};

/// Post the next round of `app` through the ingest service.
Posted post_round(Scenario& sc, App& app) {
  Posted p;
  const int round = app.rounds_posted++;
  const int shape = (app.first_shape + round) % 3;
  RoundOut* out = p.out.get();
  Span c(Layer::Ingest, "ingest.submit_task");
  p.committed = sc.ingest->submit_task(
      app.tenant->id(), [&app, round, shape, out](sim::GpuRuntime& rt) {
        issue_round(rt, app, round, shape, *out);
      });
  return p;
}

/// Wait for a posted round's commit and take its report.
RoundOut wait_round(Posted& p) {
  Span c(Layer::Ingest, "ingest.wait");
  p.committed.get();
  return std::move(*p.out);
}

/// Drain `app`'s shard on the calling thread, which commits the posted
/// round, and take its report.
RoundOut drain_round(Scenario& sc, const App& app, Posted& p) {
  Span c(Layer::Ingest, "ingest.flush_and_wait");
  sc.ingest->flush_and_wait(app.tenant->id());
  p.committed.get();
  return std::move(*p.out);
}

/// The runtime's host clock. The ingest thread advances it too, so it is
/// read under the runtime's api gate.
double host_now(const sim::GpuRuntime& rt) {
  const auto gate = rt.api_guard();
  return rt.now();
}

struct LatencyLoop {
  struct Request {
    sim::OpId op;
    double due;    ///< when the open loop wanted it sent
    double issue;  ///< when it became visible to the device
  };
  std::vector<Request> issued;  ///< post warm-up
  std::vector<double> late_us;  ///< issue time - due, every request
  std::vector<sim::OpId> ops;   ///< every issued request
  long refused = 0;             ///< refused requests post warm-up
  long refused_total = 0;
  long due = 0;                 ///< requests due post warm-up
  long reweights = 0;
};

/// One step of the latency tenant's open loop: advance to request `k`'s due
/// time, tick the QoS controller, run `between` (the single-producer pass
/// posts batch rounds there), then issue the request.
template <typename Between>
void latency_step(Scenario& sc, LatencyLoop& loop, int k, int warmup,
                  double t0, Between&& between) {
  sim::GpuRuntime& rt = *sc.rt;
  const double due = t0 + k * kPeriodUs;
  {
    const auto gate = rt.api_guard();
    const double t = rt.now();
    if (t < due) {
      Span c(Layer::Runtime, "runtime.host_advance");
      rt.host_advance(due - t);
    }
  }
  const double w0 = sc.lat->qos_stats().weight;
  {
    Span c(Layer::Qos, "qos.tick");
    sc.qos->tick();
  }
  if (sc.lat->qos_stats().weight != w0) ++loop.reweights;
  between();
  loop.late_us.push_back(std::max(0.0, host_now(rt) - due));
  if (k >= warmup) ++loop.due;
  try {
    sim::OpId id;
    {
      Span c(Layer::Tenant, "tenant.launch");
      id = sc.lat->launch(sc.lat_stream, sc.request);
    }
    loop.ops.push_back(id);
    if (k >= warmup) loop.issued.push_back({id, due, host_now(rt)});
  } catch (const sim::AdmissionError&) {
    ++loop.refused_total;
    if (k >= warmup) ++loop.refused;
  }
}

long admission_rejections(Scenario& sc) {
  long n = sc.lat->qos_stats().admission_rejections;
  for (const App& app : sc.apps) n += app.tenant->qos_stats().admission_rejections;
  return n;
}

struct Sizes {
  int requests = 0;
  int warmup = 0;
};

/// The single-producer pass: every virtual-time figure of the workload.
/// `schedule` receives, per batch tenant, the request period each of its
/// rounds was posted in.
void virt_pass(RepResult& r, std::uint64_t seed, const Sizes& z,
               std::vector<std::vector<int>>& schedule) {
  settle_heap();
  const auto t_setup = std::chrono::steady_clock::now();
  Scenario sc;
  make_scenario(sc, seed);
  r.setup_s += seconds_since(t_setup);
  sim::GpuRuntime& rt = *sc.rt;
  const AllocCounts a0 = alloc_counts();
  const auto t_drive = std::chrono::steady_clock::now();
  Span phase(Layer::Driver, "multi_tenant.virt_pass");
  LatencyLoop loop;
  std::vector<sim::OpId> batch_ops;
  std::vector<double> work0(sc.apps.size(), 0);
  double t_warm = 0;
  const double t0 = host_now(rt);
  for (int k = 0; k < z.requests; ++k) {
    latency_step(sc, loop, k, z.warmup, t0, [&] {
      for (App& app : sc.apps) {
        while (!app.in_flight.empty()) {
          bool done = true;
          for (const sim::EventId ev : app.in_flight.front()) {
            Span c(Layer::Runtime, "runtime.event_done");
            if (!rt.event_done(ev)) {
              done = false;
              break;
            }
          }
          if (!done) break;
          app.in_flight.pop_front();
        }
        while (app.in_flight.size() < kRoundsInFlight) {
          app.post_period.push_back(k);
          Posted posted = post_round(sc, app);
          RoundOut out = drain_round(sc, app, posted);
          batch_ops.insert(batch_ops.end(), out.ops.begin(), out.ops.end());
          app.in_flight.push_back(std::move(out.done));
        }
      }
    });
    if (k + 1 == z.warmup) {
      t_warm = host_now(rt);
      for (std::size_t a = 0; a < sc.apps.size(); ++a) {
        work0[a] = sc.apps[a].tenant->work_progress();
      }
      sc.qos->reset_stats();
    }
  }
  const double window_ms = (host_now(rt) - t_warm) / 1e3;
  std::vector<double> equal_tp;  // the equal-demand (not oversubscribed) tenants
  double batch_work = 0;
  for (std::size_t a = 0; a < sc.apps.size(); ++a) {
    const double w = sc.apps[a].tenant->work_progress() - work0[a];
    batch_work += w;
    if (a + 1 < sc.apps.size()) equal_tp.push_back(w / window_ms);
  }
  {
    Span c(Layer::Runtime, "runtime.synchronize_device");
    rt.synchronize_device();
  }
  r.run_parts_s = r.drive_parts_s = {seconds_since(t_drive)};
  const AllocCounts a1 = alloc_counts();
  r.drive_allocs.allocs += a1.allocs - a0.allocs;
  r.drive_allocs.bytes += a1.bytes - a0.bytes;
  r.sim_ops += static_cast<long>(rt.timeline().entries().size());

  // Latency runs from when a request was due. A deadline miss compares
  // the target with the latency the QoS controller governs, from issue:
  // measured from due, the launch call's own host cost alone would exceed
  // the 3 us target.
  std::vector<double> lat;
  long misses = loop.refused;
  for (const LatencyLoop::Request& q : loop.issued) {
    const double end = rt.engine().op(q.op).end_time;
    lat.push_back(end - q.due);
    misses += end - q.issue > kTargetUs ? 1 : 0;
  }
  lat.insert(lat.end(), static_cast<std::size_t>(loop.refused),
             std::numeric_limits<double>::infinity());
  r.virt["makespan_ms"] = host_now(rt) / 1e3;
  r.virt["latency_p50_us"] = percentile(lat, 0.50);
  r.virt["latency_p99_us"] = percentile(lat, 0.99);
  r.virt["latency_samples"] = static_cast<double>(lat.size());
  r.virt["deadline_miss_frac"] =
      loop.due > 0 ? static_cast<double>(misses) / static_cast<double>(loop.due)
                   : 0;
  r.virt["jain_index"] = sim::TenantManager::jain_index(equal_tp);
  r.virt["batch_work_per_ms"] = batch_work / window_ms;
  r.virt["issue_late_p99_us"] = percentile(loop.late_us, 0.99);
  r.virt["kernels"] = static_cast<double>(batch_ops.size() + loop.ops.size());
  const sim::QosTenantStats qs = sc.lat->qos_stats();
  r.virt["qos.final_weight"] = qs.weight;
  r.virt["qos.deadline_misses"] = static_cast<double>(qs.deadline_misses);
  r.virt["qos.reweights"] = static_cast<double>(loop.reweights);

  r.layer["qos.reweights"] = static_cast<double>(loop.reweights);
  r.layer["qos.final_weight"] = qs.weight;
  r.layer["qos.deadline_misses"] = static_cast<double>(qs.deadline_misses);
  r.layer["qos.issue_late_p99_us"] = r.virt["issue_late_p99_us"];
  r.layer["qos.deadline_miss_frac"] = r.virt["deadline_miss_frac"];
  r.layer["runtime.admission_rejects"] += static_cast<double>(admission_rejections(sc));
  add_runtime_counters(r, rt);
  r.layer["engine.peak_resident_ops"] =
      static_cast<double>(rt.engine().peak_resident_ops());

  std::vector<sim::OpId> all = batch_ops;
  all.insert(all.end(), loop.ops.begin(), loop.ops.end());
  check_ops_on_timeline(r, rt.timeline(), all, "multi_tenant single-producer pass");
  check_timeline_sane(r, rt.timeline(), "multi_tenant.virt.");
  check(r, sc.ingest->stats().errors == 0,
        "multi_tenant single-producer pass: no failed ingest items");
  r.attempted += static_cast<long>(all.size()) + loop.refused_total;
  r.refused += loop.refused_total + sc.ingest->stats().errors;
  schedule.clear();
  for (const App& app : sc.apps) schedule.push_back(app.post_period);
}

/// The threaded pass: the single-producer pass's rounds, posted by
/// producer threads in a closed loop (at most kPostWindow outstanding posts
/// each) while the main thread runs the latency loop and releases each
/// round in the period it was first posted in. It adds its checks and the
/// per-layer ingest figures to `r`, and no host time or op count.
void threaded_pass(RepResult& r, std::uint64_t seed, const Sizes& z,
                   const std::vector<std::vector<int>>& schedule) {
  Scenario sc;
  make_scenario(sc, seed);

  // Main thread + ingest shard thread + producers <= cores, with one core
  // to spare where there are few: host times then vary less with whatever
  // else the machine runs.
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int producers = std::clamp(cores - 3, 1, kBatchTenants);

  std::mutex mu;
  std::condition_variable released_cv;
  int released = -1;  // guarded by mu: the latest request period released
  const auto release = [&](int period) {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = period;
    }
    released_cv.notify_all();
  };

  const auto t_drive = std::chrono::steady_clock::now();
  LatencyLoop loop;
  std::vector<std::vector<sim::OpId>> batch_ops(static_cast<std::size_t>(producers));
  {
    Span phase(Layer::Driver, "multi_tenant.threaded_pass");
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        std::deque<Posted> window;
        try {
          Span t(Layer::Driver, "multi_tenant.producer");
          auto& mine = batch_ops[static_cast<std::size_t>(p)];
          const auto wait_oldest = [&] {
            RoundOut out = wait_round(window.front());
            window.pop_front();
            mine.insert(mine.end(), out.ops.begin(), out.ops.end());
          };
          for (bool more = true; more;) {
            more = false;
            for (std::size_t a = static_cast<std::size_t>(p); a < sc.apps.size();
                 a += static_cast<std::size_t>(producers)) {
              App& app = sc.apps[a];
              const auto n = static_cast<std::size_t>(app.rounds_posted);
              if (n >= schedule[a].size()) continue;
              more = true;
              {
                std::unique_lock<std::mutex> lock(mu);
                released_cv.wait(lock, [&] { return released >= schedule[a][n]; });
              }
              if (window.size() >= kPostWindow) wait_oldest();
              window.push_back(post_round(sc, app));
            }
          }
          while (!window.empty()) wait_oldest();
        } catch (...) {
          errors[static_cast<std::size_t>(p)] = std::current_exception();
          // Outstanding closures write into the window's reports.
          for (Posted& posted : window) {
            if (posted.committed.valid()) posted.committed.wait();
          }
        }
      });
    }
    const double t0 = host_now(*sc.rt);
    std::exception_ptr main_error;
    try {
      for (int k = 0; k < z.requests; ++k) {
        latency_step(sc, loop, k, z.warmup, t0, [&] { release(k); });
      }
    } catch (...) {
      main_error = std::current_exception();
    }
    release(INT_MAX);
    for (std::thread& t : threads) t.join();
    if (main_error) std::rethrow_exception(main_error);
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    {
      Span c(Layer::Ingest, "ingest.flush_all_and_wait");
      sc.ingest->flush_all_and_wait();
    }
    Span c(Layer::Runtime, "runtime.synchronize_device");
    sc.rt->synchronize_device();
  }
  r.layer["ingest.threaded_pass_s"] = seconds_since(t_drive);

  std::vector<sim::OpId> all = loop.ops;
  for (const auto& v : batch_ops) all.insert(all.end(), v.begin(), v.end());
  check_ops_on_timeline(r, sc.rt->timeline(), all, "multi_tenant threaded pass");
  check_timeline_sane(r, sc.rt->timeline(), "multi_tenant.threaded.");
  const sim::IngestStats is = sc.ingest->stats();
  check(r, is.errors == 0, "multi_tenant threaded pass: no failed ingest items");
  r.attempted += static_cast<long>(all.size()) + loop.refused_total;
  r.refused += loop.refused_total + is.errors;
  r.layer["ingest.batch_ops"] =
      is.batches > 0 ? static_cast<double>(is.ops) / static_cast<double>(is.batches) : 0;
  r.layer["ingest.rejected"] = static_cast<double>(is.rejected);
  r.layer["ingest.deferred"] = static_cast<double>(is.deferred);
  r.layer["runtime.admission_rejects"] += static_cast<double>(admission_rejections(sc));
}

Sizes sizes(Size size) {
  return size == Size::Full ? Sizes{4500, 500} : Sizes{200, 40};
}

}  // namespace

RepResult multi_tenant_rep(std::uint64_t seed, Size size) {
  RepResult r;
  std::vector<std::vector<int>> schedule;
  virt_pass(r, seed, sizes(size), schedule);
  if (tracing::enabled()) threaded_pass(r, seed, sizes(size), schedule);
  return r;
}

RepResult multi_tenant_virt(std::uint64_t seed, Size size) {
  RepResult r;
  std::vector<std::vector<int>> schedule;
  virt_pass(r, seed, sizes(size), schedule);
  return r;
}

QosFigures qos_figures(const std::map<std::string, double>& virt) {
  const auto get = [&](const char* k) {
    const auto it = virt.find(k);
    return it == virt.end() ? 0.0 : it->second;
  };
  QosFigures q;
  q.latency_p50_us = get("latency_p50_us");
  q.latency_p99_us = get("latency_p99_us");
  q.jain_index = get("jain_index");
  q.batch_work_per_ms = get("batch_work_per_ms");
  q.samples = static_cast<long>(get("latency_samples"));
  return q;
}

}  // namespace perfbench
