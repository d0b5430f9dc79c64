// engine_waves: about a million ops of a seeded contention DAG fed straight
// to sim::Engine as 20k-op Submission transactions, drained between waves.
// One device, one tenant, no paging: the engine re-solve, the Submission
// bracket and timeline retention do nearly all the work, and rt::Context,
// residency and tenancy none of it.
//
// The DAG has the op mix of sim::emit_contention_dag (32 streams; a third
// copies in both directions, page-fault migrations, kernels of varying
// demand and DRAM appetite, a cross-stream event edge every 8th op); the
// seed draws each op's size and demand and each edge's source stream, so
// every seed costs about the same host time.
#include "common.hpp"

namespace perfbench {

using namespace psched;

namespace {

struct OpDesc {
  float work = 0;
  float bytes = 0;
  float occupancy = 0;
  float bw_need = 0;
  sim::OpKind kind = sim::OpKind::Kernel;
  std::uint8_t stream = 0;
  std::uint8_t sm_demand = 0;
  std::int8_t edge_from = -1;  ///< stream whose work this op waits for
};

constexpr int kStreams = 32;

std::vector<OpDesc> make_dag(std::uint64_t seed, long n_ops) {
  Rng rng(seed);
  std::vector<OpDesc> dag(static_cast<std::size_t>(n_ops));
  for (long i = 0; i < n_ops; ++i) {
    OpDesc& d = dag[static_cast<std::size_t>(i)];
    d.stream = static_cast<std::uint8_t>(i % kStreams);
    if (i % 3 == 1) {
      d.kind = (i % 6 == 1) ? sim::OpKind::CopyH2D : sim::OpKind::CopyD2H;
      d.bytes = static_cast<float>(1e4 * (0.8 + 0.6 * rng.uniform()));
      d.work = d.bytes;
    } else if (i % 16 == 9) {
      d.kind = sim::OpKind::Fault;
      d.bytes = static_cast<float>(5e3 * (0.8 + 0.8 * rng.uniform()));
      d.work = d.bytes;
    } else {
      d.kind = sim::OpKind::Kernel;
      d.work = static_cast<float>(5.0 + 10.0 * rng.uniform());
      d.sm_demand = static_cast<std::uint8_t>(1 + rng.below(4));
      d.occupancy = static_cast<float>(0.5 + 0.25 * rng.below(3));
      d.bw_need = rng.uniform() < 0.2 ? 50.0f : 0.0f;
    }
    if (i % 8 == 7 && i > 32) {
      d.edge_from = static_cast<std::int8_t>(
          (d.stream + 1 + rng.below(kStreams - 1)) % kStreams);
    }
  }
  return dag;
}

}  // namespace

RepResult engine_waves_rep(std::uint64_t seed, Size size) {
  RepResult r;
  const long n_ops = size == Size::Full ? 1000000 : 20000;
  const long wave = size == Size::Full ? 20000 : 2000;

  // --- set-up: engine, streams, DAG generation ---
  settle_heap();
  const auto t_setup = std::chrono::steady_clock::now();
  std::unique_ptr<sim::Engine> eng;
  std::vector<OpDesc> dag;
  {
    Span phase(Layer::Driver, "engine_waves.setup");
    eng = std::make_unique<sim::Engine>(sim::DeviceSpec::test_device());
    for (int s = 1; s < kStreams; ++s) {
      Span c(Layer::Engine, "engine.create_stream");
      eng->create_stream();
    }
    dag = make_dag(seed, n_ops);
  }
  r.setup_s = seconds_since(t_setup);

  // --- drive: waves of Submission transactions, drained in between ---
  const double rss0 = current_rss_bytes();
  const AllocCounts a0 = alloc_counts();
  const auto t_drive = std::chrono::steady_clock::now();
  std::vector<std::vector<sim::OpId>> wave_ids;
  wave_ids.reserve(static_cast<std::size_t>(n_ops / wave + 1));
  sim::Submission sub;
  sub.reserve(static_cast<std::size_t>(wave + wave / 4));
  for (long begin = 0; begin < n_ops; begin += wave) {
    Span phase(Layer::Driver, "engine_waves.wave");
    const long end = std::min(n_ops, begin + wave);
    const sim::TimeUs t = eng->now();
    for (long i = begin; i < end; ++i) {
      const OpDesc& d = dag[static_cast<std::size_t>(i)];
      const auto s = static_cast<sim::StreamId>(d.stream);
      if (d.edge_from >= 0) {
        sim::EventId ev;
        {
          Span c(Layer::Engine, "engine.create_event");
          ev = eng->create_event();
        }
        {
          Span c(Layer::Submission, "submission.record_event");
          sub.record_event(ev, static_cast<sim::StreamId>(d.edge_from), t);
        }
        Span c(Layer::Submission, "submission.wait_event");
        sub.wait_event(s, ev, t);
      }
      sim::Op op;
      op.kind = d.kind;
      op.stream = s;
      op.work = d.work;
      op.bytes = d.bytes;
      op.sm_demand = d.sm_demand;
      op.occupancy = d.occupancy;
      op.bw_need = d.bw_need;
      op.name = d.kind == sim::OpKind::Kernel ? "k" : "cp";
      Span c(Layer::Submission, "submission.enqueue");
      sub.enqueue(std::move(op), t);
    }
    {
      Span c(Layer::Submission, "submission.commit");
      wave_ids.push_back(eng->commit(sub));
    }
    Span c(Layer::Engine, "engine.run_all");
    eng->run_all();
  }
  r.run_parts_s = r.drive_parts_s = {seconds_since(t_drive)};
  const AllocCounts a1 = alloc_counts();
  r.drive_allocs = {a1.allocs - a0.allocs, a1.bytes - a0.bytes};
  const sim::Timeline& tl = eng->timeline();
  const auto entries = static_cast<long>(tl.entries().size());
  r.sim_ops = entries;
  r.attempted = n_ops;
  r.layer["timeline.rss_bytes_per_entry"] =
      entries > 0 ? (current_rss_bytes() - rss0) / static_cast<double>(entries)
                  : 0;

  // --- checks and outputs (untimed) ---
  // commit() returns the ids of every op-consuming item in order: a wait
  // marker before each edged op, then the op itself.
  std::vector<sim::OpId> driver_ops;
  driver_ops.reserve(static_cast<std::size_t>(n_ops));
  bool ids_match = true;
  long begin = 0;
  for (const auto& ids : wave_ids) {
    const long end = std::min(n_ops, begin + wave);
    std::size_t k = 0;
    for (long i = begin; i < end; ++i) {
      if (dag[static_cast<std::size_t>(i)].edge_from >= 0) ++k;  // marker
      if (k < ids.size()) driver_ops.push_back(ids[k]);
      ++k;
    }
    ids_match = ids_match && k == ids.size();
    begin = end;
  }
  check(r, ids_match && static_cast<long>(driver_ops.size()) == n_ops,
        "engine_waves: commit returned one id per submitted op");
  check_ops_on_timeline(r, tl, driver_ops, "engine_waves");
  check_timeline_sane(r, tl, "engine_waves.");

  r.virt["makespan_ms"] = eng->now() / 1e3;
  add_engine_counters(r, *eng);
  r.layer["engine.peak_resident_ops"] =
      static_cast<double>(eng->peak_resident_ops());
  r.virt["engine.solves"] = r.layer["engine.solves"];
  r.virt["engine.solved_ops"] = r.layer["engine.solved_ops"];
  r.layer["submission.txns"] = static_cast<double>(wave_ids.size());
  r.layer["submission.ops"] = static_cast<double>(n_ops);
  return r;
}

}  // namespace perfbench
