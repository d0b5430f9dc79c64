// Golden-equivalence scenarios: the DAGs whose virtual timelines are pinned
// against recorded fixtures (tests/sim/golden/*.txt).
//
// The fixtures were generated by the seed scan-per-step engine; the indexed
// heap-driven engine must reproduce the same per-op completion times and
// Timeline contents on every scenario. Regenerate with
//
//   sim_test_golden_equivalence --gtest_also_run_disabled_tests
//       --gtest_filter='*Regenerate*'
//
// but ONLY from a build whose engine is the intended source of truth.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/runner.hpp"
#include "sim/engine.hpp"
#include "sim/synthetic.hpp"

namespace psched::sim::golden {

struct GoldenRun {
  Timeline timeline;  ///< a copy: entry names resolve through its table
  TimeUs makespan = 0;
  long solves = 0;      ///< Engine::solve_count() after the run
  long solved_ops = 0;  ///< Engine::solved_ops() after the run
};

/// Engine-level contention DAG (Fig. 9 pressure at engine scale): the
/// shared generator from sim/synthetic.hpp — the same shape the
/// scheduler-overhead microbenchmark times at 10k ops / 32 streams.
inline GoldenRun run_contention_scenario() {
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 1000, 16);
  GoldenRun r;
  r.makespan = eng.run_all();
  r.timeline = eng.timeline();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

/// Fig. 9 B&S-style transfer churn under long-running kernels: the
/// scenario where a full re-solve per running-set change is maximally
/// wasteful (every copy completion re-prices every kernel).
inline GoldenRun run_transfer_churn_scenario() {
  Engine eng(DeviceSpec::test_device());
  build_transfer_churn_dag(eng, 8, 400, 8);
  GoldenRun r;
  r.makespan = eng.run_all();
  r.timeline = eng.timeline();
  r.solves = eng.solve_count();
  r.solved_ops = eng.solved_ops();
  return r;
}

/// One paper benchmark DAG through the parallel GrCUDA scheduler at test
/// scale — the full runtime stack (dependency inference, stream manager,
/// prefetching) drives the engine.
inline GoldenRun run_benchmark_scenario(benchsuite::BenchId id) {
  const auto bench = benchsuite::make_benchmark(id);
  benchsuite::RunConfig cfg;
  cfg.scale = bench->test_scale();
  cfg.block_size = 128;
  benchsuite::RunOptions opts;
  opts.keep_timeline = true;
  const benchsuite::RunResult res = benchsuite::run_benchmark(
      *bench, benchsuite::Variant::GrcudaParallel,
      DeviceSpec::test_device(), cfg, opts);
  GoldenRun r;
  r.timeline = res.timeline;
  r.makespan = res.gpu_time_us;
  r.solves = res.engine_solves;
  r.solved_ops = res.engine_solved_ops;
  return r;
}

inline std::vector<std::pair<std::string, GoldenRun>> run_all_scenarios() {
  std::vector<std::pair<std::string, GoldenRun>> all;
  all.emplace_back("contention_1k", run_contention_scenario());
  all.emplace_back("transfer_churn", run_transfer_churn_scenario());
  for (benchsuite::BenchId id : benchsuite::all_benchmarks()) {
    all.emplace_back(benchsuite::name(id), run_benchmark_scenario(id));
  }
  return all;
}

// ---------------------------------------------------------------------
// Fixture I/O
// ---------------------------------------------------------------------

struct Fixture {
  TimeUs makespan = 0;
  long seed_solves = 0;
  long seed_solved_ops = 0;
  Timeline timeline;  ///< rebuilt from the file (names interned on load)
};

/// Scenario name usable as a file name and a gtest parameter name.
inline std::string sanitized(const std::string& name) {
  std::string s = name;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

inline std::string fixture_path(const std::string& name) {
  return std::string(PSCHED_GOLDEN_DIR) + "/" + sanitized(name) + ".txt";
}

inline void write_fixture(const std::string& name, const GoldenRun& run) {
  std::ofstream out(fixture_path(name));
  if (!out) throw Error("cannot write fixture " + fixture_path(name));
  char buf[256];
  std::snprintf(buf, sizeof(buf), "makespan %.17g\n", run.makespan);
  out << buf;
  out << "seed_solves " << run.solves << "\n";
  out << "seed_solved_ops " << run.solved_ops << "\n";
  out << "entries " << run.timeline.entries().size() << "\n";
  for (const TimelineEntry& e : run.timeline.entries()) {
    std::snprintf(buf, sizeof(buf), "%s %d %.17g %.17g ", to_string(e.kind),
                  e.stream, e.start, e.end);
    out << buf << run.timeline.name(e) << "\n";
  }
}

inline OpKind kind_from_string(const std::string& s) {
  if (s == "kernel") return OpKind::Kernel;
  if (s == "h2d") return OpKind::CopyH2D;
  if (s == "d2h") return OpKind::CopyD2H;
  if (s == "fault") return OpKind::Fault;
  if (s == "marker") return OpKind::Marker;
  if (s == "host") return OpKind::Host;
  throw Error("fixture: unknown op kind '" + s + "'");
}

inline Fixture load_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  if (!in) throw Error("missing fixture " + fixture_path(name));
  Fixture f;
  std::string key;
  std::size_t n = 0;
  in >> key >> f.makespan;
  in >> key >> f.seed_solves;
  in >> key >> f.seed_solved_ops;
  in >> key >> n;
  for (std::size_t i = 0; i < n; ++i) {
    std::string kind;
    std::string name;
    TimelineEntry e;
    in >> kind >> e.stream >> e.start >> e.end;
    std::getline(in, name);
    if (!name.empty() && name.front() == ' ') name.erase(0, 1);
    e.kind = kind_from_string(kind);
    e.name = f.timeline.intern(name);
    f.timeline.record(e);
  }
  if (!in) throw Error("truncated fixture " + fixture_path(name));
  return f;
}

}  // namespace psched::sim::golden
