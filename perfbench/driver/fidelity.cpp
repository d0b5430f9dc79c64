// Fidelity to the paper's own numbers and functional correctness of the six
// bench_suite programs. Both are virtual-time / data results, computed
// once per run at small cost through benchsuite::run_benchmark.
//
// Calibration cells (Fig. 7): parallel vs serial speedup of the six
// programs on the three paper GPUs at the first fitting scale — the cells
// the kernel cost descriptors were tuned against (calibration_report).
// Held-out cells (Fig. 1): hand-tuned vs serial speedup on the GTX 1660
// Super and Tesla P100 at the middle fitting scale, which the calibration
// never looked at.
#include <cstdio>

#include "bench_suite/runner.hpp"
#include "common.hpp"

namespace perfbench {

using namespace psched;
using benchsuite::BenchId;
using benchsuite::Variant;

namespace {

struct PaperCell {
  BenchId id;
  double v[3];  ///< GTX 960, GTX 1660 Super, Tesla P100
};

// Paper Fig. 7: parallel-vs-serial speedups (first scale column).
constexpr PaperCell kFig7[] = {
    {BenchId::VEC, {1.17, 2.68, 2.55}}, {BenchId::BS, {1.33, 1.83, 2.79}},
    {BenchId::IMG, {1.55, 1.34, 1.49}}, {BenchId::ML, {1.22, 1.28, 1.39}},
    {BenchId::HITS, {1.13, 1.38, 1.33}}, {BenchId::DL, {1.34, 1.19, 1.17}}};

// Paper Fig. 1: hand-tuned CUDA speedups over serial (1660 Super, P100).
constexpr PaperCell kFig1[] = {
    {BenchId::VEC, {0, 2.54, 2.26}}, {BenchId::BS, {0, 1.94, 2.49}},
    {BenchId::IMG, {0, 1.26, 1.48}}, {BenchId::ML, {0, 1.15, 1.22}},
    {BenchId::HITS, {0, 1.39, 1.55}}, {BenchId::DL, {0, 1.21, 1.14}}};

double makespan(const benchsuite::Benchmark& b, Variant v,
                const sim::DeviceSpec& gpu, long scale) {
  benchsuite::RunConfig cfg;
  cfg.scale = scale;
  return benchsuite::run_benchmark(b, v, gpu, cfg).gpu_time_us;
}

}  // namespace

Fidelity paper_fidelity(bool print_table) {
  const std::vector<sim::DeviceSpec> gpus = benchsuite::paper_gpus();
  std::vector<double> speedups, errors, graphs, heldout;
  if (print_table) {
    std::fprintf(stderr,
                 "fidelity, calibration cells (Fig. 7 parallel/serial): "
                 "ours (paper)\n%-5s", "bench");
    for (const auto& g : gpus) std::fprintf(stderr, " %18s", g.name.c_str());
    std::fprintf(stderr, "\n");
  }
  for (const PaperCell& cell : kFig7) {
    const auto bench = benchsuite::make_benchmark(cell.id);
    if (print_table) std::fprintf(stderr, "%-5s", benchsuite::name(cell.id));
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      const long scale = benchsuite::fitting_scales(cell.id, gpus[g]).front();
      const double par = makespan(*bench, Variant::GrcudaParallel, gpus[g], scale);
      const double ser = makespan(*bench, Variant::GrcudaSerial, gpus[g], scale);
      const double gm = makespan(*bench, Variant::GraphsManual, gpus[g], scale);
      const double s = ser / par;
      speedups.push_back(s);
      errors.push_back(std::abs(std::log(s / cell.v[g])));
      graphs.push_back(par / gm);
      if (print_table) std::fprintf(stderr, "     %5.2fx (%5.2fx)", s, cell.v[g]);
    }
    if (print_table) std::fprintf(stderr, "\n");
  }
  if (print_table) {
    std::fprintf(stderr,
                 "fidelity, held-out cells (Fig. 1 hand-tuned/serial, middle "
                 "scale): ours (paper)\n%-5s %18s %18s\n",
                 "bench", gpus[1].name.c_str(), gpus[2].name.c_str());
  }
  for (const PaperCell& cell : kFig1) {
    const auto bench = benchsuite::make_benchmark(cell.id);
    if (print_table) std::fprintf(stderr, "%-5s", benchsuite::name(cell.id));
    for (std::size_t g = 1; g < gpus.size(); ++g) {
      const auto scales = benchsuite::fitting_scales(cell.id, gpus[g]);
      const long scale = scales[scales.size() / 2];
      const double s = makespan(*bench, Variant::GrcudaSerial, gpus[g], scale) /
                       makespan(*bench, Variant::HandTuned, gpus[g], scale);
      heldout.push_back(std::abs(std::log(s / cell.v[g])));
      if (print_table) std::fprintf(stderr, "     %5.2fx (%5.2fx)", s, cell.v[g]);
    }
    if (print_table) std::fprintf(stderr, "\n");
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
  };
  Fidelity f;
  f.speedup_vs_serial = geomean(speedups);
  f.paper_error = mean(errors);
  f.paper_error_heldout = mean(heldout);
  f.graphs_ratio = geomean(graphs);
  if (print_table) {
    std::fprintf(stderr,
                 "speedup_vs_serial %.4f (paper 1.44)  paper_error %.4f  "
                 "paper_error_heldout %.4f  graphs_ratio %.4f\n",
                 f.speedup_vs_serial, f.paper_error, f.paper_error_heldout,
                 f.graphs_ratio);
  }
  return f;
}

void check_functional(RepResult& r) {
  const sim::DeviceSpec gpu = sim::DeviceSpec::gtx1660super();
  for (const BenchId id : benchsuite::all_benchmarks()) {
    const auto bench = benchsuite::make_benchmark(id);
    benchsuite::RunConfig cfg;
    cfg.scale = bench->test_scale();
    cfg.functional = true;
    const double par =
        benchsuite::run_benchmark(*bench, Variant::GrcudaParallel, gpu, cfg)
            .checksum;
    const double ser =
        benchsuite::run_benchmark(*bench, Variant::GrcudaSerial, gpu, cfg)
            .checksum;
    check(r, par != 0 && std::abs(par - ser) <= std::abs(ser) * 1e-9,
          std::string(benchsuite::name(id)) +
              ": parallel and serial checksums agree at test scale");
  }
}

}  // namespace perfbench
