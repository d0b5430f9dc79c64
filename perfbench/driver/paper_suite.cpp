// paper_suite: the six bench_suite programs driven through rt::Context, the
// paper's own path. Each program runs on its own GTX 1660 Super runtime
// under the parallel policy with per-call submission and no functional
// execution, at its first fitting scale, with iterations raised to a fixed
// kernel budget; then its report (overlap metrics, hardware counters,
// critical path) is computed, as every figure binary does. The seed
// permutes the program order.
#include <map>
#include <memory>
#include <utility>

#include "bench_suite/runner.hpp"
#include "common.hpp"
#include "kernels/registry.hpp"
#include "sim/profiler.hpp"

namespace perfbench {

using namespace psched;

RepResult paper_suite_rep(std::uint64_t seed, Size size) {
  RepResult r;
  // Kernels per program: enough to time, small because the report's cost
  // grows with the square of run length.
  const long kernel_budget = size == Size::Full ? 2000 : 120;
  const sim::DeviceSpec spec = sim::DeviceSpec::gtx1660super();

  std::vector<benchsuite::BenchId> order = benchsuite::all_benchmarks();
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  double makespan_us = 0;
  long peak_resident = 0;
  for (const benchsuite::BenchId id : order) {
    const std::string prefix = std::string(benchsuite::name(id)) + ".";
    const auto bench = benchsuite::make_benchmark(id);

    // --- set-up: runtime, context, arrays and program, kernel handles ---
    settle_heap();
    const auto t_setup = std::chrono::steady_clock::now();
    std::unique_ptr<sim::GpuRuntime> gpu;
    std::unique_ptr<rt::Context> ctx;
    benchsuite::Program prog;
    std::map<std::pair<std::string, std::string>, rt::Kernel> kernel_cache;
    std::vector<const rt::Kernel*> step_kernel;
    {
      Span phase(Layer::Driver, "paper_suite.setup");
      gpu = std::make_unique<sim::GpuRuntime>(spec);
      rt::Options opts = kernels::default_options();
      opts.functional = false;
      opts.policy = rt::SchedulePolicy::Parallel;
      opts.batch_submit = false;
      {
        Span s(Layer::Context, "context.create");
        ctx = std::make_unique<rt::Context>(*gpu, opts);
      }
      benchsuite::RunConfig cfg;
      cfg.scale = benchsuite::fitting_scales(id, spec).front();
      {
        Span s(Layer::Driver, "paper_suite.build_program");
        prog = bench->build(*ctx, cfg);
      }
      for (const benchsuite::Step& st : prog.iteration) {
        const rt::Kernel* k = nullptr;
        if (st.kind == benchsuite::Step::Kind::Kernel) {
          const auto key = std::make_pair(st.kernel, st.signature);
          auto it = kernel_cache.find(key);
          if (it == kernel_cache.end()) {
            Span s(Layer::Context, "context.build_kernel");
            it = kernel_cache
                     .emplace(key, ctx->build_kernel(st.kernel, st.signature))
                     .first;
          }
          k = &it->second;
        }
        step_kernel.push_back(k);
      }
    }
    r.setup_s += seconds_since(t_setup);

    long per_iter = 0;
    for (const auto* k : step_kernel) per_iter += k != nullptr ? 1 : 0;
    const long iterations =
        std::max<long>(bench->default_iterations(),
                       (kernel_budget + per_iter - 1) / std::max(1L, per_iter));

    // --- drive: the host program, one context call per step ---
    const auto t_drive = std::chrono::steady_clock::now();
    const AllocCounts a0 = alloc_counts();
    long launches = 0;
    {
      Span phase(Layer::Driver, "paper_suite.drive");
      for (const benchsuite::Step& st : prog.setup) {
        Span s(Layer::Context, "context.host_write");
        rt::DeviceArray arr = st.array;
        arr.touch_write();
      }
      for (long it = 0; it < iterations; ++it) {
        for (std::size_t i = 0; i < prog.iteration.size(); ++i) {
          const benchsuite::Step& st = prog.iteration[i];
          switch (st.kind) {
            case benchsuite::Step::Kind::Kernel: {
              Span s(Layer::Context, "context.launch");
              step_kernel[i]->configure(st.config).launch(st.values);
              ++launches;
              break;
            }
            case benchsuite::Step::Kind::HostWrite: {
              Span s(Layer::Context, "context.host_write");
              rt::DeviceArray arr = st.array;
              arr.touch_write();
              break;
            }
            case benchsuite::Step::Kind::HostRead: {
              Span s(Layer::Context, "context.host_read");
              st.array.touch_read();
              break;
            }
          }
        }
      }
      Span s(Layer::Context, "context.synchronize");
      ctx->synchronize();
    }
    const double drive_s = seconds_since(t_drive);
    const AllocCounts a1 = alloc_counts();
    r.drive_allocs.allocs += a1.allocs - a0.allocs;
    r.drive_allocs.bytes += a1.bytes - a0.bytes;

    // --- report: what every figure binary computes after its run ---
    const auto t_report = std::chrono::steady_clock::now();
    const sim::Timeline& tl = gpu->timeline();
    sim::OverlapMetrics ov;
    sim::HwMetrics hw;
    double critical_path_us = 0;
    {
      Span phase(Layer::Driver, "paper_suite.report");
      {
        Span s(Layer::Report, "report.overlap_metrics");
        ov = tl.overlap_metrics();
      }
      {
        Span s(Layer::Report, "report.profiler_compute");
        hw = sim::Profiler::compute(tl, spec);
      }
      {
        Span s(Layer::Report, "report.critical_path");
        critical_path_us = ctx->dag().critical_path_us(spec.pcie_bytes_per_us());
      }
    }
    r.drive_parts_s.push_back(drive_s);
    r.run_parts_s.push_back(drive_s + seconds_since(t_report));
    r.sim_ops += static_cast<long>(tl.entries().size());
    r.attempted += launches;

    // --- checks and outputs (untimed) ---
    const rt::ContextStats st = ctx->stats();
    long kernel_entries = 0;
    for (const sim::TimelineEntry& e : tl.entries()) {
      kernel_entries += e.kind == sim::OpKind::Kernel ? 1 : 0;
    }
    check(r, kernel_entries == launches && st.kernels == launches,
          prefix + "every launched kernel is on the timeline exactly once");
    check_timeline_sane(r, tl, prefix);

    makespan_us += tl.makespan();
    r.virt[prefix + "makespan_us"] = tl.makespan();
    r.virt[prefix + "overlap_tot"] = ov.tot;
    r.virt[prefix + "dram_gbps"] = hw.dram_gbps;
    r.virt[prefix + "critical_path_us"] = critical_path_us;

    r.layer["context.kernels"] += static_cast<double>(st.kernels);
    r.layer["context.edges"] += static_cast<double>(st.edges);
    r.layer["context.event_waits"] += static_cast<double>(st.event_waits);
    r.layer["context.streams_created"] +=
        static_cast<double>(st.streams_created);
    add_runtime_counters(r, *gpu);
    peak_resident = std::max(peak_resident, gpu->engine().peak_resident_ops());
  }
  r.layer["engine.peak_resident_ops"] = static_cast<double>(peak_resident);
  r.virt["makespan_ms"] = makespan_us / 1e3;
  return r;
}

}  // namespace perfbench
