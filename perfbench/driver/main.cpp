// perfbench_driver: runs one benchmark workload for a fixed time and prints
// its metrics as one JSON line on stdout (a readable table goes to stderr).
//
//   perfbench_driver --workload <paper_suite|engine_waves|multi_tenant>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|tiny] [--trace-out <path>]
//
// A run repeats the workload (fresh set-up, then the fixed work) until
// --seconds have passed, after one warm-up repetition, and reports medians
// over the repetitions; run_s and sim_ops_per_s take the median of each
// part of the work (each program of paper_suite) and add them up. With
// --trace 0 it prints the end-to-end metrics.
// With --trace 1 it alternates untraced and traced repetitions, prints the
// per-layer metrics of the traced ones plus the tracing overhead (traced
// minus untraced run_s), and writes the last traced repetition's spans as
// Chrome trace-event JSON to --trace-out.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Size size = Size::Full;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<paper_suite|engine_waves|multi_tenant> --seed <n> --seconds "
               "<s> --trace <0|1> [--size full|tiny] [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") usage("--size is full or tiny");
      a.size = v == "tiny" ? Size::Tiny : Size::Full;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_seed) usage("--seed needs a non-negative integer");
  if (!have_seconds) usage("--seconds needs a number in (0, 600]");
  if (!have_trace) usage("--trace needs 0 or 1");
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return a;
}

using RepFn = RepResult (*)(std::uint64_t, Size);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Sum over the parts of the work of each part's median over `reps`, so a
/// stall that hits one part of one repetition does not move the total.
double median_total(const std::vector<RepResult>& reps,
                    std::vector<double> RepResult::*parts) {
  double total = 0;
  for (std::size_t i = 0; !reps.empty() && i < (reps.front().*parts).size(); ++i) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back((r.*parts)[i]);
    total += median(xs);
  }
  return total;
}

/// Per-layer metrics of one traced repetition.
std::map<std::string, double> layer_metrics(const RepResult& r) {
  const auto spans = tracing::aggregate();
  const auto mean_ns = [&](std::initializer_list<const char*> names) {
    SpanAgg a;
    for (const char* n : names) {
      const auto it = spans.find(n);
      if (it == spans.end()) continue;
      a.count += it->second.count;
      a.total_ns += it->second.total_ns;
    }
    return a.mean_ns();
  };
  const auto total_ns = [&](const char* n) {
    const auto it = spans.find(n);
    return it == spans.end() ? 0.0 : it->second.total_ns;
  };
  const auto& L = r.layer;
  const double ops = static_cast<double>(r.sim_ops);
  const double kernels = get(L, "context.kernels");
  const double prefetch = get(L, "runtime.prefetch_bytes");
  std::map<std::string, double> m;
  m["context.launch_ns"] = mean_ns({"context.launch"});
  m["context.host_access_ns"] = mean_ns({"context.host_read", "context.host_write"});
  m["context.edges_per_kernel"] = ratio(get(L, "context.edges"), kernels);
  m["context.event_waits_per_kernel"] = ratio(get(L, "context.event_waits"), kernels);
  m["context.streams_created"] = get(L, "context.streams_created");
  m["runtime.launch_ns"] = mean_ns({"runtime.launch"});
  m["tenant.launch_ns"] = mean_ns({"tenant.launch"});
  for (const char* k : {"runtime.bytes_h2d", "runtime.bytes_faulted",
                        "runtime.bytes_evicted", "runtime.evict_ops",
                        "runtime.prefetch_bytes", "runtime.admission_rejects"}) {
    m[k] = get(L, k);
  }
  m["runtime.prefetch_useful_frac"] =
      prefetch > 0 ? 1.0 - get(L, "runtime.wasted_prefetch_bytes") / prefetch : 0;
  m["submission.commit_ns_per_op"] =
      ratio(total_ns("submission.commit"), get(L, "submission.ops"));
  m["submission.ops_per_txn"] =
      ratio(get(L, "submission.ops"), get(L, "submission.txns"));
  m["engine.ns_per_op"] = ratio(total_ns("engine.run_all"), ops);
  m["engine.solves_per_op"] = ratio(get(L, "engine.solves"), ops);
  m["engine.solved_ops_per_op"] = ratio(get(L, "engine.solved_ops"), ops);
  m["engine.member_touches_per_op"] = ratio(get(L, "engine.member_touches"), ops);
  m["engine.full_scans"] = get(L, "engine.full_scans");
  m["engine.peak_resident_ops"] = get(L, "engine.peak_resident_ops");
  m["timeline.entries"] = ops;
  m["timeline.rss_bytes_per_entry"] = get(L, "timeline.rss_bytes_per_entry");
  m["report.overlap_ns"] = total_ns("report.overlap_metrics");
  m["report.hw_ns"] = total_ns("report.profiler_compute");
  m["report.critical_path_ns"] = total_ns("report.critical_path");
  m["ingest.post_ns"] = mean_ns({"ingest.submit_task"});
  m["ingest.threaded_pass_s"] = get(L, "ingest.threaded_pass_s");
  m["ingest.batch_ops"] = get(L, "ingest.batch_ops");
  m["ingest.flush_wait_ns"] = mean_ns({"ingest.wait", "ingest.flush_and_wait"});
  m["ingest.rejected"] = get(L, "ingest.rejected");
  m["ingest.deferred"] = get(L, "ingest.deferred");
  m["qos.tick_ns"] = mean_ns({"qos.tick"});
  for (const char* k : {"qos.reweights", "qos.final_weight",
                        "qos.deadline_misses", "qos.deadline_miss_frac",
                        "qos.issue_late_p99_us"}) {
    m[k] = get(L, k);
  }
  m["process.allocs_per_op"] =
      ratio(static_cast<double>(r.drive_allocs.allocs), ops);
  m["process.alloc_bytes_per_op"] =
      ratio(static_cast<double>(r.drive_allocs.bytes), ops);
  return m;
}

/// Units of the per-layer metrics, in the order they are printed.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> u = {
      {"context.launch_ns", "ns"},
      {"context.host_access_ns", "ns"},
      {"context.edges_per_kernel", "count"},
      {"context.event_waits_per_kernel", "count"},
      {"context.streams_created", "count"},
      {"runtime.launch_ns", "ns"},
      {"tenant.launch_ns", "ns"},
      {"runtime.bytes_h2d", "bytes"},
      {"runtime.bytes_faulted", "bytes"},
      {"runtime.bytes_evicted", "bytes"},
      {"runtime.evict_ops", "count"},
      {"runtime.prefetch_bytes", "bytes"},
      {"runtime.prefetch_useful_frac", "fraction"},
      {"runtime.admission_rejects", "count"},
      {"submission.commit_ns_per_op", "ns"},
      {"submission.ops_per_txn", "count"},
      {"engine.ns_per_op", "ns"},
      {"engine.solves_per_op", "count"},
      {"engine.solved_ops_per_op", "count"},
      {"engine.member_touches_per_op", "count"},
      {"engine.full_scans", "count"},
      {"engine.peak_resident_ops", "count"},
      {"timeline.entries", "count"},
      {"timeline.rss_bytes_per_entry", "bytes"},
      {"report.overlap_ns", "ns"},
      {"report.hw_ns", "ns"},
      {"report.critical_path_ns", "ns"},
      {"ingest.post_ns", "ns"},
      {"ingest.threaded_pass_s", "s"},
      {"ingest.batch_ops", "count"},
      {"ingest.flush_wait_ns", "ns"},
      {"ingest.rejected", "count"},
      {"ingest.deferred", "count"},
      {"qos.tick_ns", "ns"},
      {"qos.reweights", "count"},
      {"qos.final_weight", "weight"},
      {"qos.deadline_misses", "count"},
      {"qos.deadline_miss_frac", "virt_frac"},
      {"qos.issue_late_p99_us", "virt_us"},
      {"process.allocs_per_op", "count"},
      {"process.alloc_bytes_per_op", "bytes"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
  };
  return u;
}

void print_json(bool correct, long attempted, long failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  RepFn fn = nullptr;
  if (a.workload == "paper_suite") fn = paper_suite_rep;
  if (a.workload == "engine_waves") fn = engine_waves_rep;
  if (a.workload == "multi_tenant") fn = multi_tenant_rep;
  if (fn == nullptr) usage(("unknown workload " + a.workload).c_str());

  // Once-per-run parts: paper fidelity (every workload reports it), the
  // functional checksums, and the multi_tenant virtual-time figures for
  // workloads that do not produce them themselves.
  RepResult once;
  const Fidelity fid = paper_fidelity(/*print_table=*/true);
  if (a.workload == "paper_suite") check_functional(once);
  RepResult qos_src;
  if (a.workload != "multi_tenant") qos_src = multi_tenant_virt(a.seed, a.size);

  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  const auto absorb = [&](const RepResult& r) {
    attempted += r.checks + r.attempted;
    failed += static_cast<long>(r.failures.size()) + r.refused;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };
  absorb(once);
  absorb(qos_src);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RepResult> plain, traced;
  std::vector<std::map<std::string, double>> traced_layers;
  std::map<std::string, double> virt0;
  long spans_kept = 0;
  for (long rep = 0;; ++rep) {
    // rep 0 is the warm-up. With tracing, odd reps run untraced and even
    // reps traced, so a run always ends on a traced repetition.
    const bool traced_rep = a.trace && rep > 0 && rep % 2 == 0;
    tracing::reset();
    tracing::set_enabled(traced_rep);
    RepResult r = fn(a.seed, a.size);
    tracing::set_enabled(false);

    absorb(r);
    if (rep == 0) {
      virt0 = r.virt;
      continue;  // the warm-up is checked but not measured
    }
    ++attempted;
    if (r.virt != virt0) {
      ++failed;
      failures.push_back("virtual-time outputs differ between repetitions");
    }
    if (traced_rep) {
      traced_layers.push_back(layer_metrics(r));
      spans_kept = tracing::span_count();
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
    const bool enough = a.trace ? traced.size() >= 2 && plain.size() >= 2
                                : plain.size() >= 3;
    const bool pair_done = !a.trace || traced_rep;
    if (enough && pair_done && seconds_since(t0) >= a.seconds) break;
  }

  const auto med = [](const std::vector<RepResult>& v, auto field) {
    std::vector<double> xs;
    for (const RepResult& r : v) xs.push_back(field(r));
    return median(xs);
  };
  const QosFigures qf =
      qos_figures(a.workload == "multi_tenant" ? virt0 : qos_src.virt);
  const bool correct = failures.empty();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILED CHECK: %s\n", f.c_str());
  }

  std::vector<Metric> out;
  if (!a.trace) {
    out = {
        {"setup_s", "s", med(plain, [](const RepResult& r) { return r.setup_s; })},
        {"run_s", "s", median_total(plain, &RepResult::run_parts_s)},
        {"sim_ops_per_s", "ops/s",
         ratio(static_cast<double>(plain.front().sim_ops),
               median_total(plain, &RepResult::drive_parts_s))},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"makespan_ms", "virt_ms", get(virt0, "makespan_ms")},
        {"speedup_vs_serial", "virt_x", fid.speedup_vs_serial},
        {"paper_error", "virt_ln", fid.paper_error},
        {"paper_error_heldout", "virt_ln", fid.paper_error_heldout},
        {"graphs_ratio", "virt_x", fid.graphs_ratio},
        {"latency_p50_us", "virt_us", qf.latency_p50_us},
        {"latency_p99_us", "virt_us", qf.latency_p99_us},
        {"jain_index", "virt_index", qf.jain_index},
        {"batch_work_per_ms", "virt_us/ms", qf.batch_work_per_ms},
    };
  } else {
    std::map<std::string, std::vector<double>> cols;
    for (const auto& lm : traced_layers) {
      for (const auto& [k, v] : lm) cols[k].push_back(v);
    }
    for (const auto& [name, unit] : layer_units()) {
      double v = median(cols[name]);
      if (name == "trace.overhead_s") {
        v = median_total(traced, &RepResult::run_parts_s) -
            median_total(plain, &RepResult::run_parts_s);
      }
      if (name == "trace.spans") v = static_cast<double>(spans_kept);
      out.push_back({name, unit, v});
    }
    const std::string extra =
        "\"workload\":\"" + a.workload + "\",\"seed\":" + std::to_string(a.seed);
    if (!tracing::write_chrome_json(a.trace_out, extra)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "%s seed %llu: %zu untraced + %zu traced repetitions in %.1f s; "
               "%ld latency samples after warm-up; error_rate %.6f (%ld / %ld)\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               plain.size(), traced.size(), seconds_since(t0), qf.samples,
               ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               failed, attempted);
  if (!plain.empty()) {
    std::vector<double> xs;
    for (const RepResult& r : plain) {
      xs.push_back(std::accumulate(r.run_parts_s.begin(), r.run_parts_s.end(), 0.0));
    }
    std::fprintf(stderr, "  untraced run_s: min %.5f, p25 %.5f, median %.5f, max %.5f\n",
                 *std::min_element(xs.begin(), xs.end()), percentile(xs, 0.25),
                 median(xs), *std::max_element(xs.begin(), xs.end()));
  }
  for (const Metric& m : out) {
    std::fprintf(stderr, "  %-32s %18.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  print_json(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // A fixed mmap threshold keeps glibc from raising it after large frees,
  // so large blocks always go back to the OS when freed and peak RSS
  // follows live memory instead of which thread's arena a block landed in.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
