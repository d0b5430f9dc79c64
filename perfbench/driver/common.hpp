// Shared types of the benchmark driver: one repetition's result, the
// seeded generator, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/runtime.hpp"
#include "trace.hpp"

namespace perfbench {

/// Workload sizes: `full` is what the benchmark measures; `tiny` is the
/// seconds-long smoke size the benchmark's own tests run.
enum class Size { Full, Tiny };

/// One repetition of a workload: fresh set-up, then the fixed work.
struct RepResult {
  double setup_s = 0;  ///< set-up phase wall time
  /// Wall time of the fixed work, one entry per part of it: a program on
  /// paper_suite (its report included), the whole work elsewhere.
  std::vector<double> run_parts_s;
  /// The drive phase of each part (reports excluded).
  std::vector<double> drive_parts_s;
  long sim_ops = 0;    ///< timeline entries completed in the drive phase
  long attempted = 0;  ///< submissions the driver made
  long refused = 0;    ///< submissions refused or failed
  AllocCounts drive_allocs;  ///< heap allocations during the drive phase
  /// Deterministic (virtual-time) outputs; identical on every repetition.
  std::map<std::string, double> virt;
  /// Per-layer counters of this repetition (keys are per-layer metric
  /// names; span timings are added by the caller).
  std::map<std::string, double> layer;
  long checks = 0;                    ///< correctness checks run
  std::vector<std::string> failures;  ///< correctness checks that failed
};

/// splitmix64: a tiny seeded generator whose output is the same on every
/// platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Call right before a set-up timer starts. A large allocation makes glibc
/// merge the small blocks the previous teardown freed now, untimed;
/// otherwise the set-up's first large allocation pays for that merge on
/// some repetitions and not others (0.35 ms on top of a 0.15 ms
/// multi_tenant set-up, on about half of them).
inline void settle_heap() {
  void* volatile p = std::malloc(64 << 10);
  std::free(p);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]); +inf entries sort last, so a
/// refused request counts as missing every latency limit.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Records a failed check in `r` unless `ok`.
inline void check(RepResult& r, bool ok, const std::string& what) {
  ++r.checks;
  if (!ok) r.failures.push_back(what);
}

/// Every entry of `tl` has a unique op id and start <= end.
void check_timeline_sane(RepResult& r, const psched::sim::Timeline& tl,
                         const std::string& what);
/// Every op in `ops` appears on `tl` exactly once.
void check_ops_on_timeline(RepResult& r, const psched::sim::Timeline& tl,
                           const std::vector<psched::sim::OpId>& ops,
                           const std::string& what);
/// Adds the engine's solver counters to the repetition's layer counters.
void add_engine_counters(RepResult& r, const psched::sim::Engine& eng);
/// Adds the runtime's transfer and eviction counters, and its engine's.
void add_runtime_counters(RepResult& r, const psched::sim::GpuRuntime& rt);

// --- the workloads (one repetition each) ---
RepResult paper_suite_rep(std::uint64_t seed, Size size);
RepResult engine_waves_rep(std::uint64_t seed, Size size);
RepResult multi_tenant_rep(std::uint64_t seed, Size size);

// --- once-per-run parts ---
/// Paper fidelity of the six programs at the paper's configuration
/// (virtual time; deterministic). Prints the per-cell table to stderr.
struct Fidelity {
  double speedup_vs_serial = 0;  ///< Fig. 7 geomean, 18 cells
  double paper_error = 0;        ///< mean |ln(ours/paper)|, Fig. 7 cells
  double paper_error_heldout = 0;  ///< same over the 12 Fig. 1 cells
  double graphs_ratio = 0;       ///< geomean parallel / graphs-manual
};
Fidelity paper_fidelity(bool print_table);

/// Functional correctness of the six programs: the parallel and serial
/// policies give the same checksum at each program's test scale.
void check_functional(RepResult& r);

/// The multi_tenant scenario's single-producer pass (virtual time only):
/// the latency / fairness / throughput figures of the shared runtime.
struct QosFigures {
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double jain_index = 0;
  double batch_work_per_ms = 0;
  long samples = 0;  ///< latency samples after warm-up
};
/// Runs only the single-producer pass of multi_tenant.
RepResult multi_tenant_virt(std::uint64_t seed, Size size);
/// Reads the figures out of a multi_tenant repetition's virt map.
QosFigures qos_figures(const std::map<std::string, double>& virt);

}  // namespace perfbench
