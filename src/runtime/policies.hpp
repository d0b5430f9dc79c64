// Scheduling policy knobs (section IV-C of the paper, extended with
// multi-GPU placement).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace psched::sim {
class GpuRuntime;
}

namespace psched::rt {

class Computation;

/// Serial = the original GrCUDA scheduler: every computation on the default
/// stream, host blocks after each one, no dependency computation.
/// Parallel = this paper's scheduler: dependency-driven asynchronous
/// execution on multiple streams.
enum class SchedulePolicy { Serial, Parallel };

/// How the stream manager picks a stream for a new computation.
enum class StreamPolicy {
  /// Paper default: first child inherits the parent's stream; otherwise
  /// reuse an idle stream (FIFO creation order); create only when none idle.
  FifoReuse,
  /// Always open a fresh stream unless inheriting from a parent.
  AlwaysNew,
  /// Everything on one non-default stream (the "simpler policy" of IV-C):
  /// still asynchronous w.r.t. the host, but no device-side concurrency.
  SingleStream,
};

/// How the scheduler places a computation on a device of the machine
/// roster, *before* stream acquisition. All policies respect stream
/// inheritance: a computation that is the first child of a scheduled
/// parent lands on the parent's device so it can reuse the parent's
/// stream without a synchronization event.
enum class DevicePolicy {
  /// Compatibility mode: everything on device 0 — with a 1-GPU roster (or
  /// this policy on a larger one) scheduling is bit-identical to the
  /// single-GPU engine.
  SingleDevice,
  /// Cycle new root computations across the roster.
  RoundRobin,
  /// Place where the computation's input arrays already reside: pick the
  /// device with the fewest bytes to migrate (ties cycle round-robin).
  MinTransfer,
  /// Pressure- and tenant-aware placement: steer a tenant's computations
  /// away from devices where its *own* pages are being evicted. The
  /// per-(tenant, device) bytes_evicted counters are sampled over a
  /// sliding placement window (a rate, not an all-time total, so a device
  /// that stopped thrashing becomes eligible again); among devices at the
  /// minimum pressure the MinTransfer cost decides, then round-robin.
  MinPressure,
};

/// Chooses the device for each computation according to a DevicePolicy.
/// Stateful (round-robin cursor); owned by the execution context, whose
/// tenant's eviction pressure MinPressure reads.
class DevicePlacer {
 public:
  DevicePlacer(sim::GpuRuntime& gpu, DevicePolicy policy,
               sim::TenantId tenant = sim::kDefaultTenant);

  /// Pick the device for `c`. The computation's parent links must already
  /// be wired (placement follows stream inheritance first).
  [[nodiscard]] sim::DeviceId place(const Computation& c);

  [[nodiscard]] DevicePolicy policy() const { return policy_; }

 private:
  /// Bytes each roster device would have to migrate to run `c` now, into
  /// cost_ (shared by MinTransfer and MinPressure's tie-break).
  void transfer_costs(const Computation& c);
  [[nodiscard]] sim::DeviceId min_transfer_device(const Computation& c);
  [[nodiscard]] sim::DeviceId min_pressure_device(const Computation& c);
  /// Pick among ties_ round-robin (single entry short-circuits).
  [[nodiscard]] sim::DeviceId pick_tie();

  /// Placements between pressure-baseline refreshes: the window that
  /// turns the monotone eviction counters into a recent-pressure rate.
  static constexpr int kPressureWindow = 64;

  sim::GpuRuntime* gpu_;
  DevicePolicy policy_;
  sim::TenantId tenant_;
  int next_rr_ = 0;
  int pressure_tick_ = 0;
  /// The tenant's eviction-counter baseline of the current window, per
  /// device.
  std::vector<std::size_t> pressure_base_;
  // Per-placement scratch, reused so placing allocates nothing.
  std::vector<double> cost_;           ///< per-device transfer bytes
  std::vector<sim::DeviceId> ties_;    ///< devices tied at the best score
  std::vector<sim::DeviceId> low_;     ///< devices at the lowest pressure
};

[[nodiscard]] inline const char* to_string(SchedulePolicy p) {
  return p == SchedulePolicy::Serial ? "serial" : "parallel";
}

[[nodiscard]] inline const char* to_string(StreamPolicy p) {
  switch (p) {
    case StreamPolicy::FifoReuse: return "fifo-reuse";
    case StreamPolicy::AlwaysNew: return "always-new";
    case StreamPolicy::SingleStream: return "single-stream";
  }
  return "?";
}

[[nodiscard]] inline const char* to_string(DevicePolicy p) {
  switch (p) {
    case DevicePolicy::SingleDevice: return "single-device";
    case DevicePolicy::RoundRobin: return "round-robin";
    case DevicePolicy::MinTransfer: return "min-transfer";
    case DevicePolicy::MinPressure: return "min-pressure";
  }
  return "?";
}

}  // namespace psched::rt
