#include "runtime/policies.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "runtime/computation.hpp"
#include "runtime/device_array.hpp"
#include "sim/runtime.hpp"

namespace psched::rt {

DevicePlacer::DevicePlacer(sim::GpuRuntime& gpu, DevicePolicy policy,
                           sim::TenantId tenant)
    : gpu_(&gpu),
      policy_(policy),
      tenant_(tenant),
      pressure_base_(static_cast<std::size_t>(gpu.num_devices()), 0) {}

sim::DeviceId DevicePlacer::place(const Computation& c) {
  const int ndev = gpu_->num_devices();
  if (ndev == 1 || policy_ == DevicePolicy::SingleDevice) {
    return sim::kDefaultDevice;
  }

  // Stream inheritance comes first for every policy: the first child of a
  // scheduled parent reuses the parent's stream (no synchronization event),
  // which pins it to the parent's device.
  for (const Computation* p : c.parents) {
    if (p->stream == sim::kInvalidStream) continue;  // synchronous parent
    if (p->first_child == &c && p->device != sim::kInvalidDevice) {
      return p->device;
    }
  }

  switch (policy_) {
    case DevicePolicy::RoundRobin:
      return static_cast<sim::DeviceId>(next_rr_++ % ndev);
    case DevicePolicy::MinTransfer:
      return min_transfer_device(c);
    case DevicePolicy::MinPressure:
      return min_pressure_device(c);
    case DevicePolicy::SingleDevice:
      break;  // handled above
  }
  return sim::kDefaultDevice;
}

void DevicePlacer::transfer_costs(const Computation& c) {
  const int ndev = gpu_->num_devices();
  // Bytes each device would have to migrate to run `c` right now. `uses`
  // lists an array passed as several arguments once, so it costs once.
  cost_.assign(static_cast<std::size_t>(ndev), 0.0);
  for (const Computation::Use& use : c.uses) {
    const sim::ArrayInfo& info = gpu_->memory().info(use.array->sim_id);
    for (sim::DeviceId d = 0; d < ndev; ++d) {
      if (info.needs_transfer_to(d)) {
        cost_[static_cast<std::size_t>(d)] += static_cast<double>(info.bytes);
      }
    }
  }
}

sim::DeviceId DevicePlacer::pick_tie() {
  if (ties_.size() == 1) return ties_.front();
  // All-equal scores (e.g. host-fresh inputs): spread the load like
  // round-robin instead of piling everything onto device 0.
  return ties_[static_cast<std::size_t>(next_rr_++) % ties_.size()];
}

sim::DeviceId DevicePlacer::min_transfer_device(const Computation& c) {
  const int ndev = gpu_->num_devices();
  transfer_costs(c);
  double best = std::numeric_limits<double>::infinity();
  for (const double v : cost_) best = std::min(best, v);
  ties_.clear();
  for (sim::DeviceId d = 0; d < ndev; ++d) {
    if (cost_[static_cast<std::size_t>(d)] == best) ties_.push_back(d);
  }
  return pick_tie();
}

sim::DeviceId DevicePlacer::min_pressure_device(const Computation& c) {
  const int ndev = gpu_->num_devices();
  // Pressure is the tenant's own eviction-byte delta over the current
  // placement window: monotone counters become a recent rate, so a
  // device that stopped thrashing regains eligibility. The first window
  // baselines at zero — all-time pressure — and every kPressureWindow
  // placements the baseline advances to the counters' current value,
  // forgetting old thrash.
  if (pressure_tick_ >= kPressureWindow) {
    for (sim::DeviceId d = 0; d < ndev; ++d) {
      pressure_base_[static_cast<std::size_t>(d)] =
          gpu_->tenant_bytes_evicted(tenant_, d);
    }
    pressure_tick_ = 0;
  }
  ++pressure_tick_;

  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (sim::DeviceId d = 0; d < ndev; ++d) {
    const std::size_t p = gpu_->tenant_bytes_evicted(tenant_, d) -
                          pressure_base_[static_cast<std::size_t>(d)];
    best = std::min(best, p);
  }
  low_.clear();
  for (sim::DeviceId d = 0; d < ndev; ++d) {
    const std::size_t p = gpu_->tenant_bytes_evicted(tenant_, d) -
                          pressure_base_[static_cast<std::size_t>(d)];
    if (p == best) low_.push_back(d);
  }
  if (low_.size() == 1) return low_.front();
  // Among equally unpressured devices, fewest bytes to migrate wins.
  transfer_costs(c);
  double best_cost = std::numeric_limits<double>::infinity();
  for (const sim::DeviceId d : low_) {
    best_cost = std::min(best_cost, cost_[static_cast<std::size_t>(d)]);
  }
  ties_.clear();
  for (const sim::DeviceId d : low_) {
    if (cost_[static_cast<std::size_t>(d)] == best_cost) ties_.push_back(d);
  }
  return pick_tie();
}

}  // namespace psched::rt
