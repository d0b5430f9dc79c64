// CUDA stream manager (section IV-C), device-aware.
//
// Allocation and management of streams is transparent. With the paper's
// default policy the first child of a computation inherits its parent's
// stream (no synchronization event needed there); other computations reuse
// an idle stream — preferring the earliest-created one, as the paper's FIFO
// scan does — and a new stream is created only when none is idle.
//
// On a multi-GPU roster the manager keeps one pool (and one idle free-list)
// per device: a computation placed on device d by the DevicePolicy only
// ever acquires a stream of device d, and inheritance is honored only when
// the parent's stream lives on the same device.
//
// Idle streams are tracked with per-device free-lists fed by the engine's
// stream-drained callback instead of rescanning the whole pool per acquire
// (which made a run of n acquires O(pool^2)): the min-heap yields the
// earliest-created candidate in O(log pool), and a candidate that became
// busy again since it drained (a completion callback may re-enqueue work)
// is lazily discarded on pop.
//
// Multi-tenant sharing: several managers — one per app Context, each with
// its own tenant — may coexist on one GpuRuntime. The engine broadcasts
// every stream drain to every registered observer; note_idle() drops
// streams outside this manager's pool (the pool_device_ map doubles as
// the ownership test), so tenants never reuse each other's streams, and
// every stream created here belongs to the manager's tenant (the owning
// Context's), which the ops issued on it then carry.
#pragma once

#include <queue>
#include <vector>

#include "runtime/computation.hpp"
#include "runtime/policies.hpp"
#include "sim/runtime.hpp"

namespace psched::rt {

class StreamManager {
 public:
  /// `gpu` must outlive this manager: construction registers a
  /// stream-idle observer on its engine and destruction unregisters it
  /// (the Context that owns a StreamManager already takes GpuRuntime& on
  /// the same terms). Streams are created for `tenant`.
  StreamManager(sim::GpuRuntime& gpu, StreamPolicy policy,
                sim::TenantId tenant = sim::kDefaultTenant);
  ~StreamManager();

  StreamManager(const StreamManager&) = delete;
  StreamManager& operator=(const StreamManager&) = delete;

  /// Pick (and possibly create) the execution stream for `c` on the device
  /// its placement chose (c.device; kInvalidDevice means device 0). The
  /// computation's parent links must already be wired.
  [[nodiscard]] sim::StreamId acquire(Computation& c);

  [[nodiscard]] StreamPolicy policy() const { return policy_; }
  /// Streams created so far, across all devices / on one device.
  [[nodiscard]] std::size_t num_streams() const { return pool_.size(); }
  [[nodiscard]] std::size_t num_streams(sim::DeviceId device) const;
  [[nodiscard]] const std::vector<sim::StreamId>& streams() const {
    return pool_;
  }

 private:
  using IdleHeap = std::priority_queue<sim::StreamId,
                                       std::vector<sim::StreamId>,
                                       std::greater<>>;
  struct DeviceState {
    std::vector<sim::StreamId> pool;  ///< this device's streams, FIFO order
    /// Idle candidates, earliest-created first. May hold stale entries
    /// (stream busy again) and duplicates; acquire() revalidates on pop.
    IdleHeap idle;
  };

  [[nodiscard]] sim::StreamId inherit_from_parent(const Computation& c,
                                                  sim::DeviceId device) const;
  /// Engine callback: stream `s` drained; remember it if it is ours.
  void note_idle(sim::StreamId s);
  sim::StreamId create_pooled_stream(sim::DeviceId device);

  sim::GpuRuntime* gpu_;
  StreamPolicy policy_;
  sim::TenantId tenant_;
  std::vector<DeviceState> devices_;  ///< indexed by DeviceId
  std::vector<sim::StreamId> pool_;   ///< all streams created, in FIFO order
  /// Indexed by stream id: owning device if the stream is pooled here,
  /// kInvalidDevice otherwise.
  std::vector<sim::DeviceId> pool_device_;
  int idle_observer_ = 0;  ///< engine observer token (0 = none)
};

}  // namespace psched::rt
