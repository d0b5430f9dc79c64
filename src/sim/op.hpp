// Device operation descriptors used by the engine and recorded in timelines.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/types.hpp"

namespace psched::sim {

/// Aggregate hardware counters for one kernel launch. These drive both the
/// timing model (FLOPs + DRAM traffic) and the Fig. 12 profiler metrics
/// (L2 traffic, instruction count).
struct KernelProfile {
  double flops_sp = 0;      ///< single-precision floating point operations
  double flops_dp = 0;      ///< double-precision floating point operations
  double dram_bytes = 0;    ///< bytes moved to/from device memory
  double l2_bytes = 0;      ///< bytes moved through the L2 cache
  double instructions = 0;  ///< total executed instructions (IPC metric)

  /// Issue-slot duty cycle in (0, 1]: the fraction of its resident warp
  /// slots the kernel can actually keep busy. 1.0 is a well-pipelined
  /// streaming kernel; low values model latency-bound kernels (strided
  /// access, long dependency chains) that leave the device under-utilized
  /// when run alone — exactly the kernels that profit from space-sharing
  /// (the paper's ML "tall matrix" kernel with IPC 0.04, section V-F).
  double duty = 1.0;

  [[nodiscard]] double flops_total() const { return flops_sp + flops_dp; }

  /// Aggregation for whole-run profiling (Fig. 12); duty is a per-launch
  /// shape parameter, not a counter, and is deliberately not summed.
  KernelProfile& operator+=(const KernelProfile& o) {
    flops_sp += o.flops_sp;
    flops_dp += o.flops_dp;
    dram_bytes += o.dram_bytes;
    l2_bytes += o.l2_bytes;
    instructions += o.instructions;
    return *this;
  }

  friend bool operator==(const KernelProfile&, const KernelProfile&) = default;
};

/// Execution state of an op inside the engine.
enum class OpState { Queued, Running, Done };

/// One device operation: a node in a stream FIFO. This is the descriptor
/// callers fill for Engine::enqueue / Submission::enqueue and the snapshot
/// Engine::op(id) returns; the engine itself keeps only an OpCore per live
/// op (plus a cold slot for `prof` and `on_complete`).
///
/// `work` is the total abstract work: for kernels it is the solo execution
/// time in microseconds (execution at rate 1.0 with an uncontended device);
/// for transfers it is the byte count (rate is then bytes/us). The fluid
/// resource model assigns each running op an instantaneous rate.
struct Op {
  OpId id = kInvalidOp;
  OpKind kind = OpKind::Marker;
  StreamId stream = kInvalidStream;
  /// Device the op executes on — derived from the stream at enqueue.
  DeviceId device = kDefaultDevice;
  /// CopyP2P only: the *source* device (the destination is `device`, the
  /// stream's device). Selects the directed link class (peer -> device).
  DeviceId peer = kInvalidDevice;
  /// Owning application — inherited from the stream at enqueue (like
  /// `device`), so recorded replays and transactions re-derive it
  /// consistently. Drives per-tenant weighted fair sharing and the
  /// per-tenant completion counters.
  TenantId tenant = kDefaultTenant;
  std::string name;

  TimeUs enqueue_time = 0;  ///< host time of the API call; earliest start

  // --- kernel demands (valid when kind == Kernel) ---
  // sm_demand and occupancy are folded into the op's device fill at
  // enqueue; snapshots do not report them back.
  double sm_demand = 0;   ///< SMs needed to run at full rate
  double occupancy = 0;   ///< per-SM thread occupancy in [0,1]
  double bw_need = 0;     ///< DRAM bytes/us consumed when running at rate 1
  KernelProfile prof;

  // --- transfer demands (valid for CopyH2D/CopyD2H/Fault) ---
  double bytes = 0;

  // --- progress (`work` is input; the rest is snapshot output, ignored
  // on enqueue) ---
  double work = 0;
  double done = 0;
  OpState state = OpState::Queued;
  TimeUs start_time = -1;
  TimeUs end_time = -1;

  /// Invoked exactly once when the op completes (functional execution of
  /// kernels, residency bookkeeping, test hooks). Not carried by snapshots.
  std::function<void()> on_complete;

  [[nodiscard]] double remaining() const { return work - done; }
};

/// The engine's hot per-op record: only what scheduling reads. Live ops sit
/// in a slab of these; the rarely-touched rest (`prof`, `on_complete`, the
/// events gated on the op) lives in a parallel cold slot, and the name is
/// an id into the Timeline's name table.
struct OpCore {
  OpId id = kInvalidOp;
  TimeUs enqueue_time = 0;
  TimeUs start_time = -1;
  double work = 0;
  double bytes = 0;
  double bw_need = 0;
  /// Kernels: device fill (sm_demand / sm_count) * occupancy, computed once
  /// at enqueue; the solver reads it at class join.
  double fill = 0;
  /// Event that must be complete before the op may start (wait markers
  /// only; kInvalidEvent otherwise).
  EventId wait = kInvalidEvent;
  StreamId stream = kInvalidStream;
  DeviceId device = kDefaultDevice;
  DeviceId peer = kInvalidDevice;
  TenantId tenant = kDefaultTenant;
  /// Position inside the engine's per-resource-class member list (swap-and-
  /// pop removal); -1 while not running or for rate-less kinds.
  std::int32_t class_pos = -1;
  /// Sequence stamp of this op's live start-heap entry (0 = none). Entries
  /// whose stamp no longer matches are stale; the engine counts them and
  /// compacts the heap when they outnumber live entries.
  std::uint32_t heap_seq = 0;
  std::uint32_t name = 0;  ///< id in the Timeline's name table
  OpKind kind = OpKind::Marker;
  OpState state = OpState::Queued;
};

/// Where the engine finds an op by id — 4 bytes per op id ever created.
/// While the op is live it is its slab slot. Once it retires it is the
/// absolute Timeline position of its entry (Timeline::find), or, for
/// markers (which never reach the timeline), an index into the engine's
/// marker log. Positions below 2^31 and slots / marker indices below 2^30
/// fit; anything larger throws CapacityError instead of wrapping.
class OpLocator {
 public:
  enum class Kind { Entry, Live, Marker };

  [[nodiscard]] static OpLocator live(std::size_t slot) {
    return OpLocator(kLiveTag | fit(slot, kSmallLimit, "slab slot"));
  }
  [[nodiscard]] static OpLocator entry(std::uint64_t position) {
    return OpLocator(fit(position, kEntryLimit, "timeline position"));
  }
  [[nodiscard]] static OpLocator marker(std::size_t index) {
    return OpLocator(kMarkerTag |
                     fit(index, kSmallLimit, "marker log index"));
  }

  [[nodiscard]] Kind kind() const {
    if (bits_ < kLiveTag) return Kind::Entry;
    return bits_ < kMarkerTag ? Kind::Live : Kind::Marker;
  }
  /// The slot, position or marker index (per kind()).
  [[nodiscard]] std::uint32_t index() const {
    return bits_ < kLiveTag ? bits_ : bits_ & kIndexMask;
  }
  /// Slab slot of a live op; -1 once it retired. The engine's hot lookup.
  [[nodiscard]] std::int32_t slot() const {
    return kind() == Kind::Live ? static_cast<std::int32_t>(index()) : -1;
  }

 private:
  // Top bit clear: a timeline position. Tags 10 / 11: slab slot / marker.
  static constexpr std::uint32_t kLiveTag = 0x8000'0000u;
  static constexpr std::uint32_t kMarkerTag = 0xC000'0000u;
  static constexpr std::uint64_t kEntryLimit = std::uint64_t{1} << 31;
  static constexpr std::uint64_t kSmallLimit = std::uint64_t{1} << 30;
  static constexpr std::uint32_t kIndexMask = kSmallLimit - 1;

  static std::uint32_t fit(std::uint64_t v, std::uint64_t limit,
                           const char* what) {
    if (v >= limit) throw CapacityError(what, v, limit);
    return static_cast<std::uint32_t>(v);
  }
  explicit OpLocator(std::uint32_t bits) : bits_(bits) {}

  std::uint32_t bits_;
};

}  // namespace psched::sim
