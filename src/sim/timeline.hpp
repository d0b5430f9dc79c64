// Execution timeline: the record of every completed device operation.
//
// The timeline is the primary measurement artifact of a simulation run. It
// provides the paper's headline quantities:
//   * makespan — "total time spent by GPU execution, from the first kernel
//     scheduling until the end of execution" (section V-A);
//   * the four overlap metrics CT / TC / CC / TOT of section V-F (Fig. 11);
//   * an ASCII rendering of the per-stream schedule (Fig. 10).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/interval.hpp"
#include "sim/op.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// One completed operation. Kept small (56 bytes): a long run retains one
/// per op. The name is an id into the owning Timeline's name table
/// (Timeline::name resolves it); kernel counters are folded into the
/// run-wide aggregate at record time instead of being stored per entry.
struct TimelineEntry {
  OpId op = kInvalidOp;
  OpKind kind = OpKind::Marker;
  StreamId stream = kInvalidStream;
  DeviceId device = kDefaultDevice;  ///< device the op executed on
  DeviceId peer = kInvalidDevice;    ///< CopyP2P only: source device
  std::uint32_t name = 0;            ///< id in Timeline's name table
  TimeUs start = 0;
  TimeUs end = 0;
  double bytes = 0;         ///< transfer size (transfers only)

  [[nodiscard]] TimeUs duration() const { return end - start; }
  [[nodiscard]] Interval interval() const { return {start, end}; }
};

/// Overlap metrics as defined in section V-F of the paper.
struct OverlapMetrics {
  double ct = 0;   ///< fraction of kernel time overlapped with any transfer
  double tc = 0;   ///< fraction of transfer time overlapped with any kernel
  double cc = 0;   ///< fraction of kernel time overlapped with other kernels
  double tot = 0;  ///< fraction of op time overlapped with any other op
};

class Timeline {
 public:
  using NameId = std::uint32_t;

  Timeline() { intern(""); }  // id 0: the empty name

  /// Drop every entry and the aggregates. Positions are never reused: the
  /// dropped entries advance dropped(), so a position record() returned
  /// earlier now finds nothing. The name table is kept, so ids handed out
  /// earlier (held by ops still in flight) stay valid.
  void clear() {
    dropped_ += entries_.size();
    entries_.clear();
    agg_ = Aggregates{};
  }
  /// Record one completed op and return its absolute position (stable
  /// across clear()); aggregate quantities (makespan bounds, busy totals,
  /// kernel counters from `prof`) are folded in here so the hot-path
  /// queries below are O(1) instead of rescanning the entry list.
  std::uint64_t record(const TimelineEntry& e, const KernelProfile& prof = {});

  /// Entries clear() has dropped so far: the absolute position of
  /// entries().front().
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// The entry at absolute position `pos`, or nullptr when a clear()
  /// dropped it (or no entry was recorded there yet).
  [[nodiscard]] const TimelineEntry* find(std::uint64_t pos) const {
    if (pos < dropped_ || pos - dropped_ >= entries_.size()) return nullptr;
    return &entries_[static_cast<std::size_t>(pos - dropped_)];
  }

  /// Id of `name` in the name table, adding it on first sight. Ids are
  /// dense and stable for the table's lifetime; a copied Timeline carries
  /// its table, so its entries resolve the same.
  NameId intern(const std::string& name);
  /// The name behind an id (throws std::out_of_range for an id this table
  /// never issued). The reference is valid until the next intern().
  [[nodiscard]] const std::string& name(NameId id) const {
    return names_.at(id);
  }
  [[nodiscard]] const std::string& name(const TimelineEntry& e) const {
    return name(e.name);
  }

  [[nodiscard]] const std::vector<TimelineEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// First op start (markers and host spans excluded). O(1).
  [[nodiscard]] TimeUs begin_time() const {
    return std::isfinite(agg_.begin) ? agg_.begin : 0;
  }
  /// Last op end (markers and host spans excluded). O(1).
  [[nodiscard]] TimeUs end_time() const { return agg_.end; }
  /// GPU execution time: end_time() - begin_time(). O(1).
  [[nodiscard]] TimeUs makespan() const;

  /// Sum of kernel durations (no overlap accounting). O(1).
  [[nodiscard]] TimeUs total_kernel_time() const { return agg_.kernel_time; }
  /// Sum of transfer durations (copies + faults). O(1).
  [[nodiscard]] TimeUs total_transfer_time() const {
    return agg_.transfer_time;
  }

  /// Compute the CT/TC/CC/TOT overlap fractions (section V-F).
  [[nodiscard]] OverlapMetrics overlap_metrics() const;

  /// Union of busy intervals of a given category.
  [[nodiscard]] IntervalSet cover(OpKind kind) const;
  [[nodiscard]] IntervalSet kernel_cover() const;
  [[nodiscard]] IntervalSet transfer_cover() const;

  /// Render an ASCII per-stream timeline (Fig. 10 style). `width` is the
  /// number of character columns used for the time axis.
  [[nodiscard]] std::string render_ascii(int width = 100) const;

  /// Aggregate kernel counters over the whole run. O(1).
  [[nodiscard]] const KernelProfile& total_kernel_profile() const {
    return agg_.kernel_profile;
  }

 private:
  struct Aggregates {
    TimeUs begin = kTimeInfinity;
    TimeUs end = 0;
    TimeUs kernel_time = 0;
    TimeUs transfer_time = 0;
    KernelProfile kernel_profile;
  };

  std::vector<TimelineEntry> entries_;
  std::uint64_t dropped_ = 0;
  Aggregates agg_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_ids_;
};

}  // namespace psched::sim
