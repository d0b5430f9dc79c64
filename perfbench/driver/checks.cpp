#include <algorithm>

#include "common.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

using namespace psched;

namespace {

/// Occurrences of each op id on the timeline, indexed by id.
std::vector<std::uint32_t> id_counts(const sim::Timeline& tl) {
  sim::OpId max_id = 0;
  for (const sim::TimelineEntry& e : tl.entries()) max_id = std::max(max_id, e.op);
  std::vector<std::uint32_t> seen(static_cast<std::size_t>(max_id) + 1, 0);
  for (const sim::TimelineEntry& e : tl.entries()) {
    if (e.op >= 0) ++seen[static_cast<std::size_t>(e.op)];
  }
  return seen;
}

}  // namespace

void check_timeline_sane(RepResult& r, const sim::Timeline& tl,
                         const std::string& what) {
  bool ordered = true;
  bool valid_ids = true;
  for (const sim::TimelineEntry& e : tl.entries()) {
    ordered = ordered && e.start <= e.end;
    valid_ids = valid_ids && e.op >= 0;
  }
  check(r, ordered, what + "every timeline entry has start <= end");
  const auto seen = id_counts(tl);
  check(r, valid_ids && std::all_of(seen.begin(), seen.end(),
                                    [](std::uint32_t n) { return n <= 1; }),
        what + "no op appears on the timeline twice");
}

void check_ops_on_timeline(RepResult& r, const sim::Timeline& tl,
                           const std::vector<sim::OpId>& ops,
                           const std::string& what) {
  const auto seen = id_counts(tl);
  const bool ok = std::all_of(ops.begin(), ops.end(), [&](sim::OpId id) {
    return id >= 0 && static_cast<std::size_t>(id) < seen.size() &&
           seen[static_cast<std::size_t>(id)] == 1;
  });
  check(r, ok, what + ": every op the driver issued is on the timeline once");
}

void add_runtime_counters(RepResult& r, const sim::GpuRuntime& rt) {
  r.layer["runtime.bytes_h2d"] += rt.bytes_h2d();
  r.layer["runtime.bytes_faulted"] += rt.bytes_faulted();
  r.layer["runtime.bytes_evicted"] += static_cast<double>(rt.bytes_evicted());
  r.layer["runtime.evict_ops"] += static_cast<double>(rt.evict_ops());
  r.layer["runtime.prefetch_bytes"] += rt.prefetch_bytes();
  r.layer["runtime.wasted_prefetch_bytes"] +=
      static_cast<double>(rt.wasted_prefetch_bytes());
  add_engine_counters(r, rt.engine());
}

void add_engine_counters(RepResult& r, const sim::Engine& eng) {
  r.layer["engine.solves"] += static_cast<double>(eng.solve_count());
  r.layer["engine.solved_ops"] += static_cast<double>(eng.solved_ops());
  r.layer["engine.member_touches"] +=
      static_cast<double>(eng.member_touch_count());
  r.layer["engine.full_scans"] += static_cast<double>(eng.full_scan_count());
}

}  // namespace perfbench
