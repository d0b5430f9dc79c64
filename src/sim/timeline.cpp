#include "sim/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace psched::sim {

namespace {

bool counts_for_makespan(const TimelineEntry& e) {
  return e.kind != OpKind::Marker && e.kind != OpKind::Host;
}

}  // namespace

std::uint64_t Timeline::record(const TimelineEntry& e,
                               const KernelProfile& prof) {
  if (counts_for_makespan(e)) {
    agg_.begin = std::min(agg_.begin, e.start);
    agg_.end = std::max(agg_.end, e.end);
  }
  if (e.kind == OpKind::Kernel) {
    agg_.kernel_time += e.duration();
    agg_.kernel_profile += prof;
  } else if (is_transfer(e.kind)) {
    agg_.transfer_time += e.duration();
  }
  entries_.push_back(e);
  return dropped_ + entries_.size() - 1;
}

Timeline::NameId Timeline::intern(const std::string& name) {
  const auto [it, added] =
      name_ids_.try_emplace(name, static_cast<NameId>(names_.size()));
  if (added) names_.push_back(name);
  return it->second;
}

TimeUs Timeline::makespan() const {
  if (entries_.empty()) return 0;
  const TimeUs b = begin_time();
  const TimeUs e = end_time();
  return e > b ? e - b : 0;
}

IntervalSet Timeline::cover(OpKind kind) const {
  std::vector<Interval> ivs;
  for (const auto& e : entries_) {
    if (e.kind == kind) ivs.push_back(e.interval());
  }
  return IntervalSet(std::move(ivs));
}

IntervalSet Timeline::kernel_cover() const { return cover(OpKind::Kernel); }

IntervalSet Timeline::transfer_cover() const {
  std::vector<Interval> ivs;
  for (const auto& e : entries_) {
    if (is_transfer(e.kind)) ivs.push_back(e.interval());
  }
  return IntervalSet(std::move(ivs));
}

OverlapMetrics Timeline::overlap_metrics() const {
  // One sweep over the sorted endpoints of the counted entries, tracking
  // the number of active kernels k and active transfers x. The part of an
  // entry that overlaps the union of all *other* entries is exactly the
  // part where at least two entries are active, so over each segment dt:
  //   CT += k*dt if x>0,  TC += x*dt if k>0,  CC += k*dt if k>=2,
  //   TOT += (k+x)*dt if k+x>=2.
  // Intervals are half-open: every event at a timestamp is applied before
  // the next segment is measured, so touching endpoints never overlap.
  struct Event {
    TimeUs t;
    int dk;
    int dx;
  };
  std::vector<Event> events;
  events.reserve(2 * entries_.size());
  for (const auto& e : entries_) {
    if (!counts_for_makespan(e) || e.end <= e.start) continue;
    const int k = e.kind == OpKind::Kernel ? 1 : 0;
    const int x = is_transfer(e.kind) ? 1 : 0;
    events.push_back({e.start, k, x});
    events.push_back({e.end, -k, -x});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  TimeUs kernel_total = 0, kernel_ct = 0, kernel_cc = 0;
  TimeUs transfer_total = 0, transfer_tc = 0;
  TimeUs any_total = 0, any_overlap = 0;
  long k = 0, x = 0;
  TimeUs prev = events.empty() ? 0 : events.front().t;
  for (const Event& ev : events) {
    if (ev.t > prev) {
      const TimeUs dt = ev.t - prev;
      const TimeUs kernel_time = static_cast<TimeUs>(k) * dt;
      const TimeUs transfer_time = static_cast<TimeUs>(x) * dt;
      kernel_total += kernel_time;
      transfer_total += transfer_time;
      any_total += kernel_time + transfer_time;
      if (x > 0) kernel_ct += kernel_time;
      if (k > 0) transfer_tc += transfer_time;
      if (k >= 2) kernel_cc += kernel_time;
      if (k + x >= 2) any_overlap += kernel_time + transfer_time;
      prev = ev.t;
    }
    k += ev.dk;
    x += ev.dx;
  }

  OverlapMetrics m;
  m.ct = kernel_total > 0 ? kernel_ct / kernel_total : 0;
  m.tc = transfer_total > 0 ? transfer_tc / transfer_total : 0;
  m.cc = kernel_total > 0 ? kernel_cc / kernel_total : 0;
  m.tot = any_total > 0 ? any_overlap / any_total : 0;
  return m;
}

std::string Timeline::render_ascii(int width) const {
  if (width < 1) {
    throw ApiError("Timeline::render_ascii: width must be >= 1, got " +
                   std::to_string(width));
  }
  std::ostringstream out;
  const TimeUs t0 = begin_time();
  const TimeUs t1 = end_time();
  const TimeUs span = std::max<TimeUs>(t1 - t0, 1e-9);

  std::map<StreamId, std::vector<const TimelineEntry*>> by_stream;
  for (const auto& e : entries_) {
    if (!counts_for_makespan(e)) continue;
    by_stream[e.stream].push_back(&e);
  }

  out << "timeline: " << t0 << " .. " << t1 << " us (makespan "
      << makespan() << " us)\n";
  for (auto& [stream, ops] : by_stream) {
    std::string row(static_cast<std::size_t>(width), '.');
    std::sort(ops.begin(), ops.end(),
              [](const TimelineEntry* a, const TimelineEntry* b) {
                return a->start < b->start;
              });
    for (const TimelineEntry* e : ops) {
      int lo = static_cast<int>((e->start - t0) / span * width);
      int hi = static_cast<int>((e->end - t0) / span * width);
      lo = std::clamp(lo, 0, width - 1);
      hi = std::clamp(hi, lo + 1, width);
      char c = '?';
      switch (e->kind) {
        case OpKind::Kernel: {
          const std::string& n = name(*e);
          c = n.empty() ? 'K' : n[0];
          break;
        }
        case OpKind::CopyH2D: c = '>'; break;
        case OpKind::CopyD2H: c = '<'; break;
        case OpKind::Fault: c = 'f'; break;
        case OpKind::CopyP2P: c = 'p'; break;
        default: c = '.'; break;
      }
      for (int i = lo; i < hi; ++i) row[static_cast<std::size_t>(i)] = c;
    }
    out << "S" << stream << " |" << row << "|\n";
  }
  // Legend of kernels per stream.
  for (auto& [stream, ops] : by_stream) {
    for (const TimelineEntry* e : ops) {
      if (e->kind == OpKind::Kernel) {
        out << "  S" << stream << " " << name(*e) << " [" << e->start << ", "
            << e->end << ") us\n";
      }
    }
  }
  return out.str();
}

}  // namespace psched::sim
