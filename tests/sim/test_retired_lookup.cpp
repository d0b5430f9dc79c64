// Retired-op lookup: once an op completes, the engine finds it only through
// its 4-byte locator — the position of its TimelineEntry, or its record in
// the marker log. These tests check every retired snapshot against an
// independent oracle (a linear scan of the timeline by op id; for markers
// the stream order and the awaited event's completion time), the run_until_*
// return values, the Timeline::clear() contract (dropped entries report
// Done with start and end -1; in-flight ops still resolve in full) and that
// QoS latency sampling never builds a sample from the -1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/qos.hpp"
#include "sim/tenant.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

constexpr int kStreams = 8;
constexpr int kOps = 600;
constexpr const char* kKernelNames[] = {"k0", "k1", "k2", "k3", "k4"};

/// One op of the DAG as the test issued it: what the oracle needs.
struct Issued {
  OpId id = kInvalidOp;
  OpKind kind = OpKind::Marker;
  StreamId stream = kInvalidStream;
  TimeUs host_time = 0;
  double bytes = 0;
  EventId waits = kInvalidEvent;  ///< wait markers: the awaited event
};

/// A seeded 2-device contention DAG issued per call at staggered host
/// times: kernels, H2D/D2H/P2P copies, page faults, a cross-stream event
/// edge (record + wait marker) every few ops, one user Marker and one
/// Host op. Returns the issued ops in id order.
std::vector<Issued> build_dag(Engine& eng, std::uint64_t seed) {
  for (int s = 1; s < kStreams; ++s) {
    eng.create_stream(static_cast<DeviceId>(s % eng.num_devices()));
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Issued> issued;
  const auto add = [&](Op op, TimeUs t) {
    Issued rec;
    rec.kind = op.kind;
    rec.stream = op.stream;
    rec.host_time = t;
    rec.bytes = op.bytes;
    rec.id = eng.enqueue(op, t);
    issued.push_back(rec);
  };
  for (int i = 0; i < kOps; ++i) {
    const TimeUs t = 2.0 * (i / 50);  // host clock steps every 50 calls
    const auto s = static_cast<StreamId>(rng() % kStreams);
    const DeviceId dev = eng.stream_device(s);
    const double r = u(rng);
    Op op;
    if (r < 0.45) {
      op = test::raw_kernel(s, 2.0 + 10.0 * u(rng),
                            1.0 + static_cast<double>(rng() % 4),
                            0.5 + 0.5 * u(rng), u(rng) < 0.2 ? 50.0 : 0.0,
                            kKernelNames[i % 5]);
    } else if (r < 0.60) {
      op = test::raw_copy(s, OpKind::CopyH2D, 5e3 + 1e4 * u(rng), "h2d");
    } else if (r < 0.72) {
      op = test::raw_copy(s, OpKind::CopyD2H, 5e3 + 1e4 * u(rng), "d2h");
    } else if (r < 0.84) {
      op = test::raw_copy(s, OpKind::CopyP2P, 5e3 + 1e4 * u(rng), "p2p");
      op.peer = static_cast<DeviceId>(1 - dev);
    } else {
      op = test::raw_copy(s, OpKind::Fault, 2e3 + 5e3 * u(rng), "fault");
    }
    if (i % 6 == 5) {
      const EventId ev = eng.create_event();
      const auto from =
          static_cast<StreamId>((s + 1 + rng() % (kStreams - 1)) % kStreams);
      eng.record_event(ev, from, t);
      eng.wait_event(s, ev, t);
      Issued marker;
      marker.id = static_cast<OpId>(issued.size()) + 1;
      marker.stream = s;
      marker.host_time = t;
      marker.waits = ev;
      issued.push_back(marker);
    }
    add(std::move(op), t);
    if (i == kOps / 3) {
      Op user;  // a user Marker: zero work, no resource class
      user.kind = OpKind::Marker;
      user.stream = s;
      user.name = "user-marker";
      add(std::move(user), t);
    }
    if (i == kOps / 2) {
      Op host;  // a zero-length host span: reaches the timeline
      host.kind = OpKind::Host;
      host.stream = s;
      host.name = "host-span";
      add(std::move(host), t);
    }
  }
  return issued;
}

Engine make_engine() {
  return Engine(Machine::uniform(DeviceSpec::test_device(), 2));
}

/// The oracle's view of one retired op.
struct Expected {
  OpKind kind = OpKind::Marker;
  StreamId stream = kInvalidStream;
  std::string name;
  TimeUs start = -1;
  TimeUs end = -1;
};

/// Independent oracle: each timeline op by a linear scan of the entries for
/// its id; each marker from stream order — it starts once its stream
/// predecessor ended, its host call was issued and (wait markers) the
/// awaited event completed, and ends at that instant.
std::vector<Expected> oracle(const Engine& eng,
                             const std::vector<Issued>& issued) {
  const Timeline& tl = eng.timeline();
  std::vector<Expected> out(issued.size());
  std::map<StreamId, TimeUs> last_end;
  for (std::size_t i = 0; i < issued.size(); ++i) {
    const Issued& op = issued[i];
    Expected& x = out[i];
    x.stream = op.stream;
    if (op.kind == OpKind::Marker) {
      TimeUs at = std::max(op.host_time, last_end[op.stream]);
      if (op.waits != kInvalidEvent) {
        x.name = "wait_event";
        at = std::max(at, eng.event_done_time(op.waits));
      } else {
        x.name = "user-marker";
      }
      x.kind = OpKind::Marker;
      x.start = x.end = at;
    } else {
      const auto it = std::find_if(
          tl.entries().begin(), tl.entries().end(),
          [&op](const TimelineEntry& e) { return e.op == op.id; });
      if (it == tl.entries().end()) continue;  // dropped: stays -1
      x.kind = it->kind;
      x.stream = it->stream;
      x.name = tl.name(*it);
      x.start = it->start;
      x.end = it->end;
    }
    last_end[op.stream] = x.end;
  }
  return out;
}

void expect_snapshot(const Engine& eng, const Issued& op, const Expected& x) {
  const Op snap = eng.op(op.id);
  EXPECT_EQ(snap.state, OpState::Done) << "op " << op.id;
  EXPECT_EQ(snap.kind, x.kind) << "op " << op.id;
  EXPECT_EQ(snap.stream, x.stream) << "op " << op.id;
  EXPECT_EQ(snap.name, x.name) << "op " << op.id;
  EXPECT_EQ(snap.start_time, x.start) << "op " << op.id;
  EXPECT_EQ(snap.end_time, x.end) << "op " << op.id;
}

TEST(RetiredLookup, EveryRetiredSnapshotMatchesTheOracle) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    Engine eng = make_engine();
    const std::vector<Issued> issued = build_dag(eng, seed);
    eng.run_all();
    const std::vector<Expected> want = oracle(eng, issued);
    long markers = 0;
    long host = 0;
    long p2p = 0;
    for (std::size_t i = 0; i < issued.size(); ++i) {
      ASSERT_TRUE(eng.op_done(issued[i].id));
      expect_snapshot(eng, issued[i], want[i]);
      if (want[i].kind == OpKind::Marker) ++markers;
      if (want[i].kind == OpKind::Host) ++host;
      if (want[i].kind == OpKind::CopyP2P) ++p2p;
      // Retired timeline ops also report their entry's device and bytes.
      if (issued[i].kind != OpKind::Marker) {
        const Op snap = eng.op(issued[i].id);
        EXPECT_EQ(snap.device, eng.stream_device(issued[i].stream));
        EXPECT_EQ(snap.bytes, issued[i].bytes);
      }
    }
    EXPECT_EQ(markers, kOps / 6 + 1) << "seed " << seed;
    EXPECT_EQ(host, 1);
    EXPECT_GT(p2p, 0);
    EXPECT_EQ(eng.timeline().entries().size(),
              issued.size() - static_cast<std::size_t>(markers));
  }
}

TEST(RetiredLookup, RunUntilReturnsTheRetiredTimes) {
  Engine ref = make_engine();
  const std::vector<Issued> issued = build_dag(ref, 11);
  ref.run_all();
  const std::vector<Expected> want = oracle(ref, issued);

  // A twin engine driven op by op: each call either runs the op to
  // completion (live) or finds it already retired.
  Engine eng = make_engine();
  build_dag(eng, 11);
  for (std::size_t i = 0; i < issued.size(); ++i) {
    EXPECT_EQ(eng.run_until_op_done(issued[i].id), want[i].end)
        << "op " << issued[i].id;
  }
  eng.run_all();
  for (std::size_t i = 0; i < issued.size(); ++i) {
    EXPECT_EQ(eng.run_until_op_done(issued[i].id), want[i].end);
    expect_snapshot(eng, issued[i], want[i]);
    if (issued[i].waits != kInvalidEvent) {
      EXPECT_EQ(eng.run_until_event(issued[i].waits),
                ref.event_done_time(issued[i].waits));
    }
  }
}

TEST(RetiredLookup, ClearDropsRetiredEntriesButNotInFlightOps) {
  Engine ref = make_engine();
  const std::vector<Issued> issued = build_dag(ref, 5);
  ref.run_all();
  const std::vector<Expected> want = oracle(ref, issued);

  Engine eng = make_engine();
  build_dag(eng, 5);
  eng.advance_to(ref.now() / 2);
  std::vector<char> retired(issued.size());
  for (std::size_t i = 0; i < issued.size(); ++i) {
    retired[i] = eng.op_done(issued[i].id) ? 1 : 0;
  }
  ASSERT_GT(std::count(retired.begin(), retired.end(), 1), 50);
  ASSERT_GT(std::count(retired.begin(), retired.end(), 0), 50);
  const std::size_t held = eng.timeline().entries().size();
  eng.timeline().clear();
  EXPECT_EQ(eng.timeline().dropped(), held);

  const auto expect_dropped = [&eng](OpId id) {
    const Op snap = eng.op(id);
    EXPECT_EQ(snap.state, OpState::Done) << "op " << id;
    EXPECT_EQ(snap.start_time, -1) << "op " << id;
    EXPECT_EQ(snap.end_time, -1) << "op " << id;
  };
  for (std::size_t i = 0; i < issued.size(); ++i) {
    if (!retired[i] || issued[i].kind == OpKind::Marker) continue;
    expect_dropped(issued[i].id);
    EXPECT_EQ(eng.run_until_op_done(issued[i].id), -1);
  }

  // The clear changes no schedule: every op still in flight at the clear
  // completes exactly as in the reference run and resolves in full.
  eng.run_all();
  const std::vector<Expected> after = oracle(eng, issued);
  for (std::size_t i = 0; i < issued.size(); ++i) {
    if (retired[i] && issued[i].kind != OpKind::Marker) {
      expect_dropped(issued[i].id);
      continue;
    }
    // Markers never reach the timeline: the clear cannot drop them.
    expect_snapshot(eng, issued[i], want[i]);
    if (issued[i].kind != OpKind::Marker) {
      EXPECT_EQ(after[i].end, want[i].end);  // found in the new entries
    }
  }
  EXPECT_EQ(eng.now(), ref.now());
}

TEST(RetiredLookup, QosTickTakesNoSampleFromADroppedEntry) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t = mgr.create_tenant({"t"});
  const StreamId s = t.create_stream();
  QosManager qos(mgr);
  LaunchSpec k;
  k.name = "k";
  k.config = LaunchConfig::linear(8, 512);
  k.profile.flops_sp = 2.56e6;

  // Control: held entries give real latency samples.
  for (int i = 0; i < 4; ++i) t.launch(s, k);
  rt.synchronize_device();
  qos.tick();
  EXPECT_EQ(t.qos_stats().completed, 4);
  EXPECT_GT(t.qos_stats().p50_us, 1.0);

  // Completed, then dropped by a clear before the tick saw them: they
  // count as completed, but no latency sample is built from end -1.
  qos.reset_stats();
  for (int i = 0; i < 4; ++i) t.launch(s, k);
  rt.synchronize_device();
  rt.engine().timeline().clear();
  qos.tick();
  const QosTenantStats st = t.qos_stats();
  EXPECT_EQ(st.completed, 8);
  EXPECT_EQ(st.outstanding, 0);
  EXPECT_EQ(st.p50_us, 0);
  EXPECT_EQ(st.p99_us, 0);
}

TEST(OpLocatorTest, EncodesEachKindAndThrowsInsteadOfWrapping) {
  const std::uint64_t max_pos = (std::uint64_t{1} << 31) - 1;
  const std::size_t max_small = (std::size_t{1} << 30) - 1;
  EXPECT_EQ(OpLocator::entry(0).kind(), OpLocator::Kind::Entry);
  EXPECT_EQ(OpLocator::entry(max_pos).index(), max_pos);
  EXPECT_EQ(OpLocator::entry(max_pos).slot(), -1);
  EXPECT_EQ(OpLocator::live(max_small).kind(), OpLocator::Kind::Live);
  EXPECT_EQ(OpLocator::live(max_small).slot(),
            static_cast<std::int32_t>(max_small));
  EXPECT_EQ(OpLocator::marker(max_small).kind(), OpLocator::Kind::Marker);
  EXPECT_EQ(OpLocator::marker(max_small).index(), max_small);
  EXPECT_EQ(OpLocator::marker(0).slot(), -1);
  try {
    (void)OpLocator::entry(max_pos + 1);
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.value, max_pos + 1);
    EXPECT_EQ(e.limit, max_pos + 1);
    EXPECT_STREQ(e.index, "timeline position");
  }
  EXPECT_THROW((void)OpLocator::live(max_small + 1), CapacityError);
  EXPECT_THROW((void)OpLocator::marker(max_small + 1), CapacityError);
}

}  // namespace
}  // namespace psched::sim
