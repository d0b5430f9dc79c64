#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "runtime/dag.hpp"
#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

/// Vertices reference their names, which must outlive the recorder.
const std::string& stable_name(const std::string& label) {
  static std::set<std::string> names;
  return *names.insert(label).first;
}

Computation make_comp(long id, const std::string& label, double solo_us = 10,
                      double bytes = 0) {
  Computation c;
  c.id = id;
  c.name = &stable_name(label);
  c.solo_us = solo_us;
  c.transfer_bytes = bytes;
  return c;
}

// Reference for critical_path_us(): the same forward pass, but scanning the
// whole edge list for every vertex's in-edges, O(V * E). Kept here as the
// oracle for the counting-sort version.
double critical_path_oracle(const DagRecorder& dag, double pcie_bytes_per_us) {
  const auto& vs = dag.vertices();
  std::vector<double> longest(vs.size(), 0);
  double best = 0, epoch_floor = 0, epoch_best = 0;
  long epoch = 0;
  auto own_cost = [pcie_bytes_per_us](const DagRecorder::Vertex& v) {
    return v.solo_us + (pcie_bytes_per_us > 0
                            ? v.transfer_bytes / pcie_bytes_per_us
                            : 0);
  };
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (vs[i].epoch != epoch) {
      epoch_floor = std::max(epoch_floor, epoch_best);
      epoch = vs[i].epoch;
    }
    longest[i] = epoch_floor + own_cost(vs[i]);
    for (const auto& [from, to] : dag.edges()) {
      if (static_cast<std::size_t>(to) != i) continue;
      longest[i] = std::max(longest[i],
                            longest[static_cast<std::size_t>(from)] +
                                own_cost(vs[i]));
    }
    epoch_best = std::max(epoch_best, longest[i]);
    best = std::max(best, longest[i]);
  }
  return best;
}

// A seeded random DAG: vertices with non-integer costs and transfer sizes,
// a host barrier now and then, and edges from earlier to later vertices
// (some repeated, some spanning barriers). build() adds the edges in the
// order given, so the same DAG can be recorded with its edges shuffled.
struct RandomDag {
  std::vector<Computation> comps;
  std::vector<long> barrier_before;  // vertex ids preceded by a barrier
  std::vector<std::pair<long, long>> edges;

  explicit RandomDag(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> cost(0.1, 100.0);
    std::uniform_real_distribution<double> bytes(0, 1e6);
    const long n = 50 + static_cast<long>(seed % 5) * 40;
    for (long i = 0; i < n; ++i) {
      comps.push_back(make_comp(i, "v", cost(rng),
                                rng() % 3 == 0 ? bytes(rng) : 0));
      if (i > 0 && rng() % 15 == 0) barrier_before.push_back(i);
      const long fan_in = i == 0 ? 0 : static_cast<long>(rng() % 4);
      for (long k = 0; k < fan_in; ++k) {
        // Mostly near predecessors, sometimes far back across barriers.
        const long back = rng() % 4 == 0 ? static_cast<long>(rng() % i) + 1
                                         : static_cast<long>(rng() % 3) + 1;
        edges.emplace_back(std::max(0L, i - back), i);
      }
    }
  }

  DagRecorder build(const std::vector<std::pair<long, long>>& order) const {
    DagRecorder dag;
    std::size_t b = 0;
    for (const Computation& c : comps) {
      if (b < barrier_before.size() && barrier_before[b] == c.id) {
        dag.host_barrier();
        ++b;
      }
      dag.add_vertex(c);
    }
    for (const auto& [from, to] : order) dag.add_edge(from, to);
    return dag;
  }
};

TEST(Dag, VerticesAndEdges) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a"));
  dag.add_vertex(make_comp(1, "b"));
  dag.add_edge(0, 1);
  EXPECT_EQ(dag.num_vertices(), 2u);
  EXPECT_EQ(dag.num_edges(), 1u);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_FALSE(dag.has_edge(1, 0));
}

TEST(Dag, RejectsNonContiguousIds) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a"));
  EXPECT_THROW(dag.add_vertex(make_comp(5, "x")), sim::ApiError);
}

TEST(Dag, RejectsBadEdges) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a"));
  dag.add_vertex(make_comp(1, "b"));
  EXPECT_THROW(dag.add_edge(1, 0), sim::ApiError);  // order violation
  EXPECT_THROW(dag.add_edge(0, 7), sim::ApiError);
  EXPECT_THROW(dag.add_edge(-1, 1), sim::ApiError);
}

TEST(Dag, CriticalPathChain) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 10));
  dag.add_vertex(make_comp(1, "b", 20));
  dag.add_vertex(make_comp(2, "c", 5));
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 35);
}

TEST(Dag, CriticalPathDiamondTakesLongerBranch) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "root", 10));
  dag.add_vertex(make_comp(1, "fast", 5));
  dag.add_vertex(make_comp(2, "slow", 50));
  dag.add_vertex(make_comp(3, "join", 10));
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 70);  // 10 + 50 + 10
}

TEST(Dag, CriticalPathIndependentTakesMax) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 10));
  dag.add_vertex(make_comp(1, "b", 90));
  dag.add_vertex(make_comp(2, "c", 30));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 90);
}

TEST(Dag, CriticalPathIncludesTransfers) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 10, /*bytes=*/1e4));
  // 1e4 bytes at 1e4 bytes/us adds 1us.
  EXPECT_DOUBLE_EQ(dag.critical_path_us(1e4), 11);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 10);  // transfers ignored
}

TEST(Dag, HostBarrierAccumulatesEpochs) {
  // Host-serialized iterations cannot overlap even on unlimited hardware:
  // the bound sums per-epoch critical paths.
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "it0", 10));
  dag.host_barrier();  // blocking read between iterations
  dag.add_vertex(make_comp(1, "it1", 10));
  dag.host_barrier();
  dag.add_vertex(make_comp(2, "it2", 10));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 30);
}

TEST(Dag, BarrierFloorsOnlyLaterEpochs) {
  // Two parallel branches in epoch 0 (max 50), then a barrier, then a
  // 10us vertex: bound = 50 + 10, not 50 + 50.
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 50));
  dag.add_vertex(make_comp(1, "b", 20));
  dag.host_barrier();
  dag.add_vertex(make_comp(2, "c", 10));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 60);
}

TEST(Dag, EdgesAcrossEpochsStillRelax) {
  // A dependency edge spanning a barrier dominates when it is longer than
  // the barrier floor.
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "long", 100));
  dag.add_vertex(make_comp(1, "short", 1));
  dag.host_barrier();
  dag.add_vertex(make_comp(2, "child", 5));
  dag.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 105);
}

TEST(Dag, BarrierWithNoLaterWorkIsHarmless) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "only", 7));
  dag.host_barrier();
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 7);
}

TEST(Dag, CriticalPathMatchesEdgeScanOracle) {
  for (unsigned seed = 0; seed < 24; ++seed) {
    const RandomDag g(seed);
    const DagRecorder dag = g.build(g.edges);
    ASSERT_FALSE(g.barrier_before.empty()) << seed;
    for (double pcie : {0.0, 1.2e4}) {
      EXPECT_EQ(dag.critical_path_us(pcie), critical_path_oracle(dag, pcie))
          << "seed " << seed << " pcie " << pcie;
    }
  }
}

TEST(Dag, CriticalPathIndependentOfEdgeOrder) {
  for (unsigned seed = 0; seed < 24; ++seed) {
    const RandomDag g(seed);
    auto shuffled = g.edges;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(seed + 1000));
    const DagRecorder a = g.build(g.edges);
    const DagRecorder b = g.build(shuffled);
    EXPECT_EQ(a.critical_path_us(0), b.critical_path_us(0)) << seed;
    EXPECT_EQ(a.critical_path_us(1.2e4), b.critical_path_us(1.2e4)) << seed;
  }
}

TEST(Dag, DotExportContainsStructure) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "square"));
  dag.add_vertex(make_comp(1, "reduce"));
  dag.add_edge(0, 1);
  const std::string dot = dag.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("square"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dag, ContextProducesFig4Dag) {
  // End-to-end: the VEC program of Fig. 4 yields the expected DAG.
  test::Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  auto y = ctx.array<float>(256, "Y");
  auto z = ctx.array<float>(1, "Z");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  auto sum = ctx.build_kernel("sum", "const pointer, pointer, sint32");
  scale(4, 64)(x, 256L, 1.0);  // K1(X)
  scale(4, 64)(y, 256L, 1.0);  // K1(Y)
  // K2(X, Y, Z): model with two reads and one write via two kernels —
  // use add2-like dependency through both.
  auto add2 =
      ctx.build_kernel("add2", "const pointer, const pointer, pointer, sint32");
  auto t = ctx.array<float>(256, "T");
  add2(4, 64)(x, y, t, 256L);
  sum(4, 64)(t, z, 256L);
  (void)z.get(0);

  const auto& dag = ctx.dag();
  // Vertices: 4 kernels + 1 host read element.
  EXPECT_EQ(dag.num_vertices(), 5u);
  EXPECT_TRUE(dag.has_edge(0, 2));  // K1(X) -> K2
  EXPECT_TRUE(dag.has_edge(1, 2));  // K1(Y) -> K2
  EXPECT_TRUE(dag.has_edge(2, 3));  // K2 -> sum
  EXPECT_TRUE(dag.has_edge(3, 4));  // sum -> host read of Z
  EXPECT_FALSE(dag.has_edge(0, 1));
  EXPECT_EQ(dag.num_edges(), 4u);
}

}  // namespace
}  // namespace psched::rt
