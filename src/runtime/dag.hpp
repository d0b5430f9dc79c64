// Computation DAG recorder.
//
// The scheduler itself only needs the active frontier (per-array writer and
// reader tracking); this recorder additionally retains the full DAG built
// at run time for introspection, Graphviz export, and the contention-free
// critical-path bound of Fig. 9.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "runtime/computation.hpp"
#include "sim/types.hpp"

namespace psched::rt {

class DagRecorder {
 public:
  struct Vertex {
    long id = -1;
    /// The computation's name (see Computation::name), valid while the
    /// recording context and its kernel registry live.
    const std::string* name = nullptr;
    Computation::Kind kind = Computation::Kind::Kernel;
    sim::DeviceId device = sim::kInvalidDevice;
    sim::StreamId stream = sim::kInvalidStream;
    double solo_us = 0;
    double transfer_bytes = 0;
    /// Host-order epoch: vertices submitted after a blocking host
    /// synchronization belong to a later epoch and cannot start before it.
    long epoch = 0;

    [[nodiscard]] std::string label() const {
      return Computation::label_of(kind, *name);
    }
  };

  void add_vertex(const Computation& c);
  /// Update stream/cost info after scheduling (vertices are added before
  /// the stream manager runs).
  void annotate_vertex(const Computation& c);
  void add_edge(long from, long to);
  /// Record a blocking host synchronization: later vertices start a new
  /// epoch. Even on unlimited hardware the host program cannot issue work
  /// past a blocking read, so the contention-free bound accumulates across
  /// epochs instead of treating host-serialized iterations as concurrent.
  void host_barrier() { ++current_epoch_; }

  [[nodiscard]] std::size_t num_vertices() const { return vertices_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] const std::vector<Vertex>& vertices() const {
    return vertices_;
  }
  [[nodiscard]] const std::vector<std::pair<long, long>>& edges() const {
    return edges_;
  }
  [[nodiscard]] bool has_edge(long from, long to) const;

  /// Longest path through the DAG where each vertex costs its solo kernel
  /// time plus its own data migration at full PCIe bandwidth — the
  /// theoretical execution time with unlimited hardware resources
  /// (the Fig. 9 "contention-free" bound).
  [[nodiscard]] double critical_path_us(double pcie_bytes_per_us) const;

  /// Graphviz DOT rendering (streams become colors, Fig. 6 style).
  [[nodiscard]] std::string to_dot() const;

 private:
  std::vector<Vertex> vertices_;  // vertex id == index
  std::vector<std::pair<long, long>> edges_;
  long current_epoch_ = 0;
};

}  // namespace psched::rt
