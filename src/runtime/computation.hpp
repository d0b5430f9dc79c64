// ComputationalElement — a vertex of the computation DAG (section IV-A).
//
// Kernels, CPU accesses to managed arrays, and library calls are all
// modeled uniformly: the arrays the element uses (one entry per distinct
// array, a write dominating any reads of it), links to parent/child
// computations, the dependency set, and the CUDA handles the scheduler
// bound the computation to.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/inline_vec.hpp"
#include "runtime/value.hpp"
#include "sim/types.hpp"

namespace psched::rt {

class Computation {
 public:
  enum class Kind : std::uint8_t { Kernel, HostRead, HostWrite, Library };
  enum class State : std::uint8_t {
    Created,    ///< registered, not yet issued to the device
    Scheduled,  ///< issued asynchronously, considered *active*
    Finished,   ///< the CPU observed completion; no longer creates deps
  };

  /// One distinct array argument. Every reader of the element — dependency
  /// inference, staging, the launch's array list, placement costs — walks
  /// this one coalesced list, so an array passed twice is seen once.
  struct Use {
    ArrayState* array = nullptr;
    /// Some argument passing the array is not read-only (NIDL annotation).
    bool write = false;
    /// The array is still in the dependency set of section IV-A: this
    /// element can introduce dependencies through it. Cleared when a
    /// later computation writes the array.
    bool live = false;
  };

  long id = -1;
  Kind kind = Kind::Kernel;
  State state = State::Created;
  /// Number of uses still live: the size of the dependency set. Zero
  /// retires the element from the frontier.
  int live_uses = 0;
  /// The kernel's, library function's or accessed array's name; owned by
  /// the kernel registry or the context, which outlive the element.
  const std::string* name = nullptr;
  InlineVec<Use, 6> uses;

  InlineVec<Computation*, 4> parents;
  /// The first computation registered with this one as a parent: it
  /// inherits this element's stream (section IV-C).
  Computation* first_child = nullptr;

  /// Id of the last computation whose dependency inference visited this
  /// element (O(1) duplicate-parent test in infer_dependencies).
  long dep_mark = -1;
  /// Device the placement policy chose (before stream acquisition).
  sim::DeviceId device = sim::kInvalidDevice;
  sim::StreamId stream = sim::kInvalidStream;
  sim::EventId event = sim::kInvalidEvent;
  sim::OpId op = sim::kInvalidOp;

  // Contention-free accounting for the Fig. 9 bound.
  double solo_us = 0;         ///< kernel duration alone on an idle device
  double transfer_bytes = 0;  ///< bytes this computation had to migrate

  /// Add an array argument, coalescing repeats of the same array.
  void add_use(ArrayState* array, bool write);
  /// Remove `array` from the dependency set (no-op if absent).
  void drop_dep(const ArrayState* array);
  [[nodiscard]] bool in_dep_set(const ArrayState* array) const;

  [[nodiscard]] bool is_active() const { return state != State::Finished; }
  [[nodiscard]] bool can_create_deps() const {
    return is_active() && live_uses > 0;
  }
  /// Display label of an element: its name, prefixed "lib:", "read:" or
  /// "write:" for library calls and host accesses.
  [[nodiscard]] static std::string label_of(Kind kind, const std::string& name);
};

}  // namespace psched::rt
