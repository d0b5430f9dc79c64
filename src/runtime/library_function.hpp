// Pre-registered library functions (section IV-A).
//
// Host libraries (the paper cites RAPIDS) can participate in scheduling if
// their API exposes the execution stream: such functions are modeled like
// kernels and scheduled asynchronously. Functions without stream control
// must run synchronously to guarantee correctness: the context drains the
// device, runs the function on the host clock, and resumes.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/nidl.hpp"

namespace psched::rt {

struct LibraryFunctionDef {
  std::string name;
  std::vector<ParamSpec> params;
  /// True if the library exposes stream selection: schedule asynchronously.
  bool stream_aware = false;
  /// Device cost when stream-aware (counters => duration via the model).
  std::function<sim::KernelProfile(const ArgsView&)> cost_fn;
  /// Host-side duration (microseconds) when not stream-aware.
  std::function<double(const ArgsView&)> host_duration_us;
  /// Functional implementation (optional).
  std::function<void(const ArgsView&)> host_fn;
};

class LibraryFunction {
 public:
  LibraryFunction() = default;

  template <typename... Args>
  void operator()(Args&&... args) const {
    const std::array<Value, sizeof...(Args)> values = {
        make_value(std::forward<Args>(args))...};
    call(values);
  }

  void call(std::span<const Value> values) const;
  [[nodiscard]] const std::string& name() const { return def_.name; }
  [[nodiscard]] bool stream_aware() const { return def_.stream_aware; }

 private:
  friend class Context;
  LibraryFunction(Context* ctx, LibraryFunctionDef def)
      : ctx_(ctx), def_(std::move(def)) {}

  Context* ctx_ = nullptr;
  LibraryFunctionDef def_;
};

}  // namespace psched::rt
