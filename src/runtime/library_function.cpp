#include "runtime/library_function.hpp"

#include "runtime/execution_context.hpp"

namespace psched::rt {

void LibraryFunction::call(std::span<const Value> values) const {
  if (ctx_ == nullptr) {
    throw sim::ApiError("LibraryFunction: default-constructed");
  }
  ctx_->submit_library(def_, values);
}

}  // namespace psched::rt
