#include "runtime/computation.hpp"

namespace psched::rt {

void Computation::add_use(ArrayState* array, bool write) {
  for (Use& u : uses) {
    if (u.array == array) {
      u.write = u.write || write;  // a write dominates
      return;
    }
  }
  uses.push_back({array, write, false});
}

void Computation::drop_dep(const ArrayState* array) {
  for (Use& u : uses) {
    if (u.array == array) {
      if (u.live) {
        u.live = false;
        --live_uses;
      }
      return;
    }
  }
}

bool Computation::in_dep_set(const ArrayState* array) const {
  for (const Use& u : uses) {
    if (u.array == array) return u.live;
  }
  return false;
}

std::string Computation::label_of(Kind kind, const std::string& name) {
  switch (kind) {
    case Kind::Kernel: return name;
    case Kind::HostRead: return "read:" + name;
    case Kind::HostWrite: return "write:" + name;
    case Kind::Library: return "lib:" + name;
  }
  return name;
}

}  // namespace psched::rt
