// InlineVec — a vector of trivially copyable elements whose first N live
// inside the object itself. A kernel has a handful of array arguments and
// parents, so a computation's lists cost no heap allocation in the common
// case; a longer list spills to one heap block that doubles as it grows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace psched::rt {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  InlineVec() = default;
  InlineVec(const InlineVec& other) { *this = other; }
  InlineVec& operator=(const InlineVec& other) {
    if (this == &other) return *this;
    clear();
    for (const T& v : other) push_back(v);
    return *this;
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  void grow() {
    const std::uint32_t cap = cap_ * 2;
    auto heap = std::make_unique_for_overwrite<T[]>(cap);
    std::copy_n(data_, size_, heap.get());
    heap_ = std::move(heap);
    data_ = heap_.get();
    cap_ = cap;
  }

  T inline_[N];
  std::unique_ptr<T[]> heap_;
  T* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace psched::rt
