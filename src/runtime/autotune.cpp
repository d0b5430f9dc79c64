#include "runtime/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace psched::rt {

const std::vector<long>& BlockSizeTuner::candidates() {
  static const std::vector<long> kCandidates = {32, 64, 128, 256, 512, 1024};
  return kCandidates;
}

int BlockSizeTuner::bucket_of(double work_items) {
  if (work_items <= 1) return 0;
  return static_cast<int>(std::floor(std::log2(work_items)));
}

const BlockSizeTuner::Bucket* BlockSizeTuner::find(const KernelDef& kernel,
                                                   double work_items) const {
  const auto it = stats_.find({&kernel, bucket_of(work_items)});
  return it == stats_.end() ? nullptr : &it->second;
}

void BlockSizeTuner::record(const KernelDef& kernel, long block_size,
                            double solo_us, double work_items) {
  if (work_items <= 0 || solo_us <= 0) return;
  Bucket& bucket = stats_[{&kernel, bucket_of(work_items)}];
  Cell& cell = bucket.by_block[block_size];
  const double us_per_item = solo_us / work_items;
  if (cell.trials == 0 || us_per_item < cell.best_us_per_item) {
    cell.best_us_per_item = us_per_item;
  }
  ++cell.trials;
}

long BlockSizeTuner::recommend(const KernelDef& kernel,
                               double work_items) const {
  const Bucket* bucket = find(kernel, work_items);
  // Exploration phase: propose the first candidate without a sample.
  for (long c : candidates()) {
    if (bucket == nullptr || bucket->by_block.count(c) == 0) return c;
  }
  // Exploitation: best observed time per item; ties break toward larger
  // blocks (fewer blocks to schedule).
  long best = candidates().back();
  double best_rate = std::numeric_limits<double>::infinity();
  for (long c : candidates()) {
    const Cell& cell = bucket->by_block.at(c);
    if (cell.best_us_per_item <= best_rate) {
      best_rate = cell.best_us_per_item;
      best = c;
    }
  }
  return best;
}

bool BlockSizeTuner::explored(const KernelDef& kernel,
                              double work_items) const {
  const Bucket* bucket = find(kernel, work_items);
  if (bucket == nullptr) return false;
  return std::all_of(candidates().begin(), candidates().end(),
                     [bucket](long c) { return bucket->by_block.count(c); });
}

long BlockSizeTuner::samples(const KernelDef& kernel,
                             double work_items) const {
  const Bucket* bucket = find(kernel, work_items);
  if (bucket == nullptr) return 0;
  long total = 0;
  for (const auto& [block, cell] : bucket->by_block) total += cell.trials;
  return total;
}

}  // namespace psched::rt
