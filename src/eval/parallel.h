// The deterministic parallel evaluation engine's eval-facing facade.
//
// Every trial in this project is an independent simulation: the Environment
// for trial i is seeded from (base_seed + i) and forks its own RNG streams,
// so trials may run on any thread in any order without perturbing each
// other. ParallelEvaluator shards such index-addressed work across the
// shared thread pool and reduces results *in canonical index order*,
// which makes the output bit-for-bit independent of completion order:
// jobs=8 produces byte-identical tables, histories, and pcaps to jobs=1.
//
// Exception safety: map_batched() rethrows the first worker exception on
// the caller, which would tear down a whole batch. Campaign code therefore
// wraps each trial in run_supervised_trial (eval/trial.h), which converts
// failures into classified TrialError outcomes — so no exception crosses
// the pool boundary during a supervised batch, and one poisoned trial
// cannot abort an evolution or sweep.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/thread_pool.h"

namespace caya {

class ParallelEvaluator {
 public:
  /// jobs == 0 means "auto": one shard per hardware thread. jobs == 1 runs
  /// everything inline on the calling thread (the serial reference path).
  explicit ParallelEvaluator(std::size_t jobs = 1) noexcept
      : jobs_(jobs == 0 ? ThreadPool::hardware_jobs() : jobs) {}

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Runs fn(i) for i in [0, n) and collects the results indexed by i —
  /// the canonical-order reduction every caller goes through. Indices whose
  /// `key_of(i)` match run consecutively on the same worker, so substrate
  /// pools (warm Environments keyed by config digest) hit on nearly every
  /// trial instead of thrashing across interleaved shapes; work of a single
  /// shape passes a constant key. Results are written to out[i], so output
  /// is byte-identical to a serial loop at any jobs value.
  ///
  /// Scheduling is deterministic: groups are ordered by first appearance of
  /// their key, indices keep their relative order within a group, and the
  /// order array is chunked into blocks that never straddle a group
  /// boundary. Only the assignment of blocks to workers varies with
  /// completion order — invisible after the canonical reduce.
  template <typename KeyFn, typename Fn,
            typename R = std::invoke_result_t<Fn&, std::size_t>>
  [[nodiscard]] std::vector<R> map_batched(std::size_t n, KeyFn&& key_of,
                                           Fn&& fn) const {
    static_assert(std::is_default_constructible_v<R>,
                  "map_batched() results are reduced into a pre-sized vector");
    std::vector<R> out(n);
    if (n == 0) return out;

    // Keys are computed serially: key_of is expected to be cheap (a config
    // digest), and serial evaluation keeps group numbering deterministic.
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<std::uint64_t>(key_of(i));
    }

    // Group-major order: first-appearance group order, index order within.
    // A flat scan over the group list beats a hash map for the handful of
    // distinct substrate shapes a batch ever mixes.
    std::vector<std::uint64_t> group_keys;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t g = group_keys.size();
      for (std::size_t k = 0; k < group_keys.size(); ++k) {
        if (group_keys[k] == keys[i]) {
          g = k;
          break;
        }
      }
      if (g == group_keys.size()) {
        group_keys.push_back(keys[i]);
        groups.emplace_back();
      }
      groups[g].push_back(i);
    }
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<std::size_t> group_end;  // exclusive end offsets into order
    group_end.reserve(groups.size());
    for (const auto& group : groups) {
      order.insert(order.end(), group.begin(), group.end());
      group_end.push_back(order.size());
    }

    // Chunk into blocks that never cross a group boundary. Target block
    // size ~n/(jobs*8): small enough to balance, large enough that a
    // worker amortizes its warm substrate across many trials.
    const std::size_t target =
        std::max<std::size_t>(1, n / std::max<std::size_t>(1, jobs_ * 8));
    struct Block {
      std::size_t begin;
      std::size_t end;  // offsets into order
    };
    std::vector<Block> blocks;
    std::size_t group_begin = 0;
    for (const std::size_t end : group_end) {
      for (std::size_t b = group_begin; b < end; b += target) {
        blocks.push_back({b, std::min(b + target, end)});
      }
      group_begin = end;
    }

    parallel_for_indexed(jobs_, blocks.size(), [&](std::size_t bi) {
      const Block& block = blocks[bi];
      for (std::size_t k = block.begin; k < block.end; ++k) {
        const std::size_t i = order[k];
        out[i] = fn(i);
      }
    });
    return out;
  }

 private:
  std::size_t jobs_;
};

}  // namespace caya
