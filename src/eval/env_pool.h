// Trial-substrate recycling: a per-worker pool of warm Environments.
//
// Constructing an Environment is the dominant fixed cost of a trial: the
// Network, link-model RNG lattice, censor boxes, flow tables and reassembly
// arenas are all rebuilt just to be torn down microseconds later. The pool
// keeps finished substrates shelved by a digest of their configuration
// (everything except the seed) and hands them back out through
// Environment::reset(seed), which replays construction byte-identically
// against the existing storage.
//
// Invariants:
//   * Determinism — a pooled trial's TrialResult and trace are
//     byte-identical to a fresh-construction trial (reset() replays the
//     constructor's RNG fork order; every censor's reinit() wipes counters
//     and ledgers to their as-constructed values).
//   * Isolation — pools are thread_local, so no lock sits on the trial hot
//     path and workers never share mutable substrate.
//   * Poison safety — a Lease returns its environment to the shelf only via
//     keep(); if the trial throws, the Lease destructor discards the
//     substrate instead of recycling state of unknown integrity.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eval/trial.h"

namespace caya {

/// Digest over every Environment::Config field *except* the seed, mixed one
/// 64-bit word per field: two configs with equal digests describe the same
/// substrate shape, so a shelved environment built under one can be
/// reset-reused under the other. (Digest-only keying: a 64-bit collision
/// across the handful of distinct configs a process ever runs is
/// negligible, the same stance the fitness cache takes.) An in-memory key
/// only, never persisted, so its values may change between builds.
[[nodiscard]] std::uint64_t env_config_digest(
    const Environment::Config& config);

class EnvironmentPool {
 public:
  /// RAII handle on a pooled (or freshly built) Environment. Destruction
  /// discards the substrate; call keep() after a *clean* trial to shelve it
  /// for reuse. Never keep() after an exception escaped run_connection.
  class Lease {
   public:
    Lease() = default;
    Lease(EnvironmentPool* pool, std::uint64_t key,
          std::unique_ptr<Environment> env)
        : pool_(pool), key_(key), env_(std::move(env)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() = default;  // unique_ptr discards unless keep() shelved it

    [[nodiscard]] Environment& operator*() noexcept { return *env_; }
    [[nodiscard]] Environment* operator->() noexcept { return env_.get(); }

    /// Returns the environment to the pool it came from. No-op on a
    /// default-constructed or moved-from lease.
    void keep();

   private:
    EnvironmentPool* pool_ = nullptr;
    std::uint64_t key_ = 0;
    std::unique_ptr<Environment> env_;
  };

  /// The calling thread's pool. Worker threads each get their own, so
  /// acquire/keep never contend.
  [[nodiscard]] static EnvironmentPool& local();

  /// Hands out a warm substrate reset to `config` (reuse), or constructs a
  /// fresh Environment when the shelf for this config shape is empty.
  [[nodiscard]] Lease acquire(const Environment::Config& config);

  /// Drops every shelved environment on this thread's pool.
  void clear() noexcept { shelves_.clear(); }

  /// Process-global substrate counters (atomic): how many Environments were
  /// constructed from scratch vs. recycled via reset(). The
  /// zero-construction regression test and perfbench's
  /// eval.constructions_per_trial key off these.
  [[nodiscard]] static std::uint64_t constructed() noexcept;
  [[nodiscard]] static std::uint64_t reused() noexcept;
  static void reset_stats() noexcept;

 private:
  /// Shelved substrates for one config digest. A flat vector scan is faster
  /// than a hash map for the handful of distinct shapes a campaign runs.
  struct Shelf {
    std::uint64_t key = 0;
    std::vector<std::unique_ptr<Environment>> envs;
  };

  /// Per-shape cap: supervised retries and sweeps interleave a few shapes,
  /// but an unbounded shelf would hoard memory a campaign never reuses.
  static constexpr std::size_t kMaxPerKey = 4;

  void put(std::uint64_t key, std::unique_ptr<Environment> env);

  std::vector<Shelf> shelves_;
};

}  // namespace caya
