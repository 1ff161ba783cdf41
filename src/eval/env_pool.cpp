#include "eval/env_pool.h"

#include <atomic>
#include <bit>

#include "packet/payload.h"
#include "util/fnv.h"

namespace caya {

namespace {

void hash_double(Fnv1a& h, double v) {
  // Bit-pattern hashing: +0.0 / -0.0 digest differently, which is fine —
  // equal configs (the only thing the pool needs) have equal bit patterns.
  h.add_le(std::bit_cast<std::uint64_t>(v));
}

void hash_impairments(Fnv1a& h, const Impairments& lane) {
  hash_double(h, lane.loss);
  hash_double(h, lane.burst.p_good_to_bad);
  hash_double(h, lane.burst.p_bad_to_good);
  hash_double(h, lane.burst.loss_good);
  hash_double(h, lane.burst.loss_bad);
  hash_double(h, lane.duplicate);
  hash_double(h, lane.corrupt);
  hash_double(h, lane.reorder);
  h.add_le(static_cast<std::uint64_t>(lane.jitter_min));
  h.add_le(static_cast<std::uint64_t>(lane.jitter_max));
  h.add_le(lane.flaps.size());
  for (const LinkFlap& flap : lane.flaps) {
    h.add_le(static_cast<std::uint64_t>(flap.at));
    h.add_le(static_cast<std::uint64_t>(flap.duration));
  }
}

std::atomic<std::uint64_t> g_constructed{0};
std::atomic<std::uint64_t> g_reused{0};

}  // namespace

std::uint64_t env_config_digest(const Environment::Config& config) {
  Fnv1a h;
  h.add_le(static_cast<std::uint64_t>(config.country));
  h.add_le(static_cast<std::uint64_t>(config.protocol));
  // config.seed deliberately excluded: reset(seed) re-seeds a shelved
  // substrate, so shape equality is seed-independent.
  h.add_le(config.server_port);
  h.add_le(static_cast<std::uint64_t>(config.china_architecture));
  h.add_le(static_cast<std::uint64_t>(config.gfw_regime));
  h.add_le(static_cast<std::uint64_t>(config.carrier));

  h.add_le(config.net.trace_stages ? 1 : 0);
  hash_impairments(h, config.net.link.client_censor_up);
  hash_impairments(h, config.net.link.client_censor_down);
  hash_impairments(h, config.net.link.censor_server_up);
  hash_impairments(h, config.net.link.censor_server_down);

  const auto& faults = config.censor_faults.events();
  h.add_le(faults.size());
  for (const FaultEvent& event : faults) {
    h.add_le(static_cast<std::uint64_t>(event.at));
    h.add_le(static_cast<std::uint64_t>(event.kind));
    h.add_le(static_cast<std::uint64_t>(event.duration));
  }
  return h.value();
}

void EnvironmentPool::Lease::keep() {
  if (pool_ != nullptr && env_ != nullptr) {
    pool_->put(key_, std::move(env_));
  }
  pool_ = nullptr;
}

EnvironmentPool& EnvironmentPool::local() {
  // Thread-locals die in reverse order of construction, and pooled
  // environments release payload reps and buffers as they die. Building and
  // dropping one payload first constructs Payload's rep pool and this
  // thread's BufferArena, so both outlive the pool.
  static thread_local EnvironmentPool pool = [] {
    (void)Payload(Bytes(1));
    return EnvironmentPool();
  }();
  return pool;
}

EnvironmentPool::Lease EnvironmentPool::acquire(
    const Environment::Config& config) {
  const std::uint64_t key = env_config_digest(config);
  for (Shelf& shelf : shelves_) {
    if (shelf.key == key && !shelf.envs.empty()) {
      std::unique_ptr<Environment> env = std::move(shelf.envs.back());
      shelf.envs.pop_back();
      env->reset(config.seed);
      g_reused.fetch_add(1, std::memory_order_relaxed);
      return Lease(this, key, std::move(env));
    }
  }
  g_constructed.fetch_add(1, std::memory_order_relaxed);
  return Lease(this, key, std::make_unique<Environment>(config));
}

void EnvironmentPool::put(std::uint64_t key,
                          std::unique_ptr<Environment> env) {
  for (Shelf& shelf : shelves_) {
    if (shelf.key == key) {
      if (shelf.envs.size() < kMaxPerKey) shelf.envs.push_back(std::move(env));
      return;  // shelf full: the substrate is simply destroyed
    }
  }
  Shelf shelf;
  shelf.key = key;
  shelf.envs.push_back(std::move(env));
  shelves_.push_back(std::move(shelf));
}

std::uint64_t EnvironmentPool::constructed() noexcept {
  return g_constructed.load(std::memory_order_relaxed);
}

std::uint64_t EnvironmentPool::reused() noexcept {
  return g_reused.load(std::memory_order_relaxed);
}

void EnvironmentPool::reset_stats() noexcept {
  g_constructed.store(0, std::memory_order_relaxed);
  g_reused.store(0, std::memory_order_relaxed);
}

}  // namespace caya
