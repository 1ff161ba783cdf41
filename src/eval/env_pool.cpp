#include "eval/env_pool.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "packet/payload.h"

namespace caya {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void hash_bytes(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void hash_u64(std::uint64_t& h, std::uint64_t v) {
  hash_bytes(h, &v, sizeof(v));
}

void hash_double(std::uint64_t& h, double v) {
  // Bit-pattern hashing: +0.0 / -0.0 digest differently, which is fine —
  // equal configs (the only thing the pool needs) have equal bit patterns.
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  hash_u64(h, bits);
}

void hash_impairments(std::uint64_t& h, const Impairments& lane) {
  hash_double(h, lane.loss);
  hash_double(h, lane.burst.p_good_to_bad);
  hash_double(h, lane.burst.p_bad_to_good);
  hash_double(h, lane.burst.loss_good);
  hash_double(h, lane.burst.loss_bad);
  hash_double(h, lane.duplicate);
  hash_double(h, lane.corrupt);
  hash_double(h, lane.reorder);
  hash_u64(h, static_cast<std::uint64_t>(lane.jitter_min));
  hash_u64(h, static_cast<std::uint64_t>(lane.jitter_max));
  hash_u64(h, lane.flaps.size());
  for (const LinkFlap& flap : lane.flaps) {
    hash_u64(h, static_cast<std::uint64_t>(flap.at));
    hash_u64(h, static_cast<std::uint64_t>(flap.duration));
  }
}

std::atomic<std::uint64_t> g_constructed{0};
std::atomic<std::uint64_t> g_reused{0};

bool pool_enabled_from_env() {
  const char* disable = std::getenv("CAYA_NO_ENV_POOL");
  return disable == nullptr || disable[0] == '\0';
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> enabled{pool_enabled_from_env()};
  return enabled;
}

}  // namespace

std::uint64_t env_config_digest(const Environment::Config& config) {
  std::uint64_t h = kFnvOffsetBasis;
  hash_u64(h, static_cast<std::uint64_t>(config.country));
  hash_u64(h, static_cast<std::uint64_t>(config.protocol));
  // config.seed deliberately excluded: reset(seed) re-seeds a shelved
  // substrate, so shape equality is seed-independent.
  hash_u64(h, config.server_port);
  hash_u64(h, static_cast<std::uint64_t>(config.china_architecture));
  hash_u64(h, static_cast<std::uint64_t>(config.gfw_regime));
  hash_u64(h, static_cast<std::uint64_t>(config.carrier));

  hash_u64(h, static_cast<std::uint64_t>(config.net.client_to_censor_hops));
  hash_u64(h, static_cast<std::uint64_t>(config.net.censor_to_server_hops));
  hash_u64(h, static_cast<std::uint64_t>(config.net.per_hop_delay));
  hash_double(h, config.net.loss);
  hash_u64(h, config.net.trace_stages ? 1 : 0);
  hash_impairments(h, config.net.link.client_censor_up);
  hash_impairments(h, config.net.link.client_censor_down);
  hash_impairments(h, config.net.link.censor_server_up);
  hash_impairments(h, config.net.link.censor_server_down);

  const auto& faults = config.censor_faults.events();
  hash_u64(h, faults.size());
  for (const FaultEvent& event : faults) {
    hash_u64(h, static_cast<std::uint64_t>(event.at));
    hash_u64(h, static_cast<std::uint64_t>(event.kind));
    hash_u64(h, static_cast<std::uint64_t>(event.duration));
  }
  return h;
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
  if (!enabled()) {
    g_constructed.fetch_add(1, std::memory_order_relaxed);
    return Lease(nullptr, 0, std::make_unique<Environment>(config));
  }
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

void EnvironmentPool::set_enabled(bool enabled) noexcept {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

bool EnvironmentPool::enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
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
