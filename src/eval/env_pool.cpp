#include "eval/env_pool.h"

#include <atomic>
#include <bit>

#include "util/rng.h"

namespace caya {

namespace {

// One multiply and one xor-shift per 64-bit word. For a fixed word the step
// is a bijection of the state, and for a fixed state an injection of the
// word, so configs that differ in any one field always digest apart.
class WordDigest {
 public:
  void add(std::uint64_t word) noexcept {
    state_ = (state_ ^ word) * 0xbf58476d1ce4e5b9ULL;
    state_ ^= state_ >> 31;
  }
  // Bit-pattern hashing: +0.0 / -0.0 digest differently, which is fine —
  // equal configs (the only thing the pool needs) have equal bit patterns.
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  // What a part's digest adds to its parent's chain; only the whole config's
  // digest is finalized.
  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t state = state_;
    return splitmix64(state);
  }

 private:
  std::uint64_t state_ = 0;
};

// Each lane is a chain of its own, so the four lanes' multiplies overlap
// instead of queueing behind one another. The config's chain adds the
// lane's state as one word, and that state is an injection of each lane
// field, so a lane field that differs still moves the digest.
std::uint64_t lane_state(const Impairments& lane) {
  WordDigest h;
  h.add(lane.loss);
  h.add(lane.burst.p_good_to_bad);
  h.add(lane.burst.p_bad_to_good);
  h.add(lane.burst.loss_good);
  h.add(lane.burst.loss_bad);
  h.add(lane.duplicate);
  h.add(lane.corrupt);
  h.add(lane.reorder);
  h.add(static_cast<std::uint64_t>(lane.jitter_min));
  h.add(static_cast<std::uint64_t>(lane.jitter_max));
  h.add(std::uint64_t{lane.flaps.size()});
  for (const LinkFlap& flap : lane.flaps) {
    h.add(static_cast<std::uint64_t>(flap.at));
    h.add(static_cast<std::uint64_t>(flap.duration));
  }
  return h.state();
}

std::atomic<std::uint64_t> g_constructed{0};
std::atomic<std::uint64_t> g_reused{0};

}  // namespace

std::uint64_t env_config_digest(const Environment::Config& config) {
  WordDigest h;
  h.add(static_cast<std::uint64_t>(config.country));
  h.add(static_cast<std::uint64_t>(config.protocol));
  // config.seed deliberately excluded: reset(seed) re-seeds a shelved
  // substrate, so shape equality is seed-independent.
  h.add(std::uint64_t{config.server_port});
  h.add(static_cast<std::uint64_t>(config.china_architecture));
  h.add(static_cast<std::uint64_t>(config.gfw_regime));
  h.add(static_cast<std::uint64_t>(config.carrier));

  h.add(std::uint64_t{config.net.trace_stages});
  h.add(lane_state(config.net.link.client_censor_up));
  h.add(lane_state(config.net.link.client_censor_down));
  h.add(lane_state(config.net.link.censor_server_up));
  h.add(lane_state(config.net.link.censor_server_down));

  const auto& faults = config.censor_faults.events();
  h.add(std::uint64_t{faults.size()});
  for (const FaultEvent& event : faults) {
    h.add(static_cast<std::uint64_t>(event.at));
    h.add(static_cast<std::uint64_t>(event.kind));
    h.add(static_cast<std::uint64_t>(event.duration));
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
  static thread_local EnvironmentPool pool;
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
