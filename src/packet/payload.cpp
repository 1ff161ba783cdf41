#include "packet/payload.h"

#include <atomic>
#include <cstring>
#include <vector>

#include "util/arena.h"

namespace caya {
namespace {

/// Per-thread pool of rep headers. Capped like BufferArena's free list; the
/// wrapper deletes leftovers at thread exit.
constexpr std::size_t kMaxFreeReps = 64;

// Set when this thread's rep pool is destroyed; see release_rep.
thread_local bool t_rep_pool_destroyed = false;

}  // namespace

struct Payload::Rep {
  Bytes data;
  std::atomic<std::uint32_t> refs{1};
};

namespace {

struct RepPool {
  std::vector<Payload::Rep*> free;
  ~RepPool() {
    for (auto* rep : free) delete rep;
    t_rep_pool_destroyed = true;
  }
};

RepPool& rep_pool() {
  thread_local RepPool pool;
  return pool;
}

}  // namespace

Payload::Rep* Payload::acquire_rep(Bytes bytes) {
  RepPool& pool = rep_pool();
  if (!pool.free.empty()) {
    Rep* rep = pool.free.back();
    pool.free.pop_back();
    rep->data = std::move(bytes);
    rep->refs.store(1, std::memory_order_relaxed);
    return rep;
  }
  auto* rep = new Rep;
  rep->data = std::move(bytes);
  return rep;
}

void Payload::release_rep(Rep* rep) noexcept {
  if (rep == nullptr) return;
  if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last owner: the buffer goes back to this thread's arena, the header to
  // this thread's rep pool. A payload in static storage is released after
  // both are destroyed (thread-locals die first) and frees them itself.
  if (BufferArena* arena = BufferArena::local_if_alive()) {
    arena->release(std::move(rep->data));
  }
  rep->data = Bytes();
  if (!t_rep_pool_destroyed && rep_pool().free.size() < kMaxFreeReps) {
    rep_pool().free.push_back(rep);
  } else {
    delete rep;
  }
}

Payload::Payload(Bytes bytes) {
  if (!bytes.empty()) rep_ = acquire_rep(std::move(bytes));
}

Payload::Payload(const Payload& other) noexcept : rep_(other.rep_) {
  if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
}

Payload& Payload::operator=(const Payload& other) noexcept {
  if (rep_ == other.rep_) return *this;
  Rep* old = rep_;
  rep_ = other.rep_;
  if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  release_rep(old);
  return *this;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this == &other) return *this;
  Rep* old = rep_;
  rep_ = other.rep_;
  other.rep_ = nullptr;
  release_rep(old);
  return *this;
}

Payload& Payload::operator=(Bytes bytes) {
  Rep* old = rep_;
  rep_ = bytes.empty() ? nullptr : acquire_rep(std::move(bytes));
  release_rep(old);
  return *this;
}

std::size_t Payload::size() const noexcept {
  return rep_ == nullptr ? 0 : rep_->data.size();
}

const std::uint8_t* Payload::data() const noexcept {
  return rep_ == nullptr ? nullptr : rep_->data.data();
}

const Bytes& Payload::bytes() const noexcept {
  static const Bytes kEmpty;
  return rep_ == nullptr ? kEmpty : rep_->data;
}

Bytes& Payload::mutate() {
  if (rep_ == nullptr) {
    rep_ = acquire_rep(BufferArena::local().acquire());
  } else if (rep_->refs.load(std::memory_order_acquire) > 1) {
    // Shared: detach onto a private arena buffer.
    Bytes fresh = BufferArena::local().acquire();
    fresh.assign(rep_->data.begin(), rep_->data.end());
    Rep* old = rep_;
    rep_ = acquire_rep(std::move(fresh));
    release_rep(old);
  }
  return rep_->data;
}

void Payload::clear() noexcept {
  release_rep(rep_);
  rep_ = nullptr;
}

void Payload::assign(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) {
    clear();
    return;
  }
  // New buffer first: `bytes` may point into our own (possibly shared) rep.
  Bytes fresh = BufferArena::local().acquire();
  fresh.assign(bytes.begin(), bytes.end());
  Rep* old = rep_;
  rep_ = acquire_rep(std::move(fresh));
  release_rep(old);
}

bool operator==(const Payload& a, const Payload& b) noexcept {
  if (a.rep_ == b.rep_) return true;
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

bool operator==(const Payload& a, const Bytes& b) noexcept {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace caya
