#pragma once
// service::SharedMap — a thread-safe, build-once map of immutable values
// with hit/miss counters, shared by the solver service's plan cache
// (DESIGN.md Section 17) and the 2-D solver's shared translation plans. It
// has no bound and never evicts: every key space it serves is small (one
// translation set per quadrature rule, one sub-KB plan per configuration and
// depth). Values are shared_ptrs to const, so a holder never sees one
// change.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace hfmm::service {

struct SharedMapStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

template <typename Key, typename V, typename Hash = std::hash<Key>>
class SharedMap {
 public:
  using Value = std::shared_ptr<V>;

  /// Returns the value for `key`, building it with `factory()` on a miss.
  /// Each key is built once, outside the lock: a get of a key being built
  /// waits for that build and counts as a hit, while gets of other keys
  /// proceed. A factory that throws leaves no entry; its exception reaches
  /// its caller, and the next get of the key builds again. A factory must
  /// not get its own key: it would wait for itself. Second element is true
  /// on a hit.
  template <typename Factory>
  std::pair<Value, bool> get_or_build(const Key& key, Factory&& factory) {
    std::unique_lock<std::mutex> lock(mu_);
    built_.wait(lock, [&] { return !building_.contains(key); });
    if (const auto it = map_.find(key); it != map_.end()) {
      ++stats_.hits;
      return {it->second, true};
    }
    ++stats_.misses;
    building_.insert(key);
    lock.unlock();
    Value v;
    try {
      v = factory();
    } catch (...) {
      lock.lock();
      building_.erase(key);
      built_.notify_all();
      throw;
    }
    lock.lock();
    building_.erase(key);
    map_.emplace(key, v);
    built_.notify_all();
    return {std::move(v), false};
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  SharedMapStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable built_;  // a build finished or failed
  std::unordered_map<Key, Value, Hash> map_;
  std::unordered_set<Key, Hash> building_;
  SharedMapStats stats_;
};

/// FNV-1a style combiner for hand-rolled key hashes.
inline std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace hfmm::service
