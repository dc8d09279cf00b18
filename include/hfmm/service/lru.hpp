#pragma once
// service::LruCache — a small thread-safe LRU map shared by the solver
// service's plan cache (DESIGN.md Section 17) and the 2-D solver's shared
// translation plans. It holds at most `capacity` entries and evicts the
// least recently used one past that. Values are shared_ptrs, so eviction
// never invalidates an entry a client still holds: the refcount keeps an
// evicted-but-in-flight value alive until its last user drops it.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hfmm::service {

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< capacity-driven removals
};

template <typename Key, typename V, typename Hash = std::hash<Key>>
class LruCache {
 public:
  using Value = std::shared_ptr<V>;

  explicit LruCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the cached value for `key`, building it with `factory()` on a
  /// miss. The factory runs under the lock: builds are rare and expensive
  /// (translation matrices), so serializing them is cheaper than letting
  /// two clients race the same build. Second element is true on a hit.
  template <typename Factory>
  std::pair<Value, bool> get_or_build(const Key& key, Factory&& factory) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      ++stats_.hits;
      return {it->second->second, true};
    }
    ++stats_.misses;
    Value v = factory();
    order_.emplace_front(key, v);
    map_[key] = order_.begin();
    if (map_.size() > capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
      ++stats_.evictions;
    }
    return {std::move(v), false};
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  std::size_t capacity() const { return capacity_; }
  LruStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  using Entry = std::pair<Key, Value>;

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map_;
  LruStats stats_;
};

/// FNV-1a style combiner for hand-rolled key hashes.
inline std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace hfmm::service
