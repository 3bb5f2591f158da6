// Single-shard, byte-budgeted LRU map — the eviction/recency/accounting
// core of core::QueryCache, which instantiates one per shard (under the
// shard mutex).
//
// Semantics (pinned by tests/lru_test and query_cache_test):
//   * Find refreshes recency and returns a pointer into the cache, valid
//     until the next mutating call.
//   * Insert on a present key only refreshes recency — entries are
//     write-once (cache values are deterministic functions of their keys,
//     so the stored value is already identical).
//   * An entry larger than the whole budget is not admitted.
//   * After an admission, least-recently-used entries are evicted until the
//     byte total fits the budget again (the newest entry itself survives).
//
// Not thread-safe; callers own locking (QueryCache does, per shard).
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace pcde {

template <typename K, typename V, typename Hash = std::hash<K>>
class Lru {
 public:
  /// Observes each eviction (key, value, accounted bytes) before the entry
  /// is destroyed — both caches count their eviction stats through this.
  /// The entry is already detached from the cache (not findable, bytes
  /// released) when the callback runs, so a callback may reenter Insert or
  /// Clear on the same Lru without invalidating the entry it was handed.
  using EvictionCallback = std::function<void(const K&, V&, size_t)>;

  explicit Lru(size_t max_bytes) : max_bytes_(max_bytes) {}

  Lru(const Lru&) = delete;
  Lru& operator=(const Lru&) = delete;

  size_t max_bytes() const { return max_bytes_; }
  size_t entries() const { return lru_.size(); }
  size_t bytes() const { return bytes_; }

  void set_eviction_callback(EvictionCallback cb) { on_evict_ = std::move(cb); }

  /// Refreshes the entry's recency and returns its value; nullptr on miss.
  /// The pointer is invalidated by the next Insert or Clear.
  V* Find(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Refreshes the entry's recency without touching the value; true when
  /// the key is present. The write path's cheap probe: callers check
  /// Touch (and the byte budget) before constructing a value at all, so a
  /// refresh or a rejection never pays the value copy.
  bool Touch(const K& key) { return Find(key) != nullptr; }

  /// Admits `value` under `bytes` of accounting, then evicts down to the
  /// budget; true when the entry was inserted. A present key is only
  /// refreshed (the value is not replaced — cached values are
  /// deterministic functions of their keys), and an entry larger than the
  /// whole budget is rejected. One hash probe per call: the index slot is
  /// claimed up front and released again on rejection.
  bool Insert(const K& key, V value, size_t bytes) {
    auto [it, inserted] = index_.try_emplace(key, lru_.end());
    if (!inserted) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return false;
    }
    if (bytes > max_bytes_) {  // cannot fit even alone
      index_.erase(it);
      return false;
    }
    lru_.push_front(Entry{key, std::move(value), bytes});
    it->second = lru_.begin();
    bytes_ += bytes;
    while (bytes_ > max_bytes_ && lru_.size() > 1) {
      // Detach the victim completely — spliced out of the list, index slot
      // erased, bytes released — before the callback sees it. A callback
      // that reenters Insert/Clear then operates on a consistent cache and
      // cannot invalidate the entry being reported out from under us.
      std::list<Entry> detached;
      detached.splice(detached.begin(), lru_, std::prev(lru_.end()));
      Entry& victim = detached.front();
      bytes_ -= victim.bytes;
      index_.erase(victim.key);
      if (on_evict_) on_evict_(victim.key, victim.value, victim.bytes);
    }
    return true;
  }

  void Clear() {
    lru_.clear();
    index_.clear();
    bytes_ = 0;
  }

 private:
  struct Entry {
    K key;
    V value;
    size_t bytes;
  };

  size_t max_bytes_;
  std::list<Entry> lru_;  // most recently used at the front
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
  size_t bytes_ = 0;
  EvictionCallback on_evict_;
};

}  // namespace pcde
