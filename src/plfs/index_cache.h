// Byte-budgeted LRU cache for per-container index state.
//
// Plfs used to memoize built serial indices and parsed index logs in two
// unbounded maps that were cleared wholesale on any open_write/unlink of
// any file. This cache replaces both:
//
//   * entries are charged against a byte budget (FlatIndex::memory_bytes /
//     raw entry bytes) and evicted LRU when over budget;
//   * invalidation is per container: open_write/unlink of one logical file
//     bumps that container's generation and eagerly drops only its entries,
//     leaving every other container's cached index warm.
//
// The simulator is single-threaded per Plfs instance, so no locking.
// Hit/miss/eviction/byte totals are mirrored into common/stats counters
// under "plfs.index_cache." for the benches.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "plfs/index.h"
#include "plfs/index_builder.h"

namespace tio::plfs {

class IndexCache {
 public:
  using LogEntries = std::shared_ptr<const std::vector<IndexEntry>>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t bytes = 0;    // currently cached
    std::uint64_t entries = 0;  // currently cached
  };

  explicit IndexCache(std::uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  // Built serial index for one container (keyed by normalized logical path).
  IndexPtr get_index(const std::string& container);
  void put_index(const std::string& container, IndexPtr index);

  // Parsed entries of one index log inside a container. The container key
  // scopes invalidation; `path` is the physical log path.
  LogEntries get_log(const std::string& container, const std::string& path);
  void put_log(const std::string& container, const std::string& path, LogEntries entries);

  // Drops everything cached for this container and bumps its generation.
  // Called on open_write/unlink/global-index rewrite.
  void invalidate(const std::string& container);
  // Current generation of a container; bumped by every invalidate(). Lets
  // callers detect writes that happened while they were aggregating.
  std::uint64_t generation(const std::string& container) const;

  void clear();
  const Stats& stats() const { return stats_; }
  std::uint64_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    IndexPtr index;      // exactly one of index/log set
    LogEntries log;
    std::uint64_t bytes = 0;
    std::string container;
    std::list<std::string>::iterator lru_it;
  };

  // Returns the entry if cached, refreshing LRU position; else nullptr.
  Entry* find(const std::string& key);
  void insert(const std::string& key, const std::string& container, Entry entry);
  void erase_key(const std::string& key);
  void evict_to_budget();

  std::uint64_t budget_bytes_;
  Stats stats_;
  std::list<std::string> lru_;  // front = most recent
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::vector<std::string>> by_container_;
  std::unordered_map<std::string, std::uint64_t> generations_;
};

}  // namespace tio::plfs
