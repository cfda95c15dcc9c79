// Test-only reference index: the original map-based PLFS global index.
//
// An eager interval map (std::map keyed by logical offset). Entries are
// inserted in timestamp order with splitting and compression, one
// node-based map mutation per entry: the "Original PLFS Design" cost model
// and a resolution algorithm independent of FlatIndex's offset sweep. The
// differential suites compare the production index against it; nothing
// outside tests/ links it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "plfs/index.h"

namespace tio::plfs {

class BTreeIndex final {
 public:
  using Mapping = FlatIndex::Mapping;

  // Builds from an unordered entry pool: sorts by timestamp (ties by writer)
  // so that later writes win, then inserts with splitting + compression.
  // `compress = false` keeps every resolved piece as its own mapping.
  static BTreeIndex build(std::vector<IndexEntry> entries, bool compress = true);
  // Same insertion pipeline minus the sort, for entries already in
  // timestamp order (e.g. the output of IndexBuilder::merged_run).
  static BTreeIndex from_sorted(const std::vector<IndexEntry>& sorted, bool compress = true);

  // Same contracts as the FlatIndex members of the same names.
  std::vector<Mapping> lookup(std::uint64_t offset, std::uint64_t len) const;
  std::uint64_t logical_size() const;
  std::size_t mapping_count() const { return map_.size(); }
  std::vector<IndexEntry> to_entries() const;
  std::uint64_t serialized_bytes() const { return mapping_count() * IndexEntry::kSerializedSize; }

 private:
  void insert(const IndexEntry& e, bool compress);
  // key = logical offset; entries non-overlapping.
  std::map<std::uint64_t, Mapping> map_;
};

}  // namespace tio::plfs
