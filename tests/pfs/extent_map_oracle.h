// Test-only reference extent map: the original std::map-backed store.
//
// One red-black-tree node per extent, with the split / last-writer-wins /
// coalescing algorithm written directly against std::map. The production
// ExtentMap (src/pfs/extent_map.h) keeps the same decomposition in a
// contiguous two-level store; the differential suite ExtentMapOracle.*
// compares the two extent by extent. Nothing outside tests/ links this.
#pragma once

#include <cstdint>
#include <map>

#include "common/dataview.h"

namespace tio::pfs::oracle {

class ExtentMap {
 public:
  void write(std::uint64_t offset, DataView data);

  // Content of [offset, offset+len); holes come back as zeros. The caller
  // is responsible for EOF clipping (this map has no notion of file size
  // beyond the last written byte).
  FragmentList read(std::uint64_t offset, std::uint64_t len) const;

  // Largest written end-offset (0 when empty).
  std::uint64_t high_water() const;
  // Discards all content at or beyond new_size; splits a straddling extent.
  void truncate(std::uint64_t new_size);

  std::size_t extent_count() const { return extents_.size(); }
  bool empty() const { return extents_.empty(); }
  // Sorted, non-overlapping (offset -> content) extents.
  const std::map<std::uint64_t, DataView>& extents() const { return extents_; }
  // Total bytes of backed (non-hole) content.
  std::uint64_t backed_bytes() const;

 private:
  // key = extent start offset.
  std::map<std::uint64_t, DataView> extents_;
};

}  // namespace tio::pfs::oracle
