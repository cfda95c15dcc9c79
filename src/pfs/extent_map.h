// Sparse extent map: the byte store behind every simulated file object.
//
// Holds non-overlapping, sorted extents of pattern-described data. Writes
// split or replace whatever they overlap (last-writer-wins, like a disk);
// reads zero-fill holes. Adjacent extents whose content descriptors are
// byte-for-byte continuations are coalesced, so a log-structured append
// stream of any length collapses to a single extent.
//
// Storage is a contiguous two-level store (DESIGN.md §5d item 8): a sorted
// vector of leaves, each a sorted vector of at most kLeafCap extents, plus
// a parallel vector of leaf start offsets. A write at or past the end goes
// straight to the last leaf; every other write and every read is one
// binary search over the leaf starts and one inside a leaf. A mid-map
// insert moves at most one leaf's extents, and a full leaf splits in two.
// Most file objects hold a handful of extents, so a one-leaf map keeps no
// start offsets: with one extent its two heap blocks weigh about what the
// single tree node of a std::map did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/dataview.h"

namespace tio::pfs {

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

  std::size_t extent_count() const;
  bool empty() const { return leaves_.empty(); }
  // Calls fn(offset, view) for every extent in ascending offset order, for
  // consumers that walk written ranges (e.g. collective-buffering
  // aggregators). The map must not be modified during the walk.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Leaf& leaf : leaves_) {
      for (const Extent& e : leaf) fn(e.offset, e.data);
    }
  }
  // Total bytes of backed (non-hole) content.
  std::uint64_t backed_bytes() const;

 private:
  struct Extent {
    std::uint64_t offset = 0;
    DataView data;
    std::uint64_t end() const { return offset + data.size(); }
  };
  using Leaf = std::vector<Extent>;
  static constexpr std::size_t kLeafCap = 64;

  // An extent's place: leaves_[leaf][slot]. Normalized positions have
  // slot < leaves_[leaf].size(), or are the end position {leaves_.size(), 0}.
  struct Pos {
    std::size_t leaf = 0;
    std::size_t slot = 0;
  };

  Pos lower(std::uint64_t off) const;  // first extent with offset >= off
  Pos before(Pos p) const;             // precondition: p is not the first extent
  bool at_end(Pos p) const { return p.leaf == leaves_.size(); }
  Extent& at(Pos p) { return leaves_[p.leaf][p.slot]; }
  const Extent& at(Pos p) const { return leaves_[p.leaf][p.slot]; }

  void append(std::uint64_t offset, DataView data);
  // Replaces the extents in [a, b) with out[0, n).
  void replace(Pos a, Pos b, Extent* out, std::size_t n);
  // Replaces leaves_[li][from, to) with out[0, n), splitting a leaf that
  // would overflow and dropping one that empties.
  void splice(std::size_t li, std::size_t from, std::size_t to, Extent* out, std::size_t n);
  // Inserts `leaf` at index li / erases leaves [first, last), keeping starts_.
  void insert_leaf(std::size_t li, Leaf leaf);
  void erase_leaves(std::size_t first, std::size_t last);
  void refresh_start(std::size_t li) {
    if (!starts_.empty()) starts_[li] = leaves_[li].front().offset;
  }

  std::vector<Leaf> leaves_;  // never holds an empty leaf
  // starts_[i] == leaves_[i].front().offset while there are two leaves or
  // more; empty otherwise.
  std::vector<std::uint64_t> starts_;
};

}  // namespace tio::pfs
