#include "pfs/extent_map.h"

#include <algorithm>
#include <iterator>

namespace tio::pfs {

ExtentMap::Pos ExtentMap::lower(std::uint64_t off) const {
  // The last leaf starting at or before off holds every candidate except,
  // when all of its extents start below off, the next leaf's first.
  std::size_t li = 0;
  if (!starts_.empty()) {
    const auto leaf_it = std::upper_bound(starts_.begin(), starts_.end(), off);
    if (leaf_it == starts_.begin()) return {0, 0};
    li = static_cast<std::size_t>(leaf_it - starts_.begin()) - 1;
  } else if (leaves_.empty()) {
    return {0, 0};
  }
  const Leaf& leaf = leaves_[li];
  const auto slot_it = std::lower_bound(
      leaf.begin(), leaf.end(), off,
      [](const Extent& e, std::uint64_t o) { return e.offset < o; });
  if (slot_it == leaf.end()) return {li + 1, 0};
  return {li, static_cast<std::size_t>(slot_it - leaf.begin())};
}

ExtentMap::Pos ExtentMap::before(Pos p) const {
  if (p.slot > 0) return {p.leaf, p.slot - 1};
  return {p.leaf - 1, leaves_[p.leaf - 1].size() - 1};
}

void ExtentMap::append(std::uint64_t offset, DataView data) {
  if (!leaves_.empty()) {
    Leaf& last_leaf = leaves_.back();
    Extent& last = last_leaf.back();
    if (last.end() == offset && last.data.continues_with(data)) {
      last.data.extend(data.size());
      return;
    }
    if (last_leaf.size() < kLeafCap) {
      last_leaf.push_back(Extent{offset, std::move(data)});
      return;
    }
  }
  // A full last leaf means a long append stream: give the next leaf its
  // whole capacity at once.
  Leaf leaf;
  if (!leaves_.empty()) leaf.reserve(kLeafCap);
  leaf.push_back(Extent{offset, std::move(data)});
  insert_leaf(leaves_.size(), std::move(leaf));
}

void ExtentMap::insert_leaf(std::size_t li, Leaf leaf) {
  if (starts_.empty() && !leaves_.empty()) starts_.push_back(leaves_.front().front().offset);
  const std::uint64_t start = leaf.front().offset;
  leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li), std::move(leaf));
  if (leaves_.size() > 1) starts_.insert(starts_.begin() + static_cast<std::ptrdiff_t>(li), start);
}

void ExtentMap::erase_leaves(std::size_t first, std::size_t last) {
  leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(first),
                leaves_.begin() + static_cast<std::ptrdiff_t>(last));
  if (leaves_.size() < 2) {
    starts_.clear();
  } else {
    starts_.erase(starts_.begin() + static_cast<std::ptrdiff_t>(first),
                  starts_.begin() + static_cast<std::ptrdiff_t>(last));
  }
}

void ExtentMap::write(std::uint64_t offset, DataView data) {
  if (data.empty()) return;
  if (offset >= high_water()) {
    append(offset, std::move(data));
    return;
  }
  const std::uint64_t end = offset + data.size();

  // [lo, hi) holds the extents starting inside [offset, end): all of them
  // go, except that the last one's part past `end` survives. The extent
  // before lo may straddle `offset` (and `end` too).
  const Pos lo = lower(offset);
  Pos hi = lo;  // usually lo itself or a few slots on, so scan lo's leaf first
  while (!at_end(hi) && at(hi).offset < end) {
    if (++hi.slot == leaves_[hi.leaf].size()) {
      hi = lower(end);
      break;
    }
  }
  Pos a = lo;
  Pos b = hi;
  const bool has_prev = lo.leaf > 0 || lo.slot > 0;
  const Pos prev = has_prev ? before(lo) : Pos{};

  // `left` is the kept extent just before the write, `right` the part of
  // an overwritten extent past `end`.
  Extent left;
  Extent right;
  bool has_left = false;
  bool has_right = false;
  if (has_prev && at(prev).end() > offset) {
    const Extent& p = at(prev);
    a = prev;
    has_left = true;
    left = Extent{p.offset, p.data.slice(0, offset - p.offset)};
    if (p.end() > end) {
      has_right = true;
      right = Extent{end, p.data.slice(end - p.offset, p.end() - end)};
    }
  } else if (has_prev && at(prev).end() == offset && at(prev).data.continues_with(data)) {
    // An untouched neighbour that the new data continues joins the range
    // so that it can be extended below.
    a = prev;
    has_left = true;
    left = std::move(at(prev));
  }
  if (!has_right && (lo.leaf != hi.leaf || lo.slot != hi.slot)) {
    const Extent& q = at(before(hi));
    if (q.end() > end) {
      has_right = true;
      right = Extent{end, q.data.slice(end - q.offset, q.end() - end)};
    }
  }

  // Coalesce with byte-continuation neighbours: first onto the left
  // extent, then the right neighbour (the surviving tail, or an untouched
  // extent starting exactly at `end`) onto whatever now ends at `end`.
  const bool next_untouched = !has_right && !at_end(hi) && at(hi).offset == end;
  DataView* const next = has_right ? &right.data : next_untouched ? &at(hi).data : nullptr;
  Extent out[3];
  std::size_t n = 0;
  if (has_left && left.data.continues_with(data)) {
    left.data.extend(data.size());
    out[n++] = std::move(left);
  } else {
    if (has_left) out[n++] = std::move(left);
    out[n++] = Extent{offset, std::move(data)};
  }
  DataView& tail = out[n - 1].data;  // the extent now ending at `end`
  if (next != nullptr && tail.continues_with(*next)) {
    tail.extend(next->size());
    if (has_right) {
      has_right = false;
    } else {
      b = hi.slot + 1 < leaves_[hi.leaf].size() ? Pos{hi.leaf, hi.slot + 1} : Pos{hi.leaf + 1, 0};
    }
  }
  if (has_right) out[n++] = std::move(right);
  replace(a, b, out, n);
}

void ExtentMap::replace(Pos a, Pos b, Extent* out, std::size_t n) {
  if (b.leaf == a.leaf || (b.leaf == a.leaf + 1 && b.slot == 0)) {
    const std::size_t to = b.leaf == a.leaf ? b.slot : leaves_[a.leaf].size();
    splice(a.leaf, a.slot, to, out, n);
    return;
  }
  // The range spans leaves: drop the head of b's leaf, the whole leaves in
  // between, then splice the tail of a's leaf.
  if (!at_end(b) && b.slot > 0) {
    Leaf& last = leaves_[b.leaf];
    last.erase(last.begin(), last.begin() + static_cast<std::ptrdiff_t>(b.slot));
    refresh_start(b.leaf);
  }
  erase_leaves(a.leaf + 1, b.leaf);
  splice(a.leaf, a.slot, leaves_[a.leaf].size(), out, n);
}

void ExtentMap::splice(std::size_t li, std::size_t from, std::size_t to, Extent* out,
                       std::size_t n) {
  const std::size_t k = to - from;
  if (leaves_[li].size() + n > kLeafCap + k) {
    // Split before growing, so no leaf ever reallocates past kLeafCap. The
    // split point is the middle, or `from` when the (at most n-1 long)
    // replaced range straddles the middle, so that it lands in one half.
    Leaf& full = leaves_[li];
    const std::size_t half = full.size() / 2;
    const std::size_t cut = (from < half && half < to) ? from : half;
    Leaf upper;
    upper.reserve(kLeafCap);
    upper.assign(std::make_move_iterator(full.begin() + static_cast<std::ptrdiff_t>(cut)),
                 std::make_move_iterator(full.end()));
    full.erase(full.begin() + static_cast<std::ptrdiff_t>(cut), full.end());
    insert_leaf(li + 1, std::move(upper));
    if (from >= cut) {
      ++li;
      from -= cut;
      to -= cut;
    }
  }
  Leaf& leaf = leaves_[li];
  const auto first = leaf.begin() + static_cast<std::ptrdiff_t>(from);
  const std::size_t common = std::min(k, n);
  std::move(out, out + common, first);
  if (k > n) {
    leaf.erase(first + static_cast<std::ptrdiff_t>(n), leaf.begin() + static_cast<std::ptrdiff_t>(to));
  } else if (n > k) {
    leaf.insert(leaf.begin() + static_cast<std::ptrdiff_t>(to), std::make_move_iterator(out + k),
                std::make_move_iterator(out + n));
  }
  if (leaf.empty()) {
    erase_leaves(li, li + 1);
  } else {
    refresh_start(li);
  }
}

FragmentList ExtentMap::read(std::uint64_t offset, std::uint64_t len) const {
  FragmentList out;
  if (len == 0) return out;
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;

  Pos p = lower(pos);
  if (p.leaf > 0 || p.slot > 0) {
    const Pos prev = before(p);
    if (at(prev).end() > pos) p = prev;
  }
  for (std::size_t li = p.leaf; li < leaves_.size(); ++li) {
    const Leaf& leaf = leaves_[li];
    if (leaf.front().offset >= end) break;
    for (std::size_t si = li == p.leaf ? p.slot : 0; si < leaf.size(); ++si) {
      const Extent& e = leaf[si];
      if (e.offset >= end) break;
      if (e.offset > pos) {
        out.append(DataView::zeros(e.offset - pos));  // hole
        pos = e.offset;
      }
      const std::uint64_t take = std::min(end, e.end()) - pos;
      if (take > 0) {
        out.append(e.data.slice(pos - e.offset, take));
        pos += take;
      }
    }
  }
  if (pos < end) out.append(DataView::zeros(end - pos));  // trailing hole
  return out;
}

std::uint64_t ExtentMap::high_water() const {
  return leaves_.empty() ? 0 : leaves_.back().back().end();
}

void ExtentMap::truncate(std::uint64_t new_size) {
  const Pos p = lower(new_size);
  if (p.leaf > 0 || p.slot > 0) {
    Extent& prev = at(before(p));
    if (prev.end() > new_size) prev.data = prev.data.slice(0, new_size - prev.offset);
  }
  if (at_end(p)) return;
  Leaf& cut = leaves_[p.leaf];
  cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(p.slot), cut.end());
  erase_leaves(cut.empty() ? p.leaf : p.leaf + 1, leaves_.size());
}

std::size_t ExtentMap::extent_count() const {
  std::size_t n = 0;
  for (const Leaf& leaf : leaves_) n += leaf.size();
  return n;
}

std::uint64_t ExtentMap::backed_bytes() const {
  std::uint64_t total = 0;
  for_each([&total](std::uint64_t, const DataView& v) { total += v.size(); });
  return total;
}

}  // namespace tio::pfs
