// Differential suite: the two-level ExtentMap against the std::map oracle.
//
// The extent decomposition is observable: collective buffering turns each
// staged extent into storage operations, so a different split or a missed
// coalesce changes simulated time. Every stream below therefore checks,
// after every operation, the full extent list (offset, kind, seed, base,
// size), extent_count, high_water and a random read's fragment list, not
// just the bytes. The large streams span 200 leaves of 64 extents; the
// strided base log they start from is checked once when laid down, and
// after every append in NonCoalescingStridedAppends.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pfs/extent_map.h"
#include "pfs/extent_map_oracle.h"

namespace tio::pfs {
namespace {

constexpr std::size_t kManyLeaves = 200 * 64;  // extents in the large streams

bool same_view(const DataView& a, const DataView& b) {
  if (a.kind() != b.kind() || a.size() != b.size()) return false;
  switch (a.kind()) {
    case DataView::Kind::zero: return true;
    case DataView::Kind::pattern:
      return a.pattern_seed() == b.pattern_seed() && a.pattern_base() == b.pattern_base();
    case DataView::Kind::literal: return a.content_equals(b);
  }
  return false;
}

std::string describe(std::uint64_t off, const DataView& v) {
  return "{off " + std::to_string(off) + " kind " + std::to_string(static_cast<int>(v.kind())) +
         " seed " + std::to_string(v.pattern_seed()) + " base " +
         std::to_string(v.pattern_base()) + " size " + std::to_string(v.size()) + "}";
}

// Applies every operation to both stores and compares them after each.
class Differ {
 public:
  explicit Differ(std::uint64_t seed) : rng_(seed) {}

  void write(std::uint64_t off, const DataView& data) {
    if (::testing::Test::HasFatalFailure()) return;  // report the first divergence only
    map_.write(off, data);
    oracle_.write(off, data);
    ++ops_;
    check();
  }
  void truncate(std::uint64_t size) {
    if (::testing::Test::HasFatalFailure()) return;
    map_.truncate(size);
    oracle_.truncate(size);
    ++ops_;
    check();
  }

  // Lays down a strided log on both stores, checking once at the end: the
  // base the mutation streams start from. (NonCoalescingStridedAppends
  // checks the same stream after every append.)
  void prefill(std::size_t count, std::uint64_t len, std::uint64_t stride, std::uint64_t seed) {
    for (std::size_t i = 0; i < count; ++i) {
      map_.write(i * stride, DataView::pattern(seed, i * stride, len));
      oracle_.write(i * stride, DataView::pattern(seed, i * stride, len));
    }
    check();
    ASSERT_EQ(map_.backed_bytes(), oracle_.backed_bytes());
  }

  Rng& rng() { return rng_; }
  std::size_t extent_count() const { return map_.extent_count(); }
  std::uint64_t high_water() const { return map_.high_water(); }

 private:
  void check() {
    ASSERT_EQ(map_.extent_count(), oracle_.extent_count()) << "op " << ops_;
    ASSERT_EQ(map_.empty(), oracle_.empty()) << "op " << ops_;
    ASSERT_EQ(map_.high_water(), oracle_.high_water()) << "op " << ops_;
    auto it = oracle_.extents().begin();
    std::size_t i = 0;
    std::string mismatch;
    map_.for_each([&](std::uint64_t off, const DataView& v) {
      if (!mismatch.empty()) return;
      if (it == oracle_.extents().end()) {
        mismatch = "extra extent " + describe(off, v);
      } else if (it->first != off || !same_view(it->second, v)) {
        mismatch = "extent " + std::to_string(i) + ": got " + describe(off, v) + " want " +
                   describe(it->first, it->second);
      } else {
        ++it;
        ++i;
      }
    });
    ASSERT_TRUE(mismatch.empty()) << "op " << ops_ << ": " << mismatch;

    // One random read, compared fragment by fragment; it may start in a
    // hole, inside an extent, or past the end.
    const std::uint64_t span = oracle_.high_water() + 64;
    const std::uint64_t roff = rng_.below(span);
    const std::uint64_t rlen = rng_.below(std::min<std::uint64_t>(span - roff, 4096) + 1);
    const FragmentList got = map_.read(roff, rlen);
    const FragmentList want = oracle_.read(roff, rlen);
    ASSERT_EQ(got.size(), rlen);
    ASSERT_EQ(got.fragments().size(), want.fragments().size())
        << "op " << ops_ << " read [" << roff << ", +" << rlen << ")";
    for (std::size_t f = 0; f < want.fragments().size(); ++f) {
      ASSERT_TRUE(same_view(got.fragments()[f], want.fragments()[f]))
          << "op " << ops_ << " fragment " << f << ": got "
          << describe(0, got.fragments()[f]) << " want " << describe(0, want.fragments()[f]);
    }
  }

  ExtentMap map_;
  oracle::ExtentMap oracle_;
  Rng rng_;
  std::size_t ops_ = 0;
};

// Strided logs put record i (`len` bytes) at i * stride, pattern based at
// its own offset, so a backfill of a gap with the same seed continues both
// neighbours.
DataView record(std::uint64_t seed, std::uint64_t off, std::uint64_t len) {
  return DataView::pattern(seed, off, len);
}

class ExtentMapOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapOracle, NonCoalescingStridedAppends) {
  Differ d(GetParam());
  // ckpt_n1's data-log shape: one record per stride, never adjacent.
  for (std::size_t i = 0; i < kManyLeaves; ++i) d.write(i * 48, record(GetParam(), i * 48, 16));
  EXPECT_EQ(d.extent_count(), kManyLeaves);
}

TEST_P(ExtentMapOracle, CoalescingAppends) {
  Differ d(GetParam());
  std::uint64_t off = 0;
  std::uint64_t seed = 1;
  for (int i = 0; i < 8000; ++i) {
    // Mostly byte continuations; every so often a new seed, a zero run or
    // a gap starts a fresh extent.
    const std::uint64_t roll = d.rng().below(8);
    if (roll == 0) ++seed;
    if (roll == 1) off += 1 + d.rng().below(32);
    const std::uint64_t len = 1 + d.rng().below(64);
    if (roll == 2) {
      d.write(off, DataView::zeros(len));
    } else {
      d.write(off, DataView::pattern(seed, off, len));
    }
    off += len;
  }
  EXPECT_LT(d.extent_count(), 4000u);
}

TEST_P(ExtentMapOracle, BackfillsJoinAcrossLeafBoundaries) {
  Differ d(GetParam());
  const std::uint64_t seed = GetParam();
  d.prefill(kManyLeaves, 32, 64, seed);
  // Gap i sits between record i and i+1. The gaps after records 63, 127,
  // ... sit on a leaf boundary of the append-built store; fill those
  // first, then 2000 other gaps in random order, each with the pattern
  // that continues both neighbours.
  std::vector<std::uint64_t> gaps;
  for (std::size_t i = 63; i + 1 < kManyLeaves; i += 64) gaps.push_back(i);
  const std::size_t boundary = gaps.size();
  for (std::size_t i = 0; i + 1 < kManyLeaves; ++i) {
    if (i % 64 != 63) gaps.push_back(i);
  }
  for (std::size_t k = gaps.size() - 1; k > boundary; --k) {
    std::swap(gaps[k], gaps[boundary + d.rng().below(k - boundary + 1)]);
  }
  gaps.resize(boundary + 2000);
  for (const std::uint64_t i : gaps) {
    const std::uint64_t off = i * 64 + 32;
    d.write(off, record(seed, off, 32));
  }
  EXPECT_EQ(d.extent_count(), kManyLeaves - gaps.size());
}

TEST_P(ExtentMapOracle, OverwritesSpanningSeveralLeaves) {
  Differ d(GetParam());
  d.prefill(kManyLeaves, 16, 48, GetParam());
  const std::uint64_t hw = d.high_water();
  for (int op = 0; op < 200; ++op) {
    // Start in a hole, on an edge or inside a record; span up to ~6
    // leaves' worth of records; sometimes continue the pattern.
    const std::uint64_t off = d.rng().below(hw);
    const std::uint64_t len = 1 + d.rng().below(6 * 64 * 48);
    const std::uint64_t seed = d.rng().chance(0.3) ? GetParam() : 1000 + d.rng().below(4);
    d.write(off, DataView::pattern(seed, off, len));
  }
}

TEST_P(ExtentMapOracle, StraddlingWrites) {
  Differ d(GetParam());
  d.prefill(kManyLeaves, 40, 64, GetParam());
  for (int op = 0; op < 1000; ++op) {
    const std::uint64_t i = d.rng().below(kManyLeaves);
    const std::uint64_t start = i * 64;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    switch (d.rng().below(4)) {
      case 0:  // straddles the record's start edge
        off = start - std::min<std::uint64_t>(start, 1 + d.rng().below(20));
        len = start - off + 1 + d.rng().below(30);
        break;
      case 1:  // straddles its end edge
        off = start + 1 + d.rng().below(39);
        len = start + 40 - off + 1 + d.rng().below(20);
        break;
      case 2:  // strictly inside: splits the record in three
        off = start + 1 + d.rng().below(30);
        len = 1 + d.rng().below(start + 39 - off);
        break;
      default:  // exactly over it, continuing the pattern or not
        off = start;
        len = 40;
        break;
    }
    const std::uint64_t seed = d.rng().chance(0.5) ? GetParam() : 77;
    d.write(off, DataView::pattern(seed, off, len));
  }
}

TEST_P(ExtentMapOracle, TruncatesMidLeafAndAtLeafBoundaries) {
  Differ d(GetParam());
  d.prefill(kManyLeaves, 16, 48, GetParam());
  std::size_t records = kManyLeaves;
  for (int round = 0; round < 40 && records > 256; ++round) {
    std::uint64_t size = 0;
    switch (round % 4) {
      case 0:  // at a leaf boundary of the append-built store
        size = (records / 64 - 1) * 64 * 48;
        break;
      case 1:  // mid-leaf, on a record start
        size = (records - 1 - d.rng().below(40)) * 48;
        break;
      case 2:  // mid-record: splits the straddling extent
        size = (records - 1 - d.rng().below(40)) * 48 + 1 + d.rng().below(15);
        break;
      default:  // in a hole
        size = (records - 1 - d.rng().below(40)) * 48 + 16 + d.rng().below(32);
        break;
    }
    d.truncate(size);
    records = (size + 47) / 48;
    // Grow again past the cut, so later truncates hit refilled leaves.
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t off = records * 48;
      d.write(off, record(GetParam(), off, 16));
      ++records;
    }
  }
  d.truncate(d.high_water() + 100);  // past the end: no change
  d.truncate(0);
  EXPECT_EQ(d.extent_count(), 0u);
}

TEST_P(ExtentMapOracle, ZeroLengthWritesChangeNothing) {
  Differ d(GetParam());
  d.prefill(64 * 20, 16, 48, GetParam());
  const std::size_t before = d.extent_count();
  for (int op = 0; op < 500; ++op) {
    d.write(d.rng().below(d.high_water() + 100), DataView::pattern(GetParam(), 0, 0));
  }
  EXPECT_EQ(d.extent_count(), before);
}

TEST_P(ExtentMapOracle, RandomMixedOperations) {
  Differ d(GetParam());
  // Literal slices of one buffer coalesce when adjacent, like patterns.
  std::vector<std::byte> bytes(1 << 16);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::byte>(i * 131);
  const DataView literal = DataView::literal(std::move(bytes));
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t hw = d.high_water();
    const std::uint64_t roll = d.rng().below(100);
    if (roll < 2) {
      d.truncate(d.rng().below(hw + 1));
      continue;
    }
    const std::uint64_t off = roll < 40 ? hw + d.rng().below(64) : d.rng().below(hw + 64);
    const std::uint64_t len = d.rng().below(256);
    if (roll % 5 == 0) {
      d.write(off, DataView::zeros(len));
    } else if (roll % 5 == 1) {
      const std::uint64_t at = off % (literal.size() - 256);
      d.write(off, literal.slice(at, len));
    } else {
      d.write(off, DataView::pattern(d.rng().below(3), off, len));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapOracle, ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace tio::pfs
