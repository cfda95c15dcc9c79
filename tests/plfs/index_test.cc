#include "plfs/index.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "plfs/btree_index.h"

namespace tio::plfs {
namespace {

IndexEntry entry(std::uint64_t log, std::uint64_t len, std::uint64_t phys, std::int64_t ts,
                 std::uint32_t writer) {
  return IndexEntry{log, len, phys, ts, writer};
}

TEST(IndexSerialization, RoundTrip) {
  std::vector<IndexEntry> in = {
      entry(0, 100, 0, 1, 0),
      entry(100, 50, 100, 2, 3),
      entry(0, 10, 150, 3, 7),
  };
  const auto bytes = serialize_entries(in);
  EXPECT_EQ(bytes.size(), in.size() * IndexEntry::kSerializedSize);
  FragmentList fl;
  fl.append(DataView::literal(bytes));
  auto out = deserialize_entries(fl);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(IndexSerialization, EmptyIsValid) {
  FragmentList fl;
  auto out = deserialize_entries(fl);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(IndexSerialization, PartialRecordIsError) {
  FragmentList fl;
  fl.append(DataView::zeros(IndexEntry::kSerializedSize + 7));
  EXPECT_EQ(deserialize_entries(fl).status().code(), Errc::io_error);
}

TEST(IndexSerialization, ZeroLengthRecordIsError) {
  std::vector<IndexEntry> in = {entry(0, 100, 0, 1, 0), entry(100, 0, 100, 2, 0)};
  FragmentList fl;
  fl.append(DataView::literal(serialize_entries(in)));
  EXPECT_EQ(deserialize_entries(fl).status().code(), Errc::io_error);
}

TEST(IndexSerialization, LogicalExtentOverflowIsError) {
  std::vector<IndexEntry> in = {
      entry(std::numeric_limits<std::uint64_t>::max() - 10, 100, 0, 1, 0)};
  FragmentList fl;
  fl.append(DataView::literal(serialize_entries(in)));
  EXPECT_EQ(deserialize_entries(fl).status().code(), Errc::io_error);
}

TEST(IndexSerialization, PhysicalExtentOverflowIsError) {
  std::vector<IndexEntry> in = {
      entry(0, 100, std::numeric_limits<std::uint64_t>::max() - 10, 1, 0)};
  FragmentList fl;
  fl.append(DataView::literal(serialize_entries(in)));
  EXPECT_EQ(deserialize_entries(fl).status().code(), Errc::io_error);
}

TEST(IndexSerialization, TruncatedLogIsError) {
  // A log cut off mid-record (e.g. a writer died mid-append) must be
  // rejected wholesale, not parsed up to the tear.
  std::vector<IndexEntry> in = {entry(0, 100, 0, 1, 0), entry(100, 100, 100, 2, 0)};
  const auto bytes = serialize_entries(in);
  const auto whole = DataView::literal(bytes);
  FragmentList fl;
  fl.append(whole.slice(0, bytes.size() - 16));
  EXPECT_EQ(deserialize_entries(fl).status().code(), Errc::io_error);
}

TEST(IndexSerialization, SurvivesFragmentation) {
  std::vector<IndexEntry> in = {entry(1, 2, 3, 4, 5), entry(6, 7, 8, 9, 10)};
  const auto bytes = serialize_entries(in);
  const auto whole = DataView::literal(bytes);
  FragmentList fl;
  fl.append(whole.slice(0, 13));
  fl.append(whole.slice(13, bytes.size() - 13));
  auto out = deserialize_entries(fl);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

// Property test: random overlapping writes from several writers; the index
// (and the oracle) must agree with a byte-level reference that applies
// writes in timestamp order.
class IndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexProperty, MatchesReferenceUnderRandomOverlappingWrites) {
  Rng rng(GetParam());
  constexpr std::uint64_t kSize = 2000;
  constexpr int kWriters = 4;
  // reference[i] = (writer, physical offset) or (-1, 0) for holes.
  std::vector<std::pair<int, std::uint64_t>> ref(kSize, {-1, 0});
  std::vector<IndexEntry> entries;
  std::vector<std::uint64_t> phys(kWriters, 0);

  for (int op = 0; op < 200; ++op) {
    const auto writer = static_cast<std::uint32_t>(rng.below(kWriters));
    const std::uint64_t off = rng.below(kSize - 1);
    const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(kSize - off, 97) - 1 + 1);
    entries.push_back(entry(off, len, phys[writer], op + 1, writer));
    for (std::uint64_t i = 0; i < len; ++i) {
      ref[off + i] = {static_cast<int>(writer), phys[writer] + i};
    }
    phys[writer] += len;
  }
  // Shuffle entry order to prove build() re-sorts by timestamp.
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.below(i)]);
  }
  // Reconstruct a byte-level view from lookups and compare, for both the
  // production index and the test-only oracle.
  auto bytes_of = [](const std::vector<FlatIndex::Mapping>& mappings) {
    std::vector<std::pair<int, std::uint64_t>> got(kSize, {-1, 0});
    for (const auto& m : mappings) {
      for (std::uint64_t i = 0; i < m.length; ++i) {
        got[m.logical_offset + i] = {static_cast<int>(m.writer), m.physical_offset + i};
      }
    }
    return got;
  };
  EXPECT_EQ(bytes_of(FlatIndex::build(entries).lookup(0, kSize)), ref);
  EXPECT_EQ(bytes_of(BTreeIndex::build(entries).lookup(0, kSize)), ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexProperty, ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace tio::plfs
