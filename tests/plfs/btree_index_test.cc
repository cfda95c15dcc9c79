// The test-only BTreeIndex oracle checked on its own: overlap resolution,
// clipping, gaps and same-writer compression.
#include "plfs/btree_index.h"

#include <gtest/gtest.h>

namespace tio::plfs {
namespace {

IndexEntry entry(std::uint64_t log, std::uint64_t len, std::uint64_t phys, std::int64_t ts,
                 std::uint32_t writer) {
  return IndexEntry{log, len, phys, ts, writer};
}

TEST(BTreeIndex, EmptyIndex) {
  const BTreeIndex idx = BTreeIndex::build({});
  EXPECT_EQ(idx.logical_size(), 0u);
  EXPECT_TRUE(idx.lookup(0, 100).empty());
  EXPECT_EQ(idx.mapping_count(), 0u);
}

TEST(BTreeIndex, SingleEntryLookup) {
  const BTreeIndex idx = BTreeIndex::build({entry(100, 50, 0, 1, 2)});
  auto m = idx.lookup(100, 50);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], (BTreeIndex::Mapping{100, 50, 2, 0}));
  EXPECT_EQ(idx.logical_size(), 150u);
}

TEST(BTreeIndex, LookupClipsToRequest) {
  const BTreeIndex idx = BTreeIndex::build({entry(100, 100, 500, 1, 1)});
  auto m = idx.lookup(150, 20);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].logical_offset, 150u);
  EXPECT_EQ(m[0].length, 20u);
  EXPECT_EQ(m[0].physical_offset, 550u);
}

TEST(BTreeIndex, LaterTimestampWinsOnOverlap) {
  const BTreeIndex idx = BTreeIndex::build({
      entry(0, 100, 0, /*ts=*/10, /*writer=*/1),
      entry(40, 20, 0, /*ts=*/20, /*writer=*/2),
  });
  auto m = idx.lookup(0, 100);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].writer, 1u);
  EXPECT_EQ(m[0].length, 40u);
  EXPECT_EQ(m[1].writer, 2u);
  EXPECT_EQ(m[1].length, 20u);
  EXPECT_EQ(m[2].writer, 1u);
  EXPECT_EQ(m[2].logical_offset, 60u);
  EXPECT_EQ(m[2].physical_offset, 60u);  // split keeps physical alignment
}

TEST(BTreeIndex, BuildOrderDoesNotMatterTimestampsDo) {
  const std::vector<IndexEntry> forward = {entry(0, 100, 0, 10, 1), entry(40, 20, 0, 20, 2)};
  const std::vector<IndexEntry> reversed = {entry(40, 20, 0, 20, 2), entry(0, 100, 0, 10, 1)};
  const BTreeIndex a = BTreeIndex::build(forward);
  const BTreeIndex b = BTreeIndex::build(reversed);
  EXPECT_EQ(a.lookup(0, 100), b.lookup(0, 100));
}

TEST(BTreeIndex, OlderEntryNeverClobbersNewer) {
  const BTreeIndex idx = BTreeIndex::build({
      entry(0, 50, 0, /*ts=*/30, 1),   // newest, inserted last by sort
      entry(0, 100, 0, /*ts=*/10, 2),  // oldest
  });
  auto m = idx.lookup(0, 100);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].writer, 1u);
  EXPECT_EQ(m[0].length, 50u);
  EXPECT_EQ(m[1].writer, 2u);
  EXPECT_EQ(m[1].logical_offset, 50u);
}

TEST(BTreeIndex, GapsAreOmittedFromLookup) {
  const BTreeIndex idx = BTreeIndex::build({entry(0, 10, 0, 1, 1), entry(100, 10, 10, 2, 1)});
  auto m = idx.lookup(0, 200);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].logical_offset, 0u);
  EXPECT_EQ(m[1].logical_offset, 100u);
  EXPECT_EQ(idx.logical_size(), 110u);
}

TEST(BTreeIndex, CompressesContiguousSameWriterEntries) {
  // A sequential writer: 100 entries, logically and physically contiguous.
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back(entry(i * 1000, 1000, i * 1000, i + 1, 4));
  }
  const BTreeIndex idx = BTreeIndex::build(entries);
  EXPECT_EQ(idx.mapping_count(), 1u);
  EXPECT_EQ(idx.logical_size(), 100000u);
  auto m = idx.lookup(55500, 1000);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].physical_offset, 55500u);
}

TEST(BTreeIndex, DoesNotCompressAcrossWriters) {
  const BTreeIndex idx = BTreeIndex::build({entry(0, 10, 0, 1, 1), entry(10, 10, 0, 2, 2)});
  EXPECT_EQ(idx.mapping_count(), 2u);
}

TEST(BTreeIndex, DoesNotCompressNonContiguousPhysical) {
  // N-1 strided writer: logical gaps between its records.
  const BTreeIndex idx = BTreeIndex::build({entry(0, 10, 0, 1, 1), entry(100, 10, 10, 2, 1)});
  EXPECT_EQ(idx.mapping_count(), 2u);
}

TEST(BTreeIndex, StridedPatternFromManyWritersStaysPerRecord) {
  // 4 writers, stride 4: writer w owns records w, w+4, w+8 ... nothing
  // merges because neighbours in logical space come from different writers.
  std::vector<IndexEntry> entries;
  const std::uint64_t rec = 100;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t w = i % 4;
    entries.push_back(entry(i * rec, rec, (i / 4) * rec, i + 1, w));
  }
  const BTreeIndex idx = BTreeIndex::build(entries);
  EXPECT_EQ(idx.mapping_count(), 64u);
  // But every byte is mapped.
  auto m = idx.lookup(0, 64 * rec);
  EXPECT_EQ(m.size(), 64u);
}

TEST(BTreeIndex, ToEntriesRoundTripsThroughBuild) {
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 10; ++i) entries.push_back(entry(i * 7, 7, i * 13, i, i % 3));
  const BTreeIndex idx = BTreeIndex::build(entries);
  const BTreeIndex again = BTreeIndex::build(idx.to_entries());
  EXPECT_EQ(idx.lookup(0, 100), again.lookup(0, 100));
  EXPECT_EQ(idx.logical_size(), again.logical_size());
}

TEST(BTreeIndex, SerializedBytesTracksMappingCount) {
  const BTreeIndex idx = BTreeIndex::build({entry(0, 10, 0, 1, 1), entry(20, 10, 10, 2, 1)});
  EXPECT_EQ(idx.serialized_bytes(), 2 * IndexEntry::kSerializedSize);
}

}  // namespace
}  // namespace tio::plfs
