// Property/fuzz tests for the varint codec and the v2 index wire format.
//
// The invariant under test: for any entry batch — strided, sequential,
// overlapping, irregular, hostile timestamps — encode(v2) then decode
// reproduces the exact entry vector, in order, bit for bit. And for any
// damaged buffer — truncated at every possible length, any single byte
// flipped, version confused — decoding rejects with an Errc::io_error that
// names a byte offset, never crashes, never returns wrong entries.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/mount.h"
#include "plfs/pattern.h"

namespace tio::plfs {
namespace {

FragmentList as_fragments(std::vector<std::byte> bytes) {
  FragmentList fl;
  fl.append(DataView::literal(std::move(bytes)));
  return fl;
}

// --- varint layer ---------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63) - 1,
                                  1ull << 63,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::vector<std::byte> buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    ByteReader r(buf.data(), buf.size());
    std::uint64_t got = 0;
    ASSERT_TRUE(r.get_varint(got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(r.remaining(), 0u) << v;
  }
}

TEST(Varint, SignedZigzagRoundTrips) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 63,
                                 -65,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
    std::vector<std::byte> buf;
    put_varint_signed(buf, v);
    ByteReader r(buf.data(), buf.size());
    std::int64_t got = 0;
    ASSERT_TRUE(r.get_varint_signed(got)) << v;
    EXPECT_EQ(got, v);
  }
  // Small magnitudes stay small on the wire — the point of zigzag.
  std::vector<std::byte> buf;
  put_varint_signed(buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, RandomFuzzRoundTrips) {
  Rng rng(0xC0DEC);
  std::vector<std::byte> buf;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes so every encoded length is exercised.
    const std::uint64_t v = rng.below(std::numeric_limits<std::uint64_t>::max()) >> rng.below(64);
    values.push_back(v);
    put_varint(buf, v);
  }
  ByteReader r(buf.data(), buf.size());
  for (const std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(r.get_varint(got));
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Varint, RejectsTruncatedAndOverlong) {
  // Truncated: continuation bit set but the buffer ends.
  const std::byte trunc[] = {std::byte{0x80}, std::byte{0x80}};
  ByteReader r1(trunc, sizeof(trunc));
  std::uint64_t out = 0;
  EXPECT_FALSE(r1.get_varint(out));
  // Overlong: 10 continuation bytes with bits beyond the 64th.
  std::vector<std::byte> over(10, std::byte{0xFF});
  ByteReader r2(over.data(), over.size());
  EXPECT_FALSE(r2.get_varint(out));
  // 11-byte encoding is rejected even if it would decode to a small value.
  std::vector<std::byte> eleven(10, std::byte{0x80});
  eleven.push_back(std::byte{0x01});
  ByteReader r3(eleven.data(), eleven.size());
  EXPECT_FALSE(r3.get_varint(out));
}

// --- workload generators --------------------------------------------------

// N-1 strided checkpoint: the pattern codec's home turf.
std::vector<IndexEntry> strided_workload(int writers, int rounds, std::uint64_t record) {
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int r = 0; r < rounds; ++r) {
    for (int w = 0; w < writers; ++w) {
      out.push_back(IndexEntry{(static_cast<std::uint64_t>(r) * writers + w) * record, record,
                               phys[w], static_cast<std::int64_t>(out.size()) * 1000 + 17,
                               static_cast<std::uint32_t>(w)});
      phys[w] += record;
    }
  }
  return out;
}

// One writer appending sequentially.
std::vector<IndexEntry> sequential_workload(int records, std::uint64_t record) {
  std::vector<IndexEntry> out;
  for (int i = 0; i < records; ++i) {
    out.push_back(IndexEntry{static_cast<std::uint64_t>(i) * record, record,
                             static_cast<std::uint64_t>(i) * record,
                             static_cast<std::int64_t>(i + 1), 0});
  }
  return out;
}

// Random overlapping writes with irregular sizes and timestamps: worst case
// for the detector, everything spills to delta-coded literals.
std::vector<IndexEntry> irregular_workload(std::uint64_t seed, int writers, int ops) {
  Rng rng(seed);
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int op = 0; op < ops; ++op) {
    const auto writer = static_cast<std::uint32_t>(rng.below(writers));
    const std::uint64_t len = 1 + rng.below(64 << 10);
    const std::uint64_t off = rng.below(1 << 20);
    out.push_back(IndexEntry{off, len, phys[writer],
                             static_cast<std::int64_t>(op * 1000 + rng.below(997)), writer});
    phys[writer] += len;
  }
  return out;
}

struct NamedWorkload {
  const char* name;
  std::vector<IndexEntry> entries;
};

std::vector<NamedWorkload> all_workloads() {
  std::vector<NamedWorkload> out;
  out.push_back({"strided", strided_workload(16, 64, 47 << 10)});
  out.push_back({"sequential", sequential_workload(2048, 4096)});
  out.push_back({"overlapping", strided_workload(8, 32, 8192)});
  // Overlap the strided base with a second pass at half stride.
  for (auto e : strided_workload(8, 32, 8192)) {
    e.logical_offset += 4096;
    e.timestamp_ns += 1 << 20;
    out.back().entries.push_back(e);
  }
  out.push_back({"irregular", irregular_workload(0xFEED, 6, 1500)});
  out.push_back({"tiny", {IndexEntry{0, 100, 0, 1, 0}}});
  return out;
}

// --- v2 round trips -------------------------------------------------------

TEST(WireV2, RoundTripsBitExactly) {
  for (const auto& [name, entries] : all_workloads()) {
    const auto buf = encode_entries(entries, WireFormat::v2);
    const auto got = decode_entries(as_fragments(buf));
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(*got, entries) << name;  // same entries, same order
  }
}

TEST(WireV2, ConcatenatedSegmentsDecodeInOrder) {
  // Index logs are flushed in batches; the file is segment after segment.
  const auto a = strided_workload(4, 16, 4096);
  const auto b = irregular_workload(0xBEEF, 3, 100);
  std::vector<std::byte> buf;
  append_encoded(buf, a, WireFormat::v2);
  append_encoded(buf, b, WireFormat::v2);
  const auto got = decode_entries(as_fragments(buf));
  ASSERT_TRUE(got.ok()) << got.status();
  std::vector<IndexEntry> want = a;
  want.insert(want.end(), b.begin(), b.end());
  EXPECT_EQ(*got, want);
}

TEST(WireV2, EmptyBatchEncodesToNothing) {
  EXPECT_TRUE(encode_entries({}, WireFormat::v2).empty());
  EXPECT_EQ(encoded_size({}, WireFormat::v2), 0u);
  const auto got = decode_entries(FragmentList{});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(WireV2, IrregularTimestampsUseResidualsNotCorrectness) {
  // Arithmetic offsets but jittered timestamps: still one pattern run on
  // the wire (with residuals), still bit-exact.
  auto entries = sequential_workload(512, 4096);
  Rng rng(0x7157);
  for (auto& e : entries) e.timestamp_ns += static_cast<std::int64_t>(rng.below(30)) - 15;
  const auto buf = encode_entries(entries, WireFormat::v2);
  const auto got = decode_entries(as_fragments(buf));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, entries);
  // Residuals cost bytes, not a fallback to 40-byte literals.
  EXPECT_LT(buf.size(), entries.size() * IndexEntry::kSerializedSize / 4);
}

TEST(WireV2, CompressesStridedWorkloadTenfold) {
  const auto entries = strided_workload(256, 64, 47 << 10);
  const std::uint64_t v1 = encoded_size(entries, WireFormat::v1);
  const std::uint64_t v2 = encoded_size(entries, WireFormat::v2);
  EXPECT_EQ(v1, entries.size() * IndexEntry::kSerializedSize);
  EXPECT_GE(v1 / v2, 10u) << "v1=" << v1 << " v2=" << v2;
}

TEST(WireV2, FuzzedPoolsRoundTripAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto entries = irregular_workload(seed * 0x9E3779B97F4A7C15ull, 1 + seed % 7,
                                            static_cast<int>(10 + seed * 13));
    const auto buf = encode_entries(entries, WireFormat::v2);
    const auto got = decode_entries(as_fragments(buf));
    ASSERT_TRUE(got.ok()) << "seed " << seed << ": " << got.status();
    ASSERT_EQ(*got, entries) << "seed " << seed;
  }
}

// --- rejection of damaged buffers -----------------------------------------

TEST(WireV2, EveryTruncationIsRejected) {
  const auto entries = strided_workload(4, 8, 4096);
  const auto buf = encode_entries(entries, WireFormat::v2);
  for (std::size_t len = 1; len < buf.size(); ++len) {
    auto prefix = buf;
    prefix.resize(len);
    const auto got = decode_entries(as_fragments(std::move(prefix)));
    ASSERT_FALSE(got.ok()) << "prefix length " << len;
    EXPECT_EQ(got.status().code(), Errc::io_error) << len;
    EXPECT_NE(got.status().message().find("byte offset"), std::string::npos)
        << len << ": " << got.status();
  }
}

TEST(WireV2, EverySingleByteFlipIsRejected) {
  // The crc is verified before block parsing, so any flip inside the
  // segment fails; flips inside the crc itself mismatch too. (The v2-only
  // entry point is used on purpose: a flipped magic byte would otherwise
  // just route the buffer to the v1 parser.)
  const auto entries = irregular_workload(0xF11E, 3, 60);
  const auto buf = encode_entries(entries, WireFormat::v2);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const unsigned bit : {0u, 3u, 7u}) {
      auto bad = buf;
      bad[i] ^= static_cast<std::byte>(1u << bit);
      const auto got = decode_entries_v2(bad.data(), bad.size());
      ASSERT_FALSE(got.ok()) << "byte " << i << " bit " << bit;
      EXPECT_EQ(got.status().code(), Errc::io_error);
    }
  }
}

TEST(WireV2, VersionConfusionIsNamed) {
  const auto entries = sequential_workload(32, 4096);
  auto buf = encode_entries(entries, WireFormat::v2);
  buf[4] = std::byte{9};  // version byte follows the 4-byte magic
  const auto got = decode_entries(as_fragments(std::move(buf)));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("unsupported wire version 9"), std::string::npos)
      << got.status();
  EXPECT_NE(got.status().message().find("byte offset 4"), std::string::npos) << got.status();
}

TEST(WireV2, GarbageAfterValidSegmentIsRejected) {
  const auto entries = sequential_workload(32, 4096);
  auto buf = encode_entries(entries, WireFormat::v2);
  const std::size_t tail = buf.size();
  buf.insert(buf.end(), {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE}, std::byte{0xEF}});
  const auto got = decode_entries(as_fragments(std::move(buf)));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("bad segment magic"), std::string::npos) << got.status();
  EXPECT_NE(got.status().message().find("byte offset " + std::to_string(tail)),
            std::string::npos)
      << got.status();
}

// --- v1 compatibility ------------------------------------------------------

TEST(WireCompat, V1BuffersStillDecodeThroughAutoDetect) {
  for (const auto& [name, entries] : all_workloads()) {
    const auto buf = serialize_entries(entries);  // fixed 40-byte records
    const auto got = decode_entries(as_fragments(buf));
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(*got, entries) << name;
  }
}

TEST(WireCompat, TrailerAcceptsBothWireFormats) {
  const auto entries = strided_workload(8, 32, 8192);
  const auto v1 = serialize_entries_with_trailer(entries, WireFormat::v1);
  const auto v2 = serialize_entries_with_trailer(entries, WireFormat::v2);
  EXPECT_LT(v2.size(), v1.size() / 4);
  for (const auto* bytes : {&v1, &v2}) {
    const auto got = deserialize_trailed_entries(as_fragments(*bytes));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->size(), entries.size());
  }
}

// The global index's wire-size query is what the open-time collectives
// charge; it must equal what the encoder actually produces.
TEST(WireV2, IndexSerializedBytesMatchTheEncoder) {
  const auto entries = strided_workload(16, 64, 8192);
  const FlatIndex idx = FlatIndex::build(entries);
  EXPECT_EQ(idx.serialized_bytes(WireFormat::v1),
            idx.mapping_count() * IndexEntry::kSerializedSize);
  EXPECT_EQ(idx.serialized_bytes(WireFormat::v2), encoded_size(idx.to_entries(), WireFormat::v2));
  EXPECT_LT(idx.serialized_bytes(WireFormat::v2), idx.serialized_bytes(WireFormat::v1));
}

}  // namespace
}  // namespace tio::plfs
