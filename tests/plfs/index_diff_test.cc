// Differential tests: the production FlatIndex vs the test-only BTreeIndex
// oracle (btree_index.h).
//
// Unit level: identical randomized overlapping/striding write pools are fed
// to both; lookup() results, logical_size(), and the compressed mapping set
// itself must be identical. The pools respect the simulator's invariant
// that each writer's timestamps increase with its physical offsets (a
// writer's log is appended in time order) — under it both produce the same
// canonical maximally-compressed mapping set, so the comparison is exact,
// not just byte-equivalent.
//
// Strategy level: files of several write shapes are aggregated through all
// three ReadStrategy values (with and without an injected fault plan); the
// index each aggregation returns must equal the oracle built from every
// entry the writers logged.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "localfs/mem_fs.h"
#include "pfs/faulty_fs.h"
#include "pfs/sim_pfs.h"
#include "plfs/btree_index.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/mpiio.h"

namespace tio::plfs {
namespace {

struct Pool {
  std::vector<IndexEntry> entries;  // shuffled
  std::uint64_t domain = 0;         // all logical offsets < domain
};

// Overlapping + strided writes from several writers. Timestamps increase
// globally (so per-writer monotone), physical offsets accumulate per
// writer — the same shape WriteHandle produces.
Pool random_pool(std::uint64_t seed, int writers, int ops) {
  Rng rng(seed);
  Pool pool;
  pool.domain = 1 << 20;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int op = 0; op < ops; ++op) {
    const auto writer = static_cast<std::uint32_t>(rng.below(writers));
    std::uint64_t off;
    std::uint64_t len;
    switch (rng.below(3)) {
      case 0:  // strided record
        len = 4096;
        off = rng.below(pool.domain / len) * len;
        break;
      case 1:  // large overwrite
        len = 1 + rng.below(64 << 10);
        off = rng.below(pool.domain - len);
        break;
      default:  // small unaligned scribble
        len = 1 + rng.below(512);
        off = rng.below(pool.domain - len);
        break;
    }
    pool.entries.push_back(
        IndexEntry{off, len, phys[writer], static_cast<std::int64_t>(op + 1), writer});
    phys[writer] += len;
  }
  // Shuffle: build() must not depend on input order.
  for (std::size_t i = pool.entries.size(); i > 1; --i) {
    std::swap(pool.entries[i - 1], pool.entries[rng.below(i)]);
  }
  return pool;
}

class IndexDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexDiff, FlatAndPatternMatchBTreeExactly) {
  const Pool pool = random_pool(GetParam(), /*writers=*/8, /*ops=*/500);
  const BTreeIndex oracle = BTreeIndex::build(pool.entries);
  const FlatIndex flat = FlatIndex::build(pool.entries);

  EXPECT_EQ(flat.logical_size(), oracle.logical_size());
  EXPECT_EQ(flat.mapping_count(), oracle.mapping_count());
  // The canonical compressed mapping sets are identical, so serialization
  // is byte-identical too.
  EXPECT_EQ(serialize_entries(flat.to_entries()), serialize_entries(oracle.to_entries()));
  // Full-range and random ranged lookups agree exactly.
  EXPECT_EQ(flat.lookup(0, pool.domain), oracle.lookup(0, pool.domain));
  Rng rng(GetParam() ^ 0xD1FF);
  for (int probe = 0; probe < 200; ++probe) {
    const std::uint64_t off = rng.below(pool.domain);
    const std::uint64_t len = 1 + rng.below(128 << 10);
    EXPECT_EQ(flat.lookup(off, len), oracle.lookup(off, len)) << "probe " << probe;
  }
  // Past-EOF and zero-length probes.
  EXPECT_EQ(flat.lookup(pool.domain * 2, 100), oracle.lookup(pool.domain * 2, 100));
  EXPECT_EQ(flat.lookup(5, 0), oracle.lookup(5, 0));
}

// Compression never changes what a read returns: merging the uncompressed
// oracle's adjacent same-writer, physically contiguous pieces yields
// exactly FlatIndex's mappings.
TEST_P(IndexDiff, UncompressedBackendsAgree) {
  const Pool pool = random_pool(GetParam() ^ 0xC0FFEE, 5, 300);
  const BTreeIndex oracle = BTreeIndex::build(pool.entries, /*compress=*/false);
  const FlatIndex flat = FlatIndex::build(pool.entries);
  std::vector<FlatIndex::Mapping> merged;
  for (const auto& m : oracle.lookup(0, pool.domain)) {
    if (!merged.empty()) {
      FlatIndex::Mapping& back = merged.back();
      if (back.writer == m.writer && back.logical_offset + back.length == m.logical_offset &&
          back.physical_offset + back.length == m.physical_offset) {
        back.length += m.length;
        continue;
      }
    }
    merged.push_back(m);
  }
  EXPECT_GE(oracle.mapping_count(), flat.mapping_count());
  EXPECT_EQ(flat.logical_size(), oracle.logical_size());
  EXPECT_EQ(flat.lookup(0, pool.domain), merged);
}

TEST_P(IndexDiff, BuilderMergeMatchesPoolSort) {
  // Split the pool into per-writer runs (each timestamp-sorted, like real
  // index logs); the k-way merge path must equal the sort-the-pool path.
  const Pool pool = random_pool(GetParam() ^ 0x5EED, 6, 400);
  std::vector<std::vector<IndexEntry>> runs(6);
  for (const auto& e : pool.entries) runs[e.writer].push_back(e);
  IndexBuilder builder;
  for (auto& r : runs) {
    std::sort(r.begin(), r.end(), entry_timestamp_less);
    builder.add_entries(std::move(r));
  }
  const IndexPtr flat = builder.build();
  const FlatIndex direct = FlatIndex::build(pool.entries);
  // The oracle fed the merged run directly (no re-sort).
  const BTreeIndex oracle = BTreeIndex::from_sorted(builder.merged_run());

  EXPECT_EQ(flat->lookup(0, pool.domain), direct.lookup(0, pool.domain));
  EXPECT_EQ(oracle.lookup(0, pool.domain), direct.lookup(0, pool.domain));
  EXPECT_EQ(flat->logical_size(), direct.logical_size());
  EXPECT_EQ(oracle.logical_size(), direct.logical_size());
  EXPECT_EQ(serialize_entries(flat->to_entries()), serialize_entries(oracle.to_entries()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDiff,
                         ::testing::Values(1, 7, 13, 99, 1234, 987654, 0xFEEDFACE));

// --- strategy-level: every ReadStrategy against the oracle ---

struct World {
  explicit World(const std::string& plan_spec = "none")
      : cluster(engine, cluster_config()), pfs(cluster, pfs_config()),
        faulty(pfs, parse_plan(plan_spec)), plfs(faulty, mount_config()) {
    for (const auto& b : plfs.mount().backends) {
      if (!pfs.ns().mkdir_all(b).ok()) std::abort();
    }
  }
  static pfs::FaultPlan parse_plan(const std::string& spec) {
    auto plan = pfs::FaultPlan::parse(spec);
    if (!plan.ok()) std::abort();
    return std::move(plan.value());
  }
  static net::ClusterConfig cluster_config() {
    net::ClusterConfig c;
    c.nodes = 16;
    c.cores_per_node = 4;
    return c;
  }
  static pfs::PfsConfig pfs_config() {
    pfs::PfsConfig c;
    c.num_mds = 4;
    c.num_osts = 8;
    return c;
  }
  static PlfsMount mount_config() {
    PlfsMount m;
    for (std::size_t i = 0; i < 4; ++i) {
      m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
    }
    m.num_subdirs = 8;
    m.index_flush_every = 8;
    return m;
  }

  sim::Engine engine;
  net::Cluster cluster;
  pfs::SimPfs pfs;
  pfs::FaultyFs faulty;  // pass-through when the plan is "none"
  Plfs plfs;
};

// Four write shapes spanning the detector's best and worst cases.
enum class Shape { strided, sequential, overlapping, irregular };

constexpr int kShapeProcs = 9;

void write_shape(World& w, const std::string& logical, Shape shape) {
  constexpr int kRounds = 4;
  constexpr std::uint64_t kRecord = 3000;
  mpi::run_spmd(w.cluster, kShapeProcs, [&](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_write(w.plfs, comm, logical);
    EXPECT_TRUE(file.ok()) << file.status();
    if (!file.ok()) co_return;
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    const auto n = static_cast<std::uint64_t>(comm.size());
    auto put = [&](std::uint64_t off, std::uint64_t len) -> sim::Task<void> {
      EXPECT_TRUE((co_await (*file)->write(off, DataView::pattern(7, off, len))).ok());
    };
    switch (shape) {
      case Shape::strided:
        for (int r = 0; r < kRounds; ++r) co_await put((r * n + rank) * kRecord, kRecord);
        break;
      case Shape::sequential:
        for (int r = 0; r < kRounds; ++r) {
          co_await put(rank * kRounds * kRecord + r * kRecord, kRecord);
        }
        break;
      case Shape::overlapping:
        // A strided pass, then a half-record-shifted second pass that
        // overwrites most of the first.
        for (int r = 0; r < kRounds; ++r) co_await put((r * n + rank) * kRecord, kRecord);
        for (int r = 0; r < kRounds; ++r) {
          co_await put((r * n + rank) * kRecord + kRecord / 2, kRecord);
        }
        break;
      case Shape::irregular: {
        Rng rng(rank * 7919 + 13);
        for (int r = 0; r < 3 * kRounds; ++r) {
          const std::uint64_t len = 1 + rng.below(6000);
          co_await put(rng.below((1 << 18) - len), len);
        }
        break;
      }
    }
    EXPECT_TRUE((co_await (*file)->close_write(/*flatten=*/true)).ok());
  });
}

// The oracle over everything the job wrote: every writer's index log, read
// back raw and resolved by BTreeIndex, independent of any aggregation
// strategy.
BTreeIndex oracle_of(World& w, const std::string& logical) {
  std::vector<IndexEntry> pool;
  mpi::run_spmd(w.cluster, 1, [&](mpi::Comm comm) -> sim::Task<void> {
    const pfs::IoCtx ctx{comm.my_node(), comm.global_rank()};
    auto logs = co_await w.plfs.list_index_logs(ctx, logical);
    EXPECT_TRUE(logs.ok()) << logs.status();
    if (!logs.ok()) co_return;
    for (const auto& log : *logs) {
      auto entries = co_await w.plfs.read_index_log(ctx, logical, log.path);
      EXPECT_TRUE(entries.ok()) << entries.status();
      if (!entries.ok()) co_return;
      pool.insert(pool.end(), (*entries)->begin(), (*entries)->end());
    }
  });
  EXPECT_FALSE(pool.empty());
  return BTreeIndex::build(std::move(pool));
}

// Aggregates `logical` through every ReadStrategy, then checks each
// returned index against the oracle: same expansion over [0, domain), same
// size, same canonical mapping set. The oracle reads the logs only after
// every strategy ran, so the pipeline parses them itself.
void expect_strategies_match_oracle(World& w, const std::string& logical, std::uint64_t domain,
                                    const std::string& label) {
  const std::vector<ReadStrategy> strategies = {
      ReadStrategy::original, ReadStrategy::index_flatten, ReadStrategy::parallel_read};
  std::vector<IndexPtr> got(strategies.size());
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    mpi::run_spmd(w.cluster, kShapeProcs, [&](mpi::Comm comm) -> sim::Task<void> {
      auto idx = co_await aggregate_index(w.plfs, comm, logical, strategies[i]);
      EXPECT_TRUE(idx.ok()) << idx.status();
      if (idx.ok() && comm.rank() == 0) got[i] = *idx;
    });
  }
  const BTreeIndex oracle = oracle_of(w, logical);
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const auto where = label + " strategy " + std::to_string(static_cast<int>(strategies[i]));
    ASSERT_NE(got[i], nullptr) << where;
    EXPECT_EQ(got[i]->lookup(0, domain), oracle.lookup(0, domain)) << where;
    EXPECT_EQ(got[i]->logical_size(), oracle.logical_size()) << where;
    EXPECT_EQ(serialize_entries(got[i]->to_entries()), serialize_entries(oracle.to_entries()))
        << where;
  }
}

TEST(IndexDiffStrategies, AllStrategiesAndBackendsExpandIdentically) {
  World w;
  write_shape(w, "/diff", Shape::strided);
  // Exactly the written extent: 9 ranks x 4 rounds x 3000-byte records.
  expect_strategies_match_oracle(w, "/diff", kShapeProcs * 4 * 3000, "strided");
}

TEST(IndexDiffStrategies, PatternMatchesOracleAcrossShapesStrategiesAndFaults) {
  constexpr std::uint64_t kDomain = 1 << 19;  // covers every shape's extent
  for (const char* plan : {"none", "transient1"}) {
    for (const Shape shape :
         {Shape::strided, Shape::sequential, Shape::overlapping, Shape::irregular}) {
      World w(plan);
      write_shape(w, "/shape", shape);
      expect_strategies_match_oracle(
          w, "/shape", kDomain,
          std::string("plan ") + plan + " shape " + std::to_string(static_cast<int>(shape)));
    }
  }
}

// --- Serialization integrity: error context and the CRC trailer -----------

std::vector<IndexEntry> sample_entries() {
  return {IndexEntry{0, 100, 0, 1, 0}, IndexEntry{100, 100, 100, 2, 1},
          IndexEntry{200, 56, 200, 3, 2}};
}

FragmentList as_fragments(std::vector<std::byte> bytes) {
  FragmentList fl;
  fl.append(DataView::literal(std::move(bytes)));
  return fl;
}

TEST(IndexSerialization, TruncationErrorNamesTheByteOffset) {
  auto bytes = serialize_entries(sample_entries());
  ASSERT_EQ(bytes.size(), 3 * IndexEntry::kSerializedSize);
  bytes.resize(bytes.size() - 5);  // tear the last record
  const auto got = deserialize_entries(as_fragments(std::move(bytes)));
  ASSERT_FALSE(got.ok());
  // The partial record begins where the second whole record ended.
  EXPECT_NE(got.status().message().find("partial record begins at byte offset 80"),
            std::string::npos)
      << got.status();
}

TEST(IndexSerialization, TrailerRoundTrips) {
  const auto entries = sample_entries();
  auto bytes = serialize_entries_with_trailer(entries);
  EXPECT_EQ(bytes.size(), entries.size() * IndexEntry::kSerializedSize + kIndexTrailerSize);
  const auto got = deserialize_trailed_entries(as_fragments(std::move(bytes)));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*got)[i].logical_offset, entries[i].logical_offset) << i;
    EXPECT_EQ((*got)[i].length, entries[i].length) << i;
    EXPECT_EQ((*got)[i].physical_offset, entries[i].physical_offset) << i;
    EXPECT_EQ((*got)[i].writer, entries[i].writer) << i;
  }
}

TEST(IndexSerialization, CrcCatchesFlippedRecordByte) {
  auto bytes = serialize_entries_with_trailer(sample_entries());
  bytes[8] ^= std::byte{0xFF};  // inside the first record's length field
  const auto got = deserialize_trailed_entries(as_fragments(std::move(bytes)));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Errc::io_error);
  EXPECT_NE(got.status().message().find("crc mismatch"), std::string::npos) << got.status();
  // The message carries enough context to locate the damage class.
  EXPECT_NE(got.status().message().find("byte offset"), std::string::npos);
}

TEST(IndexSerialization, BadMagicAndTruncatedTrailerAreDistinguished) {
  auto bytes = serialize_entries_with_trailer(sample_entries());
  auto mangled = bytes;
  mangled[mangled.size() - kIndexTrailerSize] ^= std::byte{0x01};
  const auto bad_magic = deserialize_trailed_entries(as_fragments(std::move(mangled)));
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("bad trailer magic"), std::string::npos);

  bytes.resize(kIndexTrailerSize - 1);  // shorter than any trailer
  const auto truncated = deserialize_trailed_entries(as_fragments(std::move(bytes)));
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated trailer"), std::string::npos);
}

}  // namespace
}  // namespace tio::plfs
