// Differential suite for the collective-buffering pipeline: every mode of
// cb_write/cb_read (aggregator counts, intra-node aggregation, sieving,
// fault plans) must produce bytes identical to plain per-rank direct I/O.
// Plus unit tests pinning the sieve heuristic at its threshold boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "iolib/collective_buffer.h"
#include "net/cluster.h"
#include "pfs/extent_map.h"
#include "pfs/faulty_fs.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"

namespace tio::iolib {
namespace {

net::ClusterConfig tiny_cluster() {
  net::ClusterConfig c;
  c.nodes = 4;
  c.cores_per_node = 4;
  return c;
}

// A per-rank access shape: the write chunks double as the read ranges.
struct Shape {
  const char* name;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> (*ops)(int rank, int nprocs);
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> strided_shape(int rank, int nprocs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int r = 0; r < 32; ++r) {
    ops.emplace_back((static_cast<std::uint64_t>(r) * nprocs + rank) * 1024, 1024);
  }
  return ops;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> segmented_shape(int rank, int nprocs) {
  (void)nprocs;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int r = 0; r < 8; ++r) {
    ops.emplace_back(static_cast<std::uint64_t>(rank) * 32768 + static_cast<std::uint64_t>(r) * 4096,
                     4096);
  }
  return ops;
}

// Field access with holes: 512 useful bytes per 2 KiB element.
std::vector<std::pair<std::uint64_t, std::uint64_t>> noncontig_shape(int rank, int nprocs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int r = 0; r < 16; ++r) {
    ops.emplace_back((static_cast<std::uint64_t>(r) * nprocs + rank) * 2048, 512);
  }
  return ops;
}

// Only every third rank participates, with rank-dependent odd sizes.
std::vector<std::pair<std::uint64_t, std::uint64_t>> uneven_shape(int rank, int nprocs) {
  (void)nprocs;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  if (rank % 3 == 0) {
    ops.emplace_back(static_cast<std::uint64_t>(rank) * 5000, 3000 + static_cast<std::uint64_t>(rank));
  }
  return ops;
}

const Shape kShapes[] = {
    {"strided", strided_shape},
    {"segmented", segmented_shape},
    {"noncontig", noncontig_shape},
    {"uneven", uneven_shape},
};

// The config grid the differential sweeps cover.
std::vector<CbConfig> config_grid(double sieve_threshold = 0.0) {
  std::vector<CbConfig> grid;
  for (const int aggs : {0, 1, 3}) {
    for (const bool node_agg : {false, true}) {
      CbConfig cb;
      cb.aggregators = aggs;
      cb.node_aggregation = node_agg;
      cb.sieve_threshold = sieve_threshold;
      cb.buffer_bytes = 64 * 1024;  // small cap: exercises multi-op staging
      grid.push_back(cb);
    }
  }
  return grid;
}

TEST(CbDifferential, WritesMatchDirectPerRankIo) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  const int n = 16;
  for (const Shape& shape : kShapes) {
    // Reference: every rank writes its own records directly.
    pfs::ExtentMap reference;
    std::uint64_t total = 0;
    for (int r = 0; r < n; ++r) {
      for (const auto& [off, len] : shape.ops(r, n)) {
        reference.write(off, DataView::pattern(7, off, len));
        total = std::max(total, off + len);
      }
    }
    for (const CbConfig& cb : config_grid()) {
      pfs::ExtentMap file;
      mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
        std::vector<CbChunk> mine;
        for (const auto& [off, len] : shape.ops(comm.rank(), n)) {
          mine.push_back(CbChunk{off, DataView::pattern(7, off, len)});
        }
        const WriteFn write_at = [&file](std::uint64_t off, DataView data) -> sim::Task<Status> {
          file.write(off, std::move(data));
          co_return Status::Ok();
        };
        EXPECT_TRUE((co_await cb_write(comm, cb, std::move(mine), write_at)).ok());
      });
      EXPECT_TRUE(file.read(0, total).content_equals(reference.read(0, total)))
          << shape.name << " aggs=" << cb.aggregators << " node_agg=" << cb.node_aggregation;
    }
  }
}

TEST(CbDifferential, ReadsMatchDirectPerRankIo) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  const int n = 16;
  for (const Shape& shape : kShapes) {
    std::uint64_t total = 0;
    for (int r = 0; r < n; ++r) {
      for (const auto& [off, len] : shape.ops(r, n)) total = std::max(total, off + len);
    }
    pfs::ExtentMap file;
    file.write(0, DataView::pattern(9, 0, total));
    // Sieving at any threshold must never change the returned bytes.
    for (const double sieve : {0.0, 1.0, 1e9}) {
      for (const CbConfig& cb : config_grid(sieve)) {
        mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
          std::vector<CbRange> wants;
          for (const auto& [off, len] : shape.ops(comm.rank(), n)) {
            wants.push_back(CbRange{off, len});
          }
          const ReadFn read_at = [&file, total](std::uint64_t off, std::uint64_t len)
              -> sim::Task<Result<FragmentList>> {
            if (off >= total) co_return FragmentList{};
            co_return file.read(off, std::min(len, total - off));
          };
          std::vector<FragmentList> got;
          EXPECT_TRUE((co_await cb_read(comm, cb, wants, read_at, &got)).ok());
          EXPECT_EQ(got.size(), wants.size());
          if (got.size() != wants.size()) co_return;
          for (std::size_t i = 0; i < wants.size(); ++i) {
            // Direct per-rank I/O would read the pattern straight out.
            EXPECT_TRUE(got[i].content_equals(
                DataView::pattern(9, wants[i].offset, wants[i].len)))
                << shape.name << " rank " << comm.rank() << " want " << i
                << " aggs=" << cb.aggregators << " node_agg=" << cb.node_aggregation
                << " sieve=" << cb.sieve_threshold;
          }
        });
      }
    }
  }
}

// The full stack (Rig + FaultyFs): transient faults are absorbed below the
// collective layer and must not change any byte, in either pipeline mode.
TEST(CbDifferential, FaultPlansDoNotChangeBytes) {
  for (const char* plan : {"none", "transient1"}) {
    for (const bool node_agg : {false, true}) {
      testbed::Rig::Options opts;
      opts.cluster = testbed::lanl_cluster();
      opts.pfs = testbed::lanl_pfs(1);
      opts.fault_plan = pfs::FaultPlan::parse(plan).value();
      testbed::Rig rig(opts);

      CbConfig cb;
      cb.node_aggregation = node_agg;
      cb.sieve_threshold = node_agg ? 2.0 : 0.0;  // exercise sieving in one mode
      workloads::TargetOptions target;
      target.access = workloads::Access::direct_n1;

      // Both collective kernels; their read_fn verifies every byte against
      // the written pattern (== what direct per-rank I/O produces).
      auto lanl3 = workloads::lanl3(16, 1 << 20, target, cb);
      EXPECT_NO_THROW(workloads::run_job(rig, 16, lanl3)) << plan << " " << node_agg;
      auto nc = workloads::noncontig(16, 1 << 20, 512, 2048, target, cb);
      EXPECT_NO_THROW(workloads::run_job(rig, 16, nc)) << plan << " " << node_agg;
    }
  }
}

TEST(CbNodePlan, GroupsRanksByNodeWithLowestRankLeading) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  mpi::run_spmd(cluster, 16, [](mpi::Comm comm) -> sim::Task<void> {
    const mpi::NodeLayout& layout = comm.layout();
    const int my_node = layout.node_of[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(layout.num_nodes(), 4);
    EXPECT_EQ(my_node, comm.rank() / 4);
    EXPECT_EQ(layout.leader_of(my_node), (comm.rank() / 4) * 4);
    EXPECT_EQ(layout.leader_of(my_node) == comm.rank(), comm.rank() % 4 == 0);
    EXPECT_EQ(layout.members[static_cast<std::size_t>(my_node)].size(), 4u);
    co_return;
  });
}

// --- sieve heuristic unit tests (threshold boundaries) ---

TEST(CbSieve, ZeroThresholdReturnsRunsUnchanged) {
  const std::vector<CbRange> runs = {{0, 100}, {500, 100}, {1000, 100}};
  CbSieveStats stats;
  EXPECT_EQ(cb_sieve_groups(runs, 0.0, &stats), runs);
  EXPECT_EQ(stats.joins, 0u);
  EXPECT_EQ(stats.hole_bytes, 0u);
  EXPECT_EQ(cb_sieve_groups(runs, -1.0), runs);
}

TEST(CbSieve, ExactRatioBoundaryStillJoins) {
  // hole = 100, useful = 200 after the join: ratio exactly 0.5.
  const std::vector<CbRange> runs = {{0, 100}, {200, 100}};
  CbSieveStats stats;
  const auto joined = cb_sieve_groups(runs, 0.5, &stats);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (CbRange{0, 300}));
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.hole_bytes, 100u);
  // Just below the exact ratio: no join.
  EXPECT_EQ(cb_sieve_groups(runs, 0.4999).size(), 2u);
}

TEST(CbSieve, AllHolesBridgedUnderLargeThreshold) {
  const std::vector<CbRange> runs = {{0, 10}, {1000, 10}, {5000, 10}, {90000, 10}};
  CbSieveStats stats;
  const auto joined = cb_sieve_groups(runs, 1e9, &stats);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (CbRange{0, 90010}));
  EXPECT_EQ(stats.joins, 3u);
  EXPECT_EQ(stats.hole_bytes, 90010u - 40u);
}

TEST(CbSieve, AccumulatedHolesStopTheGroup) {
  // The middle and last runs would join as a fresh pair (hole 100 <=
  // useful 120 at threshold 1.0), but joining onto the accumulated group
  // would make 290 hole bytes against 220 useful -> the group is cut.
  const std::vector<CbRange> runs = {{0, 100}, {290, 100}, {490, 20}};
  const auto grouped = cb_sieve_groups(runs, 1.0);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0], (CbRange{0, 390}));
  EXPECT_EQ(grouped[1], (CbRange{490, 20}));
  const auto fresh = cb_sieve_groups({{290, 100}, {490, 20}}, 1.0);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(CbSieve, DegenerateInputs) {
  EXPECT_TRUE(cb_sieve_groups({}, 5.0).empty());
  const std::vector<CbRange> one = {{42, 7}};
  EXPECT_EQ(cb_sieve_groups(one, 5.0), one);
}

// End to end: on the holey pattern a high sieve threshold collapses the
// aggregator's operation count, and a zero threshold reproduces list I/O.
TEST(CbSieve, ThresholdCollapsesPfsOperationCount) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  const int n = 16;
  std::uint64_t total = 0;
  for (int r = 0; r < n; ++r) {
    for (const auto& [off, len] : noncontig_shape(r, n)) total = std::max(total, off + len);
  }
  pfs::ExtentMap file;
  file.write(0, DataView::pattern(9, 0, total));

  auto ops_with = [&](double threshold) {
    std::uint64_t ops = 0;
    CbConfig cb;
    cb.aggregators = 1;
    cb.sieve_threshold = threshold;
    mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
      std::vector<CbRange> wants;
      for (const auto& [off, len] : noncontig_shape(comm.rank(), n)) {
        wants.push_back(CbRange{off, len});
      }
      const ReadFn read_at = [&file, &ops, total](std::uint64_t off, std::uint64_t len)
          -> sim::Task<Result<FragmentList>> {
        ++ops;
        co_return file.read(off, std::min(len, total - off));
      };
      std::vector<FragmentList> got;
      EXPECT_TRUE((co_await cb_read(comm, cb, wants, read_at, &got)).ok());
    });
    return ops;
  };

  const std::uint64_t list_io = ops_with(0.0);
  const std::uint64_t sieved = ops_with(1e9);
  EXPECT_EQ(list_io, static_cast<std::uint64_t>(n) * 16);  // one op per merged run
  EXPECT_LT(sieved, list_io / 16);                         // covering reads
}

}  // namespace
}  // namespace tio::iolib
