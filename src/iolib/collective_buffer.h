// Collective buffering: a three-phase pipeline over ROMIO-style two-phase.
//
// The paper's LANL 3 kernel writes 1 KiB records; issued directly, those
// would drown any file system. Collective buffering (Thakur et al.,
// "Data sieving and collective I/O in ROMIO") assigns each aggregator
// process a contiguous file domain, ships everyone's records to the owning
// aggregators over the (fast, otherwise idle) interconnect, and has the
// aggregators issue large contiguous file accesses.
//
// On top of the classic two phases this layer adds:
//   * Intra-node request aggregation (Kang et al., node_agg.h): with
//     `node_aggregation` on, ranks sharing a node first coalesce their
//     chunk/range lists at a per-node leader over the (latency-only)
//     intra-node transport, and only leaders talk to aggregators — the
//     inter-node exchange carries `nodes x aggregators` messages instead
//     of `ranks x aggregators`, and each data byte crosses the fabric
//     once instead of hopping up a gather tree.
//   * A data-sieving read path (Thakur et al.): when the holes between
//     merged request runs are small relative to the useful bytes
//     (`sieve_threshold`), the aggregator reads one covering extent and
//     discards the hole bytes, trading wasted bandwidth for far fewer
//     storage operations. Write-side sieving is deliberately absent: it
//     would require read-modify-write of the hole bytes, which is unsafe
//     when another writer may own them concurrently.
//
// Writes: records are gathered to aggregators, coalesced in an extent map,
// and written in runs capped at `buffer_bytes`. Reads: requests are
// gathered, aggregators read merged (optionally sieved) ranges once, and
// slices are returned to the requesters. With `node_aggregation` off and
// `sieve_threshold` zero the wire pattern and virtual timings are
// bit-identical to the plain two-phase layer (pinned by the differential
// suite in tests/iolib/collective_test.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "iolib/io_fn.h"
#include "mpisim/comm.h"

namespace tio::iolib {

struct CbConfig {
  // Number of aggregator processes (0 = one per ~cores_per_node ranks,
  // i.e. roughly one per node under block placement).
  int aggregators = 0;
  // Largest contiguous access an aggregator issues per file operation.
  std::uint64_t buffer_bytes = 4u << 20;
  // Coalesce co-resident ranks' requests at a per-node leader before the
  // inter-node exchange. Off by default: the default wire pattern matches
  // classic two-phase bit-for-bit.
  bool node_aggregation = false;
  // Read-side data sieving: an aggregator bridges a hole between two
  // request runs when the group's accumulated hole bytes stay within
  // sieve_threshold x its useful bytes. 0 disables sieving (pure list
  // I/O over the merged runs).
  double sieve_threshold = 0.0;
  // Place aggregators rack-aware (the head of the comm's
  // NodeLayout::rack_spread, mpisim/comm.h) instead of the classic even
  // stride. Off by default: the default placement (and hence wire pattern)
  // matches the pre-topology layer bit-for-bit. Only changes behaviour
  // under rack geometries where the stride and the rack boundaries
  // misalign.
  bool rack_aware_placement = false;
};

struct CbChunk {
  std::uint64_t offset = 0;
  DataView data;
};

struct CbRange {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  friend bool operator==(const CbRange&, const CbRange&) = default;
};

// Collective: all ranks call with their (possibly empty) chunk lists.
// `write_at` is only invoked on aggregator ranks.
sim::Task<Status> cb_write(mpi::Comm& comm, const CbConfig& config, std::vector<CbChunk> mine,
                           const WriteFn& write_at);

// Collective: satisfies each rank's `wants` (results returned in request
// order through `out`). `read_at` is only invoked on aggregator ranks.
sim::Task<Status> cb_read(mpi::Comm& comm, const CbConfig& config, std::vector<CbRange> wants,
                          const ReadFn& read_at, std::vector<FragmentList>* out);

// The aggregator rank for domain slot j of A (evenly spread over the comm,
// which lands them on distinct nodes under block placement).
int cb_aggregator_rank(int j, int num_aggregators, int comm_size);
int cb_num_aggregators(const CbConfig& config, const mpi::Comm& comm);
// The full slot -> comm-rank placement: the classic stride above, or the
// rack-aware layout when config.rack_aware_placement is set. Every rank
// computes the same vector locally (placement is shared knowledge).
std::vector<int> cb_aggregator_ranks(const CbConfig& config, const mpi::Comm& comm,
                                     int num_aggregators);

// Sieve statistics of one grouping pass.
struct CbSieveStats {
  std::uint64_t joins = 0;       // holes bridged
  std::uint64_t hole_bytes = 0;  // wasted bytes the covering reads include
};

// The sieve heuristic, exposed for unit tests: greedily groups sorted,
// disjoint, non-adjacent runs into covering extents. A hole is bridged
// when, after the join, the group's total hole bytes are <= threshold x
// its total useful bytes (so the exact-ratio boundary still joins). A
// threshold <= 0 returns the runs unchanged.
std::vector<CbRange> cb_sieve_groups(const std::vector<CbRange>& runs, double threshold,
                                     CbSieveStats* stats = nullptr);

}  // namespace tio::iolib
