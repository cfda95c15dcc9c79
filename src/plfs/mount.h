// PLFS mount configuration: backends (glued namespaces) and policies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/units.h"

namespace tio::plfs {

enum class ReadStrategy {
  original,       // every reader reads every index log (N^2 opens)
  index_flatten,  // global index written at close, broadcast at open
  parallel_read,  // group-leader aggregation at open (the default)
};

// On-wire encoding of index entry batches: per-writer index.<writer> logs,
// the flattened global index payload, and the collective exchange volumes.
enum class WireFormat : std::uint8_t {
  v1,  // fixed 40-byte records (the original format; always readable)
  v2,  // pattern-compressed, varint/delta-encoded segments (pattern.h)
};

struct PlfsMount {
  // Physical roots the containers are spread over, e.g. {"/vol0/plfs",
  // "/vol1/plfs", ...}. Each root typically lives in a different metadata
  // namespace; one entry means no federation.
  std::vector<std::string> backends;

  // Subdirectories per container holding the data/index logs.
  std::size_t num_subdirs = 32;
  // Container-level federation: hash the canonical container across
  // backends (otherwise everything is canonical on backends[0]).
  bool spread_containers = true;
  // Subdir-level federation: hash each subdir.k across backends.
  bool spread_subdirs = true;

  // The backing metadata service replicates each namespace (consistent
  // failover below the middleware, pfs::MdsReplication::raft). Placement
  // then never moves: the create path probes only the subdir's home
  // backend — a failing-over group surfaces transient EBUSY absorbed by
  // the retry policy — and readers skip the stale-marker scan entirely.
  bool mds_replicated = false;

  // The backing metadata service batches mutations client-side
  // (pfs::PfsConfig::mds_batch > 0). The middleware then issues the
  // independent legs of its create path (data/index log creates, the
  // close-time dropping create + openhost unlink) concurrently instead of
  // sequentially, so they land in the same batch RPC rather than each
  // paying a full round trip. Off by default: the sequential legacy order
  // is part of the byte-identity contract for unbatched runs.
  bool meta_batching = false;

  // Index-log write batching (entries buffered per writer before an append
  // hits the index log; PLFS's index buffering).
  std::size_t index_flush_every = 64;

  // Index Flatten is only performed when every writer buffered at most this
  // many entries (the paper's threshold).
  std::size_t flatten_threshold = 1u << 20;

  // Group size for the Parallel Index Read collective (0 = sqrt(nprocs)).
  std::size_t parallel_read_group = 0;

  // Form Parallel Index Read groups by rack (Comm::rack_of_rank) instead of
  // contiguous rank blocks of parallel_read_group. Keeps the member->leader
  // gathers inside one ToR and spreads the leaders across racks, which
  // tames the leader-allgather incast on oversubscribed uplinks. Off by
  // default: the default grouping (and wire pattern) is unchanged.
  bool rack_aware_groups = false;

  // CPU cost of handling one index entry (deserialize/merge/sort); charged
  // wherever entries are processed, so index aggregation is never free.
  Duration index_cpu_per_entry = Duration::ns(1000);

  ReadStrategy default_strategy = ReadStrategy::parallel_read;

  // Wire encoding for everything index-shaped that hits a backend file or a
  // collective. v2 is self-describing (magic + version per segment), so
  // readers auto-detect the format and v1 containers stay readable
  // regardless of this setting; the knob only controls what gets written.
  WireFormat index_wire = WireFormat::v2;

  // Byte budget for the per-Plfs shared index cache (parsed index logs and
  // built serial indices). 0 disables caching entirely.
  std::uint64_t index_cache_bytes = 256_MiB;

  // Transient-failure handling for every backend fs op the middleware
  // issues (see common/retry.h). max_attempts = 1 disables retries.
  RetryPolicy retry;
  // Total retries a Plfs instance may spend across all ops before failures
  // surface immediately (guards against unbounded retry storms).
  std::uint64_t retry_budget = 1u << 20;
};

}  // namespace tio::plfs
