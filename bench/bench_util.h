// Shared plumbing for the figure-reproduction harnesses.
#pragma once

#include <algorithm>
#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/jsonfmt.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/trace.h"
#include "net/topology.h"
#include "plfs/pattern.h"
#include "sim/sharded.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

namespace tio::bench {

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("   paper reference: %s\n\n", paper_ref.c_str());
}

// MB/s (decimal), the unit the paper plots.
inline double mbps(double bytes_per_sec) { return bytes_per_sec / 1e6; }

// Builds a fresh LANL-cluster rig (Sections III-V testbed).
inline testbed::Rig::Options lanl_rig(std::size_t num_mds = 1, std::size_t backends = 0) {
  testbed::Rig::Options o;
  o.cluster = testbed::lanl_cluster();
  o.pfs = testbed::lanl_pfs(num_mds);
  o.plfs_backends = backends;
  return o;
}

// Builds a fresh Cielo rig (Section VI testbed).
inline testbed::Rig::Options cielo_rig(std::size_t num_mds = 10, std::size_t backends = 0) {
  testbed::Rig::Options o;
  o.cluster = testbed::cielo();
  o.pfs = testbed::cielo_pfs(num_mds);
  o.plfs_backends = backends;
  return o;
}

// Doubling sweep capped at `max`, always including `max` itself.
inline std::vector<int> sweep(int from, int max) {
  std::vector<int> out;
  for (int v = from; v < max; v *= 2) out.push_back(v);
  if (out.empty() || out.back() != max) out.push_back(max);
  return out;
}

// Shared --index_wire flag (v1|v2) selecting the index wire codec.
inline std::string* add_index_wire_flag(FlagSet& flags) {
  return flags.add_string("index_wire", "v2", "index wire format: v1|v2 (pattern-compressed)");
}

// Flag-value -> WireFormat; exits with a usage message on bad input.
inline plfs::WireFormat index_wire_or_die(const std::string& name) {
  plfs::WireFormat wire = plfs::WireFormat::v2;
  if (!plfs::parse_wire_format(name, wire)) {
    std::fprintf(stderr, "unknown --index_wire (want v1|v2): %s\n", name.c_str());
    std::exit(1);
  }
  return wire;
}

// Shared --fault_plan flag (see pfs/faulty_fs.h for the grammar; a preset
// name or key=value pairs).
inline std::string* add_fault_plan_flag(FlagSet& flags) {
  return flags.add_string("fault_plan", "none",
                          "fault plan: none|transient1|stress|failover|partition|key=value,...");
}

// Flag-value -> FaultPlan; exits with a usage message on bad input.
inline pfs::FaultPlan fault_plan_or_die(const std::string& spec) {
  auto plan = pfs::FaultPlan::parse(spec);
  if (!plan.ok()) {
    std::fprintf(stderr, "bad --fault_plan: %s\n", plan.status().message().c_str());
    std::exit(1);
  }
  return std::move(plan.value());
}

// Shared --mds_replication flag: how the simulated metadata service
// survives server loss (see pfs::MdsReplication).
inline std::string* add_mds_replication_flag(FlagSet& flags) {
  return flags.add_string("mds_replication", "none",
                          "metadata service replication: none|raft");
}

// Flag-value -> MdsReplication; exits with a usage message on bad input.
inline pfs::MdsReplication mds_replication_or_die(const std::string& name) {
  if (name == "none") return pfs::MdsReplication::none;
  if (name == "raft") return pfs::MdsReplication::raft;
  std::fprintf(stderr, "unknown --mds_replication (want none|raft): %s\n", name.c_str());
  std::exit(1);
}

// Shared metadata-path tuning flags: client-side mutation batching, the
// leased client metadata cache, and the Raft client timeouts (defaults match
// the historical hard-coded values, so omitting every flag is byte-identical
// to the pre-flag binaries).
struct MdsTuningFlags {
  std::int64_t* mds_batch;
  std::int64_t* mds_batch_linger_us;
  std::int64_t* meta_lease_ms;
  std::int64_t* raft_request_timeout_ms;
  std::int64_t* raft_commit_timeout_ms;
};

inline MdsTuningFlags add_mds_tuning_flags(FlagSet& flags) {
  MdsTuningFlags t;
  t.mds_batch = flags.add_i64(
      "mds_batch", 0, "coalesce up to N metadata mutations per MDS round trip (0 = off)");
  t.mds_batch_linger_us =
      flags.add_i64("mds_batch_linger_us", 50, "max virtual us a forming batch waits to fill");
  t.meta_lease_ms = flags.add_i64(
      "meta_lease_ms", 0, "client metadata cache lease in virtual ms (0 = cache off)");
  t.raft_request_timeout_ms =
      flags.add_i64("raft_request_timeout_ms", 40, "per-attempt Raft client request timeout, ms");
  t.raft_commit_timeout_ms = flags.add_i64(
      "raft_commit_timeout_ms", 400, "Raft commit+apply wait for an accepted entry, ms");
  return t;
}

// Validates the tuning flags and applies them onto a PfsConfig.
inline void apply_mds_tuning(const MdsTuningFlags& t, pfs::PfsConfig& pfs) {
  const std::pair<const char*, std::int64_t> checks[] = {
      {"mds_batch", *t.mds_batch},
      {"mds_batch_linger_us", *t.mds_batch_linger_us},
      {"meta_lease_ms", *t.meta_lease_ms},
      {"raft_request_timeout_ms", *t.raft_request_timeout_ms},
      {"raft_commit_timeout_ms", *t.raft_commit_timeout_ms}};
  for (const auto& [name, v] : checks) {
    if (v < 0) {
      std::fprintf(stderr, "--%s must be >= 0 (got %lld)\n", name, static_cast<long long>(v));
      std::exit(1);
    }
  }
  if (*t.raft_request_timeout_ms == 0 || *t.raft_commit_timeout_ms == 0) {
    std::fprintf(stderr, "raft timeouts must be > 0\n");
    std::exit(1);
  }
  pfs.mds_batch = static_cast<std::size_t>(*t.mds_batch);
  pfs.mds_batch_linger = Duration::us(*t.mds_batch_linger_us);
  pfs.meta_lease = Duration::ms(*t.meta_lease_ms);
  pfs.raft_request_timeout = Duration::ms(*t.raft_request_timeout_ms);
  pfs.raft_commit_timeout = Duration::ms(*t.raft_commit_timeout_ms);
}

// Batched-metadata and client-cache instrumentation. stderr, like the other
// counter dumps, so stdout stays byte-comparable across runs.
inline void print_meta_counters() {
  auto counters = counter_snapshot("pfs.batch");
  const auto cache = counter_snapshot("pfs.meta_cache");
  const auto meta = counter_snapshot("pfs.meta");
  counters.insert(counters.end(), cache.begin(), cache.end());
  counters.insert(counters.end(), meta.begin(), meta.end());
  if (counters.empty()) return;
  std::fprintf(stderr, "\n-- metadata batch/cache counters --\n");
  for (const auto& [name, value] : counters) {
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
}

// Fault/retry/degradation instrumentation accumulated during the run.
// stderr on purpose: stdout must stay byte-identical across runs whether or
// not a plan is active (the determinism check diffs it).
inline void print_fault_counters() {
  auto counters = counter_snapshot("plfs.fault");
  const auto retry = counter_snapshot("plfs.retry");
  const auto degrade = counter_snapshot("plfs.degrade");
  const auto direct = counter_snapshot("direct.retry");
  const auto raft = counter_snapshot("raft");
  counters.insert(counters.end(), retry.begin(), retry.end());
  counters.insert(counters.end(), degrade.begin(), degrade.end());
  counters.insert(counters.end(), direct.begin(), direct.end());
  counters.insert(counters.end(), raft.begin(), raft.end());
  if (counters.empty()) return;
  std::fprintf(stderr, "\n-- fault/retry counters --\n");
  for (const auto& [name, value] : counters) {
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
}

// Host-side index/cache instrumentation accumulated during the run.
inline void print_index_counters() {
  // Prefix grouping is dot-boundary-aware, so "plfs.index" no longer drags
  // in the plfs.index_cache.* family; ask for both groups explicitly.
  auto counters = counter_snapshot("plfs.index");
  const auto cache = counter_snapshot("plfs.index_cache");
  counters.insert(counters.end(), cache.begin(), cache.end());
  if (counters.empty()) return;
  // stderr on purpose: build_ns is host wall time, and stdout must stay
  // byte-identical across runs (the determinism check diffs it).
  std::fprintf(stderr, "\n-- index counters (host-side) --\n");
  std::uint64_t raw = 0, wire = 0;
  for (const auto& [name, value] : counters) {
    if (name == "plfs.index.pattern.raw_bytes") raw = value;
    if (name == "plfs.index.pattern.wire_bytes") wire = value;
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  if (raw > 0 && wire > 0) {
    std::fprintf(stderr, "%-36s %.1fx\n", "plfs.index.pattern.compression",
                 static_cast<double>(raw) / static_cast<double>(wire));
  }
}

// Emits the accumulated counter state as one JSON object member named
// "counters" (no trailing comma), for the figure harnesses' --json output.
// Includes the derived pattern-compression ratio when the codec ran.
inline void json_counters(std::FILE* f) {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (const char* prefix :
       {"plfs.index", "plfs.index_cache", "plfs.fault", "plfs.retry", "plfs.degrade",
        "iolib.cb", "raft", "pfs.batch", "pfs.meta_cache", "pfs.meta", "net.topo"}) {
    const auto group = counter_snapshot(prefix);
    counters.insert(counters.end(), group.begin(), group.end());
  }
  std::fprintf(f, "  \"counters\": {");
  std::uint64_t raw = 0, wire = 0;
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (name == "plfs.index.pattern.raw_bytes") raw = value;
    if (name == "plfs.index.pattern.wire_bytes") wire = value;
    std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(value));
    first = false;
  }
  std::fprintf(f, "\n  },\n");
  // json_double, not printf %f: the harnesses call setlocale(), and a comma
  // decimal point would corrupt the JSON document.
  if (raw > 0 && wire > 0) {
    const double ratio = static_cast<double>(raw) / static_cast<double>(wire);
    std::fprintf(f, "  \"index_compression_ratio\": %s,\n", json_double(ratio, 2).c_str());
  } else {
    std::fprintf(f, "  \"index_compression_ratio\": null,\n");
  }
}

// Emits the accumulated latency-histogram state as one JSON object member
// named "histograms" (no trailing comma). All fields are integer
// nanoseconds, immune to locale.
inline void json_histograms(std::FILE* f, std::string_view prefix = "") {
  const auto hists = histogram_snapshot(prefix);
  std::fprintf(f, "  \"histograms\": {");
  bool first = true;
  for (const auto& [name, h] : hists) {
    if (h->count() == 0) continue;
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"p50_ns\": %lld, \"p90_ns\": %lld, "
                 "\"p99_ns\": %lld, \"max_ns\": %lld, \"sum_ns\": %lld}",
                 first ? "" : ",", name.c_str(), static_cast<unsigned long long>(h->count()),
                 static_cast<long long>(h->percentile(50)), static_cast<long long>(h->percentile(90)),
                 static_cast<long long>(h->percentile(99)), static_cast<long long>(h->max()),
                 static_cast<long long>(h->sum()));
    first = false;
  }
  std::fprintf(f, "\n  },\n");
}

// Latency-histogram table on stderr (host-readable companion of the --json
// "histograms" block; stdout stays byte-comparable across runs).
inline void print_histograms() {
  const auto hists = histogram_snapshot("");
  bool any = false;
  for (const auto& [name, h] : hists) any = any || h->count() > 0;
  if (!any) return;
  std::fprintf(stderr, "\n-- latency histograms (virtual ns) --\n");
  std::fprintf(stderr, "%-28s %10s %12s %12s %12s %12s\n", "span", "count", "p50", "p90", "p99",
               "max");
  for (const auto& [name, h] : hists) {
    if (h->count() == 0) continue;
    std::fprintf(stderr, "%-28s %10llu %12lld %12lld %12lld %12lld\n", name.c_str(),
                 static_cast<unsigned long long>(h->count()),
                 static_cast<long long>(h->percentile(50)),
                 static_cast<long long>(h->percentile(90)),
                 static_cast<long long>(h->percentile(99)), static_cast<long long>(h->max()));
  }
}

// Collective-buffering instrumentation (message census, bytes shipped
// across nodes, sieve activity). stderr, like the other counter dumps, so
// stdout stays byte-comparable across runs.
inline void print_cb_counters() {
  const auto counters = counter_snapshot("iolib.cb");
  if (counters.empty()) return;
  std::fprintf(stderr, "\n-- collective-buffering counters --\n");
  for (const auto& [name, value] : counters) {
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
}

// Shared CbConfig flags for the benches that drive the collective layer.
struct CbFlags {
  std::int64_t* aggregators;
  std::int64_t* buffer_mib;
  bool* node_agg;
  double* sieve_threshold;
};

inline CbFlags add_cb_flags(FlagSet& flags) {
  CbFlags cb;
  cb.aggregators = flags.add_i64("cb-aggregators", 0,
                                 "collective-buffering aggregator count (0 = one per node)");
  cb.buffer_mib = flags.add_i64("cb-buffer-mib", 4, "collective buffer size per access, MiB");
  cb.node_agg = flags.add_bool("cb-node-agg", false,
                               "coalesce requests at per-node leaders before the exchange");
  cb.sieve_threshold = flags.add_f64(
      "cb-sieve-threshold", 0.0,
      "read-side data sieving: bridge holes while hole/useful <= threshold (0 = off)");
  return cb;
}

inline iolib::CbConfig cb_config_of(const CbFlags& cb) {
  iolib::CbConfig config;
  config.aggregators = static_cast<int>(*cb.aggregators);
  config.buffer_bytes = static_cast<std::uint64_t>(*cb.buffer_mib) << 20;
  config.node_aggregation = *cb.node_agg;
  config.sieve_threshold = *cb.sieve_threshold;
  return config;
}

// Shared fabric-topology flags: preset, rack geometry, and ToR uplink
// taper. Defaults are the flat preset — byte-identical to the pre-topology
// binaries (Cluster builds no Topology at all).
struct TopologyFlags {
  std::string* topology;
  std::int64_t* racks;
  double* oversubscription;
};

inline TopologyFlags add_topology_flags(FlagSet& flags) {
  TopologyFlags t;
  t.topology = flags.add_string("topology", "flat", "fabric preset: flat|tor|fat-tree");
  t.racks = flags.add_i64("racks", 0,
                          "rack count for tor/fat-tree (0 = nodes/8, at least 1)");
  t.oversubscription =
      flags.add_f64("oversubscription", 1.0, "ToR uplink taper (4 = 4:1 oversubscribed)");
  return t;
}

// Validates the topology flags and applies them onto a ClusterConfig.
inline void apply_topology(const TopologyFlags& t, net::ClusterConfig& cluster) {
  net::TopologyKind kind = net::TopologyKind::flat;
  if (!net::parse_topology_kind(*t.topology, kind)) {
    std::fprintf(stderr, "unknown --topology (want flat|tor|fat-tree): %s\n",
                 t.topology->c_str());
    std::exit(1);
  }
  cluster.topology = kind;
  if (*t.racks < 0) {
    std::fprintf(stderr, "--racks must be >= 0 (got %lld)\n", static_cast<long long>(*t.racks));
    std::exit(1);
  }
  if (*t.oversubscription <= 0) {
    std::fprintf(stderr, "--oversubscription must be > 0\n");
    std::exit(1);
  }
  cluster.oversubscription = *t.oversubscription;
  std::size_t racks = static_cast<std::size_t>(*t.racks);
  if (racks == 0) racks = std::max<std::size_t>(1, cluster.nodes / 8);
  cluster.racks = racks;
  if (cluster.nodes % cluster.racks != 0) {
    std::fprintf(stderr, "--racks=%zu does not divide nodes=%zu\n", cluster.racks,
                 cluster.nodes);
    std::exit(1);
  }
}

// Topology link/flow instrumentation (net.topo.* locality census). stderr,
// like the other counter dumps, so stdout stays byte-comparable.
inline void print_topo_counters() {
  const auto counters = counter_snapshot("net.topo");
  if (counters.empty()) return;
  std::fprintf(stderr, "\n-- topology counters --\n");
  for (const auto& [name, value] : counters) {
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
}

// Shared --shards flag: how many OS threads to spread independent
// simulations (one Rig per data point) across. 1 = the serial legacy path.
inline std::int64_t* add_shards_flag(FlagSet& flags) {
  return flags.add_i64(
      "shards", 1,
      "shard independent simulations across N OS threads (1 = serial)");
}

// Validates --shards: rejects 0/negative values and values above the
// host's hardware_concurrency() (override with TIO_SHARDS_OVERSUBSCRIBE=1
// for CI boxes that want to exercise the threaded path regardless), caps
// at sim::kMaxShards, and notes the count in the sim.engine.shards counter
// so every stderr counter dump and --json block carries it.
inline std::size_t shards_or_die(std::int64_t value) {
  if (value < 1) {
    std::fprintf(stderr, "--shards must be >= 1 (got %lld)\n",
                 static_cast<long long>(value));
    std::exit(1);
  }
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  const char* oversub = std::getenv("TIO_SHARDS_OVERSUBSCRIBE");
  const bool allow_oversub = oversub != nullptr && oversub[0] == '1';
  if (static_cast<std::uint64_t>(value) > hc && !allow_oversub) {
    std::fprintf(stderr,
                 "--shards=%lld exceeds hardware_concurrency()=%u "
                 "(set TIO_SHARDS_OVERSUBSCRIBE=1 to force)\n",
                 static_cast<long long>(value), hc);
    std::exit(1);
  }
  if (static_cast<std::uint64_t>(value) > sim::kMaxShards) {
    std::fprintf(stderr, "--shards=%lld exceeds the supported maximum of %zu\n",
                 static_cast<long long>(value), sim::kMaxShards);
    std::exit(1);
  }
  counter("sim.engine.shards").add(static_cast<std::uint64_t>(value));
  return static_cast<std::size_t>(value);
}

// Shared --trace flag: when non-empty, span tracing is enabled for the whole
// run and the buffered spans are written to the path as Chrome trace-event
// JSON (chrome://tracing, Perfetto) by finish_trace().
inline std::string* add_trace_flag(FlagSet& flags) {
  std::string* path = flags.add_string("trace", "", "write Chrome trace-event JSON to this file");
  return path;
}

// Call once after flag parsing: turns the tracer on if --trace was given.
inline void start_trace(const std::string& path) {
  if (!path.empty()) trace::Tracer::instance().set_enabled(true);
}

// Call once at exit: writes the trace file if --trace was given.
inline void finish_trace(const std::string& path) {
  if (path.empty()) return;
  if (!trace::Tracer::instance().write_chrome_json(path)) {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "\ntrace: %zu spans -> %s\n", trace::Tracer::instance().span_count(),
               path.c_str());
}

// Wall-clock engine instrumentation: raw sim.engine.* counters plus the
// derived events-per-second figure the scaling sweeps are gated by. Written
// to stderr so figure tables on stdout stay byte-comparable across runs.
inline void print_sim_counters() {
  auto counters = counter_snapshot("sim.engine");
  const auto spills = counter_snapshot("common.fn");
  counters.insert(counters.end(), spills.begin(), spills.end());
  if (counters.empty()) return;
  std::fprintf(stderr, "\n-- engine counters (host-side) --\n");
  std::uint64_t events = 0, wall_ns = 0;
  for (const auto& [name, value] : counters) {
    if (name == "sim.engine.events") events = value;
    if (name == "sim.engine.run_wall_ns") wall_ns = value;
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  if (events > 0 && wall_ns > 0) {
    std::fprintf(stderr, "%-36s %.3f\n", "sim.engine.events_per_sec_millions",
                 static_cast<double>(events) / (static_cast<double>(wall_ns) * 1e-9) / 1e6);
  }
}

}  // namespace tio::bench
