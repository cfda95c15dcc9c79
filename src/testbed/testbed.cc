#include "testbed/testbed.h"

#include <stdexcept>

namespace tio::testbed {

net::ClusterConfig lanl_cluster() {
  net::ClusterConfig c;
  c.nodes = 64;
  c.cores_per_node = 16;
  c.memory_per_node = 32_GiB;
  c.nic_bandwidth = 2.0e9;             // IB DDR-class per node
  c.fabric_latency = Duration::us(2);
  c.storage_net_bandwidth = 1.25e9;    // the paper's quoted theoretical peak
  c.storage_nic_bandwidth = 1.15e9;    // one node can nearly saturate it
  c.storage_net_latency = Duration::us(60);
  c.page_cache_per_node = 128_MiB;     // PanFS-client-like per-mount file cache
  c.page_cache_block = 64_KiB;         // page-cache/readahead granularity
  c.page_cache_bandwidth = 4.0e9;
  return c;
}

pfs::PfsConfig lanl_pfs(std::size_t num_mds) {
  pfs::PfsConfig c;
  c.num_mds = num_mds;
  c.mds_concurrency = 4;
  c.num_osts = 20;                     // 551 TB of shelves behind 1.25 GB/s
  c.ost_bandwidth = 350e6;
  c.ost_seek_time = Duration::ms(4);
  c.ost_switch_time = Duration::ms(1);
  c.stripe_unit = 64_KiB;
  c.lock_range = 1_MiB;
  c.lock_transfer_time = Duration::ms(1);
  return c;
}

net::ClusterConfig cielo() {
  net::ClusterConfig c;
  c.nodes = 4096;                      // the slice hosting 65,536 processes
  c.cores_per_node = 16;
  c.memory_per_node = 32_GiB;
  c.nic_bandwidth = 4.0e9;             // Gemini class
  c.fabric_latency = Duration::us(2);
  c.storage_net_bandwidth = 80e9;      // 10 PB PanFS, ~80 GB/s aggregate
  c.storage_nic_bandwidth = 1.25e9;
  c.storage_net_latency = Duration::us(60);
  c.page_cache_per_node = 128_MiB;     // PanFS-client-like per-mount file cache
  c.page_cache_block = 1_MiB;          // coarser blocks keep 65k-rank runs cheap
  c.page_cache_bandwidth = 4.0e9;
  return c;
}

pfs::PfsConfig cielo_pfs(std::size_t num_mds) {
  pfs::PfsConfig c;
  c.num_mds = num_mds;
  c.mds_concurrency = 4;
  c.num_osts = 400;
  c.ost_bandwidth = 350e6;
  c.ost_seek_time = Duration::ms(4);
  c.ost_switch_time = Duration::ms(1);
  c.stripe_unit = 64_KiB;
  c.lock_range = 1_MiB;
  c.lock_transfer_time = Duration::ms(1);
  return c;
}

plfs::PlfsMount plfs_mount(std::size_t backends, std::size_t num_subdirs) {
  if (backends == 0) throw std::invalid_argument("plfs_mount: need at least one backend");
  plfs::PlfsMount m;
  for (std::size_t i = 0; i < backends; ++i) {
    m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
  }
  m.num_subdirs = num_subdirs;
  m.spread_containers = backends > 1;
  m.spread_subdirs = backends > 1;
  return m;
}

namespace {
// Replica r of group g lands on node (g + r*groups) % nodes: distinct nodes
// per group whenever the cluster is big enough, leaders scattered across
// groups.
std::vector<std::vector<std::size_t>> spread_replicas(std::size_t groups,
                                                      std::size_t replicas,
                                                      std::size_t nodes) {
  std::vector<std::vector<std::size_t>> placement(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t r = 0; r < replicas; ++r) {
      placement[g].push_back((g + r * groups) % nodes);
    }
  }
  return placement;
}
}  // namespace

Rig::Rig(Options options)
    : engine_(options.seed),
      cluster_(std::make_unique<net::Cluster>(engine_, options.cluster)) {
  const bool replicated = options.pfs.mds_replication == pfs::MdsReplication::raft;
  if (replicated && options.pfs.raft_placement.empty()) {
    options.pfs.raft_placement =
        spread_replicas(options.pfs.num_mds, options.pfs.mds_replicas, options.cluster.nodes);
  }
  pfs_ = std::make_unique<pfs::SimPfs>(*cluster_, options.pfs);
  const std::size_t backends =
      options.plfs_backends > 0 ? options.plfs_backends : options.pfs.num_mds;
  mount_ = plfs_mount(backends, options.num_subdirs);
  mount_.index_wire = options.index_wire;
  mount_.retry = options.retry;
  mount_.mds_replicated = replicated;
  mount_.meta_batching = options.pfs.mds_batch > 0;
  // One plan spec drives both replication modes: server-targeted faults
  // run against the replica groups when they exist, and lower to
  // path-prefix outages of the victim namespace when they don't.
  const pfs::FaultPlan plan =
      replicated ? options.fault_plan : options.fault_plan.lowered_for_unreplicated();
  if (replicated) pfs_->schedule_server_faults(plan);
  if (plan.enabled()) {
    faulty_ = std::make_unique<pfs::FaultyFs>(*pfs_, plan);
  }
  plfs_ = std::make_unique<plfs::Plfs>(fs(), mount_);
  // Pre-create ("mount") the volume roots plus the direct-access dir.
  for (const auto& b : mount_.backends) {
    if (!pfs_->ns().mkdir_all(b).ok()) throw std::runtime_error("mount failed: " + b);
  }
  if (!pfs_->ns().mkdir_all(direct_dir()).ok()) {
    throw std::runtime_error("mount failed: direct dir");
  }
}

}  // namespace tio::testbed
