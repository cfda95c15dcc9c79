// Topology-aware fabric: multi-link flow network with per-flow max-min
// fair sharing, plus the rack/ToR/fat-tree presets Cluster routes over.
//
// The flat NIC model (net/cluster.h) charges every cross-node message the
// sender uplink + latency + receiver downlink, which is exact for a
// non-blocking fabric but cannot express the scenarios the paper's
// asymmetry argument points at: incast into one rack during the
// parallel-index-read leader exchange, or an oversubscribed ToR uplink
// flipping the bottleneck from the storage network to the fabric. This
// layer models those:
//
//   * FlowNet — a set of capacitated links and a set of active flows, each
//     flow crossing an ordered list of links. Bandwidth is allocated by
//     max-min fairness: iterative water-filling freezes the flows of the
//     most-contended link at its equal share, subtracts, and repeats.
//     Rates settle once per virtual instant in which flows arrived or
//     departed: the first change arms one zero-delay settle event, which
//     water-fills the instant's final flow set over the loaded links only.
//     Between settles all rates are constant, so each flow's completion
//     instant is exact. The next completion is scheduled under a sequence
//     number reserved at the instant's last change, so every event keeps
//     the order a re-fill on each change would give it. Deterministic:
//     bottleneck ties break on the lowest link index, completions resume
//     in flow-arrival order, and event times are integer ns (ceil + 1 ns
//     slack, like sim::FairShareChannel).
//
//   * Topology — builds the preset link graph from a ClusterConfig and
//     routes node-to-node transfers through it:
//       - tor:      per-node host up/down links (nic_bandwidth) feeding a
//                   per-rack ToR whose core uplink carries
//                   nodes_per_rack * nic_bandwidth / oversubscription in
//                   each direction; the core itself is non-blocking.
//       - fat_tree: 2-tier leaf-spine; each rack's uplink capacity is
//                   split over `spines()` parallel rack<->spine links and
//                   a flow picks its spine by a deterministic hash of the
//                   (src rack, dst rack) pair — ECMP, collisions included.
//     Intra-node messages never touch a link (latency-only, exactly the
//     flat model's fabric_latency / 4 path). Hop latency is
//     fabric_latency per switch hop: 1 hop intra-rack, 3 hops cross-rack.
//     Unlike the flat model's store-and-forward, a topology transfer is
//     one cut-through flow at the path's max-min rate; the hop latency is
//     charged after the last byte.
//
// The `flat` preset never constructs this layer at all: Cluster keeps the
// original per-NIC FairShareChannel path, byte-identical to the
// pre-topology fabric.
//
// Observability: net.topo.* counters (message/byte split by locality
// class, per-link-class bytes routed, water-filling passes as
// net.topo.settles) and trace spans per flow
// (net.topo.flow.intra_rack / .cross_rack) plus per-link busy periods
// (net.topo.link.busy) on the engine track.
#pragma once

#include <array>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/trace.h"
#include "net/cluster.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace tio::net {

class FlowNet {
 public:
  // Longest path a flow may cross (a cross-rack topology route).
  static constexpr std::size_t kMaxPathLinks = 4;

  explicit FlowNet(sim::Engine& engine);

  // Registers a link; returns its dense index. Capacity must be > 0.
  std::uint32_t add_link(double capacity_bytes_per_sec);
  std::size_t num_links() const { return links_.size(); }
  double link_capacity(std::uint32_t link) const { return links_[link].capacity; }
  // Total bytes of flows routed over this link (counted at flow start).
  std::uint64_t link_bytes(std::uint32_t link) const { return links_[link].bytes; }

  // Awaitable: completes when `bytes` have moved along `path` (1 to
  // kMaxPathLinks link indices) under global max-min sharing. Zero-byte
  // transfers complete immediately.
  struct Awaiter {
    FlowNet* net;
    std::span<const std::uint32_t> path;
    std::uint64_t bytes;
    bool await_ready() const noexcept { return bytes == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(net->engine_.is_current() && "FlowNet awaited off its engine's shard");
      net->start_transfer(path, bytes, h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter transfer(std::span<const std::uint32_t> path, std::uint64_t bytes) {
    return Awaiter{this, path, bytes};
  }

  std::size_t active_flows() const { return flows_.size(); }

  struct Stats {
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    std::uint64_t settles = 0;  // water-filling passes
    std::size_t max_concurrency = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Link {
    double capacity;
    std::uint64_t bytes = 0;
    std::uint32_t active = 0;       // flows currently crossing the link
    std::uint32_t busy_rec = trace::kNoRecord;  // open busy-period span
  };
  struct Flow {
    double remaining;  // bytes still to deliver
    double rate = 0;   // max-min allocation from the last settle, bytes/s
    std::coroutine_handle<> handle;
    std::uint32_t trace_rec = trace::kNoRecord;
    std::uint32_t path_len = 0;
    std::array<std::uint32_t, kMaxPathLinks> path{};
    std::span<const std::uint32_t> links() const { return {path.data(), path_len}; }
  };
  // Water-filling state of one link during a settle.
  struct Fill {
    double residual = 0;     // capacity not yet given to frozen flows
    std::uint32_t load = 0;  // unfrozen flows crossing the link
    std::uint32_t begin = 0;  // its flows are members_[begin, end),
    std::uint32_t end = 0;    // in arrival order
  };

  void start_transfer(std::span<const std::uint32_t> path, std::uint64_t bytes,
                      std::coroutine_handle<> h);
  // Moves every flow forward to now() at its current rate.
  void advance();
  // The flow set changed: stales the scheduled completion, reserves the
  // sequence number its replacement takes and arms a settle if none is
  // pending at this instant.
  void membership_changed();
  // Water-fills rates for the instant's final flow set and schedules the
  // next completion event (generation-guarded) under the reserved seq.
  void settle();
  void water_fill();
  void on_completion_event(std::uint64_t generation);
  void link_started(std::uint32_t link);
  void link_finished(std::uint32_t link);

  sim::Engine& engine_;
  std::vector<Link> links_;
  std::vector<Flow> flows_;  // active flows in arrival order
  TimePoint last_update_;
  std::uint64_t generation_ = 0;  // invalidates stale completion events
  std::uint64_t reserved_seq_ = 0;  // engine seq of the next completion
  bool settle_pending_ = false;
  Stats stats_;
  // Water-filling scratch, reused across settles. fill_ is per link; its
  // loads are all zero between settles.
  std::vector<Fill> fill_;
  std::vector<std::uint32_t> loaded_;   // links that still carry unfrozen flows
  std::vector<std::uint32_t> members_;  // CSR: flow indices grouped by link
  std::vector<char> frozen_;
};

// Preset link graphs over a ClusterConfig (topology != flat).
class Topology {
 public:
  Topology(sim::Engine& engine, const ClusterConfig& config);

  // One node-to-node message routed through the preset's links; the
  // behavior Cluster::fabric_transfer delegates to for non-flat presets.
  sim::Task<void> transfer(std::size_t from_node, std::size_t to_node, std::uint64_t bytes);

  // The links and latency a (from, to) message uses; exposed for tests.
  struct Route {
    enum class Class { intra_node, intra_rack, cross_rack };
    Class klass = Class::intra_node;
    std::uint32_t links[FlowNet::kMaxPathLinks] = {0, 0, 0, 0};
    std::size_t num_links = 0;
    Duration latency = Duration::zero();
  };
  Route route_of(std::size_t from_node, std::size_t to_node) const;

  FlowNet& net() { return net_; }
  const ClusterConfig& config() const { return config_; }
  // Fat-tree spine count: racks / 2, at least 1 (flat-ignored for tor).
  std::size_t spines() const { return spines_; }

  // Link-index accessors (tests and utilization dumps).
  std::uint32_t host_up(std::size_t node) const;
  std::uint32_t host_down(std::size_t node) const;
  std::uint32_t rack_up(std::size_t rack, std::size_t spine = 0) const;
  std::uint32_t rack_down(std::size_t rack, std::size_t spine = 0) const;

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  FlowNet net_;
  std::size_t spines_ = 1;  // parallel uplink planes per rack (fat_tree > 1)
};

// Preset names for flags and tables: "flat" | "tor" | "fat-tree".
std::string topology_kind_name(TopologyKind kind);
bool parse_topology_kind(const std::string& name, TopologyKind& out);

}  // namespace tio::net
