#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"

namespace tio::net {

namespace {

// Virtual slack (bytes) absorbing integer-ns rounding of event times;
// flows within this of done are taken as complete (sim/fairshare.cc).
constexpr double kSlackBytes = 1e-3;

// Flow spans by locality class, on the engine track like the fair-share
// waits (the network does not know which rank awaits it). Trace-only: one
// histogram entry per message would swamp the registry at full scale.
const trace::SpanSite& intra_rack_site() {
  static const trace::SpanSite site("net.topo", "net.topo.flow.intra_rack",
                                    /*with_histogram=*/false);
  return site;
}
const trace::SpanSite& cross_rack_site() {
  static const trace::SpanSite site("net.topo", "net.topo.flow.cross_rack",
                                    /*with_histogram=*/false);
  return site;
}
// Per-link busy periods (first flow arrives -> last flow drains).
const trace::SpanSite& link_busy_site() {
  static const trace::SpanSite site("net.topo", "net.topo.link.busy",
                                    /*with_histogram=*/false);
  return site;
}

}  // namespace

FlowNet::FlowNet(sim::Engine& engine) : engine_(engine), last_update_(engine.now()) {}

std::uint32_t FlowNet::add_link(double capacity_bytes_per_sec) {
  if (capacity_bytes_per_sec <= 0) {
    throw std::invalid_argument("FlowNet: link capacity must be > 0");
  }
  links_.push_back(Link{capacity_bytes_per_sec});
  fill_.emplace_back();
  return static_cast<std::uint32_t>(links_.size() - 1);
}

void FlowNet::start_transfer(std::span<const std::uint32_t> path, std::uint64_t bytes,
                             std::coroutine_handle<> h) {
  assert(!path.empty() && "FlowNet flows must cross at least one link");
  if (path.size() > kMaxPathLinks) {
    throw std::invalid_argument("FlowNet: a flow crosses at most kMaxPathLinks links");
  }
  advance();
  Flow flow;
  flow.remaining = static_cast<double>(bytes);
  flow.handle = h;
  flow.path_len = static_cast<std::uint32_t>(path.size());
  std::copy(path.begin(), path.end(), flow.path.begin());
  trace::Tracer& tracer = trace::Tracer::instance();
  if (tracer.enabled()) {
    const trace::SpanSite& site = path.size() > 2 ? cross_rack_site() : intra_rack_site();
    flow.trace_rec =
        tracer.begin_span(-1, site.name_id, site.cat_id, engine_.trace_pid(), engine_.now().to_ns());
  }
  for (const std::uint32_t l : flow.links()) {
    links_[l].bytes += bytes;
    link_started(l);
  }
  flows_.push_back(flow);
  ++stats_.flows;
  stats_.bytes += bytes;
  stats_.max_concurrency = std::max(stats_.max_concurrency, flows_.size());
  membership_changed();
}

void FlowNet::advance() {
  const TimePoint now = engine_.now();
  const double dt = (now - last_update_).to_seconds();
  if (dt > 0) {
    for (Flow& f : flows_) f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
  last_update_ = now;
}

void FlowNet::membership_changed() {
  ++generation_;  // invalidate any previously scheduled completion
  if (flows_.empty()) return;
  // The seq a completion scheduled right here would take: the settle
  // schedules under it, so only the instant's last change decides it.
  reserved_seq_ = engine_.reserve_seq();
  if (!settle_pending_) {
    settle_pending_ = true;
    engine_.after(Duration::zero(), [this] { settle(); });
  }
}

void FlowNet::settle() {
  static Counter& settles = counter("net.topo.settles");
  settle_pending_ = false;
  if (flows_.empty()) return;
  ++stats_.settles;
  settles.add(1);
  water_fill();

  // Next completion: the earliest finish over all flows at the new rates.
  double next_s = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    next_s = std::min(next_s, std::max(0.0, f.remaining) / f.rate);
  }
  // Round up and add 1 ns so the event never fires short of the target.
  const auto ns = static_cast<std::int64_t>(std::ceil(next_s * 1e9)) + 1;
  const std::uint64_t expect = generation_;
  engine_.at_reserved(engine_.now() + Duration::ns(ns), reserved_seq_,
                      [this, expect] { on_completion_event(expect); });
}

void FlowNet::water_fill() {
  // Count each link's flows, then lay the flows out per link (CSR, in
  // arrival order). Only links some flow crosses enter the rounds.
  loaded_.clear();
  for (const Flow& f : flows_) {
    for (const std::uint32_t l : f.links()) {
      if (fill_[l].load++ == 0) loaded_.push_back(l);
    }
  }
  std::uint32_t offset = 0;
  for (const std::uint32_t l : loaded_) {
    Fill& x = fill_[l];
    x.residual = links_[l].capacity;
    x.begin = x.end = offset;
    offset += x.load;
  }
  members_.resize(offset);
  for (std::uint32_t f = 0; f < flows_.size(); ++f) {
    for (const std::uint32_t l : flows_[f].links()) members_[fill_[l].end++] = f;
  }
  frozen_.assign(flows_.size(), 0);

  for (;;) {
    // Bottleneck: the link giving its unfrozen flows the smallest equal
    // share, lowest index on ties. Links whose flows are all frozen drop
    // out of the scan.
    std::uint32_t bottleneck = 0;
    double share = 0;
    std::size_t kept = 0;
    for (const std::uint32_t l : loaded_) {
      const Fill& x = fill_[l];
      if (x.load == 0) continue;
      const double s = x.residual / static_cast<double>(x.load);
      if (kept == 0 || s < share || (s == share && l < bottleneck)) {
        bottleneck = l;
        share = s;
      }
      loaded_[kept++] = l;
    }
    loaded_.resize(kept);
    if (kept == 0) break;  // every flow frozen; every load is back to zero
    assert(share > 0 && "max-min share must stay positive on positive capacities");
    const Fill& b = fill_[bottleneck];
    for (std::uint32_t k = b.begin; k < b.end; ++k) {
      const std::uint32_t f = members_[k];
      if (frozen_[f]) continue;
      frozen_[f] = 1;
      flows_[f].rate = share;
      for (const std::uint32_t l : flows_[f].links()) {
        Fill& x = fill_[l];
        --x.load;
        x.residual = std::max(0.0, x.residual - share);
      }
    }
  }
}

void FlowNet::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by membership change
  advance();
  // Complete finished flows in arrival order (flows_ is kept in arrival
  // order, so the scan is the deterministic resume order). Resumption is
  // deferred through the engine queue like the fair-share channel's.
  trace::Tracer& tracer = trace::Tracer::instance();
  std::size_t kept = 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    Flow& flow = flows_[f];
    if (flow.remaining <= kSlackBytes) {
      if (flow.trace_rec != trace::kNoRecord) {
        tracer.end_span(-1, flow.trace_rec, engine_.now().to_ns());
      }
      for (const std::uint32_t l : flow.links()) link_finished(l);
      const auto h = flow.handle;
      engine_.after(Duration::zero(), [h] { h.resume(); });
    } else {
      if (kept != f) flows_[kept] = flow;
      ++kept;
    }
  }
  flows_.resize(kept);
  membership_changed();
}

void FlowNet::link_started(std::uint32_t link) {
  Link& l = links_[link];
  if (l.active++ == 0) {
    trace::Tracer& tracer = trace::Tracer::instance();
    if (tracer.enabled()) {
      const trace::SpanSite& site = link_busy_site();
      l.busy_rec = tracer.begin_span(-1, site.name_id, site.cat_id, engine_.trace_pid(),
                                     engine_.now().to_ns());
    }
  }
}

void FlowNet::link_finished(std::uint32_t link) {
  Link& l = links_[link];
  if (--l.active == 0 && l.busy_rec != trace::kNoRecord) {
    trace::Tracer::instance().end_span(-1, l.busy_rec, engine_.now().to_ns());
    l.busy_rec = trace::kNoRecord;
  }
}

Topology::Topology(sim::Engine& engine, const ClusterConfig& config)
    : engine_(engine), config_(config), net_(engine) {
  config_.validate();
  if (config_.topology == TopologyKind::flat) {
    throw std::invalid_argument("Topology: the flat preset has no link graph");
  }
  const std::size_t nodes = config_.nodes;
  const std::size_t racks = config_.racks;
  spines_ = config_.topology == TopologyKind::fat_tree ? std::max<std::size_t>(1, racks / 2) : 1;
  // Link layout: [host_up x nodes][host_down x nodes]
  //              [rack_up x racks*spines][rack_down x racks*spines].
  for (std::size_t n = 0; n < 2 * nodes; ++n) net_.add_link(config_.nic_bandwidth);
  const double rack_uplink = static_cast<double>(config_.nodes_per_rack()) *
                             config_.nic_bandwidth / config_.oversubscription;
  const double plane = rack_uplink / static_cast<double>(spines_);
  for (std::size_t r = 0; r < 2 * racks * spines_; ++r) net_.add_link(plane);
}

std::uint32_t Topology::host_up(std::size_t node) const {
  return static_cast<std::uint32_t>(node);
}
std::uint32_t Topology::host_down(std::size_t node) const {
  return static_cast<std::uint32_t>(config_.nodes + node);
}
std::uint32_t Topology::rack_up(std::size_t rack, std::size_t spine) const {
  return static_cast<std::uint32_t>(2 * config_.nodes + rack * spines_ + spine);
}
std::uint32_t Topology::rack_down(std::size_t rack, std::size_t spine) const {
  return static_cast<std::uint32_t>(2 * config_.nodes + config_.racks * spines_ +
                                    rack * spines_ + spine);
}

Topology::Route Topology::route_of(std::size_t from_node, std::size_t to_node) const {
  Route r;
  if (from_node == to_node) {
    r.klass = Route::Class::intra_node;
    r.latency = config_.intra_node_latency();
    return r;
  }
  const std::size_t from_rack = config_.rack_of_node(from_node);
  const std::size_t to_rack = config_.rack_of_node(to_node);
  r.links[r.num_links++] = host_up(from_node);
  if (from_rack == to_rack) {
    r.klass = Route::Class::intra_rack;
    r.latency = config_.fabric_latency;  // one switch hop (the shared ToR)
  } else {
    r.klass = Route::Class::cross_rack;
    r.latency = config_.fabric_latency * 3;  // ToR -> core -> ToR
    // ECMP: the flow's uplink plane is a deterministic hash of the rack
    // pair, so repeated rack pairs collide on the same spine (fat_tree
    // spines_ > 1) exactly as static per-destination hashing would.
    const std::size_t spine =
        static_cast<std::size_t>(hash_combine(from_rack, to_rack)) % spines_;
    r.links[r.num_links++] = rack_up(from_rack, spine);
    r.links[r.num_links++] = rack_down(to_rack, spine);
  }
  r.links[r.num_links++] = host_down(to_node);
  return r;
}

sim::Task<void> Topology::transfer(std::size_t from_node, std::size_t to_node,
                                   std::uint64_t bytes) {
  static Counter& msgs_intra_node = counter("net.topo.msgs.intra_node");
  static Counter& msgs_intra_rack = counter("net.topo.msgs.intra_rack");
  static Counter& msgs_cross_rack = counter("net.topo.msgs.cross_rack");
  static Counter& bytes_intra_node = counter("net.topo.bytes.intra_node");
  static Counter& bytes_intra_rack = counter("net.topo.bytes.intra_rack");
  static Counter& bytes_cross_rack = counter("net.topo.bytes.cross_rack");
  static Counter& link_bytes_host = counter("net.topo.link_bytes.host");
  static Counter& link_bytes_rack = counter("net.topo.link_bytes.rack");

  const Route r = route_of(from_node, to_node);
  switch (r.klass) {
    case Route::Class::intra_node:
      msgs_intra_node.add(1);
      bytes_intra_node.add(bytes);
      // Shared-memory transport: latency only, no link involvement —
      // identical to the flat preset's intra-node path.
      co_await engine_.sleep(r.latency);
      co_return;
    case Route::Class::intra_rack:
      msgs_intra_rack.add(1);
      bytes_intra_rack.add(bytes);
      link_bytes_host.add(2 * bytes);
      break;
    case Route::Class::cross_rack:
      msgs_cross_rack.add(1);
      bytes_cross_rack.add(bytes);
      link_bytes_host.add(2 * bytes);
      link_bytes_rack.add(2 * bytes);
      break;
  }
  co_await net_.transfer(std::span<const std::uint32_t>(r.links, r.num_links), bytes);
  co_await engine_.sleep(r.latency);
}

std::string topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::flat:
      return "flat";
    case TopologyKind::tor:
      return "tor";
    case TopologyKind::fat_tree:
      return "fat-tree";
  }
  return "?";
}

bool parse_topology_kind(const std::string& name, TopologyKind& out) {
  if (name == "flat") {
    out = TopologyKind::flat;
  } else if (name == "tor") {
    out = TopologyKind::tor;
  } else if (name == "fat-tree" || name == "fat_tree") {
    out = TopologyKind::fat_tree;
  } else {
    return false;
  }
  return true;
}

}  // namespace tio::net
