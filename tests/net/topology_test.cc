#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "net/cluster.h"
#include "net/max_min_oracle.h"
#include "sim/engine.h"
#include "testutil.h"

namespace tio::net {
namespace {

// 8 nodes in 2 racks, 1 GB/s NICs, 2:1 oversubscribed ToR uplinks
// (4 * 1 GB/s / 2 = 2 GB/s per rack, each direction).
ClusterConfig tor_config() {
  ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 2;
  c.nic_bandwidth = 1e9;
  c.fabric_latency = Duration::us(2);
  c.topology = TopologyKind::tor;
  c.racks = 2;
  c.oversubscription = 2.0;
  return c;
}

// --- max-min water-filling closed forms ---

TEST(MaxMin, EqualFlowsSplitOneLinkEvenly) {
  for (std::uint32_t n : {1u, 2u, 5u, 16u}) {
    const std::vector<std::vector<std::uint32_t>> paths(n, {0u});
    const auto rates = max_min_rates({8e9}, paths);
    ASSERT_EQ(rates.size(), n);
    for (double r : rates) EXPECT_DOUBLE_EQ(r, 8e9 / n);
  }
}

TEST(MaxMin, WaterFillingFreezesBottleneckThenRedistributes) {
  // Flow 0 crosses only link A (10); flow 1 crosses A and B (5); flow 2
  // crosses only B. B is the bottleneck (5 / 2 = 2.5 < 10 / 2): flows 1
  // and 2 freeze at 2.5, then flow 0 takes A's full residual 7.5.
  const auto rates = max_min_rates({10.0, 5.0}, {{0}, {0, 1}, {1}});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 7.5);
  EXPECT_DOUBLE_EQ(rates[1], 2.5);
  EXPECT_DOUBLE_EQ(rates[2], 2.5);
}

TEST(MaxMin, EmptyPathIsUnconstrained) {
  const auto rates = max_min_rates({1e9}, {{}, {0}});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(rates[1], 1e9);
}

TEST(MaxMin, TiedBottlenecksAreDeterministic) {
  // Both links tie at 10 / 2 = 5; the lowest-index link freezes first.
  // Every flow ends at 5 either way — the invariant under test is that
  // repeated evaluation gives bit-identical output.
  const std::vector<double> caps = {10.0, 10.0};
  const std::vector<std::vector<std::uint32_t>> paths = {{0, 1}, {0}, {1}};
  const auto a = max_min_rates(caps, paths);
  const auto b = max_min_rates(caps, paths);
  EXPECT_EQ(a, b);
  for (double r : a) EXPECT_DOUBLE_EQ(r, 5.0);
}

// --- FlowNet virtual-time dynamics ---

TEST(FlowNet, SingleFlowRunsAtLinkCapacity) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  const std::uint32_t path[] = {link};
  test::run_task(e, [](FlowNet& n, std::span<const std::uint32_t> p) -> sim::Task<void> {
    co_await n.transfer(p, 1000000000);
  }(net, path));
  // 1 GB at 1 GB/s = 1 s, rounded up by <= 2 ns of event slack.
  EXPECT_NEAR(static_cast<double>(e.now().to_ns()), 1e9, 10.0);
  EXPECT_EQ(net.stats().flows, 1u);
  EXPECT_EQ(net.link_bytes(link), 1000000000u);
}

TEST(FlowNet, LateArrivalSplitsTheLink) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  std::int64_t done_a = 0, done_b = 0;
  auto xfer = [](sim::Engine& eng, FlowNet& n, std::uint32_t l, std::uint64_t bytes,
                 Duration start, std::int64_t* out) -> sim::Task<void> {
    co_await eng.sleep(start);
    const std::uint32_t path[] = {l};
    co_await n.transfer(path, bytes);
    *out = eng.now().to_ns();
  };
  e.spawn(xfer(e, net, link, 1000000000, Duration::zero(), &done_a));
  e.spawn(xfer(e, net, link, 500000000, Duration::ms(500), &done_b));
  e.run();
  // A runs alone for 0.5 s (500 MB left); then A and B each hold 500 MB at
  // 0.5 GB/s — both complete together at 1.5 s.
  EXPECT_NEAR(static_cast<double>(done_a), 1.5e9, 10.0);
  EXPECT_NEAR(static_cast<double>(done_b), 1.5e9, 10.0);
  EXPECT_EQ(net.stats().max_concurrency, 2u);
}

TEST(FlowNet, ZeroByteTransferCompletesInline) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  const std::uint32_t path[] = {link};
  test::run_task(e, [](FlowNet& n, std::span<const std::uint32_t> p) -> sim::Task<void> {
    co_await n.transfer(p, 0);
  }(net, path));
  EXPECT_EQ(e.now().to_ns(), 0);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNet, RejectsNonPositiveCapacity) {
  sim::Engine e;
  FlowNet net(e);
  EXPECT_THROW(net.add_link(0.0), std::invalid_argument);
  EXPECT_THROW(net.add_link(-1.0), std::invalid_argument);
}

TEST(FlowNet, RejectsPathsLongerThanARoute) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  const std::uint32_t path[FlowNet::kMaxPathLinks + 1] = {link, link, link, link, link};
  bool threw = false;
  test::run_task(e, [](FlowNet& n, std::span<const std::uint32_t> p, bool* out) -> sim::Task<void> {
    try {
      co_await n.transfer(p, 1000);
    } catch (const std::invalid_argument&) {
      *out = true;
    }
  }(net, path, &threw));
  EXPECT_TRUE(threw);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNet, BurstAtOneInstantSettlesOnce) {
  // Four flows arrive at t = 0 and share the link; one water-filling pass
  // serves the whole burst, and one more follows the joint departure.
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  std::vector<std::int64_t> done;
  auto xfer = [](sim::Engine& eng, FlowNet& n, std::uint32_t l,
                 std::vector<std::int64_t>* out) -> sim::Task<void> {
    const std::uint32_t path[] = {l};
    co_await n.transfer(path, 1000000);
    out->push_back(eng.now().to_ns());
  };
  for (int i = 0; i < 4; ++i) e.spawn(xfer(e, net, link, &done));
  e.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_NEAR(static_cast<double>(done[0]), 4e6, 10.0);
  for (std::int64_t t : done) EXPECT_EQ(t, done[0]);
  EXPECT_EQ(net.stats().settles, 1u);
}

// --- settled rates vs. a naive reference at ns precision ---

// FlowNet's completion slack (net/topology.cc).
constexpr double kSlackBytes = 1e-3;

// Reference fabric: on every arrival and departure it re-runs the oracle
// over all active flows and schedules the next completion at once. Same
// rate semantics as FlowNet, none of its per-instant settling or
// loaded-link bookkeeping.
class EagerNet {
 public:
  EagerNet(sim::Engine& engine, std::vector<double> capacity)
      : engine_(engine), capacity_(std::move(capacity)) {}

  struct Awaiter {
    EagerNet* net;
    std::span<const std::uint32_t> path;
    std::uint64_t bytes;
    bool await_ready() const noexcept { return bytes == 0; }
    void await_suspend(std::coroutine_handle<> h) { net->start(path, bytes, h); }
    void await_resume() const noexcept {}
  };
  Awaiter transfer(std::span<const std::uint32_t> path, std::uint64_t bytes) {
    return Awaiter{this, path, bytes};
  }
  std::uint64_t passes() const { return passes_; }

 private:
  struct Flow {
    double remaining;
    double rate;
    std::coroutine_handle<> handle;
    std::vector<std::uint32_t> path;
  };

  void start(std::span<const std::uint32_t> path, std::uint64_t bytes,
             std::coroutine_handle<> h) {
    advance();
    flows_.push_back(Flow{static_cast<double>(bytes), 0, h, {path.begin(), path.end()}});
    reschedule();
  }
  void advance() {
    const double dt = (engine_.now() - last_update_).to_seconds();
    if (dt > 0) {
      for (Flow& f : flows_) f.remaining = std::max(0.0, f.remaining - f.rate * dt);
    }
    last_update_ = engine_.now();
  }
  void reschedule() {
    ++generation_;
    if (flows_.empty()) return;
    ++passes_;
    std::vector<std::vector<std::uint32_t>> paths;
    for (const Flow& f : flows_) paths.push_back(f.path);
    const std::vector<double> rates = max_min_rates(capacity_, paths);
    double next_s = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      flows_[f].rate = rates[f];
      next_s = std::min(next_s, std::max(0.0, flows_[f].remaining) / rates[f]);
    }
    const auto ns = static_cast<std::int64_t>(std::ceil(next_s * 1e9)) + 1;
    const std::uint64_t expect = generation_;
    engine_.after(Duration::ns(ns), [this, expect] { on_completion(expect); });
  }
  void on_completion(std::uint64_t generation) {
    if (generation != generation_) return;
    advance();
    std::vector<Flow> kept;
    for (Flow& f : flows_) {
      if (f.remaining <= kSlackBytes) {
        const auto h = f.handle;
        engine_.after(Duration::zero(), [h] { h.resume(); });
      } else {
        kept.push_back(std::move(f));
      }
    }
    flows_ = std::move(kept);
    reschedule();
  }

  sim::Engine& engine_;
  std::vector<double> capacity_;
  std::vector<Flow> flows_;
  TimePoint last_update_;
  std::uint64_t generation_ = 0;
  std::uint64_t passes_ = 0;
};

struct Hop {
  std::size_t from, to;
  std::uint64_t bytes;
  int yields;           // same-instant yields before the transfer starts
  std::int64_t gap_ns;  // then a sleep this long (0: none)
};
struct Proc {
  std::int64_t start_ns;
  std::vector<Hop> hops;  // back to back: each starts as the last completes
};

template <typename Net>
sim::Task<void> run_proc(sim::Engine& e, Net& net, const Topology& topo, const Proc& p,
                         std::vector<std::int64_t>* done) {
  co_await e.sleep(Duration::ns(p.start_ns));
  for (const Hop& h : p.hops) {
    for (int y = 0; y < h.yields; ++y) co_await e.yield();
    if (h.gap_ns > 0) co_await e.sleep(Duration::ns(h.gap_ns));
    const Topology::Route r = topo.route_of(h.from, h.to);
    co_await net.transfer(std::span<const std::uint32_t>(r.links, r.num_links), h.bytes);
    done->push_back(e.now().to_ns());
  }
}

// Completion instants of every hop, per process, on FlowNet (settles,
// flows) and on the eager reference (passes).
struct Outcome {
  std::vector<std::vector<std::int64_t>> done;
  std::uint64_t passes = 0;
  std::uint64_t flows = 0;
};

Outcome run_flownet(const std::vector<Proc>& procs) {
  sim::Engine e;
  Topology topo(e, tor_config());
  Outcome out;
  out.done.resize(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    e.spawn(run_proc(e, topo.net(), topo, procs[i], &out.done[i]));
  }
  e.run();
  out.passes = topo.net().stats().settles;
  out.flows = topo.net().stats().flows;
  return out;
}

Outcome run_eager(const std::vector<Proc>& procs) {
  sim::Engine e;
  Topology topo(e, tor_config());
  std::vector<double> capacity;
  for (std::uint32_t l = 0; l < topo.net().num_links(); ++l) {
    capacity.push_back(topo.net().link_capacity(l));
  }
  EagerNet net(e, capacity);
  Outcome out;
  out.done.resize(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    e.spawn(run_proc(e, net, topo, procs[i], &out.done[i]));
  }
  e.run();
  out.passes = net.passes();
  return out;
}

Proc random_proc(Rng& rng, std::int64_t start_ns) {
  const std::size_t nodes = tor_config().nodes;
  Proc p{start_ns, {}};
  const int hops = static_cast<int>(rng.between(1, 3));
  for (int i = 0; i < hops; ++i) {
    const std::size_t from = rng.below(nodes);
    const std::size_t to = (from + 1 + rng.below(nodes - 1)) % nodes;
    // Odd sizes from one byte to a few MB, so rates and rounding vary.
    const std::uint64_t bytes = rng.chance(0.2) ? static_cast<std::uint64_t>(rng.between(1, 999))
                                                : static_cast<std::uint64_t>(rng.between(1000, 4000000));
    // Gaps of a few ns land wakeups on the same ns as the completions of
    // tiny flows, where only the (time, seq) order decides which runs first.
    const std::int64_t gap_ns = rng.chance(0.5) ? rng.between(1, 6) : 0;
    p.hops.push_back(Hop{from, to, bytes, static_cast<int>(rng.below(3)), gap_ns});
  }
  return p;
}

TEST(FlowNet, SettledCompletionsMatchEagerReferenceToTheNanosecond) {
  std::uint64_t settles = 0, passes = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<Proc> procs;
    // Bursts: several processes start at one instant.
    const int bursts = static_cast<int>(rng.between(2, 4));
    for (int b = 0; b < bursts; ++b) {
      const std::int64_t at = rng.chance(0.3) ? 0 : rng.between(0, 2000000);
      const int n = static_cast<int>(rng.between(3, 8));
      for (int i = 0; i < n; ++i) procs.push_back(random_proc(rng, at));
    }
    // Staggered arrivals.
    const int singles = static_cast<int>(rng.between(5, 15));
    for (int i = 0; i < singles; ++i) procs.push_back(random_proc(rng, rng.between(0, 3000000)));

    const Outcome base = run_flownet(procs);
    const Outcome base_ref = run_eager(procs);
    ASSERT_EQ(base.done, base_ref.done);

    // Departures inside a burst: new bursts land exactly on instants where
    // flows completed above. Their wakeups run ahead of the completion
    // event there; chained hops (after yields) arrive behind it.
    std::vector<std::int64_t> instants;
    for (const auto& d : base.done) instants.insert(instants.end(), d.begin(), d.end());
    std::sort(instants.begin(), instants.end());
    for (int b = 0; b < 3; ++b) {
      const std::int64_t at = instants[rng.below(instants.size())];
      const int n = static_cast<int>(rng.between(2, 5));
      for (int i = 0; i < n; ++i) procs.push_back(random_proc(rng, at));
    }
    const Outcome mixed = run_flownet(procs);
    const Outcome mixed_ref = run_eager(procs);
    ASSERT_EQ(mixed.done, mixed_ref.done);
    std::size_t hops = 0;
    for (const Proc& p : procs) hops += p.hops.size();
    EXPECT_EQ(mixed.flows, hops);
    settles += base.passes + mixed.passes;
    passes += base_ref.passes + mixed_ref.passes;
  }
  // Same-instant changes share one settle.
  EXPECT_LT(settles, passes);
}

// --- preset link graphs and routes ---

TEST(Topology, FlatPresetIsRejected) {
  sim::Engine e;
  ClusterConfig cfg = tor_config();
  cfg.topology = TopologyKind::flat;
  EXPECT_THROW(Topology(e, cfg), std::invalid_argument);
}

TEST(Topology, TorLinkCapacitiesFollowOversubscription) {
  sim::Engine e;
  Topology topo(e, tor_config());
  EXPECT_EQ(topo.spines(), 1u);
  // 2 host links per node + 2 uplink directions per rack.
  EXPECT_EQ(topo.net().num_links(), 8u * 2 + 2u * 2);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.host_up(0)), 1e9);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.host_down(7)), 1e9);
  // nodes_per_rack * nic / oversubscription = 4 * 1e9 / 2.
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_up(0)), 2e9);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_down(1)), 2e9);
}

TEST(Topology, RoutesClassifyByLocality) {
  sim::Engine e;
  Topology topo(e, tor_config());

  const auto local = topo.route_of(3, 3);
  EXPECT_EQ(local.klass, Topology::Route::Class::intra_node);
  EXPECT_EQ(local.num_links, 0u);
  EXPECT_EQ(local.latency.to_ns(), (Duration::us(2) / 4).to_ns());

  // Nodes 0 and 1 share rack 0: host uplink -> ToR -> host downlink.
  const auto near = topo.route_of(0, 1);
  EXPECT_EQ(near.klass, Topology::Route::Class::intra_rack);
  ASSERT_EQ(near.num_links, 2u);
  EXPECT_EQ(near.links[0], topo.host_up(0));
  EXPECT_EQ(near.links[1], topo.host_down(1));
  EXPECT_EQ(near.latency.to_ns(), Duration::us(2).to_ns());

  // Node 0 (rack 0) to node 5 (rack 1) climbs through both ToRs.
  const auto far = topo.route_of(0, 5);
  EXPECT_EQ(far.klass, Topology::Route::Class::cross_rack);
  ASSERT_EQ(far.num_links, 4u);
  EXPECT_EQ(far.links[0], topo.host_up(0));
  EXPECT_EQ(far.links[1], topo.rack_up(0));
  EXPECT_EQ(far.links[2], topo.rack_down(1));
  EXPECT_EQ(far.links[3], topo.host_down(5));
  EXPECT_EQ(far.latency.to_ns(), (Duration::us(2) * 3).to_ns());
}

TEST(Topology, FatTreeSplitsUplinkAcrossSpinePlanes) {
  sim::Engine e;
  ClusterConfig cfg = tor_config();
  cfg.topology = TopologyKind::fat_tree;
  cfg.racks = 4;  // 2 nodes per rack -> 2 spine planes
  Topology topo(e, cfg);
  EXPECT_EQ(topo.spines(), 2u);
  // Per-plane capacity = nodes_per_rack * nic / oversub / spines.
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_up(0, 0)), 2e9 / 2 / 2);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_up(0, 1)), 2e9 / 2 / 2);

  // ECMP spine choice is a pure function of the rack pair.
  const auto r1 = topo.route_of(0, 7);
  const auto r2 = topo.route_of(0, 7);
  ASSERT_EQ(r1.num_links, 4u);
  EXPECT_EQ(r1.links[1], r2.links[1]);
  const std::size_t spine = r1.links[1] - topo.rack_up(0, 0);
  EXPECT_LT(spine, topo.spines());
}

// --- Cluster dispatch and end-to-end timing ---

TEST(Topology, ClusterBuildsTopologyOnlyForSwitchedPresets) {
  sim::Engine e1, e2;
  ClusterConfig flat = tor_config();
  flat.topology = TopologyKind::flat;
  Cluster c_flat(e1, flat);
  EXPECT_EQ(c_flat.topology(), nullptr);
  Cluster c_tor(e2, tor_config());
  ASSERT_NE(c_tor.topology(), nullptr);
  EXPECT_EQ(c_tor.topology()->config().racks, 2u);
}

TEST(Topology, IntraRackTransferIsCutThrough) {
  sim::Engine e;
  Cluster c(e, tor_config());
  test::run_task(e, c.fabric_transfer(0, 1, 1000000));
  // One 1 MB flow at the 1 GB/s host links = 1 ms, then one switch hop of
  // latency; unlike the flat model there is no second store-and-forward leg.
  EXPECT_NEAR(static_cast<double>(e.now().to_ns()),
              static_cast<double>(Duration::ms(1).to_ns() + Duration::us(2).to_ns()), 10.0);
}

TEST(Topology, OversubscribedUplinkThrottlesCrossRackIncast) {
  // 4 nodes, 2 racks, 4:1 oversubscription: uplink = 2 * 1e9 / 4 = 0.5e9,
  // slower than a single NIC.
  ClusterConfig cfg = tor_config();
  cfg.nodes = 4;
  cfg.racks = 2;
  cfg.oversubscription = 4.0;

  // One cross-rack flow alone: bottleneck is the uplink.
  {
    sim::Engine e;
    Cluster c(e, cfg);
    test::run_task(e, c.fabric_transfer(0, 2, 1000000));
    EXPECT_NEAR(static_cast<double>(e.now().to_ns()),
                static_cast<double>(Duration::ms(2).to_ns() + (Duration::us(2) * 3).to_ns()),
                10.0);
  }
  // Two concurrent flows from different hosts share the rack 0 uplink:
  // each gets 0.25e9 -> 4 ms.
  {
    sim::Engine e;
    Cluster c(e, cfg);
    std::int64_t done0 = 0, done1 = 0;
    auto send = [](Cluster& cl, std::size_t from, std::size_t to,
                   std::int64_t* out) -> sim::Task<void> {
      co_await cl.fabric_transfer(from, to, 1000000);
      *out = cl.engine().now().to_ns();
    };
    e.spawn(send(c, 0, 2, &done0));
    e.spawn(send(c, 1, 3, &done1));
    e.run();
    EXPECT_NEAR(static_cast<double>(done0),
                static_cast<double>(Duration::ms(4).to_ns() + (Duration::us(2) * 3).to_ns()),
                10.0);
    EXPECT_NEAR(static_cast<double>(done1), static_cast<double>(done0), 10.0);
  }
}

TEST(Topology, IntraNodeTransferNeverTouchesLinks) {
  sim::Engine e;
  Cluster c(e, tor_config());
  test::run_task(e, c.fabric_transfer(2, 2, 1000000000));
  EXPECT_EQ(e.now().to_ns(), (Duration::us(2) / 4).to_ns());
  EXPECT_EQ(c.topology()->net().stats().flows, 0u);
}

// --- preset names ---

TEST(Topology, KindNamesRoundTrip) {
  for (auto kind : {TopologyKind::flat, TopologyKind::tor, TopologyKind::fat_tree}) {
    TopologyKind parsed;
    ASSERT_TRUE(parse_topology_kind(topology_kind_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  TopologyKind parsed;
  EXPECT_TRUE(parse_topology_kind("fat_tree", parsed));
  EXPECT_EQ(parsed, TopologyKind::fat_tree);
  EXPECT_FALSE(parse_topology_kind("dragonfly", parsed));
}

}  // namespace
}  // namespace tio::net
