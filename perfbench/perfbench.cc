// perfbench: runs one benchmark workload against the simulator's
// public entry points and prints one JSON object on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   perfbench --fig4 STREAMS
//
// One simulation at a time, on one thread, in one process per run (plus a
// short-lived child for the host-speed probe, never running alongside a
// simulation). The benchmark times its own calls into the simulator (rig
// construction, run_job, run_metadata_storm) on the host clock; everything
// else is read from the simulator's counters, histograms, PFS stats and, in
// traced runs, the span tracer. perfbench/README.md describes the workloads
// and metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "testbed/testbed.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

using namespace tio;
using namespace tio::workloads;

namespace {

// ---------------------------------------------------------------- host ----

double host_now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// Host-speed probe. A shared host's speed drifts by tens of percent over
// tens of seconds, and the simulator slows with it. The probe is fixed
// work of the same kind (hash-map inserts and lookups, allocation, a
// sort; about 50 ms) timed before and after every iteration. Host times
// are reported rescaled to kProbeRefS: seconds on a host where the probe
// takes 50 ms. That cancels most of the drift, and the raw times are
// reported beside them (host.raw_wall_s, host.probe_s).
constexpr double kProbeRefS = 0.05;

double probe_work() {
  const double t0 = host_now();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 200000; ++i) map[next() % 1000003] += i;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    auto found = map.find(next() % 1000003);
    if (found != map.end()) acc += found->second;
  }
  std::vector<std::uint64_t> v(300000);
  for (auto& e : v) e = next() ^ acc;
  std::sort(v.begin(), v.end());
  const double dt = host_now() - t0;
  // Keep the work observable so the compiler cannot drop it.
  if (v.front() == 0 && v.back() == 0) std::fprintf(stderr, "perfbench: probe\n");
  return dt;
}

// Runs the probe in a child process, so its memory never shows in this
// process's peak RSS, and waits for the child to end.
double speed_probe() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("probe: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("probe: fork failed");
  if (pid == 0) {
    // The child must never return into the caller, whatever happens.
    bool ok = false;
    try {
      close(fds[0]);
      const double dt = probe_work();
      ok = write(fds[1], &dt, sizeof dt) == static_cast<ssize_t>(sizeof dt);
    } catch (...) {
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double dt = 0;
  const bool got = read(fds[0], &dt, sizeof dt) == static_cast<ssize_t>(sizeof dt);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("probe: child failed");
  }
  return dt;
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux reports KiB
}

double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return got == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) : 0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Shortest round-trip decimal form: every digit the double carries.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// -------------------------------------------------------------- config ----

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  int fig4_streams = 0;
};

// Per-seed inputs. Every stochastic or placement-dependent input of a run
// derives from the benchmark seed, so one seed always repeats exactly.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

// --------------------------------------------------------- one iteration ----

// What one iteration of a workload produced.
struct Iter {
  double setup_s = 0;  // host: rig construction
  double wall_s = 0;   // host: the simulation calls
  double probe_s = 0;  // host: the speed probe around the iteration
  double scale = 1;    // kProbeRefS / probe_s
  std::vector<double> setup_samples;  // rescaled set-up times
  std::map<std::string, double> host;  // host.* seconds per call kind
  std::map<std::string, double> virt;  // every virtual-time result, by name
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // SimPfs + OST stats summed over the iteration's rigs.
  double pfs_metadata_ops = 0, pfs_creates = 0, pfs_cache_hit_bytes = 0;
  double pfs_lock_transfers = 0, pfs_rmw_reads = 0, ost_ops = 0, ost_seeks = 0;
  std::map<std::string, std::string> fingerprint;
};

// One simulation call on a rig: what it is called on the host clock, how
// many simulated client ops it attempts, and the call itself (which records
// its virtual-time results into the iteration).
struct Call {
  std::string host_metric;
  std::uint64_t ops = 0;
  std::function<void(testbed::Rig&, Iter&)> run;
};

// One rig and the calls made on it, in order (later calls may depend on
// earlier ones, e.g. a read phase on the checkpoint a write phase left).
struct Step {
  std::function<testbed::Rig::Options()> options;
  std::vector<Call> calls;
};

struct Workload {
  std::vector<Step> steps;
  int max_ranks = 0;
  std::string echo;  // config echo (sizes, plan), JSON object body
  // Derives the sim_* metrics from an iteration's virtual results.
  std::function<std::map<std::string, double>(const Iter&)> sim;
};

void record_phase(Iter& it, const std::string& prefix, const PhaseTimes& p) {
  it.virt[prefix + ".open_s"] = p.open_s;
  it.virt[prefix + ".io_s"] = p.io_s;
  it.virt[prefix + ".close_s"] = p.close_s;
  it.virt[prefix + ".bytes"] = static_cast<double>(p.bytes);
}

double phase_total(const Iter& it, const std::string& prefix) {
  return it.virt.at(prefix + ".open_s") + it.virt.at(prefix + ".io_s") +
         it.virt.at(prefix + ".close_s");
}

double bw_mbps(double bytes, double seconds) { return ratio(bytes, seconds) / 1e6; }

// Empty end-to-end sim_* map with every name present.
std::map<std::string, double> sim_base() {
  return {{"sim_open_s", 0},          {"sim_close_s", 0},       {"sim_total_s", 0},
          {"sim_write_bw_mbps", 0},   {"sim_read_bw_mbps", 0},  {"sim_read_open_s", 0},
          {"sim_write_close_s", 0},   {"sim_create_open_s", 0}, {"sim_create_close_s", 0}};
}

// ----------------------------------------------------------- workloads ----

// ckpt_n1: N-1 strided MPI-IO Test checkpoint through PLFS, restart-read
// with Parallel Index Read after the caches are dropped.
struct CkptSetup {
  int nprocs = 512;
  // 500 records per rank, not 512: with the seed's nudge added, the index
  // sizes then never cross a power of two, where vector capacities double
  // and peak RSS jumps by 8%.
  std::uint64_t per_proc = 500u << 14;
  std::uint64_t record = 16u << 10;
  std::optional<std::uint64_t> rig_seed;   // unset: Rig::Options' default
  std::optional<std::uint64_t> data_seed;  // unset: JobSpec's default
  std::string file = "ckpt";
  bool drop_caches = true;
  // fig4 reads the checkpoint with the Original strategy before Parallel
  // Index Read, on the same rig (so the second read finds warm caches).
  bool original_read_first = false;
};

// A per-seed size nudge (0-3 records per rank, or 0-3 nodes' worth of
// ranks), so that every virtual result of a workload moves with the seed
// (write close times and plain storms otherwise hardly depend on it) while
// staying within 1% of the nominal size.
std::uint64_t nudge(const Config& cfg) { return mix(cfg.seed, 6) % 4; }

CkptSetup ckpt_setup(const Config& cfg) {
  CkptSetup s;
  if (cfg.smoke) {
    s.nprocs = 64;
    s.per_proc = 60u << 14;
  }
  s.per_proc += nudge(cfg) * s.record;
  s.rig_seed = mix(cfg.seed, 1);
  s.data_seed = mix(cfg.seed, 2);
  return s;
}

// bench/fig4_read_scaling's "noflat" rig at one stream count.
CkptSetup fig4_setup(int streams) {
  CkptSetup s;
  s.nprocs = streams;
  s.per_proc = 16u << 20;
  s.file = "noflat";
  s.drop_caches = false;
  s.original_read_first = true;
  return s;
}

Workload ckpt_n1(const CkptSetup& setup) {
  const std::uint64_t records = setup.per_proc / setup.record;
  const int nprocs = setup.nprocs;
  JobSpec base = mpiio_test(setup.per_proc, setup.record, {});
  base.file = setup.file;
  if (setup.data_seed) base.seed = *setup.data_seed;
  base.target.access = Access::plfs_n1;
  base.target.strategy = plfs::ReadStrategy::parallel_read;

  Workload w;
  w.max_ranks = nprocs;
  Step step;
  step.options = [setup] {
    testbed::Rig::Options o;
    o.cluster = testbed::lanl_cluster();
    o.pfs = testbed::lanl_pfs(1);
    if (setup.rig_seed) o.seed = *setup.rig_seed;
    return o;
  };
  const std::uint64_t phase_ops = static_cast<std::uint64_t>(nprocs) * (records + 2);
  step.calls.push_back({"host.write_phase_s", phase_ops,
                        [base, nprocs](testbed::Rig& rig, Iter& it) {
                          JobSpec spec = base;
                          spec.do_read = false;
                          record_phase(it, "write", run_job(rig, nprocs, spec).write);
                        }});
  JobSpec read = base;
  read.do_write = false;
  read.drop_caches_before_read = setup.drop_caches;
  if (setup.original_read_first) {
    JobSpec original = read;
    original.target.strategy = plfs::ReadStrategy::original;
    step.calls.push_back({"host.read_phase_s", phase_ops,
                          [original, nprocs](testbed::Rig& rig, Iter& it) {
                            record_phase(it, "read_original",
                                         run_job(rig, nprocs, original).read);
                          }});
  }
  step.calls.push_back({"host.read_phase_s", phase_ops,
                        [read, nprocs](testbed::Rig& rig, Iter& it) {
                          record_phase(it, "read", run_job(rig, nprocs, read).read);
                        }});
  w.steps.push_back(std::move(step));
  w.echo = "\"nprocs\": " + std::to_string(nprocs) +
           ", \"per_proc_bytes\": " + std::to_string(setup.per_proc) +
           ", \"record_bytes\": " + std::to_string(setup.record) +
           ", \"rig_seed\": " + std::to_string(setup.rig_seed.value_or(0));
  w.sim = [](const Iter& it) {
    auto s = sim_base();
    const double wt = phase_total(it, "write"), rt = phase_total(it, "read");
    s["sim_open_s"] = s["sim_read_open_s"] = it.virt.at("read.open_s");
    s["sim_close_s"] = s["sim_write_close_s"] = it.virt.at("write.close_s");
    s["sim_total_s"] = wt + rt;
    s["sim_write_bw_mbps"] = bw_mbps(it.virt.at("write.bytes"), wt);
    s["sim_read_bw_mbps"] = bw_mbps(it.virt.at("read.bytes"), rt);
    return s;
  };
  return w;
}

// nn_storm: the fig8d shape on Cielo — an N-N create storm on PLFS-10 plus
// the direct shared-directory baseline, one file per rank.
Workload nn_storm(const Config& cfg) {
  const int nprocs = (cfg.smoke ? 1024 : 8192) + 16 * static_cast<int>(nudge(cfg));
  const std::uint64_t rig_seed = mix(cfg.seed, 1);
  const auto options = [rig_seed] {
    testbed::Rig::Options o;
    o.cluster = testbed::cielo();
    o.pfs = testbed::cielo_pfs(10);
    o.seed = rig_seed;
    return o;
  };
  const std::uint64_t ops = static_cast<std::uint64_t>(nprocs) * 2;
  Workload w;
  w.max_ranks = nprocs;
  for (const bool use_plfs : {true, false}) {
    Step step;
    step.options = options;
    MetaSpec spec;
    spec.use_plfs = use_plfs;
    const std::string prefix = use_plfs ? "plfs" : "direct";
    step.calls.push_back({use_plfs ? "host.plfs_storm_s" : "host.direct_storm_s", ops,
                          [spec, nprocs, prefix](testbed::Rig& rig, Iter& it) {
                            const MetaResult r = run_metadata_storm(rig, nprocs, spec);
                            it.virt[prefix + ".open_s"] = r.open_s;
                            it.virt[prefix + ".close_s"] = r.close_s;
                          }});
    w.steps.push_back(std::move(step));
  }
  w.echo =
      "\"nprocs\": " + std::to_string(nprocs) + ", \"rig_seed\": " + std::to_string(rig_seed);
  w.sim = [](const Iter& it) {
    auto s = sim_base();
    s["sim_open_s"] = s["sim_create_open_s"] = it.virt.at("plfs.open_s");
    s["sim_close_s"] = s["sim_create_close_s"] = it.virt.at("plfs.close_s");
    s["sim_total_s"] = it.virt.at("plfs.open_s") + it.virt.at("plfs.close_s");
    return s;
  };
  return w;
}

// cb_kernels: LANL 3 and the noncontiguous field kernel through three-phase
// collective buffering on a 4:1 oversubscribed ToR fabric, PLFS and direct.
Workload cb_kernels(const Config& cfg) {
  const int nprocs = cfg.smoke ? 64 : 512;
  // Per-rank op counts: LANL 3 ships total/nprocs bytes in 1 KiB records;
  // noncontig touches one 1 KiB field of each 4 KiB element it owns.
  // Not powers of two, for the reason given at CkptSetup::per_proc.
  const std::uint64_t per_rank = (cfg.smoke ? 60 : 250) + nudge(cfg);
  const std::uint64_t lanl3_total = static_cast<std::uint64_t>(nprocs) * per_rank * 1024;
  const std::uint64_t nc_total = static_cast<std::uint64_t>(nprocs) * per_rank * 4096;
  iolib::CbConfig cb;
  cb.node_aggregation = true;
  cb.sieve_threshold = 4.0;  // bridges the 3 KiB holes between 1 KiB fields
  cb.rack_aware_placement = true;
  const std::uint64_t rig_seed = mix(cfg.seed, 1);
  const auto options = [rig_seed] {
    testbed::Rig::Options o;
    o.cluster = testbed::lanl_cluster();
    o.cluster.topology = net::TopologyKind::tor;
    o.cluster.racks = 8;
    o.cluster.oversubscription = 4.0;
    o.pfs = testbed::lanl_pfs(1);
    o.seed = rig_seed;
    return o;
  };
  struct Kernel {
    const char* name;
    JobSpec spec;
    std::uint64_t per_rank_ops;
  };
  const Kernel kernels[] = {
      {"lanl3", lanl3(nprocs, lanl3_total, {}, cb), lanl3_total / nprocs / 1024},
      {"noncontig", noncontig(nprocs, nc_total, 1024, 4096, {}, cb), nc_total / nprocs / 4096},
  };
  Workload w;
  w.max_ranks = nprocs;
  for (const Kernel& k : kernels) {
    for (const bool use_plfs : {true, false}) {
      Step step;
      step.options = options;
      JobSpec spec = k.spec;
      spec.target.access = use_plfs ? Access::plfs_n1 : Access::direct_n1;
      spec.target.strategy = plfs::ReadStrategy::parallel_read;
      spec.drop_caches_before_read = true;
      const std::string prefix = std::string(k.name) + (use_plfs ? ".plfs" : ".direct");
      step.calls.push_back(
          {use_plfs ? "host.cb_plfs_s" : "host.cb_direct_s",
           2 * static_cast<std::uint64_t>(nprocs) * (k.per_rank_ops + 2),
           [spec, nprocs, prefix](testbed::Rig& rig, Iter& it) {
             const JobResult r = run_job(rig, nprocs, spec);
             record_phase(it, prefix + ".write", r.write);
             record_phase(it, prefix + ".read", r.read);
           }});
      w.steps.push_back(std::move(step));
    }
  }
  w.echo = "\"nprocs\": " + std::to_string(nprocs) +
           ", \"lanl3_bytes\": " + std::to_string(lanl3_total) +
           ", \"noncontig_extent\": " + std::to_string(nc_total) +
           ", \"topology\": \"tor\", \"racks\": 8, \"oversubscription\": 4" +
           ", \"rig_seed\": " + std::to_string(rig_seed);
  w.sim = [](const Iter& it) {
    auto s = sim_base();
    double wbytes = 0, wt = 0, rbytes = 0, rt = 0;
    for (const char* k : {"lanl3.plfs", "noncontig.plfs"}) {
      const std::string p = k;
      wbytes += it.virt.at(p + ".write.bytes");
      rbytes += it.virt.at(p + ".read.bytes");
      wt += phase_total(it, p + ".write");
      rt += phase_total(it, p + ".read");
      s["sim_open_s"] += it.virt.at(p + ".read.open_s");
      s["sim_close_s"] += it.virt.at(p + ".write.close_s");
    }
    s["sim_total_s"] = wt + rt;
    s["sim_write_bw_mbps"] = bw_mbps(wbytes, wt);
    s["sim_read_bw_mbps"] = bw_mbps(rbytes, rt);
    return s;
  };
  return w;
}

// meta_failover: N-N create storm on PLFS-9 with Raft-replicated, batched
// metadata, the leased client cache, and a seeded leader crash.
Workload meta_failover(const Config& cfg) {
  const int nprocs = cfg.smoke ? 32 : 128;
  const int files = cfg.smoke ? 16 : 64;
  // The seed picks which group loses its leader and when (the outage lasts
  // 150 virtual ms, like the failover preset's, inside the storm) and seeds
  // a 0.2% rate of transient EBUSY replies to opens and metadata ops, which
  // PLFS retries through.
  const std::uint64_t h = mix(cfg.seed, 4);
  const int group = static_cast<int>(h % 9);
  const int start_ms = cfg.smoke ? 5 + static_cast<int>((h >> 8) % 10)
                                 : 60 + static_cast<int>((h >> 8) % 80);
  char plan_spec[128];
  std::snprintf(plan_spec, sizeof plan_spec,
                "seed=%llu,open.busy=0.002,meta.busy=0.002,server_outage=%d:leader@%d-%d",
                static_cast<unsigned long long>(mix(cfg.seed, 5)), group, start_ms,
                start_ms + 150);
  auto parsed = pfs::FaultPlan::parse(plan_spec);
  if (!parsed.ok()) throw std::runtime_error("fault plan: " + parsed.status().to_string());
  const pfs::FaultPlan plan = parsed.value();
  const std::uint64_t rig_seed = mix(cfg.seed, 1);

  Workload w;
  w.max_ranks = nprocs;
  Step step;
  step.options = [plan, rig_seed] {
    testbed::Rig::Options o;
    o.cluster = testbed::lanl_cluster();
    o.pfs = testbed::lanl_pfs(9);
    o.pfs.mds_replication = pfs::MdsReplication::raft;
    o.pfs.mds_batch = 64;
    o.pfs.mds_batch_linger = Duration::ms(1);
    o.pfs.meta_lease = Duration::ms(100);
    o.fault_plan = plan;
    o.seed = rig_seed;
    return o;
  };
  MetaSpec spec;
  spec.files_per_proc = files;
  spec.use_plfs = true;
  step.calls.push_back({"host.failover_storm_s",
                        static_cast<std::uint64_t>(nprocs) * files * 2,
                        [spec, nprocs](testbed::Rig& rig, Iter& it) {
                          const MetaResult r = run_metadata_storm(rig, nprocs, spec);
                          it.virt["plfs.open_s"] = r.open_s;
                          it.virt["plfs.close_s"] = r.close_s;
                        }});
  w.steps.push_back(std::move(step));
  w.echo = "\"nprocs\": " + std::to_string(nprocs) + ", \"files_per_proc\": " +
           std::to_string(files) + ", \"fault_plan\": \"" + plan.to_string() +
           "\", \"rig_seed\": " + std::to_string(rig_seed);
  w.sim = [](const Iter& it) {
    auto s = sim_base();
    s["sim_open_s"] = s["sim_create_open_s"] = it.virt.at("plfs.open_s");
    s["sim_close_s"] = s["sim_create_close_s"] = it.virt.at("plfs.close_s");
    s["sim_total_s"] = it.virt.at("plfs.open_s") + it.virt.at("plfs.close_s");
    return s;
  };
  return w;
}

Workload make_workload(const Config& cfg) {
  if (cfg.workload == "ckpt_n1") return ckpt_n1(ckpt_setup(cfg));
  if (cfg.workload == "nn_storm") return nn_storm(cfg);
  if (cfg.workload == "cb_kernels") return cb_kernels(cfg);
  if (cfg.workload == "meta_failover") return meta_failover(cfg);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

// ------------------------------------------------------------- running ----

// Counters whose values depend on the host (clocks) or on what earlier
// iterations left in process-wide pools, not on the simulation.
bool host_dependent(const std::string& name) {
  return name == "sim.engine.run_wall_ns" || name == "sim.engine.sharded_wall_ns" ||
         name == "plfs.index.build_ns" || name.rfind("sim.engine.frame_pool", 0) == 0;
}

// Everything about an iteration that must repeat exactly for one seed:
// virtual-time results, simulation counters, histogram counts and sums,
// and PFS stats.
void fingerprint(Iter& it) {
  auto& fp = it.fingerprint;
  for (const auto& [k, v] : it.virt) fp["virt." + k] = num(v);
  for (const auto& [k, v] : counter_snapshot()) {
    if (v != 0 && !host_dependent(k)) fp["counter." + k] = std::to_string(v);
  }
  for (const auto& [k, h] : histogram_snapshot()) {
    if (h->count() == 0) continue;
    fp["hist." + k] = std::to_string(h->count()) + "/" + std::to_string(h->sum());
  }
  fp["pfs.metadata_ops"] = num(it.pfs_metadata_ops);
  fp["pfs.creates"] = num(it.pfs_creates);
  fp["pfs.cache_hit_bytes"] = num(it.pfs_cache_hit_bytes);
  fp["pfs.lock_transfers"] = num(it.pfs_lock_transfers);
  fp["pfs.rmw_reads"] = num(it.pfs_rmw_reads);
  fp["pfs.ost.ops"] = num(it.ost_ops);
  fp["pfs.ost.seeks"] = num(it.ost_seeks);
}

void collect_pfs(testbed::Rig& rig, Iter& it) {
  const auto& s = rig.pfs().stats();
  it.pfs_metadata_ops += static_cast<double>(s.metadata_ops);
  it.pfs_creates += static_cast<double>(s.creates);
  it.pfs_cache_hit_bytes += static_cast<double>(s.cache_hit_bytes);
  it.pfs_lock_transfers += static_cast<double>(s.lock_transfers);
  it.pfs_rmw_reads += static_cast<double>(s.rmw_reads);
  for (std::size_t i = 0; i < rig.pfs().config().num_osts; ++i) {
    it.ost_ops += static_cast<double>(rig.pfs().ost(i).stats().ops);
    it.ost_seeks += static_cast<double>(rig.pfs().ost(i).stats().seeks);
  }
}

// Runs every step of the workload once. Counters and histograms are reset
// first, so everything the registries hold afterwards belongs to this
// iteration. A call that throws fails every op of its step.
Iter run_iteration(const Workload& w) {
  reset_counters();
  reset_histograms();
  Iter it;
  for (const Step& step : w.steps) {
    std::uint64_t step_ops = 0;
    for (const Call& c : step.calls) step_ops += c.ops;
    it.attempted += step_ops;
    try {
      const double t0 = host_now();
      testbed::Rig rig(step.options());
      it.setup_s += host_now() - t0;
      for (const Call& c : step.calls) {
        const double c0 = host_now();
        c.run(rig, it);
        const double dt = host_now() - c0;
        it.host[c.host_metric] += dt;
        it.wall_s += dt;
      }
      collect_pfs(rig, it);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: simulation failed: %s\n", e.what());
      it.failed += step_ops;
    }
  }
  // Ops that gave up after exhausting their retries count as failed even
  // when the workload rode over them.
  const std::uint64_t gave_up = counter("plfs.retry.exhausted").value() +
                                counter("plfs.retry.budget_exhausted").value() +
                                counter("direct.retry.exhausted").value();
  it.failed = std::min(it.attempted, it.failed + gave_up);
  fingerprint(it);
  return it;
}

// Set-up time of one iteration (every rig the workload builds), sampled on
// its own: 5 to 50 samples, for up to 0.1 host seconds. Taken before every
// iteration, so the samples spread over the whole run like the
// iterations do, and the median is steady even when one set-up takes
// microseconds.
void sample_setup(const Workload& w, std::vector<double>& out) {
  const double start = host_now();
  for (int n = 0; n < 5 || (n < 50 && host_now() - start < 0.1); ++n) {
    double total = 0;
    for (const Step& step : w.steps) {
      const double t0 = host_now();
      testbed::Rig rig(step.options());
      total += host_now() - t0;
    }
    out.push_back(total);
  }
}

// Compares an iteration with the first one of the run; a difference in any
// virtual result or count fails every op of the iteration.
bool same_as(const Iter& it, const Iter& ref) {
  if (it.fingerprint == ref.fingerprint) return true;
  for (const auto& [k, v] : ref.fingerprint) {
    auto found = it.fingerprint.find(k);
    if (found == it.fingerprint.end() || found->second != v) {
      std::fprintf(stderr, "perfbench: nondeterminism in %s: %s vs %s\n", k.c_str(), v.c_str(),
                   found == it.fingerprint.end() ? "(missing)" : found->second.c_str());
    }
  }
  for (const auto& [k, v] : it.fingerprint) {
    if (!ref.fingerprint.count(k)) {
      std::fprintf(stderr, "perfbench: nondeterminism in %s: (missing) vs %s\n", k.c_str(),
                   v.c_str());
    }
  }
  return false;
}

// -------------------------------------------------------- trace metrics ----

// Duration distribution of one span name (or name group): the sum, p50, the
// highest of p99.9/p99/p90 with at least 10 samples above it (p50 when the
// sample is too small for any), and the sample count. Seconds.
struct SpanStats {
  double sum = 0, p50 = 0, tail = 0, n = 0;
};

// `pct_ns(p)` is the sample's nearest-rank percentile p, in nanoseconds.
template <typename Pct>
SpanStats summarize(double n, double total_ns, Pct pct_ns) {
  SpanStats s;
  if (n == 0) return s;
  s.sum = total_ns * 1e-9;
  s.p50 = pct_ns(50.0) * 1e-9;
  s.tail = s.p50;
  for (const double p : {99.9, 99.0, 90.0}) {
    if (n * (100.0 - p) / 100.0 >= 10.0) {
      s.tail = pct_ns(p) * 1e-9;
      break;
    }
  }
  s.n = n;
  return s;
}

SpanStats span_stats(std::vector<std::int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  double total = 0;
  for (const auto v : ns) total += static_cast<double>(v);
  const double n = static_cast<double>(ns.size());
  return summarize(n, total, [&ns, n](double p) {
    // Nearest rank, like common/stats' Histogram::percentile.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    return static_cast<double>(ns[std::clamp<std::size_t>(rank, 1, ns.size()) - 1]);
  });
}

// The registered histogram with exactly this name, or null.
const Histogram* find_histogram(const std::string& name) {
  for (const auto& [k, h] : histogram_snapshot(name)) {
    if (k == name) return h;
  }
  return nullptr;
}

// Virtual spans from a histogram (spans whose site keeps one; recorded with
// the tracer on or off).
SpanStats hist_stats(const std::string& name) {
  const Histogram* h = find_histogram(name);
  if (h == nullptr) return {};
  return summarize(static_cast<double>(h->count()), static_cast<double>(h->sum()),
                   [h](double p) { return static_cast<double>(h->percentile(p)); });
}

// What the traced iteration's span buffers hold, per span name and per
// category self time. Rank tracks nest properly, so a span's self time is
// its duration minus its children's; the engine track (rank -1) holds
// overlapping network spans and is read only by name.
struct TraceDigest {
  std::map<std::string, std::vector<std::int64_t>> by_name;
  std::map<std::string, double> self_s;  // by category, rank tracks only
};

TraceDigest digest_trace(int max_rank) {
  trace::Tracer& t = trace::Tracer::instance();
  TraceDigest d;
  for (int rank = -1; rank < max_rank; ++rank) {
    const auto& spans = t.rank_spans(rank);
    // Time of each span covered by its children. Retroactive spans
    // (trace::record_span) may start before their parent, and concurrent
    // children may overlap, so only the overlap counts and self time is
    // clamped at zero.
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.end_ns < 0 || s.parent == 0) continue;
      const auto& p = spans[s.parent - 1];
      if (p.end_ns < 0) continue;
      const std::int64_t overlap =
          std::min(s.end_ns, p.end_ns) - std::max(s.start_ns, p.start_ns);
      child[s.parent - 1] += std::max<std::int64_t>(0, overlap);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.end_ns < 0) continue;
      const std::int64_t dur = s.end_ns - s.start_ns;
      d.by_name[t.interned(s.name_id)].push_back(dur);
      if (rank >= 0) {
        d.self_s[t.interned(s.cat_id)] +=
            static_cast<double>(std::max<std::int64_t>(0, dur - child[i])) * 1e-9;
      }
    }
  }
  return d;
}

SpanStats trace_stats(const TraceDigest& d, const std::string& prefix) {
  std::vector<std::int64_t> ns;
  for (const auto& [name, durs] : d.by_name) {
    if (name_in_group(name, prefix)) ns.insert(ns.end(), durs.begin(), durs.end());
  }
  return span_stats(std::move(ns));
}

// --------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add_span(std::vector<Metric>& m, const std::string& name, const SpanStats& s,
              bool full = true) {
  m.push_back({name, s.sum, "s"});
  m.push_back({name + ".p50", s.p50, "s"});
  if (!full) return;
  m.push_back({name + ".tail", s.tail, "s"});
  m.push_back({name + ".n", s.n, "count"});
}

double cval(const char* name) { return static_cast<double>(counter(name).value()); }

// The per-layer metrics read from the registries. `it` is the last untraced
// iteration, whose counters, histograms and PFS stats the registries still
// hold; `wall` is the untraced median.
std::vector<Metric> layer_metrics(const Workload& w, const Iter& it,
                                  const std::map<std::string, double>& host_median, double wall,
                                  double rss_base) {
  std::vector<Metric> m;
  // sim
  const double events = cval("sim.engine.events");
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.host_ns_per_event", ratio(wall * 1e9, events), "ns"});
  m.push_back({"sim.event_pool_miss_ratio",
               ratio(cval("sim.engine.event_pool_misses"),
                     cval("sim.engine.event_pool_misses") + cval("sim.engine.event_pool_hits")),
               "ratio"});
  m.push_back({"sim.frame_pool_miss_ratio",
               ratio(cval("sim.engine.frame_pool_misses"),
                     cval("sim.engine.frame_pool_misses") + cval("sim.engine.frame_pool_hits")),
               "ratio"});
  m.push_back({"common.fn.heap_spills", cval("common.fn.heap_spills"), "count"});
  m.push_back({"sim.queue_peak", cval("sim.engine.queue_peak"), "count"});
  m.push_back({"sim.host_bytes_per_rank", ratio(peak_rss_bytes() - rss_base, w.max_ranks), "B"});
  // net
  m.push_back({"net.topo.bytes.cross_rack", cval("net.topo.bytes.cross_rack"), "B"});
  m.push_back({"net.topo.msgs.cross_rack", cval("net.topo.msgs.cross_rack"), "count"});
  // pfs
  m.push_back({"pfs.metadata_ops", it.pfs_metadata_ops, "count"});
  m.push_back({"pfs.creates", it.pfs_creates, "count"});
  m.push_back({"pfs.meta.mutation_round_trips", cval("pfs.meta.mutation_round_trips"), "count"});
  {
    const Histogram* occ = find_histogram("pfs.batch.occupancy");
    m.push_back({"pfs.batch.occupancy",
                 occ == nullptr ? 0
                                : ratio(static_cast<double>(occ->sum()),
                                        static_cast<double>(occ->count())),
                 "ops"});
  }
  m.push_back({"pfs.meta_cache.hit_ratio",
               ratio(cval("pfs.meta_cache.hits"),
                     cval("pfs.meta_cache.hits") + cval("pfs.meta_cache.misses")),
               "ratio"});
  m.push_back({"pfs.ost.ops", it.ost_ops, "count"});
  m.push_back({"pfs.ost.seek_ratio", ratio(it.ost_seeks, it.ost_ops), "ratio"});
  m.push_back({"pfs.cache_hit_bytes", it.pfs_cache_hit_bytes, "B"});
  m.push_back({"pfs.lock_transfers", it.pfs_lock_transfers, "count"});
  m.push_back({"pfs.rmw_reads", it.pfs_rmw_reads, "count"});
  add_span(m, "pfs.batch.flush_s", hist_stats("pfs.batch.flush"));
  // plfs
  m.push_back({"plfs.index.entries_merged", cval("plfs.index.entries_merged"), "count"});
  m.push_back({"plfs.index.build_host_s", cval("plfs.index.build_ns") * 1e-9 * it.scale, "s"});
  m.push_back({"plfs.index.wire_bytes", cval("plfs.index.pattern.wire_bytes"), "B"});
  m.push_back({"plfs.index.compression",
               ratio(cval("plfs.index.pattern.raw_bytes"), cval("plfs.index.pattern.wire_bytes")),
               "ratio"});
  for (const char* phase : {"index_read", "merge", "exchange", "broadcast"}) {
    const std::string name = std::string("plfs.open.") + phase;
    add_span(m, name + "_s", hist_stats(name));
  }
  add_span(m, "plfs.write.index_flush_s", hist_stats("plfs.write.index_flush"));
  add_span(m, "plfs.create.subdir_home_s", hist_stats("plfs.create.subdir_home"));
  m.push_back({"plfs.retry.attempts", cval("plfs.retry.attempts"), "count"});
  m.push_back({"plfs.retry.timeouts", cval("plfs.retry.timeouts"), "count"});
  m.push_back({"plfs.retry.exhausted",
               cval("plfs.retry.exhausted") + cval("plfs.retry.budget_exhausted"), "count"});
  m.push_back({"plfs.degrade.mds_failover", cval("plfs.degrade.mds_failover"), "count"});
  m.push_back({"plfs.fault.injected",
               cval("plfs.fault.busy") + cval("plfs.fault.io_error") + cval("plfs.fault.stale"),
               "count"});
  // iolib
  for (const char* c : {"fabric_msgs", "local_msgs", "pfs_ops", "sieve_joins"}) {
    m.push_back({std::string("iolib.cb.") + c, cval((std::string("iolib.cb.") + c).c_str()),
                 "count"});
  }
  m.push_back({"iolib.cb.bytes_shipped", cval("iolib.cb.bytes_shipped"), "B"});
  m.push_back({"iolib.cb.node_agg_ratio",
               ratio(cval("iolib.cb.node_reqs_in"), cval("iolib.cb.node_reqs_out")), "ratio"});
  for (const char* dir : {"write", "read"}) {
    for (const char* phase : {"gather", "shuffle", "pfs", "sync"}) {
      const std::string name = std::string("cb.") + dir + "." + phase;
      add_span(m, name + "_s", hist_stats(name), /*full=*/false);
    }
  }
  // raft
  for (const char* c : {"commits", "append_rpcs", "elections_started", "client_timeouts",
                        "redirects"}) {
    m.push_back({std::string("raft.") + c, cval((std::string("raft.") + c).c_str()), "count"});
  }
  add_span(m, "raft.replication_s", hist_stats("raft.replication"));
  add_span(m, "raft.failover_s", hist_stats("raft.failover"));
  // workloads / testbed: the benchmark's own host clock around each call
  for (const char* h : {"host.write_phase_s", "host.read_phase_s", "host.plfs_storm_s",
                        "host.direct_storm_s", "host.cb_plfs_s", "host.cb_direct_s",
                        "host.failover_storm_s", "host.raw_wall_s", "host.probe_s"}) {
    auto found = host_median.find(h);
    m.push_back({h, found == host_median.end() ? 0 : found->second, "s"});
  }
  for (const char* phase : {"open_write", "io", "close", "open_read"}) {
    const std::string name = std::string("harness.") + phase;
    m.push_back({name + "_s", hist_stats(name).sum, "s"});
  }
  for (const auto& [k, v] : w.sim(it)) {
    if (k == "sim_open_s" || k == "sim_close_s" || k == "sim_total_s") continue;
    m.push_back({k, v, k.find("bw_mbps") != std::string::npos ? "MB/s" : "s"});
  }
  return m;
}

// The per-layer metrics only a traced iteration has: trace-only network
// spans, per-category self time, and the cost of tracing itself.
void add_trace_metrics(std::vector<Metric>& m, const TraceDigest& digest, double wall_untraced,
                       double wall_traced) {
  add_span(m, "net.fairshare_wait_s", trace_stats(digest, "sim.fairshare.wait"));
  add_span(m, "net.topo.flow_s", trace_stats(digest, "net.topo.flow"));
  for (const char* cat : {"harness", "plfs.open", "plfs.write", "plfs.create", "plfs.retry",
                          "iolib.cb", "iolib.cb.phase", "raft"}) {
    auto found = digest.self_s.find(cat);
    m.push_back({std::string("trace.self_s.") + cat,
                 found == digest.self_s.end() ? 0 : found->second, "s"});
  }
  m.push_back({"trace.overhead_ratio", ratio(wall_traced, wall_untraced), "ratio"});
}

void print_result(const Config& cfg, const Workload& w, std::size_t iterations,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::map<std::string, std::string>& fp) {
  std::string out = "{\"workload\": \"" + cfg.workload + "\", \"seed\": " +
                    std::to_string(cfg.seed) + ", \"smoke\": " + (cfg.smoke ? "true" : "false") +
                    ", \"iterations\": " + std::to_string(iterations) + ", \"config\": {" +
                    w.echo + "}, \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}, \"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : fp) {
    out += (first ? "\"" : ", \"") + k + "\": \"" + v + "\"";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Config& cfg) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  const double rss_base = current_rss_bytes();
  const Workload w = make_workload(cfg);

  // Probes around each iteration (and its set-up samples) rescale its host
  // times to the reference speed.
  const auto measured = [&w](bool with_setup) {
    const double p0 = speed_probe();
    std::vector<double> setups;
    if (with_setup) sample_setup(w, setups);
    Iter it = run_iteration(w);
    it.probe_s = 0.5 * (p0 + speed_probe());
    it.scale = kProbeRefS / it.probe_s;
    setups.push_back(it.setup_s);
    for (double& x : setups) x *= it.scale;
    it.setup_samples = std::move(setups);
    return it;
  };

  const double start = host_now();
  std::vector<Iter> iters;
  // Untraced iterations fill the measuring window, at least four. The first
  // warms the process (first-touch page faults, empty frame pools) and is
  // checked but left out of the host-time medians.
  do {
    iters.push_back(measured(true));
  } while (host_now() - start < cfg.seconds || iters.size() < 4);

  std::uint64_t attempted = 0, failed = 0;
  for (const Iter& it : iters) {
    attempted += it.attempted;
    failed += same_as(it, iters.front()) ? it.failed : it.attempted;
  }
  std::vector<double> walls, raw_walls, probes, setups;
  std::map<std::string, std::vector<double>> host_samples;
  for (std::size_t i = 1; i < iters.size(); ++i) {
    const Iter& it = iters[i];
    walls.push_back(it.wall_s * it.scale);
    raw_walls.push_back(it.wall_s);
    probes.push_back(it.probe_s);
    setups.insert(setups.end(), it.setup_samples.begin(), it.setup_samples.end());
    for (const auto& [k, v] : it.host) host_samples[k].push_back(v * it.scale);
  }
  const double wall = median(walls);
  std::string samples;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    samples += (i ? " " : "") + num(walls[i]) + "/" + num(probes[i]);
  }
  std::fprintf(stderr, "perfbench: rescaled wall/probe per iteration after warm-up: %s\n",
               samples.c_str());

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    const auto sim = w.sim(iters.front());
    metrics.push_back({"wall_s", wall, "s"});
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_bytes() / 1e6, "MB"});
    for (const char* k : {"sim_open_s", "sim_close_s", "sim_total_s"}) {
      metrics.push_back({k, sim.at(k), "s"});
    }
    print_result(cfg, w, iters.size(), attempted, failed, metrics, iters.front().fingerprint);
    return 0;
  }

  // Traced run: the registries still hold the last untraced iteration, so
  // the counts and host figures come from there; one more iteration with
  // the tracer on adds the trace-only spans and the cost of tracing. Its
  // virtual results and counts must match the untraced ones.
  std::map<std::string, double> host_median;
  for (const auto& [k, v] : host_samples) host_median[k] = median(v);
  host_median["host.raw_wall_s"] = median(raw_walls);
  host_median["host.probe_s"] = median(probes);
  metrics = layer_metrics(w, iters.back(), host_median, wall, rss_base);
  tracer.set_enabled(true);
  const Iter traced = measured(false);
  tracer.set_enabled(false);
  add_trace_metrics(metrics, digest_trace(w.max_ranks), wall, traced.wall_s * traced.scale);
  tracer.clear();
  attempted += traced.attempted;
  failed += same_as(traced, iters.front()) ? traced.failed : traced.attempted;
  metrics.push_back(
      {"fail_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"});
  print_result(cfg, w, iters.size() + 1, attempted, failed, metrics, iters.front().fingerprint);
  return 0;
}

// ckpt_n1 in fig4's configuration at one stream count: prints fig4's
// ParallelRead cells (4a/4b) and its write cells for the same rig (4c/4d),
// at the precision of fig4's --json output.
int run_fig4(int streams) {
  const Workload w = ckpt_n1(fig4_setup(streams));
  const Iter it = run_iteration(w);
  if (it.failed != 0) return 1;
  const auto s = w.sim(it);
  std::printf(
      "{\"streams\": %d, \"read_open_s\": %.6f, \"read_bw_mbps\": %.3f, "
      "\"write_close_s\": %.6f, \"write_bw_mbps\": %.3f}\n",
      streams, s.at("sim_read_open_s"), s.at("sim_read_bw_mbps"), s.at("sim_write_close_s"),
      s.at("sim_write_bw_mbps"));
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke]\n       perfbench --fig4 STREAMS\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") cfg.seed = std::stoull(value());
      else if (a == "--seconds") cfg.seconds = std::stod(value());
      else if (a == "--trace") cfg.trace = std::stoi(value()) != 0;
      else if (a == "--smoke") cfg.smoke = true;
      else if (a == "--fig4") cfg.fig4_streams = std::stoi(value());
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  try {
    if (cfg.fig4_streams > 0) return run_fig4(cfg.fig4_streams);
    if (cfg.workload.empty()) usage("--workload is required");
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
