#!/usr/bin/env bash
# CI entry point: build all three presets, run the full suite on the
# optimized build, run the index differential/cache suites under ASan+UBSan,
# and run the sharded-engine/determinism suites under TSan.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)

echo "==> configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j "$jobs"

echo "==> full test suite (default preset)"
ctest --preset default -j "$jobs"

echo "==> configure + build (asan preset)"
cmake --preset asan
cmake --build --preset asan -j "$jobs"

echo "==> index differential + cache + wire-codec tests under ASan/UBSan"
ctest --preset asan -j "$jobs" -R \
  'IndexDiff|IndexCache|BTreeIndex|IndexProperty|Varint|WireV2|WireCompat'

# DeepAwaitChains is excluded: gcc does not tail-call the coroutine
# symmetric transfer at -O0, so the 100k-deep chain overflows the stack in
# any sanitizer build (seed behaves the same); the guarantee it checks is an
# optimized-build property and stays covered by the default-preset run.
echo "==> sim/net/mpisim suites under ASan/UBSan (engine pools, intrusive waiters, LRU)"
ctest --preset asan -j "$jobs" -R \
  '^(Engine|Determinism|EventPool|FramePool|MoveFn|Mutex|Semaphore|Barrier|Gate|WaitGroup|Queue|FairShare|FcfsServer|Runtime|PageCache|Cluster|ClusterConfigValidate|ClusterConfigLookahead|Comm|Topology|FlowNet|MaxMin)\.' \
  -E 'DeepAwaitChains'

echo "==> chaos + raft suites under ASan/UBSan (fault injection, retry, failover)"
ctest --preset asan -j "$jobs" -R '^(Chaos|FaultPlan|FaultyFsTest|RetryPolicy|RetryBudget|Timeout|Status|RaftTest)\.'

echo "==> metadata batch + lease-cache suites under ASan/UBSan"
ctest --preset asan -j "$jobs" -R '^(MetaBatch|MetaCache|MetaCacheSimPfs)\.'

echo "==> collective-buffering suites under ASan/UBSan (pipeline, sieving, node plan)"
ctest --preset asan -j "$jobs" -R '^(CbDifferential|CbSieve|CbNodePlan|CbWrite|CbRead|CbAggregators)\.'

echo "==> trace + stats + jsonfmt suites under ASan/UBSan"
ctest --preset asan -j "$jobs" -R '^(TraceTest|Histograms|Series|Counters|Grouping|JsonDouble|JsonQuote)\.'

echo "==> configure + build (tsan preset)"
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"

# The sharded engine's safety argument (shard-local heaps + barrier
# happens-before + quiescent merges) must hold under ThreadSanitizer, not
# just under the test matrix. TIO_MATRIX_RANKS shrinks the 4096-rank
# determinism matrix so the instrumented run stays affordable, and the
# oversubscribe override lets shards=4/8 paths run on small CI hosts.
echo "==> sim + mpisim suites and the cross-shard determinism matrix under TSan"
TIO_MATRIX_RANKS=512 TIO_SHARDS_OVERSUBSCRIBE=1 ctest --preset tsan -j "$jobs" -R \
  '^(Engine|EventPool|FramePool|Determinism|ShardPool|ShardedEngine|ShardedTraceTest|ClusterConfigLookahead|Queue|FairShare|FcfsServer|Runtime|Comm|RaftTest|Topology|FlowNet|MaxMin)\.' \
  -E 'DeepAwaitChains'

# The batcher and lease cache run inside every shard's engine when fig7 is
# sharded; the suites must stay clean under TSan alongside the engine.
echo "==> metadata batch + lease-cache suites under TSan"
TIO_SHARDS_OVERSUBSCRIBE=1 ctest --preset tsan -j "$jobs" -R '^(MetaBatch|MetaCache|MetaCacheSimPfs)\.'

# The collective layer's sharded-counter writes (message census, sieve
# stats) run on every shard thread; the differential suite under TSan pins
# that those are race-free alongside the engine's own sharding.
echo "==> collective-buffering differential suite under TSan"
TIO_SHARDS_OVERSUBSCRIBE=1 ctest --preset tsan -j "$jobs" -R '^(CbDifferential|CbSieve)\.'

echo "==> fig7 under the stress fault plan must exit clean"
./build/bench/fig7_metadata_nn --procs 64 --max-files 2048 --fault_plan=stress >/dev/null

echo "==> fig7 with the raft-replicated MDS must survive the stress plan"
./build/bench/fig7_metadata_nn --procs 64 --max-files 2048 --fault_plan=stress \
  --mds_replication=raft >/dev/null

echo "==> v1 -> v2 wire-format compat smoke"
# Both wire settings must drive the full fig4 pipeline (write, flatten,
# all three read strategies) to a clean exit; WireCompat unit tests cover
# decoding v1 containers through the v2-default read path byte-for-byte.
./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 --index_wire=v1 >/dev/null
./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 --index_wire=v2 >/dev/null

echo "==> every bench --json / --trace output must be valid JSON"
# A comma-decimal locale would corrupt printf-formatted floats; emitters go
# through json_double, so output must parse even under e.g. de_DE. The
# container may only ship C/POSIX — fall back gracefully when absent.
json_locale="C"
for cand in de_DE.UTF-8 de_DE.utf8 fr_FR.UTF-8 fr_FR.utf8; do
  if locale -a 2>/dev/null | grep -qix "$cand"; then json_locale="$cand"; break; fi
done
echo "    (locale guard: LC_ALL=$json_locale)"
out=build/ci_artifacts
mkdir -p "$out"
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  --json="$out/fig4.json" --trace="$out/fig4_trace.json" >"$out/fig4_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --json="$out/fig7.json" --trace="$out/fig7_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --fault_plan=failover --mds_replication=raft \
  --json="$out/fig7_raft.json" --trace="$out/fig7_raft_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs 512 \
  --max-meta-procs 256 --per-proc-mib 1 \
  --json="$out/fig8.json" --trace="$out/fig8_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/micro_sim --trace="$out/micro_sim_trace.json" \
  --benchmark_filter='BM_CoroutineHops/1000' >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/micro_index --trace="$out/micro_index_trace.json" \
  --benchmark_filter='BM_IndexBuildStrided/64' >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --cb-node-agg --cb-sieve-threshold=2 --noncontig \
  --json="$out/fig5_cb.json" --trace="$out/fig5_cb_trace.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/ablation_cb_aggregation --procs 32 --total-mib 8 \
  --json="$out/ablation_cb.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/ablation_topology --procs 64 --per-proc-mib 1 \
  --json="$out/ablation_topo.json" >/dev/null 2>&1
for f in "$out"/fig4.json "$out"/fig7.json "$out"/fig7_raft.json "$out"/fig8.json \
         "$out"/fig5_cb.json "$out"/ablation_cb.json "$out"/ablation_topo.json \
         "$out"/fig4_trace.json "$out"/fig7_trace.json "$out"/fig7_raft_trace.json \
         "$out"/fig8_trace.json "$out"/fig5_cb_trace.json \
         "$out"/micro_sim_trace.json "$out"/micro_index_trace.json; do
  python3 -m json.tool "$f" >/dev/null || { echo "invalid JSON: $f"; exit 1; }
done

echo "==> fig4 trace: per-phase open breakdown must sum to the open window (1%)"
python3 tools/check_trace.py "$out/fig4_trace.json"

echo "==> fig5 trace: cb phase spans must tile every cb.write/cb.read window"
python3 tools/check_trace.py "$out/fig5_cb_trace.json"

echo "==> fig5 stdout with the cb pipeline disabled must match the enabled-flags binary"
# The three-phase pipeline must be invisible when off: default flags and
# explicit --no-cb-node-agg --cb-sieve-threshold=0 take the legacy code
# paths and must agree byte-for-byte (and across reruns).
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  >"$out/fig5_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --no-cb-node-agg --cb-sieve-threshold=0 >"$out/fig5_run2.txt" 2>/dev/null
cmp "$out/fig5_run1.txt" "$out/fig5_run2.txt"

echo "==> fig4 stdout must be byte-identical across reruns"
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  --trace="$out/fig4_trace2.json" >"$out/fig4_run2.txt" 2>/dev/null
cmp "$out/fig4_run1.txt" "$out/fig4_run2.txt"
cmp "$out/fig4_trace.json" "$out/fig4_trace2.json"

echo "==> explicit --topology=flat stdout must match the default byte-for-byte"
# The flat preset never constructs the topology layer: passing the default
# flags explicitly (flat, any rack geometry, any oversubscription) must
# take the legacy per-NIC path and agree with the flagless binary exactly,
# on every bench that threads the fabric flags.
LC_ALL="$json_locale" ./build/bench/fig4_read_scaling --max-streams 32 --per-proc-mib 2 \
  --topology=flat --racks=8 --oversubscription=4 >"$out/fig4_run_flat.txt" 2>/dev/null
cmp "$out/fig4_run1.txt" "$out/fig4_run_flat.txt"
LC_ALL="$json_locale" ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --topology=flat --racks=8 --oversubscription=4 >"$out/fig5_run_flat.txt" 2>/dev/null
cmp "$out/fig5_run1.txt" "$out/fig5_run_flat.txt"
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs 256 \
  --max-meta-procs 128 --per-proc-mib 1 >"$out/fig8_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig8_large_scale --max-read-procs 256 \
  --max-meta-procs 128 --per-proc-mib 1 \
  --topology=flat --racks=8 --oversubscription=4 >"$out/fig8_run_flat.txt" 2>/dev/null
cmp "$out/fig8_run1.txt" "$out/fig8_run_flat.txt"

echo "==> tor / fat-tree stdout must be byte-identical across reruns and --shards=4"
# The switched presets get the same pins as the flat one: FlowNet settles
# its max-min rates once per virtual instant under reserved sequence
# numbers, and nothing about that may depend on the run or the shard count.
pin_switched() {
  local name=$1
  shift
  LC_ALL="$json_locale" "$@" --shards=1 >"$out/${name}_s1a.txt" 2>/dev/null
  LC_ALL="$json_locale" "$@" --shards=1 >"$out/${name}_s1b.txt" 2>/dev/null
  TIO_SHARDS_OVERSUBSCRIBE=1 LC_ALL="$json_locale" "$@" --shards=4 \
    >"$out/${name}_s4.txt" 2>/dev/null
  cmp "$out/${name}_s1a.txt" "$out/${name}_s1b.txt"
  cmp "$out/${name}_s1a.txt" "$out/${name}_s4.txt"
}
pin_switched fig5_tor ./build/bench/fig5_kernels --max-procs 64 --scale-mib 2 \
  --topology tor --racks 8 --oversubscription 4
pin_switched fig4_fat_tree ./build/bench/fig4_read_scaling --max-streams 64 --per-proc-mib 1 \
  --topology fat-tree --racks 8 --oversubscription 4

echo "==> tor at 8:1 must show the incast collapse that rack groups recover"
# The headline scenario of BENCH_topology.json at smoke scale: thin racks
# (2 nodes) so the 8:1 uplink is below a single NIC, sqrt groups straddle
# racks, rack-aware groups keep gathers inside a ToR. The gate asserts the
# ordering, not exact timings: sqrt@8:1 slower than sqrt@1:1, and the rack
# grouping strictly cheaper in cross-rack bytes (>= 1.5x).
LC_ALL="$json_locale" ./build/bench/ablation_topology --procs 128 --racks 32 \
  --per-proc-mib 1 --json="$out/ablation_topo_pin.json" >/dev/null 2>&1
python3 - "$out/ablation_topo_pin.json" <<'PY'
import json, sys
rows = {(r["topology"], r["oversubscription"], r["grouping"]): r
        for r in json.load(open(sys.argv[1]))["rows"]}
base = rows[("tor", 1.0, "sqrt")]["read_open_s"]
slow = rows[("tor", 8.0, "sqrt")]["read_open_s"]
rack = rows[("tor", 8.0, "rack")]["read_open_s"]
xb_sqrt = rows[("tor", 8.0, "sqrt")]["cross_rack_bytes"]
xb_rack = rows[("tor", 8.0, "rack")]["cross_rack_bytes"]
print(f"    tor sqrt open: 1:1={base:.3f}s 8:1={slow:.3f}s; rack@8:1={rack:.3f}s; "
      f"x-rack bytes sqrt={xb_sqrt} rack={xb_rack}")
assert slow > base * 1.1, f"no incast collapse: {slow:.3f}s vs {base:.3f}s"
assert rack < slow, f"rack groups did not recover: {rack:.3f}s vs {slow:.3f}s"
assert xb_sqrt >= 1.5 * xb_rack, f"cross-rack reduction below 1.5x: {xb_sqrt}/{xb_rack}"
PY

echo "==> fig7 --mds_replication=none stdout must match the default byte-for-byte"
# The raft layer must be invisible when off: the default and the explicit
# none flag take the legacy unreplicated MDS path and must agree exactly.
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  >"$out/fig7_run_default.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --mds_replication=none >"$out/fig7_run_none.txt" 2>/dev/null
cmp "$out/fig7_run_default.txt" "$out/fig7_run_none.txt"

echo "==> fig7 raft + failover plan stdout must be byte-identical across reruns"
# Leader crashes, elections, and redirects are all simulated events: a
# (seed, fault plan) pair is a pure function of its inputs.
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --fault_plan=failover --mds_replication=raft >"$out/fig7_raft_run1.txt" 2>/dev/null
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --fault_plan=failover --mds_replication=raft >"$out/fig7_raft_run2.txt" 2>/dev/null
cmp "$out/fig7_raft_run1.txt" "$out/fig7_raft_run2.txt"

echo "==> fig7 --mds_batch=0 stdout must match the default byte-for-byte"
# Batching and the lease cache must be invisible when off: explicit zeros
# take the legacy per-op mutation path and must agree with the default
# binary exactly.
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 32 --max-files 512 \
  --mds_batch=0 --meta_lease_ms=0 >"$out/fig7_run_b0.txt" 2>/dev/null
cmp "$out/fig7_run_default.txt" "$out/fig7_run_b0.txt"

echo "==> fig7 batch=64 must amortize >=10x MDS mutation round trips per create"
# The perf pin for the batcher: the same storm, batched at 64 with a 1 ms
# linger, needs at most a tenth of the unbatched mutation round trips
# (counters are totals over identical sweeps, so the ratio is per-create).
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 64 --min-files 2048 \
  --max-files 2048 --json="$out/fig7_b0_pin.json" >/dev/null 2>&1
LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn --procs 64 --min-files 2048 \
  --max-files 2048 --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 \
  --json="$out/fig7_b64_pin.json" >/dev/null 2>&1
python3 - "$out/fig7_b0_pin.json" "$out/fig7_b64_pin.json" <<'PY'
import json, sys
unbatched = json.load(open(sys.argv[1]))["counters"]["pfs.meta.mutation_round_trips"]
batched = json.load(open(sys.argv[2]))["counters"]["pfs.meta.mutation_round_trips"]
ratio = unbatched / max(1, batched)
print(f"    mutation round trips: unbatched={unbatched} batched={batched} ({ratio:.1f}x)")
assert ratio >= 10.0, f"batch=64 amortization regressed: {ratio:.2f}x < 10x"
PY

echo "==> shrunk million-file fig7 create storm must complete in both MDS modes"
# The full 10^6-file storm is a bench-box run; TIO_FIG7_MAX_FILES caps the
# sweep so CI proves the same code path (single-row million-file request,
# batching + leases on) at smoke scale.
TIO_FIG7_MAX_FILES=4096 LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn \
  --procs 64 --min-files 1000000 --max-files 1000000 \
  --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 >/dev/null 2>&1
TIO_FIG7_MAX_FILES=4096 LC_ALL="$json_locale" ./build/bench/fig7_metadata_nn \
  --procs 64 --min-files 1000000 --max-files 1000000 --mds_replication=raft \
  --mds_batch=64 --mds_batch_linger_us=1000 --meta_lease_ms=50 >/dev/null 2>&1

echo "==> fig4 --shards=4 stdout must match --shards=1 byte-for-byte"
# Sharding spreads rows across threads but every simulated result is a pure
# function of the row, so the tables cannot change. The serial trace stays
# on the legacy wire format (no otherData key, implied shards=1); the
# sharded trace must carry its shard count for tooling.
TIO_SHARDS_OVERSUBSCRIBE=1 LC_ALL="$json_locale" ./build/bench/fig4_read_scaling \
  --max-streams 32 --per-proc-mib 2 --shards=4 \
  --trace="$out/fig4_trace_s4.json" >"$out/fig4_run_s4.txt" 2>/dev/null
cmp "$out/fig4_run1.txt" "$out/fig4_run_s4.txt"
python3 tools/check_trace.py "$out/fig4_trace.json" --expect-shards=1
python3 tools/check_trace.py "$out/fig4_trace_s4.json" --expect-shards=4

echo "==> checked-in bench result files must parse and summarize"
python3 tools/bench_report.py

echo "==> repo benchmark harness self-test"
python3 perfbench/test_perfbench.py

echo "==> ci.sh: all green"
