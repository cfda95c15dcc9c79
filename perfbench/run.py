#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench binary (and the
simulator libraries it links) from source with CMake into the build
directory ($CARGO_TARGET_DIR, default .bench_build), runs one workload, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. Build output and diagnostics go to stderr.

Every run's virtual-time results and simulation counts are compared with
the first run of the same workload and seed made with the same perfbench
binary (kept under <build>/perfbench-ref/); a difference fails every op of
the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_quiet(cmd, timeout):
    """Runs a build command with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False
    return proc.returncode == 0


def build():
    """Configures and builds the perfbench binary; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         timeout=300):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                     timeout=850):
        return None
    exe = os.path.join(out, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def run_binary(exe, args):
    """Runs the perfbench binary and returns its result object, or None on failure."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench failed: {e}")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def check_reference(result, exe, key):
    """Compares the run's fingerprint with the stored one for this key.

    References are kept per perfbench binary, so a rebuild from changed
    sources starts afresh. Returns the names whose values differ (empty
    when they all match or when this is the first run of the key, which
    becomes the reference).
    """
    with open(exe, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    ref_dir = os.path.join(build_dir(), "perfbench-ref", build_id)
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, key + ".json")
    fp = result["fingerprint"]
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump(fp, f, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path) as f:
        ref = json.load(f)
    return sorted(k for k in set(ref) | set(fp) if ref.get(k) != fp.get(k))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}, [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args()

    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r} (want one of {', '.join(workloads)})")
        return 2
    exe = build()
    if exe is None:
        log("build failed")
        return 1
    bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        bin_args.append("--smoke")
    result = run_binary(exe, bin_args)
    if result is None:
        return 1
    log(f"config {json.dumps(result['config'], sort_keys=True)}, "
        f"{result['iterations']} iterations")

    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"unit mismatch {sorted(k for k in got if k in expected and got[k] != expected[k])}")
        return 3

    attempted, failed = result["attempted"], result["failed"]
    key = f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else "")
    differing = check_reference(result, exe, key)
    if differing:
        log(f"results differ from an earlier run of the same seed: {differing[:10]}")
        failed = attempted
        if "fail_ratio" in metrics:
            metrics["fail_ratio"]["value"] = 1.0
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
