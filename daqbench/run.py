#!/usr/bin/env python3
"""Build and run the DAQ benchmark.

One run (the last line of stdout is the JSON result):

    python3 daqbench/run.py --workload encode-2d-int8 --seed 1 --seconds 30 --trace 0

Other modes:

    python3 daqbench/run.py --selftest
        The benchmark's own test: injected output faults are caught and the
        tracing codec is a pure pass-through.
    python3 daqbench/run.py ... --record runs.jsonl
        Also append the run (fingerprint, workload, seed, result) to a file.
    python3 daqbench/run.py --write-baseline runs.jsonl
        Summarise recorded runs per workload and metric (median, quartiles,
        spread = IQR / median) and store them as daqbench/baseline.json.

The benchmark is built from the repository's src/ tree with CMake into
.bench_build (or $CARGO_TARGET_DIR) at the repository root.  Every run
prints the host fingerprint and compares itself with daqbench/baseline.json
when the fingerprints match, and says so instead when they do not.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
RUN_TIMEOUT_S = 170
# Fingerprint fields that must match for a comparison to mean anything; the
# commit is what a comparison is about, so it is not one of them.
HOST_KEYS = ["nproc", "hardware_threads", "omp_max_threads", "isa",
             "cpu_model", "l3", "build_type"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build daq_bench; returns its path or None."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to daqbench/; cannot build")
        return None
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            configured_for = [l.split("=", 1)[1].strip() for l in f
                              if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if configured_for and os.path.realpath(configured_for[0]) != os.path.realpath(HERE):
            shutil.rmtree(out)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "daq_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "daq_bench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def compare_with_baseline(fingerprint, result, workload, trace):
    if not os.path.exists(BASELINE):
        print("baseline: none recorded")
        return
    with open(BASELINE, encoding="utf-8") as f:
        base = json.load(f)
    differs = [k for k in HOST_KEYS
               if base.get("fingerprint", {}).get(k) != fingerprint.get(k)]
    if differs:
        print("baseline: host fingerprint differs from the baseline's (%s): "
              "not comparing" % ", ".join(differs))
        return
    section = "trace" if trace else "end_to_end"
    rows = base.get("workloads", {}).get(workload, {}).get(section, {})
    for name, m in result.get("metrics", {}).items():
        b = rows.get(name)
        if b is None or m.get("value") is None:
            continue
        delta = (m["value"] / b["median"] - 1) if b["median"] else 0.0
        print("baseline: %-44s %12.6g vs median %12.6g (%+.1f%%, baseline spread %.1f%%)"
              % (name, m["value"], b["median"], 100 * delta, 100 * b["spread"]))


def run_once(args):
    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log("benchmark printed no result (exit code %d)" % proc.returncode)
        return proc.returncode or 4
    fingerprint = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith('{"fingerprint"'):
            fingerprint = json.loads(line)["fingerprint"]
    compare_with_baseline(fingerprint, result, args.workload, args.trace)
    print(lines[-1], flush=True)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "fingerprint": fingerprint, "result": result}) + "\n")
    return proc.returncode


def write_baseline(path):
    with open(path, encoding="utf-8") as f:
        runs = [json.loads(l) for l in f if l.strip()]
    if not runs:
        log("no runs in " + path)
        return 1
    table = {}
    for r in runs:
        section = "trace" if r["trace"] else "end_to_end"
        for name, m in r["result"]["metrics"].items():
            if m["value"] is not None:
                table.setdefault(r["workload"], {}).setdefault(section, {}) \
                     .setdefault(name, []).append(m["value"])
    out = {"fingerprint": runs[0]["fingerprint"], "seconds": runs[0]["seconds"],
           "runs": len(runs), "workloads": {}}
    for workload, sections in sorted(table.items()):
        for section, metrics in sections.items():
            for name, values in metrics.items():
                med = statistics.median(values)
                q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                             else (values[0],) * 3)
                spread = (q3 - q1) / abs(med) if med else 0.0
                out["workloads"].setdefault(workload, {}).setdefault(section, {})[name] = {
                    "median": med, "q1": q1, "q3": q3, "spread": spread,
                    "n": len(values)}
                if section == "end_to_end":
                    print("%-16s %-20s n=%-3d median %12.6g  spread %5.1f%%"
                          % (workload, name, len(values), med, 100 * spread))
    with open(BASELINE, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", help="append the run to this JSONL file")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-baseline", metavar="RUNS_JSONL")
    args = p.parse_args()

    if args.write_baseline:
        return write_baseline(args.write_baseline)
    if args.selftest:
        binary = build()
        if binary is None:
            return 2
        return subprocess.run([binary, "--selftest"], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        p.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
