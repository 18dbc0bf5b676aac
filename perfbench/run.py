#!/usr/bin/env python3
"""Host-time benchmark of the Trans-FW simulator.

    python3 perfbench/run.py --workload paper_suite|pod64|uvm_replicate \
        --seed N --seconds S --trace 0|1

Builds the simulator from ../src together with the benchmark driver
(perfbench/CMakeLists.txt) into .bench_build/, runs one workload in a
single process on one thread, checks every simulated point, and prints
one JSON result line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Each simulated point run is one operation. It fails when its
deterministic results differ between passes, differ from
perfbench/reference.json (recorded for the default seed), or report
watchdog violations. --record-reference rewrites that reference for the
default seed after a deliberate change to simulated results.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
# Whole-process limit; the build of the first run is not counted.
RUN_LIMIT_S = 170
# Fig. 11 geomean as recorded in EXPERIMENTS.md (scale 1, seed 1).
EXPERIMENTS_FIG11 = 1.578


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date (a no-op when it is)."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def source_identity():
    """The git commit when there is one, and a hash of the built sources."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit or "unavailable (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def count_failures(points, reference):
    """Failed point runs: pass-to-pass drift, violations, reference drift."""
    failed = sum(p["bad_runs"] for p in points)
    if reference is not None:
        for p in points:
            if reference.get(p["id"]) != p["sig"]:
                # Every run that matched the first pass inherits its drift.
                failed += p["runs"] - p["bad_runs"]
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's results as the reference "
                             "(default seed only)")
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 1 and --seconds > 0")
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("the reference is recorded for seed %d" % DEFAULT_SEED)

    build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    spans_path = os.path.join(BUILD, "records", tag + ".spans.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", spans_path]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_LIMIT_S)
        sys.exit(1)
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: driver exited with %d" % proc.returncode)
        sys.exit(1)
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    points = run["points"]

    references = load_reference()
    if args.record_reference:
        references[args.workload] = {p["id"]: p["sig"] for p in points}
        with open(REFERENCE, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = references.get(args.workload, {})

    attempted = sum(p["runs"] for p in points)
    failed = count_failures(points, reference)
    metrics = run["metrics"]
    finite = all(isinstance(m["value"], (int, float)) and
                 math.isfinite(m["value"]) for m in metrics.values())

    stamp = dict(source_identity(),
                 workload=args.workload, seed=args.seed, trace=args.trace,
                 hardware_threads=run["hardware_threads"],
                 seconds=args.seconds,
                 warm_passes=run["warm_passes"],
                 traced_passes=run["traced_passes"],
                 translations_per_pass=run["translations_per_pass"],
                 reference_checked=reference is not None,
                 points=[{"id": p["id"], "scale": p["scale"]} for p in points],
                 process_s=round(time.monotonic() - started, 3))
    record = dict(stamp=stamp, points=points, metrics=metrics,
                  run_s=run["run_s"], setup_s=run["setup_s"])
    if args.trace == 1:
        record["spans"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(BUILD, "records", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for p in points:
        print("point %-20s runs %d, failed %d, simulated cycles %d, "
              "translations %d" % (p["id"], p["runs"], p["bad_runs"],
                                   p["sig"]["cycles"], p["sig"]["l2_misses"]))
    if args.workload == "paper_suite":
        print("Fig. 11 geomean of simulated cycles, baseline / Trans-FW, "
              "seed %d: %.4f (EXPERIMENTS.md records %.3f for seed 1). The "
              "model is unvalidated against hardware; no error figure is "
              "given." % (args.seed, run["fig11_geomean"], EXPERIMENTS_FIG11))
    print(json.dumps({"correct": failed == 0 and finite,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
