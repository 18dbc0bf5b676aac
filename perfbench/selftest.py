#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py

Asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit, that the result-identity check
passes at the default seed, and that another seed changes the simulated
counts but not the metric names. Exits 1 on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    check(proc.returncode == 0, "%s exited with %d" % (cmd, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, msg):
    if not ok:
        print("selftest FAILED: " + msg)
        sys.exit(1)


def check_metrics(result, declared, what):
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    diff = sorted(set(printed.items()) ^ set(wanted.items()))
    check(not diff, "%s: printed and declared (name, unit) differ: %s"
          % (what, diff))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        e2e = run(w, 1, 0)
        layers = run(w, 1, 1)
        other = run(w, 2, 1)
        check_metrics(e2e, bench["end_to_end"], w + " end_to_end")
        for r in (layers, other):
            check_metrics(r, bench["per_layer"], w + " per_layer")
        for r in (e2e, layers, other):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  "%s: result-identity check failed: %s"
                  % (w, {k: r[k] for k in ("correct", "attempted",
                                           "failed")}))
        counts = {n for n, m in layers["metrics"].items()
                  if m["unit"] == "count"}
        moved = [n for n in sorted(counts)
                 if layers["metrics"][n]["value"]
                 != other["metrics"][n]["value"]]
        check("sim.events" in moved,
              "%s: seed 2 left the simulated event count unchanged" % w)
        print("selftest %s: ok (%d end-to-end, %d per-layer metrics; "
              "seed 2 moved %d of %d counts)"
              % (w, len(e2e["metrics"]), len(layers["metrics"]),
                 len(moved), len(counts)))


if __name__ == "__main__":
    main()
