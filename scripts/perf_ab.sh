#!/usr/bin/env bash
# Same-machine A/B of the working tree against a base revision, on the
# perfbench workloads that BENCHMARK.json declares.
#
#   scripts/perf_ab.sh [--base REV] [--pairs N] [--seconds S] [--seed N]
#                      [WORKLOAD...]
#
# Defaults: --base HEAD, 10 pairs, --seconds from BENCHMARK.json's
# run_seconds, seed 1, and every workload in BENCHMARK.json.
#
# REV is checked out with `git worktree add --detach` into a temporary
# directory that is removed on exit. Each pair runs
# `perfbench/run.py --trace 0` once in that checkout and once in the
# working tree, alternating which side goes first; each side builds its
# own .bench_build/. For each workload and end-to-end metric the script
# prints both sides' median and quartiles, the ratio of the medians
# (change / base), the change's wins out of the pairs run (ties count
# for neither) and a verdict:
#
#   better      the change wins at least 9 of 10 pairs and the medians
#               differ by more than the base's interquartile range
#   WORSE       the change's median is worse than the base's by more
#               than the metric's bound
#   unresolved  either side's interquartile range is wider than the
#               bound, and not every change run beats every base run
#   within      none of these: no worse than the bound allows
#
# It also prints failed/attempted per side and hardware_threads. Exit
# status: 0, or 1 when a run fails or reports "correct": false, or 2 on
# bad usage. Only perfbench/ and BENCHMARK.json are read.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/perf_ab.sh [--base REV] [--pairs N] [--seconds S]" \
        "[--seed N] [WORKLOAD...]" >&2
    exit 2
}

BASE=HEAD
PAIRS=10
SECONDS_ARG=""
SEED=1
WORKLOADS=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --base|--pairs|--seconds|--seed)
            [[ $# -ge 2 ]] || usage
            case "$1" in
                --base) BASE=$2 ;;
                --pairs) PAIRS=$2 ;;
                --seconds) SECONDS_ARG=$2 ;;
                --seed) SEED=$2 ;;
            esac
            shift 2 ;;
        -h|--help) usage ;;
        -*) echo "perf_ab: unknown flag $1" >&2; usage ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: bad --pairs" >&2; exit 2; }
[[ "$SEED" =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: bad --seed" >&2; exit 2; }
[[ -z "$SECONDS_ARG" || "$SECONDS_ARG" =~ ^[0-9]*\.?[0-9]+$ ]] ||
    { echo "perf_ab: bad --seconds" >&2; exit 2; }

REV=$(git rev-parse --verify --quiet "$BASE^{commit}") ||
    { echo "perf_ab: unknown revision $BASE" >&2; exit 2; }
TMP=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
WORKTREE="$TMP/base"
cleanup() {
    git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
    rm -rf "$TMP"
    git worktree prune
}
trap cleanup EXIT

python3 - "$WORKTREE" "$REV" "$PAIRS" "$SEED" "$SECONDS_ARG" \
    ${WORKLOADS[@]+"${WORKLOADS[@]}"} <<'EOF'
import json, os, statistics, subprocess, sys

base_root, rev, pairs, seed, seconds = sys.argv[1:6]
pairs, seed = int(pairs), int(seed)
bench = json.load(open("BENCHMARK.json"))
seconds = float(seconds) if seconds else float(bench["run_seconds"])
known = [w["name"] for w in bench["workloads"]]
workloads = sys.argv[6:] or known
for w in workloads:
    if w not in known:
        print("perf_ab: unknown workload %s (have %s)" %
              (w, ", ".join(known)), file=sys.stderr)
        sys.exit(2)
subprocess.run(["git", "worktree", "add", "--detach", base_root, rev],
               stdout=subprocess.DEVNULL, check=True)
sides = {"base": base_root, "change": os.getcwd()}


def run(side, workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=sides[side], capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("perf_ab: %s run of %s exited with %d" %
                 (side, workload, proc.returncode))
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("stamp: "):
            result["threads"] = json.loads(line[7:])["hardware_threads"]
    return result


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    wins = sum(better(c, b) for b, c in zip(base, change))
    if wins >= 0.9 * len(base) and better(cmed, bmed) and \
            abs(cmed - bmed) > b3 - b1:
        return wins, "better"
    worse_by = (cmed - bmed if lower else bmed - cmed) / abs(bmed)
    if worse_by > bound:
        return wins, "WORSE"
    all_better = all(better(c, b) for c in change for b in base)
    if max(b3 - b1, c3 - c1) / abs(bmed) > bound and not all_better:
        return wins, "unresolved"
    return wins, "within"


def fmt(x):
    return "%.4g" % x


incorrect = False
print("perf_ab: base %s vs working tree, %d pairs, seed %d, %g s runs" %
      (rev[:12], pairs, seed, seconds))
for workload in workloads:
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run(side, workload)
            runs[side].append(result)
            incorrect |= not result["correct"]
            sys.stderr.write("perf_ab: %s pair %d/%d %s wall_s %s%s\n" % (
                workload, i + 1, pairs, side,
                fmt(result["metrics"]["wall_s"]["value"]),
                "" if result["correct"] else " INCORRECT"))
    print()
    print("== %s ==" % workload)
    for side in ("base", "change"):
        print("%-6s failed/attempted %d/%d, hardware_threads %s" % (
            side, sum(r["failed"] for r in runs[side]),
            sum(r["attempted"] for r in runs[side]),
            ",".join(sorted({str(r.get("threads")) for r in runs[side]}))))
    print("%-12s %-5s %-34s %-34s %-6s %-6s %s" % (
        "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
        "ratio", "wins", "verdict"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, bmed, b3 = quartiles(base)
        c1, cmed, c3 = quartiles(change)
        wins, word = verdict(metric, base, change)
        print("%-12s %-5s %-34s %-34s %-6s %-6s %s (bound %g)" % (
            name, metric["unit"],
            "%s [%s, %s]" % (fmt(bmed), fmt(b1), fmt(b3)),
            "%s [%s, %s]" % (fmt(cmed), fmt(c1), fmt(c3)),
            "%.3f" % (cmed / bmed), "%d/%d" % (wins, pairs), word,
            metric["bound"]))
sys.exit(1 if incorrect else 0)
EOF
