#!/bin/sh
# Command-line checks of the transfw binary, one case per ctest entry:
#
#   cli.sh BINARY help SUBCOMMAND   --help exits 0 and prints the usage
#   cli.sh BINARY unknown           an unknown subcommand exits 2 and
#                                   lists the valid ones
#   cli.sh BINARY pod SUBCOMMAND    inspect, explain or trace exits 0 on
#                                   the 16-GPU ring with 4 host-MMU
#                                   shards at scale 0.05 with 0 watchdog
#                                   violations; trace's JSON parses
#   cli.sh BINARY bad NAME ARG...   `run ARG...` exits 1 through a fatal
#                                   that names NAME (a flag or a field)
bin=$1
what=$2
shift 2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() {
    echo "FAIL: $*" >&2
    exit 1
}
POD="--app MT --transfw --topology ring --gpus 16 --shards 4 --cus 4"
POD="$POD --scale 0.05"
case "$what" in
help)
    "$bin" "$1" --help >"$dir/out" || fail "$1 --help exited $?"
    grep -q "^usage: transfw $1 " "$dir/out" || fail "no usage line"
    ;;
unknown)
    "$bin" no-such-subcommand 2>"$dir/err"
    status=$?
    [ "$status" -eq 2 ] || fail "exit $status, want 2"
    for sub in run sweep explore inspect explain trace diff; do
        grep -q "^  $sub " "$dir/err" || fail "$sub not listed"
    done
    ;;
pod)
    case "$1" in
    inspect)
        "$bin" inspect $POD >"$dir/out" || fail "exit $?"
        grep -Eq "watchdog violations +0$" "$dir/out" || fail "violations"
        grep -q "^\[shard skew\]" "$dir/out" || fail "no shard section"
        ;;
    explain)
        "$bin" explain $POD >"$dir/out" || fail "exit $?"
        grep -q " 0 watchdog violations$" "$dir/out" || fail "violations"
        ;;
    trace)
        "$bin" trace $POD --out "$dir" >"$dir/out" || fail "exit $?"
        command -v python3 >/dev/null || exit 77 # ctest: skipped
        for f in trace.json metrics.json timeseries.json; do
            python3 -c "import json, sys; json.load(open(sys.argv[1]))" \
                "$dir/$f" || fail "$f does not parse"
        done
        ;;
    *)
        fail "unknown pod case $1"
        ;;
    esac
    ;;
bad)
    name=$1
    shift
    "$bin" run --app MT --scale 0.05 "$@" >/dev/null 2>"$dir/err"
    status=$?
    [ "$status" -eq 1 ] || fail "exit $status, want 1"
    grep -q "^fatal: .*$name" "$dir/err" || fail "message: $(cat "$dir/err")"
    ;;
*)
    fail "unknown case $what"
    ;;
esac
