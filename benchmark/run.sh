#!/usr/bin/env bash
# The one command of the benchmark: builds the standalone crate and runs
# it. Run from the root of the repository.
#
#   benchmark/run.sh                      every workload, untraced
#   benchmark/run.sh --traced             every workload, traced (per-layer metrics)
#   benchmark/run.sh --workload NAME      one workload
#   benchmark/run.sh --selfcheck          the untraced set twice, compared
#   benchmark/run.sh --quick              2 s windows instead of run_seconds (a smoke)
#
# Flags: --seed N (default 1000), --seconds S (default: run_seconds of
# BENCHMARK.json), --trace 0|1 (--traced is --trace 1). With --workload
# the last line of standard output is the result object; without it
# every run's detail lands in benchmark/out/results.json. Input sizes
# are fixed in the crate; --seconds only sets how many repetitions fit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads="churn-sweep churn-nosweep pgbench-tx matrix-shortcells opgen-analyze"

workload="" seed=1000 seconds="" trace=0 selfcheck=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --quick) seconds=2; shift ;;
        --selfcheck) selfcheck=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

for f in "$root/Cargo.toml" "$root/BENCHMARK.json"; do
    [ -f "$f" ] || { echo "run.sh: $f is missing: run from a checkout of the repository" >&2; exit 1; }
done
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
fi

# A standalone workspace takes its profiles from its own manifest; the
# shipped binaries are built with the root's. Measuring differently
# inlined code would be measuring another program.
release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 } on && NF && !/^#/' "$1" | tr -d ' ' | sort
}
if [ -z "$(release_profile "$here/Cargo.toml")" ] ||
    [ "$(release_profile "$root/Cargo.toml")" != "$(release_profile "$here/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] of benchmark/Cargo.toml differs from the root manifest's" >&2
    exit 1
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/simbench"
out="$here/out"
mkdir -p "$out"

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out"
fi

# Every workload in its own process; the results file joins the detail
# file each run leaves behind.
run_all() {
    local results="$1" status=0 sep="" w
    for w in $workloads; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" || status=1
    done
    {
        printf '{"git_rev":"%s","rustc":"%s","nproc":%s,"seed":%s,"seconds":%s,"trace":%s,"runs":[\n' \
            "$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)" \
            "$(rustc -V)" "$(nproc)" "$seed" "$seconds" "$trace"
        for w in $workloads; do
            printf '%s' "$sep"
            cat "$out/run-$w-trace$trace.json"
            sep=","
        done
        printf ']}\n'
    } >"$results"
    echo "run.sh: wrote $results" >&2
    return $status
}

if [ "$selfcheck" = 1 ]; then
    run_all "$out/selfcheck-a.json"
    run_all "$out/selfcheck-b.json"
    exec "$here/compare.sh" --selfcheck "$out/selfcheck-a.json" "$out/selfcheck-b.json"
fi
if [ "$trace" = 1 ]; then
    run_all "$out/results-traced.json"
else
    run_all "$out/results.json"
fi
