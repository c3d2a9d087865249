#!/usr/bin/env bash
# Tier-1 CI gate: release build + full test suite, the srclint source
# gate (hermetic manifests, determinism lints), every example,
# static-analyzer smokes (opcheck digest stability, --preflight
# quarantine), the matrix and ablation smokes (one process: byte-identity
# across worker counts, fault isolation, repro replay), the EXPERIMENTS.md
# fixed point (regenerated at full scale, cmp'd, and resumed whole from
# its one checkpoint file), and a quick-mode run of
# the benchmark so its bit-rot is
# caught without paying for a full measurement run; its stats digests are
# compared with the pinned tools/stats_digests.txt. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release --offline

echo "== tier-1: tests (default-members is the whole workspace: every crate's property and e2e suites) =="
cargo test -q --offline

echo "== lint (clippy, warnings fatal) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== source lints (srclint: hermetic manifests, clock/env/deprecated-API bans) =="
cargo run --release --offline -q -p srclint
# The resolver proof: this fails fast if anything needs the registry.
cargo build --offline --workspace --quiet

echo "== telemetry smoke (deterministic report export) =="
# The exporter must produce well-formed report JSON, and two separate
# invocations of the same fixed-seed run must agree byte for byte (the
# schema itself is pinned by tests/golden_report.rs).
report_a="$(mktemp)"
report_b="$(mktemp)"
trap 'rm -f "$report_a" "$report_b"' EXIT
cargo run --release --offline -q --example export_report >"$report_a" 2>/dev/null
cargo run --release --offline -q --example export_report >"$report_b" 2>/dev/null
head -c 12 "$report_a" | grep -q '{"version":1' \
    || { echo "telemetry smoke: report is not v1 JSON" >&2; exit 1; }
grep -q '"spans":\[{' "$report_a" \
    || { echo "telemetry smoke: report has no phase spans" >&2; exit 1; }
# A truncated journal or series is a smoke failure, not a footnote.
for ring in dropped_events dropped_samples; do
    grep -q "\"$ring\":0[,}]" "$report_a" \
        || { echo "telemetry smoke: report has $ring > 0 (the ring overflowed)" >&2; exit 1; }
done
cmp -s "$report_a" "$report_b" \
    || { echo "telemetry smoke: reports differ across invocations" >&2; exit 1; }

echo "== examples (every one exits 0 and ends in its OK line) =="
# Every examples/*.rs besides export_report, which the telemetry smoke
# above runs. uaf_failstop and memory_coloring are the only callers of
# PhysMem::{read,write}_u64 outside tests (the product-side users of a
# frame's lazily made data plane); memory_coloring also drives Mrs's
# colour mode by hand, outside System.
for path in examples/*.rs; do
    example="$(basename "$path" .rs)"
    [ "$example" = export_report ] && continue
    last="$(cargo run --release --offline -q --example "$example" 2>/dev/null | tail -n 1)" \
        || { echo "examples: $example failed" >&2; exit 1; }
    case "$last" in
        *"$example OK") ;;
        *) echo "examples: $example did not end in its OK line (last line: $last)" >&2; exit 1 ;;
    esac
done

echo "== opcheck smoke (static analyzer over the smoke matrix) =="
# The analyzer must find every generated program well-formed (exit 0 —
# nonzero means malformed-program diagnostics), and its diagnostics JSON
# must be byte-stable across invocations.
opcheck_a="$(mktemp)"
opcheck_b="$(mktemp)"
cargo run --release --offline -q -p rev-bench --bin repro -- opcheck \
    --smoke --out "$opcheck_a" 2>/dev/null \
    || { echo "opcheck smoke: malformed program(s) in the smoke matrix" >&2; exit 1; }
cargo run --release --offline -q -p rev-bench --bin repro -- opcheck \
    --smoke --out "$opcheck_b" 2>/dev/null
head -c 12 "$opcheck_a" | grep -q '{"version":1' \
    || { echo "opcheck smoke: output is not v1 JSON" >&2; exit 1; }
grep -q '"malformed_programs":0' "$opcheck_a" \
    || { echo "opcheck smoke: analyzer reports malformed programs" >&2; exit 1; }
cmp -s "$opcheck_a" "$opcheck_b" \
    || { echo "opcheck smoke: diagnostics JSON differs across invocations" >&2; exit 1; }
rm -f "$opcheck_a" "$opcheck_b"

echo "== preflight smoke (static-analysis gate quarantines corrupt programs) =="
# An injected double-free must surface as a zero-attempt typed failure
# with a repro file — never simulated, never retried.
pf_dir="$(mktemp -d)"
REPRO_INJECT_MALFORMED='pgbench|pgbench|Cornucopia' \
    cargo run --release --offline -q -p rev-bench --bin repro -- matrix \
    --smoke --suites pgbench --preflight --out "$pf_dir/pf.md" \
    --repro-dir "$pf_dir/repro" 2>"$pf_dir/pf.log"
grep -q "after 0 attempts: preflight: " "$pf_dir/pf.log" \
    || { echo "preflight smoke: corrupt cell not quarantined with 0 attempts" >&2; exit 1; }
ls "$pf_dir"/repro/pgbench_pgbench_Cornucopia*.json >/dev/null 2>&1 \
    || { echo "preflight smoke: quarantined cell left no repro file" >&2; exit 1; }
# One analysis per program, not per cell: the five conditions stream one
# program, and the corrupted cell's is a second.
pf_line="$(grep -o 'preflight: [0-9]* program(s) for [0-9]* cell(s)' "$pf_dir/pf.log")" \
    || { echo "preflight smoke: no 'preflight: P program(s) for C cell(s)' line" >&2; exit 1; }
read -r _ pf_programs _ _ pf_cells _ <<<"$pf_line"
[ "$pf_programs" -lt "$pf_cells" ] \
    || { echo "preflight smoke: $pf_line — programs not fewer than cells" >&2; exit 1; }
rm -rf "$pf_dir"

echo "== benchmark smoke (five workloads, 2 s windows) =="
# Exits nonzero on any failed cell or check, including a repetition whose
# stats digest differs from the first.
bash benchmark/run.sh --quick
# And the digests are pinned across commits: a host-only change that moves
# a simulated counter fails here.
drift=0
while read -r workload want; do
    case "$workload" in '' | '#'*) continue ;; esac
    got="$(sed -n 's/.*"stats_digest":"\([^"]*\)".*/\1/p' "benchmark/out/run-$workload-trace0.json" 2>/dev/null || true)"
    if [ "$got" != "$want" ]; then
        echo "benchmark smoke: stats digest drifted (pinned: $workload $want; got: $workload ${got:-none})" >&2
        drift=1
    fi
done <tools/stats_digests.txt
[ "$drift" = 0 ] \
    || { echo "benchmark smoke: the simulated statistics changed; if intentional, re-capture by pasting the 'got' lines into tools/stats_digests.txt" >&2; exit 1; }

echo "== matrix smoke (parallel orchestrator) =="
# 1. Byte-identity: the same smoke matrix at 1 and 4 workers must render
#    the exact same report (merging is in job order, not completion order).
matrix_dir="$(mktemp -d)"
REPRO_JOBS=1 cargo run --release --offline -q -p rev-bench --bin repro -- matrix \
    --smoke --suites pgbench,pgbench-rates,grpc --out "$matrix_dir/serial.md" 2>/dev/null
REPRO_JOBS=4 cargo run --release --offline -q -p rev-bench --bin repro -- matrix \
    --smoke --suites pgbench,pgbench-rates,grpc --out "$matrix_dir/parallel.md" 2>/dev/null
cmp -s "$matrix_dir/serial.md" "$matrix_dir/parallel.md" \
    || { echo "matrix smoke: parallel report differs from serial" >&2; exit 1; }
grep -q "All matrix cells completed" "$matrix_dir/serial.md" \
    || { echo "matrix smoke: missing all-clear failure section" >&2; exit 1; }
# 2. Fault isolation: an injected panic must surface as a JobFailure row
#    while every other cell still reports (exit 0 sans --strict),
#    and the poisoned cell must leave a replayable repro file behind.
REPRO_JOBS=4 REPRO_INJECT_PANIC='pgbench|pgbench|Cornucopia' \
    cargo run --release --offline -q -p rev-bench --bin repro -- matrix \
    --smoke --suites pgbench,pgbench-rates,grpc --out "$matrix_dir/faulty.md" \
    --repro-dir "$matrix_dir/repro" 2>/dev/null
grep -q "injected panic" "$matrix_dir/faulty.md" \
    || { echo "matrix smoke: injected panic not recorded as JobFailure" >&2; exit 1; }
grep -q "unscheduled" "$matrix_dir/faulty.md" \
    || { echo "matrix smoke: healthy cells missing from faulty run" >&2; exit 1; }
repro_file="$(ls "$matrix_dir"/repro/pgbench_pgbench_Cornucopia*.json 2>/dev/null | head -n1)"
[ -n "$repro_file" ] \
    || { echo "matrix smoke: failed cell left no repro file" >&2; exit 1; }
grep -q '"replay"' "$repro_file" \
    || { echo "matrix smoke: repro file has no replay command" >&2; exit 1; }
# 3. Repro replay: re-run just the poisoned cell (sans injection) via the
#    --only filter the repro file's replay command uses.
cargo run --release --offline -q -p rev-bench --bin repro -- matrix \
    --smoke --suites pgbench --only 'pgbench|pgbench|Cornucopia' --strict \
    --out "$matrix_dir/replay.md" --repro-dir "$matrix_dir/repro" 2>/dev/null \
    || { echo "matrix smoke: repro replay of the poisoned cell failed" >&2; exit 1; }
rm -rf "$matrix_dir"

echo "== ablation smoke (ablation cells are matrix cells: worker counts) =="
abl_dir="$(mktemp -d)"
# The study with the most cells (six xalancbmk runs) and the coloured
# one, at 1 and 4 workers.
for study in revoker_cores coloring; do
    for j in 1 4; do
        REPRO_JOBS=$j cargo run --release --offline -q -p rev-bench --bin repro -- \
            ablation "$study" >"$abl_dir/$study-j$j.md" 2>/dev/null
    done
    cmp -s "$abl_dir/$study-j1.md" "$abl_dir/$study-j4.md" \
        || { echo "ablation smoke: $study differs between 1 and 4 workers" >&2; exit 1; }
done
rm -rf "$abl_dir"

echo "== fixed point (EXPERIMENTS.md regenerates byte for byte, and resumes) =="
# The path that writes EXPERIMENTS.md, at its default scale: any drift in
# a simulated number fails here, not in front of a reader.
exp_dir="$(mktemp -d)"
# The whole job's host cost is logged, never written into a checked file.
TIMEFORMAT='%R %U %S'
all_times="$( { time env -u REPRO_SCALE -u REPRO_REPS \
    cargo run --release --offline -q -p rev-bench --bin repro -- all "$exp_dir/EXPERIMENTS.md" \
    --checkpoint "$exp_dir/ckpt.jsonl" >/dev/null 2>"$exp_dir/all.log"; } 2>&1 )" \
    || { tail -n 20 "$exp_dir/all.log" >&2; echo "fixed point: repro all failed (a violated shape check exits 1)" >&2; exit 1; }
read -r all_wall all_user all_sys <<<"$all_times"
echo "repro all: $all_wall s wall, $(awk "BEGIN { print $all_user + $all_sys }") CPU-s, nproc $(nproc)"
cmp "$exp_dir/EXPERIMENTS.md" EXPERIMENTS.md \
    || { echo "fixed point: the regenerated report differs from the committed EXPERIMENTS.md; if intentional, commit the output of 'repro all'" >&2; exit 1; }
# Every cell of the report — figure cells and ablation cells — resumes
# from the one checkpoint.
env -u REPRO_SCALE -u REPRO_REPS \
    cargo run --release --offline -q -p rev-bench --bin repro -- all "$exp_dir/resumed.md" \
    --checkpoint "$exp_dir/ckpt.jsonl" 2>"$exp_dir/resume.log"
grep -q ": 0 cell(s) ran, 152 resumed" "$exp_dir/resume.log" \
    || { echo "fixed point: a second repro all over the same checkpoint re-ran cells" >&2; exit 1; }
cmp "$exp_dir/resumed.md" EXPERIMENTS.md \
    || { echo "fixed point: the resumed report differs from the committed EXPERIMENTS.md" >&2; exit 1; }
rm -rf "$exp_dir"

echo "ci: all gates passed"
