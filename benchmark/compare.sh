#!/usr/bin/env bash
# benchmark/compare.sh [--selfcheck] A.json B.json
#
# Compares two results files written by run.sh (A the parent, B the
# change): one row per workload and metric, the change as a share of A
# (positive = worse), and for end-to-end metrics the verdict against the
# bound BENCHMARK.json fixes. A differing stats_digest means the two
# commits simulated different things: a host-only change must leave it
# equal. Exits 1 when B is worse than A beyond a bound. With --selfcheck
# (two runs of the same code) any difference beyond a bound, in either
# direction, and any digest difference fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here/../BENCHMARK.json" "$@" <<'PY'
import json, sys

args = sys.argv[1:]
selfcheck = "--selfcheck" in args
spec_path, a_path, b_path = [a for a in args if a != "--selfcheck"]
spec = json.load(open(spec_path))
bounds = {m["name"]: m for m in spec["end_to_end"]}
a, b = (json.load(open(p)) for p in (a_path, b_path))
for key in ("git_rev", "rustc", "nproc", "seed", "seconds", "trace"):
    if a[key] != b[key]:
        print(f"note: {key} differs: {a[key]!r} vs {b[key]!r}")

failed = False
runs_b = {r["workload"]: r for r in b["runs"]}
for ra in a["runs"]:
    rb = runs_b.get(ra["workload"])
    if rb is None:
        print(f"{ra['workload']}: missing from {b_path}")
        failed = True
        continue
    print(f"{ra['workload']}  ({ra['repetitions']} vs {rb['repetitions']} repetitions)")
    if ra["stats_digest"] != rb["stats_digest"]:
        print(f"  !!! STATS DIGEST DIFFERS: {ra['stats_digest']} vs {rb['stats_digest']}"
              " -- the simulated statistics changed !!!")
        failed = failed or selfcheck
    for run, path in ((ra, a_path), (rb, b_path)):
        if not run["correct"]:
            print(f"  !!! {path}: {run['failed']} of {run['attempted']} cells or checks failed !!!")
            failed = True
    for name, ma in ra["metrics"].items():
        mb = rb["metrics"].get(name)
        if mb is None or ma["value"] == 0:
            continue
        change = mb["value"] / ma["value"] - 1
        verdict = ""
        if name in bounds:
            worse = -change if bounds[name]["better"] == "higher" else change
            bound = bounds[name]["bound"]
            out_of_bound = abs(worse) > bound if selfcheck else worse > bound
            verdict = f"worse by {100 * worse:+.2f} % of A, bound {100 * bound:.0f} %: " + (
                "OUT OF BOUND" if out_of_bound else "ok")
            failed = failed or out_of_bound
        else:
            verdict = f"{100 * change:+.2f} %"
        print(f"  {name:34} {ma['value']:>16.4f} {mb['value']:>16.4f} {ma['unit']:8} {verdict}")
sys.exit(1 if failed else 0)
PY
