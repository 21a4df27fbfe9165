#!/usr/bin/env bash
# Paired benchmark runs of one workload: a base revision against the working
# tree.  The base revision's src/ is extracted with git archive, and this
# checkout's perfbench/ and BENCHMARK.json are copied beside it, so both
# sides run identical benchmark code on their own program.  Each pair runs
# perfbench/run.py (tracing off) once per side on the same seed, swapping
# which side runs first from one pair to the next.
#
# For each end-to-end metric BENCHMARK.json declares, it prints each side's
# median and quartiles over the pairs, the relative change of the medians,
# the pairs the working tree wins (ties count for neither), and whether a
# gain holds: at least nine tenths of the pairs won, and the medians apart,
# in the better direction, by more than the base runs' interquartile range.
# Report only: the exit status is 0 whenever every run succeeds.
#
#   .github/scripts/bench-pairs.sh <base-revision> <workload> [pairs=10] [seconds=12] [seed=1]
#
# Pair i runs on seed + i.  Scratch files go under $TMPDIR (default /tmp).
set -euo pipefail
usage="usage: bench-pairs.sh <base-revision> <workload> [pairs=10] [seconds=12] [seed=1]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-12}
seed=${5:-1}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base-checkout"
git -C "$root" archive "$base" src | tar -x -C "$work/base-checkout"
cp -r "$root/perfbench" "$root/BENCHMARK.json" "$work/base-checkout/"

run() {  # <checkout> <side> <pair>
  (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed $((seed + $3)) \
    --seconds "$seconds" --trace 0) | tail -n 1 > "$work/$2-$3.json"
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run "$work/base-checkout" base "$i"
    run "$root" head "$i"
  else
    run "$root" head "$i"
    run "$work/base-checkout" base "$i"
  fi
done

python3 - "$work" "$root/BENCHMARK.json" "$pairs" "$workload" "$base" <<'PY'
import json, statistics, sys
from pathlib import Path

work, benchmark, pairs, workload, base = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]), *sys.argv[4:]
results = {side: [json.loads((work / f"{side}-{i}.json").read_text()) for i in range(pairs)]
           for side in ("base", "head")}
print(f"{workload}: {pairs} pairs, {base} (base) against the working tree (head)")
for side, runs in results.items():
    wrong = [i for i, r in enumerate(runs) if r["correct"] is not True or r["failed"]]
    if wrong:
        print(f"  {side}: runs {wrong} not correct or with failed ops")

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

for metric in json.loads(benchmark.read_text())["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    a = [r["metrics"][name]["value"] for r in results["base"]]
    b = [r["metrics"][name]["value"] for r in results["head"]]
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    gain = (b2 - a2) if higher else (a2 - b2)
    holds = wins >= 0.9 * pairs and gain > a3 - a1
    change = (b2 - a2) / a2 if a2 else float("nan")
    print(f"  {name} ({metric['unit']}, {metric['better']} is better):"
          f" base {a2:.6g} [{a1:.6g}, {a3:.6g}], head {b2:.6g} [{b1:.6g}, {b3:.6g}],"
          f" medians {change:+.2%}, head wins {wins}/{pairs},"
          f" gain rule {'holds' if holds else 'does not hold'}")
PY
