#!/usr/bin/env bash
# Record the benchmark's levels for one change as BENCH_<number>.json at the
# repository root.  Each workload BENCHMARK.json declares runs `repeats` times
# through the unedited perfbench/run.py (tracing off), one run at a time, run
# i on seed + i; for each end-to-end metric the file keeps the median and the
# quartiles over the runs, and it keeps each run's `# meta` line.  Then each
# shipped preset runs `repeats` times through `qradar run`, each in a fresh
# process, and the median wall lands under `cold_wall_s` (ungated: imports
# and process start included).  Each meta line names the commit checked
# out; `src_matches_commit` says whether src/ was that commit's.
#
# These are levels on one machine at one time, not a before/after claim: a
# speed claim is a bench-pairs.sh pair.  A saved bench-pairs.sh output may be
# given as the last argument; its lines are stored under `pairs`.
#
#   .github/scripts/bench-record.sh <number> [repeats=5] [seconds=6] [seed=1] [pairs-output]
#
# Scratch files go under $TMPDIR (default /tmp).
set -euo pipefail
usage="usage: bench-record.sh <number> [repeats=5] [seconds=6] [seed=1] [pairs-output]"
number=${1:?$usage}
repeats=${2:-5}
seconds=${3:-6}
seed=${4:-1}
pairs=${5:-}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$root"

workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
  for ((i = 0; i < repeats; i++)); do
    python3 perfbench/run.py --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 \
      > "$work/$w-$i.out"
  done
done

for preset in $(PYTHONPATH=src python3 -m qradar.cli presets list); do
  PYTHONPATH=src python3 -m qradar.cli presets show "$preset" > "$work/$preset.json"
done

python3 - "$work" "$number" "$repeats" "$seconds" "$seed" "$pairs" <<'PY'
import json, os, statistics, subprocess, sys, time
from pathlib import Path

work, number, repeats, seconds, seed, pairs = sys.argv[1:]
work, repeats = Path(work), int(repeats)
benchmark = json.loads(Path("BENCHMARK.json").read_text())

def levels(values):
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}

workloads = {}
for workload in (w["name"] for w in benchmark["workloads"]):
    results, metas = [], []
    for i in range(repeats):
        lines = (work / f"{workload}-{i}.out").read_text().splitlines()
        results.append(json.loads(lines[-1]))
        metas.append(json.loads(next(l for l in lines if l.startswith("# meta "))[len("# meta "):]))
    wrong = [i for i, r in enumerate(results) if r["correct"] is not True or r["failed"]]
    if wrong:
        sys.exit(f"bench-record: {workload} runs {wrong} not correct or with failed ops")
    workloads[workload] = {
        "metrics": {
            m["name"]: {"unit": m["unit"], **levels([r["metrics"][m["name"]]["value"] for r in results])}
            for m in benchmark["end_to_end"]
        },
        "meta": metas,
    }

env = {**os.environ, "PYTHONPATH": "src"}
cold = {}
for config in sorted(work.glob("*.json")):
    walls = []
    for i in range(repeats):
        env["QRADAR_OUTPUT_DIR"] = str(work / "out" / f"{config.stem}-{i}")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "qradar.cli", "run", str(config)], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    cold[config.stem] = statistics.median(walls)

record = {
    "note": "Levels on one machine, not a before/after claim: a speed claim is a "
            "bench-pairs.sh pair.  cold_wall_s is ungated.",
    "repeats": repeats, "seconds": float(seconds), "seed": int(seed),
    "src_matches_commit": subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"]).returncode == 0,
    "workloads": workloads,
    "cold_wall_s": cold,
}
if pairs:
    record["pairs"] = Path(pairs).read_text().splitlines()
Path(f"BENCH_{number}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
print(f"wrote BENCH_{number}.json")
PY
