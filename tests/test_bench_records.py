"""The benchmark records BENCH_<number>.json at the repository root, as
.github/scripts/bench-record.sh writes them: every workload and end-to-end
metric BENCHMARK.json declares, finite levels, and each run's meta line.
No benchmark runs here."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

# The keys of perfbench/run.py's `# meta` line that place a run.
META_KEYS = {"workload", "seed", "seconds", "nproc", "numpy", "scipy", "blas_threads", "git_commit",
             "attempted", "failed", "slower_than_nominal"}


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, workload in record["workloads"].items():
        assert {k: v["unit"] for k, v in workload["metrics"].items()} == metrics
        for level in workload["metrics"].values():
            assert all(math.isfinite(level[q]) for q in ("q1", "median", "q3"))
            assert level["q1"] <= level["median"] <= level["q3"]
        assert len(workload["meta"]) == record["repeats"]
        for meta in workload["meta"]:
            assert META_KEYS <= set(meta) and meta["workload"] == name and meta["failed"] == 0
    assert record["cold_wall_s"] and all(
        math.isfinite(wall) and wall > 0.0 for wall in record["cold_wall_s"].values()
    )
