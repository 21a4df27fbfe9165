"""Golden gate: every shipped preset, run through the CLI, reproduces the
summary values pinned in ``perfbench/golden.json`` at their stated
tolerances (thresholds to 1 mK, criteria to 1e-9, Monte-Carlo AUCs to 3
sigma).  Byte-identical reruns alone cannot catch a refactor that moves the
physics; this can."""

import json
import sys
from pathlib import Path

import pytest

from qradar import cli
from qradar.presets import SCENARIO_PRESETS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
def test_preset_summary_matches_golden(name, tmp_path, monkeypatch):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(SCENARIO_PRESETS[name]), encoding="utf-8")
    # The preset runs as shipped; its artifacts go to $QRADAR_OUTPUT_DIR.
    monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["run", str(config)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "ok"
    values = workloads.flatten(summary["summary"])
    pinned = workloads.GOLDEN["presets"][name]
    assert set(values) == set(pinned)
    for key, spec in pinned.items():
        workloads.check_golden(name, key, values[key], spec)
