"""Golden gate: every shipped preset, run through the CLI, reproduces the
summary values pinned in ``perfbench/golden.json`` at their stated
tolerances (thresholds to 1 mK, criteria to 1e-9, Monte-Carlo AUCs to 3
sigma).  Byte-identical reruns alone cannot catch a refactor that moves the
physics; this can.

The converter presets' CSV rows are pinned as well, in
``tests/data/converter_rows.json``: per preset the artifact name, its header
and every row, with NaN stored as null and the ``stable`` column as a
boolean.  ``stable`` must match exactly and every value to 1e-9 relative."""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from qradar import cli
from qradar.presets import SCENARIO_PRESETS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

CONVERTER_ROWS = json.loads(
    (Path(__file__).resolve().parent / "data" / "converter_rows.json").read_text(encoding="utf-8")
)


def run_preset(name, tmp_path, monkeypatch) -> dict:
    """Run a shipped preset through the CLI; returns its summary.json."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(SCENARIO_PRESETS[name]), encoding="utf-8")
    # The preset runs as shipped; its artifacts go to $QRADAR_OUTPUT_DIR.
    monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["run", str(config)]) == 0
    return json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
def test_preset_summary_matches_golden(name, tmp_path, monkeypatch):
    summary = run_preset(name, tmp_path, monkeypatch)
    assert summary["status"] == "ok"
    values = workloads.flatten(summary["summary"])
    pinned = workloads.GOLDEN["presets"][name]
    assert set(values) == set(pinned)
    for key, spec in pinned.items():
        workloads.check_golden(name, key, values[key], spec)


@pytest.mark.parametrize("name", sorted(CONVERTER_ROWS))
def test_converter_csv_rows_match_pinned(name, tmp_path, monkeypatch):
    run_preset(name, tmp_path, monkeypatch)
    pinned = CONVERTER_ROWS[name]
    with open(tmp_path / pinned["file"], newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == pinned["header"]
    assert len(rows) == len(pinned["rows"])
    for row, expected in zip(rows, pinned["rows"]):
        assert row[-1] == ("1" if expected[-1] else "0"), (name, row)
        for cell, want in zip(row[:-1], expected[:-1]):
            got = float(cell)
            if want is None:
                assert math.isnan(got), (name, row)
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), (name, row)
