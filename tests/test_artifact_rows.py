"""Pins of the deterministic JPA and channel CSVs, as
``tests/data/converter_rows.json`` pins the converter rows.

``tests/data/artifact_rows.json`` holds, per preset, each artifact's name,
header, row count, a row stride and every ``stride``-th row: all rows of
``jpa_gain_vs_omega.csv``, ``jpa_gain_vs_pump.csv`` and ``channel_neff.csv``,
and every 31st row of each ``jpa_wigner_g*.csv``, which keeps the file under
100 KB.  Every pinned value must match to 1e-9 relative; a column listed
under ``abs`` (a residual that is rounding noise) is held to that absolute
bound instead."""

import csv
import json
from pathlib import Path

import pytest

from test_golden import run_preset

ARTIFACT_ROWS = json.loads(
    (Path(__file__).resolve().parent / "data" / "artifact_rows.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(ARTIFACT_ROWS))
def test_artifact_rows_match_pinned(name, tmp_path, monkeypatch):
    run_preset(name, tmp_path, monkeypatch)
    for pinned in ARTIFACT_ROWS[name]:
        with open(tmp_path / pinned["file"], newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == pinned["header"], pinned["file"]
        assert len(rows) == pinned["n_rows"], pinned["file"]
        bounds = [pinned.get("abs", {}).get(column, 0.0) for column in header]
        sampled = rows[:: pinned["stride"]]
        assert len(sampled) == len(pinned["rows"]), pinned["file"]
        for row, expected in zip(sampled, pinned["rows"]):
            for cell, want, bound in zip(row, expected, bounds):
                if bound:
                    assert abs(float(cell) - want) <= bound, (pinned["file"], row)
                else:
                    assert float(cell) == pytest.approx(want, rel=1e-9, abs=0.0), (
                        pinned["file"], row)
