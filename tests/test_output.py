"""The column-wise CSV writer against the per-cell rule it replaced."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qradar.errors import ValidationError
from qradar.output import write_csv


def _oracle_float(value: float) -> str:
    if value != value:
        return "nan"
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return f"{value:.16e}"


def _oracle_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _oracle_float(value)
    if value is None:
        return "nan"
    return str(value)


def oracle_csv(header, rows) -> bytes:
    """The per-cell writer that ``write_csv`` replaced, byte for byte."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_oracle_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, columns)
        return path.read_bytes()


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300]
floats = st.one_of(st.sampled_from(SPECIALS), st.integers(0, 2**64 - 1).map(_from_bits))


def assert_matches_oracle(x, y, flag):
    columns = {
        "x": np.array(x, dtype=float),
        "y": np.array(y, dtype=float),
        "flag": np.array(flag, dtype=bool),
    }
    assert written(columns) == oracle_csv(columns, zip(x, y, flag))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(floats, floats, st.booleans()), max_size=40))
def test_random_bit_patterns_match_oracle(rows):
    x, y, flag = ([row[i] for row in rows] for i in range(3))
    assert_matches_oracle(x, y, flag)


def test_special_values_match_oracle():
    x = SPECIALS + SPECIALS[::-1]
    y = [-0.0, 0.0] * len(SPECIALS)
    assert_matches_oracle(x, y, [i % 3 == 0 for i in range(len(x))])


def test_signed_zeros_kept_apart():
    assert written({"z": [0.0, -0.0, 0.0]}) == (
        b"z\n0.0000000000000000e+00\n-0.0000000000000000e+00\n0.0000000000000000e+00\n"
    )


def test_header_only_for_empty_columns():
    assert written({"a": np.array([]), "b": np.array([], dtype=bool)}) == b"a,b\n"


@pytest.mark.parametrize(
    "columns",
    [
        {"a": [1.0, 2.0], "b": [1.0]},
        {"a": [1.0], "b": np.array([True, False])},
        {},
        {"a": np.array([1.0, None], dtype=object)},
        {"a": np.array(["1.0"])},
        {"a": np.array([1, 2])},
        {"a": np.array([1.0, 2.0], dtype=np.float32)},
        {"a": np.zeros((2, 2))},
        {"a": 1.0},
    ],
    ids=["unequal", "unequal-bool", "none", "object", "str", "int", "float32", "2-d", "0-d"],
)
def test_bad_columns_rejected(columns):
    with pytest.raises(ValidationError):
        written(columns)
