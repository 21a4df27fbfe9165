"""Deterministic CSV/JSON artifact writers.

A CSV is written column-wise from an ordered mapping of header to 1-d
column: a float64 column is rendered with ``%.16e`` (17 significant digits;
``nan``, ``inf`` and ``-inf`` as such), a bool column as 1/0.  Rows are
formatted and written in fixed blocks, and each distinct bit pattern of a
column block is formatted once, so repeated runs are byte-identical and
``-0.0`` stays apart from ``0.0``.  JSON is sorted and indented.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError

FORMAT_VERSION = 1

__all__ = ["FORMAT_VERSION", "write_csv", "write_json", "config_hash"]


# Rows formatted and written at a time: the text of a block, not of the file,
# is held in memory.  The largest preset CSV (10 201 Wigner rows) is one block.
_BLOCK_ROWS = 1 << 16


def _column(name: str, values) -> np.ndarray:
    """``values`` as a column: 1-d float64 or bool, else :class:`ValidationError`."""
    column = np.asarray(values)
    if column.ndim != 1 or column.dtype not in (np.float64, np.bool_):
        raise ValidationError(
            f"CSV column {name!r} must be 1-d float64 or bool, "
            f"got {column.dtype} of shape {column.shape}"
        )
    return column


def _column_text(column: np.ndarray) -> np.ndarray:
    """The cells of a column as an object array of str."""
    # Floats are keyed on their bit pattern: as values, -0.0 == 0.0.
    spec, key = ("%d", column) if column.dtype == np.bool_ else ("%.16e", column.view(np.int64))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    text = ((spec + "\n") * len(first) % tuple(column[first].tolist())).split("\n")
    text.pop()
    return np.array(text, dtype=object)[inverse]


def write_csv(path: Path, columns) -> None:
    """Write ``columns``, an ordered mapping of header to 1-d column, as CSV.

    Raises :class:`ValidationError`, before the file is opened, unless there
    is at least one column, all columns have one length and each is float64
    or bool.
    """
    arrays = [_column(name, values) for name, values in columns.items()]
    if len({len(a) for a in arrays}) != 1:
        raise ValidationError(
            f"CSV columns must be at least one and of equal length, got lengths "
            f"{[len(a) for a in arrays]}"
        )
    row = ",".join(["%s"] * len(arrays)) + "\n"
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _BLOCK_ROWS):
            cells = [_column_text(a[start:start + _BLOCK_ROWS]) for a in arrays]
            f.write(row * len(cells[0]) % tuple(np.column_stack(cells).ravel().tolist()))


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        # NaN/inf are not valid JSON; store as strings.
        if obj != obj or obj in (math.inf, -math.inf):
            return str(obj)
        return obj
    return obj


def write_json(path: Path, obj: dict) -> None:
    path.write_text(
        json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def config_hash(normalized_config: dict) -> str:
    """Content hash of the normalized configuration (git-style sha)."""
    canonical = json.dumps(normalized_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
