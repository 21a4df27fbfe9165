"""Deterministic parallel grid evaluation and threshold root-finding (Brent)."""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from scipy import optimize

from .errors import ValidationError

__all__ = ["run_grid", "bisect_threshold"]


def run_grid(fn: Callable, grid: Sequence, parallelism: int = 1) -> list:
    """Evaluate ``fn`` over ``grid``; output order follows the grid.

    Each point must be a pure function of its value; with ``parallelism`` > 1
    the points are dispatched to a bounded thread pool and reassembled by
    grid index, so results are identical to the serial run.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("sweep grid must not be empty")
    if parallelism < 1:
        raise ValidationError("parallelism must be >= 1")
    if parallelism == 1 or len(grid) == 1:
        return [fn(v) for v in grid]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, grid))


def bisect_threshold(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    resolution: float,
    max_expand: int = 12,
) -> float | None:
    """A sign change of ``fn`` from negative to >= 0, located to within
    resolution/2.

    ``fn(lo)`` must be negative (else None is returned).  The bracket upper
    end doubles up to ``max_expand`` times while ``fn(hi)`` is still
    negative; returns None if no sign change is found.  Brent's method then
    locates a sign change inside [lo, hi]; each distinct x is evaluated once.
    """
    fn = functools.cache(fn)
    if fn(lo) >= 0.0:
        return None
    for _ in range(max_expand):
        if fn(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        return None
    return optimize.brentq(fn, lo, hi, xtol=resolution / 2)
