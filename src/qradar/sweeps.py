"""Grid evaluation with failed-point marking, and threshold root-finding
(Brent).

Sweeps run serially: a converter point is GIL-bound 4x4/6x6 algebra, so a
thread pool only adds dispatch cost.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from scipy import optimize

from .errors import ConvergenceError, NoSteadyStateError, StiffnessError, ValidationError

__all__ = ["run_grid", "bisect_threshold"]


def run_grid(fn: Callable, grid: Sequence) -> list:
    """Evaluate ``fn`` over ``grid``; output order follows the grid.

    A point where the converter has no steady state (:class:`NoSteadyStateError`),
    no operating point (:class:`ConvergenceError`: delta_eg = 0, or no finite
    root) or no accurate Lyapunov solution (:class:`StiffnessError`) yields
    None; any other error propagates.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("sweep grid must not be empty")
    out = []
    for value in grid:
        try:
            out.append(fn(value))
        except (NoSteadyStateError, ConvergenceError, StiffnessError):
            out.append(None)
    return out


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
