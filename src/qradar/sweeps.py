"""Converter grids as one stacked steady-state step, and threshold
root-finding (Brent).

A grid on any axis but temperature (which weighs the thresholds' Lyapunov
basis instead) checks its axis values once, against their field's declared
rule and for emptiness and order, where the converter takes the grid.  Its
builder then gives each point's drift and diffusion as arrays, with no bath
or model record; the stack is checked finite once, stability is decided
with one eigensolve over the drifts, each stable member's Lyapunov equation
is solved, and the residual and physical rules are applied once over the stack,
as :func:`qradar.converter.steady_state` does for one model.  A solve the
residual rule admits is finite and comes out symmetric, so it takes no
structural check.  Points run serially: GIL-bound 6x6 algebra gains only
dispatch cost from threads.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError, _valid
from .gaussian import _require_physical
from .langevin import _residual_gate, _solve_lyapunov, _stability

__all__ = ["run_grid", "bisect_threshold"]


def run_grid(
    build: Callable[[float], tuple[np.ndarray, np.ndarray]], grid: Sequence[float]
) -> list[np.ndarray | None]:
    """The steady-state covariance of the drift and diffusion ``build(value)``
    returns at each grid value, in grid order, each equal to
    :func:`~qradar.converter.steady_state` of the model made of them.

    ``build`` gives a (d, d) drift and a diagonal, non-negative (d, d)
    diffusion; the stack of them is checked finite once, and a point that
    is not raises :class:`ValidationError` naming the grid point.  A point
    yields None where it has no operating point (``build`` raises
    :class:`ConvergenceError`: delta_eg = 0, or no finite root), no steady
    state (a drift eigenvalue with real part >= -1e-12) or no accurate
    Lyapunov solution (residual above 1e-9 ||D||_inf).  Any other error
    propagates; an unphysical steady state raises the
    :class:`~qradar.errors.PhysicalityError` of the physical rule, naming the
    grid point.
    """
    grid = list(grid)
    points = {}
    for i, value in enumerate(grid):
        try:
            points[i] = build(value)
        except ConvergenceError:
            pass
    out = [None] * len(grid)
    if not points:
        return out
    index = np.array(list(points))
    drifts = np.array([drift for drift, _ in points.values()])
    diffusions = np.array([diffusion for _, diffusion in points.values()])
    finite = np.isfinite(drifts).all(axis=(1, 2)) & np.isfinite(diffusions).all(axis=(1, 2))
    if not finite.all():
        name = _at_grid_points(grid, index)
        raise ValidationError(f"{name(int(np.argmin(finite)))}drift and diffusion must be finite")
    stable = _stability(drifts)[0]
    index, drifts, diffusions = index[stable], drifts[stable], diffusions[stable]
    covs = _solve_lyapunov(drifts, diffusions)[0]
    accurate = _residual_gate(drifts, diffusions, covs)[1]
    index, covs = index[accurate], covs[accurate]
    _require_physical(covs, _at_grid_points(grid, index))
    for i, cov in zip(index, covs):
        out[i] = cov
    return out


def _at_grid_points(grid: Sequence[float], index: Sequence[int]) -> Callable[[int], str]:
    """Names member k of a stack over the points ``index`` of ``grid`` in an error."""
    return lambda k: f"grid point {index[k]} ({grid[index[k]]!r}): "


def bisect_threshold(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    resolution: float,
) -> float | None:
    """A sign change of ``fn`` from negative to >= 0, located to within
    resolution/2.

    ``resolution`` must be finite, and resolution/2 positive, else
    :class:`ValidationError`; it is checked before ``fn`` is evaluated.
    ``fn(lo)`` must be negative (else None is returned).  The bracket upper
    end doubles, at most 12 times, while ``fn(hi)`` is still negative;
    returns None if no sign change is found by then.  Brent's method then
    locates a sign change inside [lo, hi]; each distinct x is evaluated once.
    """
    from scipy import optimize  # loaded on first use: only thresholds need it

    xtol = _valid("resolution / 2", "positive", _valid("resolution", None, resolution) / 2)
    fn = functools.cache(fn)
    if fn(lo) >= 0.0:
        return None
    for _ in range(12):
        if fn(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        return None
    return optimize.brentq(fn, lo, hi, xtol=xtol)
