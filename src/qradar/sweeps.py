"""Converter grids as one stacked steady-state step, and threshold
root-finding (Brent).

A grid builds one Langevin model per point, then decides stability with one
eigensolve over the stack of drifts, solves each stable member's Lyapunov
equation and applies the residual and physical rules once over the stack:
the same rules, in the same order, as :func:`qradar.converter.steady_state`
applies to one model.  Points run serially: a converter point is GIL-bound
6x6 algebra, so a thread pool only adds dispatch cost.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .converter import _PHYSICAL_TOL
from .errors import ConvergenceError, ValidationError
from .gaussian import _physical_spectra, _symmetrised
from .langevin import LinearLangevinModel, _residual_gate, _solve_lyapunov, _stability

__all__ = ["run_grid", "bisect_threshold"]


def run_grid(
    build: Callable[[float], LinearLangevinModel], grid: Sequence[float]
) -> list[np.ndarray | None]:
    """The steady-state covariance of ``build(value)`` at each grid value, in
    grid order, each equal to :func:`~qradar.converter.steady_state` of that
    model alone.

    A point yields None where it has no operating point (``build`` raises
    :class:`ConvergenceError`: delta_eg = 0, or no finite root), no steady
    state (a drift eigenvalue with real part >= -1e-12) or no accurate
    Lyapunov solution (residual above 1e-9 ||D||_inf).  Any other error
    propagates; an unphysical steady state raises the
    :class:`~qradar.errors.PhysicalityError` of the physical rule, naming the
    grid point.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("sweep grid must not be empty")
    models = {}
    for i, value in enumerate(grid):
        try:
            models[i] = build(value)
        except ConvergenceError:
            pass
    out = [None] * len(grid)
    if not models:
        return out
    index = np.array(list(models))
    drifts = np.array([m.drift for m in models.values()])
    diffusions = np.array([m.diffusion for m in models.values()])
    stable = _stability(drifts)[0]
    index, drifts, diffusions = index[stable], drifts[stable], diffusions[stable]
    covs = _solve_lyapunov(drifts, diffusions)[0]
    accurate = _residual_gate(drifts, diffusions, covs)[1]
    index, covs = index[accurate], covs[accurate]
    try:
        _physical_spectra(_symmetrised(covs), _PHYSICAL_TOL)
    except ValidationError:
        for i, cov in zip(index, covs):  # name the first failing point
            try:
                _physical_spectra(_symmetrised(cov), _PHYSICAL_TOL)
            except ValidationError as exc:
                raise type(exc)(f"grid point {i} ({grid[i]!r}): {exc}") from exc
        raise
    for i, cov in zip(index, covs):
        out[i] = cov
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
    from scipy import optimize  # loaded on first use: only thresholds need it

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
