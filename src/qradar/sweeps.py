"""Converter grids as one stacked steady-state step, and threshold
root-finding (Brent's method, step for step as SciPy's ``brentq``).

A grid on any axis but temperature (which weighs the thresholds' Lyapunov
basis instead) checks its axis values once, against their field's declared
rule and for emptiness and order, where the converter takes the grid.  Its
builder then gives each point's drift and diffusion as arrays, with no bath
or model record; the stack is checked finite once, every member's Lyapunov
equation is solved, and the residual rule, then positive definiteness, then
the physical rule are applied once over the stack.  No drift eigensolve
decides stability: a positive definite solution is itself the certificate
that the drift is Hurwitz (Lyapunov's theorem, :mod:`qradar.langevin`), and
the physical rule's one Cholesky over the stack implies it, so a stack with
no failing member pays for one factorization.  A solve the residual rule
admits is finite and comes out symmetric, so it takes no structural check.
The grid hands on the positions that kept a steady state
and one stack of those states; the converter scores the stack and places
each record by its position.  Points run serially: GIL-bound 6x6 algebra
gains only dispatch cost from threads.

A threshold brackets its sign change, then runs Brent's method (Brent 1973,
ch. 4) in Python floats, step for step as SciPy's ``brentq.c`` at its
defaults: importing SciPy's optimizers for that loop would cost more start-up
time and memory than a whole threshold.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError, _valid
from .gaussian import _physical, _positive_definite, _require_physical
from .langevin import _residual_gate, _solve_lyapunov

__all__ = ["run_grid", "bisect_threshold"]


def run_grid(
    build: Callable[[float], tuple[np.ndarray, np.ndarray]], grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The grid positions that have a steady state, ascending, and the
    (m, d, d) stack of their steady-state covariances for the drift and
    diffusion ``build(value)`` returns there, each equal to
    :func:`~qradar.converter.steady_state` of the model made of them.

    ``build`` gives a (d, d) drift and a diagonal, non-negative (d, d)
    diffusion; the stack of them is checked finite once, and a point that
    is not raises :class:`ValidationError` naming the grid point.  A point
    is left out where it has no operating point (``build`` raises
    :class:`ConvergenceError`: delta_eg = 0, or no finite root), no accurate
    Lyapunov solution (residual above 1e-9 ||D||_inf, or not finite, as
    where numpy finds the system singular: lambda_i + lambda_j = 0) or no
    steady state (a solution that is not positive definite, so no
    certificate that the drift is Hurwitz); where every point is, the stack
    is empty, (0, d, d), or (0, 0, 0) if no point built.  Any other error
    propagates; a positive definite but unphysical steady state raises the
    :class:`~qradar.errors.PhysicalityError` of the physical rule, naming the
    grid point.  A drift whose eigenvalues the one-model chain's test reads
    at rounding level (:func:`~qradar.langevin.is_stable`) is decided here
    by its solution alone.
    """
    grid = list(grid)
    points = {}
    for i, value in enumerate(grid):
        try:
            points[i] = build(value)
        except ConvergenceError:
            pass
    index = np.array(list(points), dtype=int)
    if not points:
        return index, np.empty((0, 0, 0))
    drifts = np.array([drift for drift, _ in points.values()])
    diffusions = np.array([diffusion for _, diffusion in points.values()])
    finite = np.isfinite(drifts).all(axis=(1, 2)) & np.isfinite(diffusions).all(axis=(1, 2))
    if not finite.all():
        name = _at_grid_points(grid, index)
        raise ValidationError(f"{name(int(np.argmin(finite)))}drift and diffusion must be finite")
    covs = _solve_lyapunov(drifts, diffusions)
    accurate = _residual_gate(drifts, diffusions, covs)[1]
    index, covs = index[accurate], covs[accurate]
    if not _physical(covs):
        steady = _positive_definite(covs)
        index, covs = index[steady], covs[steady]
        _require_physical(covs, _at_grid_points(grid, index))
    return index, covs


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
    ``fn`` takes and returns a float.  ``fn(lo)`` must be negative (else None
    is returned).  The bracket upper end doubles, at most 12 times, while
    ``fn(hi)`` is still negative; returns None if no sign change is found by
    then.  Brent's method, with xtol resolution/2, then locates a sign change
    inside [lo, hi], each iterate bit for bit the one SciPy's ``brentq``
    evaluates; each distinct x is evaluated once.  A NaN value of ``fn``, or
    Brent's method still short of xtol after 100 iterations, raises
    :class:`ConvergenceError` naming x.
    """
    xtol = _valid("resolution / 2", "positive", _valid("resolution", None, resolution) / 2)
    f_lo = _value(fn, lo)
    if f_lo >= 0.0:
        return None
    for _ in range(12):
        f_hi = _value(fn, hi)
        if f_hi >= 0.0:
            break
        hi *= 2.0
    else:
        return None
    return _brent(fn, lo, hi, f_lo, f_hi, xtol)


_RTOL = 4.0 * sys.float_info.epsilon  # brentq's default and least rtol
_MAXITER = 100  # brentq's default


def _value(fn: Callable[[float], float], x: float) -> float:
    """``fn(x)`` as a float, or :class:`ConvergenceError` naming x if NaN."""
    value = float(fn(x))
    if value != value:
        raise ConvergenceError(f"threshold function is NaN at x={x!r}")
    return value


def _brent(
    fn: Callable[[float], float], xpre: float, xcur: float, fpre: float, fcur: float, xtol: float
) -> float:
    """A root of ``fn`` in the bracket [xpre, xcur], whose values fpre and
    fcur the caller has evaluated (fpre nonzero, fcur zero or of the other
    sign, neither NaN): SciPy's ``brentq.c``, step for step, so each x
    evaluated and the result are bit for bit brentq's at rtol 4 eps (fcur
    zero returns xcur at the first convergence test, as brentq does before
    its loop).  :class:`ConvergenceError` after :data:`_MAXITER` iterations."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)  # 0 where tiny f values underflow
                # C divides by 0 to inf or NaN, which the step test refuses.
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(fn, xcur)
    raise ConvergenceError(
        f"Brent's method did not reach xtol {xtol!r} in {_MAXITER} iterations; last x={xcur!r}"
    )
