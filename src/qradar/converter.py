"""Operating-point solver and steady-state gate shared by the converter models.

Both converters (:mod:`qradar.eom`, :mod:`qradar.oe`) have four DC unknowns
(A_s, C_s, P_s, X_s) and a linearized Langevin model.  Each model reduces its
DC equations to the radiation-pressure bistability cubics, whose real roots
this module supplies, and hands the terms of its four DC equations to the
operating point's residual gate; this module also gates the steady state, at
one temperature or, through one Lyapunov basis per bath, at any temperature
(a grid of models is gated as one stack by :func:`qradar.sweeps.run_grid`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, NoSteadyStateError, ValidationError
from .gaussian import GaussianState
from .langevin import BathSpec, LinearLangevinModel, diffusion_from_baths, is_stable
from .langevin import _check_residual, steady_state_cov

__all__ = ["OperatingPoint", "steady_state"]


@dataclass(frozen=True)
class OperatingPoint:
    """DC fixed point of a driven converter.

    ``residual`` is the largest per-equation relative residual: each DC
    equation's |sum of terms| over its largest |term|.  ``branches`` counts
    the real operating points at these parameters; more than one means the
    drive sits in a bistable region.
    """

    a_s: complex
    c_s: complex
    p_s: float
    x_s: float
    residual: float
    branches: int


def _require_finite(params) -> None:
    """:class:`ValidationError` naming the first non-finite field of a
    converter's parameters (NaN passes every ordering check after it)."""
    for name, value in vars(params).items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite")


def _response_roots(k: float, h: float, g: float, rhs: float) -> list[float]:
    """Real roots v of v (k^2 + (h - g v)^2) = rhs, nearest zero first.

    The steady state of a driven Lorentzian response whose detuning is pulled
    by the response itself (radiation pressure, Kerr): a cubic, linear when
    g = 0.  In w = g v / |k + ih| it reads w^3 + a w^2 + w = r with O(1)
    coefficients; Cardano's formula (one real root) or its trigonometric form
    (three) gives the roots, each polished by Newton steps.  The root nearest
    zero is the branch continuously connected to zero drive.
    """
    z2 = k * k + h * h
    if z2 == 0.0:
        raise ConvergenceError("no isolated operating point: a mode is undamped and on resonance")
    if g == 0.0:
        return [rhs / z2]
    z = math.sqrt(z2)
    a = -2.0 * h / z
    r = g * rhs / z2 / z
    # Depressed cubic t^3 + p t + q = 0 in t = w + a/3.
    p = 1.0 - a * a / 3.0
    q = a * (2.0 * a * a / 27.0 - 1.0 / 3.0) - r
    disc = 0.25 * q * q + p * p * p / 27.0
    if not disc < 0.0:  # one real root (NaN drive included)
        u = math.copysign((0.5 * abs(q) + math.sqrt(disc)) ** (1.0 / 3.0), -q)
        roots = [(u - p / (3.0 * u) if u else 0.0) - a / 3.0]
    else:
        rad = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * rad))))
        roots = [rad * math.cos((phi - 2.0 * math.pi * j) / 3.0) - a / 3.0 for j in range(3)]
    scale = z / g
    return sorted((scale * _polish(w, a, r) for w in roots), key=abs)


def _polish(w: float, a: float, r: float) -> float:
    """Newton steps on w^3 + a w^2 + w - r while they shrink its value."""
    f = ((w + a) * w + 1.0) * w - r
    for _ in range(4):
        slope = (3.0 * w + 2.0 * a) * w + 1.0
        if slope == 0.0:
            break
        w_new = w - f / slope
        f_new = ((w_new + a) * w_new + 1.0) * w_new - r
        if not abs(f_new) < abs(f):
            break
        w, f = w_new, f_new
    return w


def _gated_point(a, c, p, x, branches: int, equations) -> OperatingPoint:
    """The operating point (a, c, p, x), once each DC equation, given as its
    terms at the point in ``equations``, holds to |sum| / largest |term| <=
    1e-12; else a :class:`ConvergenceError` carries the largest ratio (NaN
    when a term is not finite)."""
    ratios = [abs(sum(terms)) / (max(map(abs, terms)) or 1.0) for terms in equations]
    residual = max(ratios) if all(r == r for r in ratios) else math.nan
    if not residual <= 1e-12:
        raise ConvergenceError(
            f"no accurate finite operating point (relative residual {residual:.3e})",
            residual=residual,
        )
    return OperatingPoint(a, c, p, x, residual, branches)


def _require_stable(model: LinearLangevinModel) -> None:
    stable, max_re = is_stable(model)
    if not stable:
        raise NoSteadyStateError(
            f"converter drift is unstable at these parameters (max Re {max_re:.3e})",
            eigenvalue=max_re,
        )


# A converter steady state may sit this far below the uncertainty bound.
_PHYSICAL_TOL = 1e-6


def _check_physical(cov: np.ndarray) -> None:
    n_modes = cov.shape[0] // 2
    GaussianState(n_modes, np.zeros(2 * n_modes), cov).validate_physical(_PHYSICAL_TOL)


def steady_state(model: LinearLangevinModel) -> np.ndarray:
    """Steady-state covariance of a converter model, checked physical.

    Raises :class:`NoSteadyStateError` when the drift is unstable and
    :class:`~qradar.errors.PhysicalityError` when the covariance is not
    positive definite or violates the uncertainty bound by more than 1e-6.
    """
    _require_stable(model)
    cov = steady_state_cov(model)
    _check_physical(cov)
    return cov


def _thermal_steady_state(
    model: LinearLangevinModel, baths: Sequence[BathSpec]
) -> Callable[[float], np.ndarray]:
    """T -> the :func:`steady_state` of ``model`` with every bath at T.

    ``baths`` are the model's baths, one per mode in mode order.  Temperature
    enters only through their weights: D(T) = sum_b (2 N_b(T) + 1) D_b, and
    the Lyapunov equation is linear in D, so V(T) = sum_b (2 N_b(T) + 1) V_b
    with A V_b + V_b A^T + D_b = 0.  The drift (and so the operating point it
    came from) and its stability are settled once, and each V_b is one
    :func:`~qradar.langevin.steady_state_cov` solve; a temperature then costs
    the weighted sum, gated as :func:`steady_state` gates a solve: residual
    against D(T) within 1e-9 ||D(T)||_inf, and physical to 1e-6.
    """
    _require_stable(model)
    cold = diffusion_from_baths([dataclasses.replace(b, temperature=0.0) for b in baths])
    basis = []
    for i in range(len(baths)):
        block = np.s_[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        d_b = np.zeros_like(cold)
        d_b[block] = cold[block]
        basis.append(steady_state_cov(LinearLangevinModel(model.drift, d_b, model.mode_labels)))
    basis = np.array(basis).reshape(len(baths), -1)

    def at(temperature: float) -> np.ndarray:
        hot = [dataclasses.replace(b, temperature=temperature) for b in baths]
        weights = np.array([2.0 * b.occupation() + 1.0 for b in hot])
        cov = (weights @ basis).reshape(cold.shape)
        _check_residual(model.drift, diffusion_from_baths(hot), cov)
        _check_physical(cov)
        return cov

    return at
