"""Operating-point solver and steady-state gate shared by the converter models.

Both converters (:mod:`qradar.eom`, :mod:`qradar.oe`) have four DC unknowns
(A_s, C_s, P_s, X_s) and a linearized Langevin model.  Each model reduces its
DC equations to the radiation-pressure bistability cubics, whose real roots
this module supplies, and hands the terms of its four DC equations to the
operating point's residual gate; this module also gates the steady state, at
one temperature or, through one Lyapunov basis per bath whose physicality is
decided once, at every temperature of a threshold or temperature grid
(:func:`qradar.sweeps.run_grid` the rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, StiffnessError
from .gaussian import GaussianState, _eigvalsh_rounding, _require_physical, _symmetric_part
from .langevin import LinearLangevinModel, _require_stable, _stability, diffusion_from_baths, is_stable
from .langevin import _check_residual, _solve_lyapunov, steady_state_cov, thermal_occupation

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


def _check_physical(cov: np.ndarray) -> None:
    n_modes = cov.shape[0] // 2
    GaussianState(n_modes, np.zeros(2 * n_modes), cov).validate_physical()


def steady_state(model: LinearLangevinModel) -> np.ndarray:
    """Steady-state covariance of a converter model, checked physical.

    Raises :class:`~qradar.errors.NoSteadyStateError` when the drift is
    unstable and :class:`~qradar.errors.PhysicalityError` when the covariance
    is not positive definite or violates the uncertainty bound by more than
    1e-9.
    """
    _require_stable(*is_stable(model))
    cov = steady_state_cov(model)
    _check_physical(cov)
    return cov


def _at_temperatures(temperatures: Sequence[float]) -> Callable[[int], str]:
    """Names member i of a stack over ``temperatures`` in an error by its temperature."""
    return lambda i: f"temperature {temperatures[i]!r} K: "


def _thermal_weights(baths: Sequence[tuple], grid: Sequence[float]) -> np.ndarray:
    """The (n, len(baths)) weights 2 N_b(T) + 1 of a valid temperature grid."""
    return np.array([[2.0 * thermal_occupation(omega, t) + 1.0 for omega, *_ in baths] for t in grid])


def _thermal_steady_state(
    drift: np.ndarray, baths: Sequence[tuple]
) -> Callable[[Sequence[float]], np.ndarray]:
    """Temperatures -> the (n, d, d) stack of :func:`steady_state` of the
    model with this ``drift`` and every bath at each temperature.

    ``baths`` are the model's (omega, damping, temperature, kind) rows, one
    per mode in mode order, as :func:`~qradar.langevin.diffusion_from_baths`
    takes them; their own temperatures are not read.  Temperature
    enters only through their weights, D(T) = sum_b (2 N_b(T) + 1) D_b, and
    the Lyapunov equation is linear in D, so V(T) = sum_b (2 N_b(T) + 1) V_b
    with A V_b + V_b A^T + D_b = 0.  The drift's stability and the V_b (one
    solve on one Schur form of the drift, each held to the residual rule) are
    settled once; each D_b is solved scaled by a power of two to a largest
    entry in [1/2, 1), which is exact and keeps 1e-9 ||D_b|| from underflowing
    for a subnormal damping.

    Physicality too is settled once.  The exact V_b, the integral of e^{At}
    D_b e^{A^T t} over t >= 0, is positive semidefinite, so a V_b with an
    eigenvalue below eigvalsh's rounding
    (:func:`~qradar.gaussian._eigvalsh_rounding`) is an inaccurate solve, a
    :class:`StiffnessError` naming its bath.  V(0), formed as any V(T) is, is
    held to the physical rule ("temperature 0.0 K: ...").  Then V(T) - V(0) =
    sum_b (w_b - 1) V_b >= 0, with w_b = 2 N_b(T) + 1 >= 1, makes every V(T)
    pass, up to the V_b's rounding allowance and the weighted sum's own
    rounding: together within about 100 eps max|V(T)| (a positive semidefinite
    matrix's largest entry is on its diagonal, where the w_b V_b add), the
    order of the Cholesky's own backward error, so V(T) is decided at the
    rule's own resolution, about eps max|V|^2
    (:func:`~qradar.gaussian._require_physical`).  The residual rule is not
    settled once: the V_b's residuals add up within 1e-9 ||D(T)|| only if each
    is within 1e-9 ||D_b|| over the number of baths, a gate that some points
    passing at every temperature fail.  So a stack of temperatures is one
    weighted sum, symmetrised, held to the residual rule against D(T), naming
    the first temperature that fails.  A pair sliced from it needs no check of
    its own.
    """
    _require_stable(*_stability(drift))
    cold = diffusion_from_baths([(omega, damping, 0.0, kind) for omega, damping, _, kind in baths])
    # D_b: the rows of D(0) that belong to bath b's mode (D is block diagonal).
    mode = np.arange(len(cold)) // 2
    d_basis = (mode == np.arange(len(baths))[:, None])[:, :, None] * cold
    exponents = np.frexp(np.abs(d_basis).max(axis=(1, 2)))[1][:, None, None]
    d_unit = np.ldexp(d_basis, -exponents)
    v_unit, caught = _solve_lyapunov(drift, d_unit)
    _check_residual(drift, d_unit, v_unit, caught, lambda b: "")  # a failing V_b fails the model
    lowest = np.linalg.eigvalsh(v_unit)[:, 0]
    inaccurate = lowest < -_eigvalsh_rounding(v_unit)
    if inaccurate.any():
        b = int(np.argmax(inaccurate))
        raise StiffnessError(
            f"bath {b} ({baths[b][3]}, omega {baths[b][0]!r} rad/s): Lyapunov basis covariance V_b "
            f"has eigenvalue {lowest[b] / np.abs(v_unit[b]).max():.3e} max|V_b|, below its rounding "
            "(inaccurate solve)"
        )
    d_basis = d_basis.reshape(len(baths), -1)
    v_basis = np.ldexp(v_unit, exponents).reshape(len(baths), -1)

    def at(temperatures: Sequence[float]) -> np.ndarray:
        weights = _thermal_weights(baths, temperatures)
        with np.errstate(over="ignore", invalid="ignore"):  # the residual gate fails a non-finite sum
            covs = _symmetric_part((weights @ v_basis).reshape(-1, *cold.shape))
            diffusions = (weights @ d_basis).reshape(covs.shape)
        _check_residual(drift, diffusions, covs, (), _at_temperatures(temperatures))
        return covs

    _require_physical(at([0.0]), _at_temperatures([0.0]))
    return at
