"""Operating-point solver and steady-state gate shared by the converter models.

Both converters (:mod:`qradar.eom`, :mod:`qradar.oe`) have four DC unknowns
(A_s, C_s, P_s, X_s) and a linearized Langevin model of one three-mode layout,
whose drift and baths this module writes from each model's rates.  Each model
reduces its DC equations to the radiation-pressure bistability cubics, whose
real roots this module supplies, and hands the terms of its four DC equations
to the operating point's residual gate; this module also gates the steady
state, at one temperature or, through one Lyapunov basis per bath whose
stability and physicality are decided once, from its solution, at every
temperature of a threshold or temperature grid (:func:`qradar.sweeps.run_grid`
the rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, NoSteadyStateError, StiffnessError
from .gaussian import GaussianState, _eigvalsh_rounding, _positive_definite, _require_physical
from .langevin import LinearLangevinModel, _require_stable, diffusion_from_baths, is_stable
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


# Mode order of the drift and the baths: mediator ("mr": eom's resonator, oe's photodetector), OC, MC.
_MODE_INDEX = {"mr": 0, "oc": 1, "mc": 2}
_OC_MC = np.s_[..., 2:6, 2:6]  # the (OC, MC) rows and columns of a steady state or stack


def _drift(omega_x, gamma_x, g_c, kappa_c, delta_c, g_w, kappa_w, delta_w) -> np.ndarray:
    """The 6x6 drift in (q_x, p_x, X_c, Y_c, X_w, Y_w) order, the optical coupling g_c on
    its (q_x, X_c)/(Y_c, p_x) entries and the microwave coupling g_w on (p_x, X_w)/(Y_w, q_x)."""
    return np.array([
        [0.0, omega_x, g_c, 0.0, 0.0, 0.0],
        [-omega_x, -gamma_x, 0.0, 0.0, g_w, 0.0],
        [0.0, 0.0, -kappa_c, delta_c, 0.0, 0.0],
        [0.0, -g_c, -delta_c, -kappa_c, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kappa_w, delta_w],
        [g_w, 0.0, 0.0, 0.0, -delta_w, -kappa_w],
    ])


def _bath_rows(temperature, omega_x, gamma_x, omega_c, kappa_c, omega_w, kappa_w) -> list[tuple]:
    """The three modes' baths at ``temperature``, in mode order, as (omega, damping,
    temperature, kind) rows of :func:`~qradar.langevin.diffusion_from_baths`."""
    return [
        (omega_x, gamma_x, temperature, "mechanical"),
        (omega_c, kappa_c, temperature, "cavity"),
        (omega_w, kappa_w, temperature, "cavity"),
    ]


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


def _at_baths(baths: Sequence[tuple]) -> Callable[[int], str]:
    """Names member b of a stack over ``baths`` in an error by its bath's kind and frequency."""
    return lambda b: f"bath {b} ({baths[b][3]}, omega {baths[b][0]!r} rad/s): "


def _thermal_steady_state(
    drift: np.ndarray, baths: Sequence[tuple]
) -> Callable[[Sequence[float]], np.ndarray]:
    """Temperatures -> the (n, d, d) stack of :func:`steady_state` of the
    model with this ``drift`` and every bath at each temperature.

    ``baths`` are the model's (omega, damping, temperature, kind) rows, one
    per mode in the drift's mode order, as :func:`_bath_rows` writes them for
    the converters' layout; their own temperatures are not read.  Temperature
    enters only through their weights, D(T) = sum_b (2 N_b(T) + 1) D_b, and
    the Lyapunov equation is linear in D, so V(T) = sum_b (2 N_b(T) + 1) V_b
    with A V_b + V_b A^T + D_b = 0.  The V_b (one LU of the drift's system
    with a right-hand side per bath, each V_b held to the residual rule, a
    :class:`StiffnessError` naming its bath) are solved once; each D_b is
    solved scaled by a power of two to a largest entry in [1/2, 1), which is
    exact and keeps 1e-9 ||D_b|| from underflowing for a subnormal damping.

    Stability is settled once, from the solve and with no eigensolve of the
    drift (Lyapunov's theorem, :mod:`qradar.langevin`).  A system numpy finds
    singular (lambda_i + lambda_j = 0) has no steady state, and nor does a
    drift whose V(0) = sum_b V_b is not positive definite: both raise
    :class:`~qradar.errors.NoSteadyStateError`.  A V(0) that is positive
    definite certifies the drift Hurwitz.

    Physicality too is settled once.  The exact V_b of a Hurwitz drift, the
    integral of e^{At} D_b e^{A^T t} over t >= 0, is positive semidefinite,
    so a V_b with an eigenvalue below eigvalsh's rounding
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
    weighted sum, symmetric as each V_b is, held to the residual rule against
    D(T), naming the first temperature that fails.  A pair sliced from it
    needs no check of its own.
    """
    cold = diffusion_from_baths([(omega, damping, 0.0, kind) for omega, damping, _, kind in baths])
    # D_b: the rows of D(0) that belong to bath b's mode (D is block diagonal).
    mode = np.arange(len(cold)) // 2
    d_basis = (mode == np.arange(len(baths))[:, None])[:, :, None] * cold
    exponents = np.frexp(np.abs(d_basis).max(axis=(1, 2)))[1][:, None, None]
    d_unit = np.ldexp(d_basis, -exponents)
    v_unit = _solve_lyapunov(drift, d_unit)
    if np.isnan(v_unit).all():  # numpy found the system singular (_solve_or_nan)
        raise NoSteadyStateError("no steady state: the drift's Lyapunov system is singular")
    bath = _at_baths(baths)
    _check_residual(drift, d_unit, v_unit, bath)  # a failing V_b fails the model
    d_basis = d_basis.reshape(len(baths), -1)
    v_basis = np.ldexp(v_unit, exponents).reshape(len(baths), -1)

    def at(temperatures: Sequence[float]) -> np.ndarray:
        weights = np.array([[2.0 * thermal_occupation(omega, t) + 1.0 for omega, *_ in baths]
                            for t in temperatures])
        with np.errstate(over="ignore", invalid="ignore"):  # the residual gate fails a non-finite sum
            covs = (weights @ v_basis).reshape(-1, *cold.shape)
            diffusions = (weights @ d_basis).reshape(covs.shape)
        _check_residual(drift, diffusions, covs, _at_temperatures(temperatures))
        return covs

    cold_state = at([0.0])
    if not _positive_definite(cold_state)[0]:
        raise NoSteadyStateError(
            "temperature 0.0 K: no steady state: the Lyapunov solution V(0) is not positive definite"
        )
    lowest = np.linalg.eigvalsh(v_unit)[:, 0]
    inaccurate = lowest < -_eigvalsh_rounding(v_unit)
    if inaccurate.any():
        b = int(np.argmax(inaccurate))
        raise StiffnessError(
            f"{bath(b)}Lyapunov basis covariance V_b has eigenvalue "
            f"{lowest[b] / np.abs(v_unit[b]).max():.3e} max|V_b|, below its rounding "
            "(inaccurate solve)"
        )
    _require_physical(cold_state, _at_temperatures([0.0]))
    return at
