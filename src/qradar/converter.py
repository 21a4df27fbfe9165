"""Operating-point solver and steady-state gate shared by the converter models.

Both converters (:mod:`qradar.eom`, :mod:`qradar.oe`) have four DC unknowns
(A_s, C_s, P_s, X_s) and a linearized Langevin model.  Each model supplies
its fixed-point map, its four DC equations, its drift and its baths; this
module solves the operating point and gates the steady state, at one
temperature or, through one Lyapunov basis per bath, at any temperature.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .errors import ConvergenceError, NoSteadyStateError
from .gaussian import GaussianState
from .langevin import BathSpec, LinearLangevinModel, diffusion_from_baths, is_stable
from .langevin import _check_residual, steady_state_cov

__all__ = ["OperatingPoint", "solve_operating_point", "steady_state"]


@dataclass(frozen=True)
class OperatingPoint:
    """DC fixed point of a driven converter; ``residual`` is relative."""

    a_s: complex
    c_s: complex
    p_s: float
    x_s: float
    residual: float


def _relative_residual(f, scale: float) -> float:
    """max|f_i| / ``scale`` of the four DC equations, NaN when any f_i is NaN:
    Python's max skips a NaN that is not its first argument, a sum does not."""
    f1, f2, f3, f4 = f
    m1, m2, m3, m4 = abs(f1), abs(f2), abs(f3), abs(f4)
    if math.isnan(m1 + m2 + m3 + m4):
        return math.nan
    return max(m1, m2, m3, m4) / scale


def solve_operating_point(
    params,
    update: Callable,
    equations: Callable,
    scale: float,
    max_iter: int,
) -> OperatingPoint:
    """Solve ``equations(params, a, c, p, x) == (0, 0, 0, 0)``.

    Damped fixed-point iteration of ``update(params, a, c, p, x)`` from the
    zero-drive solution (which tracks the continuously connected branch),
    with Powell's hybrid root finder on the same equations as fallback after
    ``max_iter`` steps.  The relative residual is max|f| / ``scale``; above
    1e-9 a :class:`ConvergenceError` carrying it is raised, at once when the
    iteration overflows to a non-finite residual.
    """
    # Four scalar locals: packing them into a tuple per step costs more than
    # the arithmetic of one step.
    a = 0.0 + 0.0j
    c = 0.0 + 0.0j
    p = 0.0
    x = 0.0
    for _ in range(max_iter):
        a_new, c_new, p_new, x_new = update(params, a, c, p, x)
        a = 0.5 * a + 0.5 * a_new
        c = 0.5 * c + 0.5 * c_new
        p = 0.5 * p + 0.5 * p_new
        x = 0.5 * x + 0.5 * x_new
        residual = _relative_residual(equations(params, a, c, p, x), scale)
        if residual <= 1e-9:
            return OperatingPoint(a, c, p, x, residual)
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"operating point iteration diverged (relative residual {residual})",
                residual=residual,
            )

    def system(v):
        f1, f2, f3, f4 = equations(params, v[0] + 1j * v[1], v[2] + 1j * v[3], v[4], v[5])
        return [f1.real, f1.imag, f2.real, f2.imag, f3, f4]

    sol = optimize.root(system, [a.real, a.imag, c.real, c.imag, p, x], method="hybr")
    a = sol.x[0] + 1j * sol.x[1]
    c = sol.x[2] + 1j * sol.x[3]
    p, x = sol.x[4], sol.x[5]
    residual = _relative_residual(equations(params, a, c, p, x), scale)
    if not residual <= 1e-9:  # NaN-safe
        raise ConvergenceError(
            f"operating point did not converge (relative residual {residual:.3e}); "
            "the drive may sit in a bistable region",
            residual=residual,
        )
    return OperatingPoint(a, c, p, x, residual)


def _require_stable(model: LinearLangevinModel) -> None:
    stable, max_re = is_stable(model)
    if not stable:
        raise NoSteadyStateError(
            f"converter drift is unstable at these parameters (max Re {max_re:.3e})",
            eigenvalue=max_re,
        )


def _check_physical(cov: np.ndarray) -> None:
    n_modes = cov.shape[0] // 2
    GaussianState(n_modes, np.zeros(2 * n_modes), cov).validate_physical(1e-6)


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
