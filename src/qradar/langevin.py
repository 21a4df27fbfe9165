"""Linear quantum Langevin machinery shared by the converter models.

Assembles diffusion matrices from baths given as (omega, damping,
temperature, kind) rows (one diagonal formula, for a single model, a
temperature basis and a converter grid's points alike), decides stability,
and solves the steady-state Lyapunov equation A V + V A^T + D = 0 behind a
residual gate.  The stability test, the solve and the residual gate each
work over one model or a stack of drifts alike.

The solve is numpy's: A V + V A^T = -D is linear in V, and V is symmetric,
so it is a system of d(d+1)/2 equations in V's upper triangle (21 for the
converters' 6x6 models), whose coefficients are gathered from A through one
index table per size (:func:`_vech_system`).  A stack of drifts is one
batched LU solve, and one drift with several diffusions (a temperature
basis) one LU with a right-hand side each.  On the converters' stiff points
it is within about 4e-12 max|V| of the exact solution, where a Schur-form
(Bartels-Stewart) solve was off by up to 1.65 max|V|.  It needs nothing
beyond numpy, so a converter run loads no more than any other run.

Noise normalisation: this module uses the sqrt(2 kappa) input convention, so
a lone cavity block gets D = kappa (2 N + 1) I and relaxes to variance
N + 1/2.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoSteadyStateError, StiffnessError, ValidationError, _valid
from .gaussian import _member, _square, _symmetrised

__all__ = [
    "LinearLangevinModel",
    "Stability",
    "thermal_occupation",
    "diffusion_from_baths",
    "is_stable",
    "steady_state_cov",
]


_FLOAT_MAX = sys.float_info.max

# SI literals, so that no result follows a library's CODATA edition; m_e is CODATA 2022.
C_LIGHT = 299792458.0  # m/s
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s; h is exact, divided as SciPy's constants divide it
E_CHARGE = 1.602176634e-19  # C
K_B = 1.380649e-23  # J/K
M_E = 9.1093837139e-31  # kg


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean thermal photon number N = 1/(exp(hbar w / kB T) - 1); 0 at T = 0.
    :class:`ValidationError` unless omega is positive and temperature
    non-negative, both finite, and where N exceeds float range, as when
    hbar w / kB T underflows to 0."""
    # NaN, inf and ints beyond float range fail this test; only then is the rule's message formed.
    if not (0 < omega <= _FLOAT_MAX and 0 <= temperature <= _FLOAT_MAX):
        omega = _valid("omega", "positive", omega)
        temperature = _valid("temperature", "non-negative", temperature)
    thermal_energy = K_B * temperature
    if thermal_energy == 0.0:
        return 0.0
    x = HBAR * omega / thermal_energy
    if x > 60.0:
        return math.exp(-x) if x < 700.0 else 0.0
    occupation = 1.0 / math.expm1(x) if x else math.inf  # x = 0: hbar w / kB T underflowed
    if occupation == math.inf:
        raise ValidationError(
            f"thermal occupation at omega {omega!r} rad/s and temperature {temperature!r} K "
            "exceeds float range"
        )
    return occupation


def diffusion_from_baths(baths: Sequence[tuple]) -> np.ndarray:
    """The diagonal diffusion of one bath per mode, each an (omega, damping,
    temperature, kind) row: the weight damping (2 N(omega, T) + 1) on both
    quadratures of a ``"cavity"`` mode, on the momentum of a ``"mechanical"``
    one, whose noise is Brownian.  :class:`ValidationError` if a row breaks
    a rule (omega positive, damping and temperature non-negative, all
    finite; a known kind) or a weight is not finite."""
    diagonal = []
    for omega, damping, temperature, kind in baths:
        if kind not in ("cavity", "mechanical"):
            raise ValidationError(f"unknown bath kind {kind!r}")
        if not 0 <= damping <= _FLOAT_MAX:  # the same cheap test as thermal_occupation's
            damping = _valid("damping", "non-negative", damping)
        weight = damping * (2.0 * thermal_occupation(omega, temperature) + 1.0)
        if not math.isfinite(weight):
            raise ValidationError(
                f"bath noise weight damping * (2 N + 1) is not finite (damping {damping!r}, "
                f"omega {omega!r} rad/s, temperature {temperature!r} K)"
            )
        diagonal += (weight if kind == "cavity" else 0.0, weight)
    return np.diag(diagonal)


@dataclass(frozen=True, eq=False)
class LinearLangevinModel:
    """Drift matrix and diffusion matrix of u' = A u + n(t): the drift is
    held to the rule of every matrix handed in (:func:`~qradar.gaussian._square`),
    the diffusion to a covariance's, at the drift's size
    (:func:`~qradar.gaussian._symmetrised`), and to be positive semidefinite."""

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        a = _square(self.drift, "drift")
        d = _symmetrised(self.diffusion, "diffusion", len(a))
        if np.linalg.eigvalsh(d).min() < -1e-10 * max(1.0, abs(d).max()):
            raise ValidationError("diffusion must be positive semidefinite")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)


class Stability(NamedTuple):
    stable: bool
    max_real_part: float


def _stability(drifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strict Hurwitz test over a (..., d, d) drift or stack of drifts:
    whether every eigenvalue has real part < -1e-12, and the largest real
    part, per member."""
    max_re = np.linalg.eigvals(drifts).real.max(axis=-1)
    return max_re < -1e-12, max_re


def is_stable(model: LinearLangevinModel) -> Stability:
    """Strict Hurwitz test: every drift eigenvalue has real part < -1e-12."""
    stable, max_re = _stability(model.drift)
    return Stability(bool(stable), float(max_re))


def _require_stable(stable: bool, max_re: float) -> None:
    """:class:`NoSteadyStateError` unless the drift passed the Hurwitz test
    (:func:`is_stable` or :func:`_stability` of one drift)."""
    if not stable:
        raise NoSteadyStateError(
            f"drift is unstable: max Re eigenvalue {max_re:.3e} is not below -1e-12",
            eigenvalue=max_re,
        )


def steady_state_cov(model: LinearLangevinModel) -> np.ndarray:
    """Unique steady-state covariance of a stable model; an unstable one
    raises :class:`NoSteadyStateError` (:func:`_require_stable`).

    Solves A V + V A^T + D = 0 as a linear system in the upper triangle of V
    (:func:`_solve_lyapunov`) and raises :class:`StiffnessError` when the
    residual is not finite or exceeds 1e-9 ||D||_inf.
    """
    _require_stable(*is_stable(model))
    v = _solve_lyapunov(model.drift, model.diffusion)
    _check_residual(model.drift, model.diffusion, v)
    return v


@functools.cache
def _vech_system(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index tables of A V + V A^T = -D as d(d+1)/2 equations (i, j),
    i <= j, in as many unknowns V_kl, k <= l, both in the row-major order of
    the upper triangle; then the flat indices of that triangle and of its
    mirror in a d x d matrix.

    Coefficient ((i, j), (k, l)) is the sum of two drift entries, the one at
    ``left[(i, j), (k, l)]`` from A V (A_ik where j = l, A_il where j = k < l)
    and the one at ``right`` from V A^T (A_jl where i = k, A_jk where
    i = l > k): flat indices into A, with d*d standing for an absent term (0).
    The two cases of each are exclusive, as k < l."""
    rows, cols = np.triu_indices(d)
    i, j, k, l = rows[:, None], cols[:, None], rows, cols
    absent = d * d
    left = np.where(j == l, i * d + k, np.where((j == k) & (k < l), i * d + l, absent))
    right = np.where(i == k, j * d + l, np.where((i == l) & (k < l), j * d + k, absent))
    return left, right, rows * d + cols, cols * d + rows


def _solve_lyapunov(drifts: np.ndarray, diffusions: np.ndarray) -> np.ndarray:
    """The solution V of A V + V A^T + D = 0 for each (A, D) pair of (n, d, d)
    stacks, or for one (d, d) drift and one (d, d) diffusion or each of an
    (n, d, d) stack (one LU of the drift's system, with a right-hand side per
    diffusion).  V is solved for in its upper triangle (:func:`_vech_system`,
    one batched ``np.linalg.solve``) and written to both, so it is symmetric
    by construction.  A singular system gives NaN for its member alone, and a
    solution beyond float range inf or NaN: the residual gate rejects both."""
    d = diffusions.shape[-1]
    left, right, upper, lower = _vech_system(d)
    flat = drifts.reshape(*drifts.shape[:-2], d * d)
    padded = np.concatenate((flat, np.zeros((*flat.shape[:-1], 1))), axis=-1)
    with np.errstate(over="ignore"):  # 2 A_ij may leave float range
        coefficients = padded.take(left, axis=-1) + padded.take(right, axis=-1)
    rhs = -diffusions.reshape(*diffusions.shape[:-2], d * d).take(upper, axis=-1)
    if drifts.ndim == 2:  # one system, one right-hand side per diffusion
        x = _solve_or_nan(coefficients, rhs.T).T
    else:
        x = _solve_or_nan(coefficients, rhs[..., None])[..., 0]
    v = np.empty(rhs.shape[:-1] + (d * d,))
    v[..., upper] = x
    v[..., lower] = x
    return v.reshape(diffusions.shape)


def _solve_or_nan(coefficients: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of a system or stack of systems; a singular one,
    which numpy refuses, gives NaN for its member alone."""
    try:
        return np.linalg.solve(coefficients, rhs)
    except np.linalg.LinAlgError:
        if coefficients.ndim == 2:
            return np.full(rhs.shape, np.nan)
        return np.array([_solve_or_nan(c, b) for c, b in zip(coefficients, rhs)])


def _residual_gate(drifts, diffusions, v) -> tuple[np.ndarray, np.ndarray]:
    """The steady-state rule over (..., d, d) stacks: per member, the residual
    ||A V + V A^T + D||_inf and whether it is finite and within 1e-9 ||D||_inf
    (any finite residual when D = 0).  An admitted V is finite: a non-finite
    entry of V makes its whole column of A V, so of the residual, non-finite."""
    d_scale = np.abs(diffusions).max(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails below
        residual = np.abs(drifts @ v + v @ drifts.mT + diffusions).max(axis=(-2, -1))
    return residual, np.isfinite(residual) & ((residual <= 1e-9 * d_scale) | (d_scale == 0))


def _check_residual(drift, diffusion, v, name=None) -> None:
    """:class:`StiffnessError` if ``v``, or a member of a stack, fails
    :func:`_residual_gate`, naming the first failing member (:func:`_member`)."""
    residual, accurate = _residual_gate(drift, diffusion, v)
    if not accurate.all():
        i = int(np.argmin(accurate))
        raise StiffnessError(
            f"{_member(v, i, name)}Lyapunov residual {np.ravel(residual)[i]:.3e} is not within "
            "1e-9 * ||D||_inf (severely ill-conditioned drift)"
        )
