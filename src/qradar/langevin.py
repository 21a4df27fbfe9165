"""Linear quantum Langevin machinery shared by the converter models.

Assembles diffusion matrices from baths given as (omega, damping,
temperature, kind) rows (one diagonal formula, for a single model, a
temperature basis and a converter grid's points alike), decides stability,
and solves the steady-state Lyapunov equation A V + V A^T + D = 0 by
Bartels-Stewart behind a residual gate.  The stability test, the solve and
the residual gate each work over one model or a stack of drifts alike.

The solve calls LAPACK directly: ``dgees`` for the real Schur form of the
drift, once per distinct drift, and ``dtrsyl`` for each diffusion, in the
operation order of scipy.linalg's continuous Lyapunov solver, so the result
is bit-identical to it wherever ``dtrsyl`` does not scale the solution down
(:func:`_schur_solve`).  That wrapper's own overhead (a second ``gees`` call
per solve to size the workspace, finiteness checks of validated inputs, n-d
batching) costs about three times the two LAPACK calls on a 6x6 model.
scipy's LAPACK module is imported on the first solve, and only the
converters solve, so a run that solves none, such as a channel, receiver or
JPA scenario, loads no scipy.

Noise normalisation: this module uses the sqrt(2 kappa) input convention, so
a lone cavity block gets D = kappa (2 N + 1) I and relaxes to variance
N + 1/2.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoSteadyStateError, StiffnessError, ValidationError, _valid
from .gaussian import _member, _square, _symmetric_part, _symmetrised

__all__ = [
    "LinearLangevinModel",
    "Stability",
    "thermal_occupation",
    "diffusion_from_baths",
    "is_stable",
    "steady_state_cov",
]


_FLOAT_MAX = sys.float_info.max

# SI literals, so that no result follows the installed scipy's CODATA edition; m_e is CODATA 2022.
C_LIGHT = 299792458.0  # m/s
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s; h is exact, divided as scipy divides it
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

    Solves A V + V A^T + D = 0 by Bartels-Stewart with LAPACK ``dgees`` (real
    Schur form of A) and ``dtrsyl`` (the quasi-triangular Sylvester equation),
    called directly to skip scipy's wrapper overhead, and raises
    :class:`StiffnessError` when the Schur form is not found or the residual
    is not finite or exceeds 1e-9 ||D||_inf.  The residual gate, not a solver
    warning, decides: warnings raised by the solve are kept out of the
    caller's warning stream and quoted in the :class:`StiffnessError` message.
    """
    _require_stable(*is_stable(model))
    v, caught = _solve_lyapunov(model.drift, model.diffusion)
    _check_residual(model.drift, model.diffusion, v, caught)
    return v


def _solve_lyapunov(drifts: np.ndarray, diffusions: np.ndarray):
    """The symmetrised solution V of A V + V A^T + D = 0 for each (A, D) pair
    of (n, d, d) stacks, or for one (d, d) drift and one (d, d) diffusion or
    each of an (n, d, d) stack (the drift factored once), and the warnings the
    solves raised, kept out of the caller's warning stream."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if drifts.ndim == 2:
            v = _bartels_stewart(drifts, diffusions)
        else:
            v = [_bartels_stewart(a, d) for a, d in zip(drifts, diffusions)]
            v = np.array(v).reshape(diffusions.shape)  # (0, d, d) for an empty stack
    return _symmetric_part(v), caught


@functools.cache
def _gees_lwork(n: int) -> int:
    """The optimal ``dgees`` workspace for an n x n matrix (one LAPACK query;
    it depends on n only)."""
    from scipy.linalg import lapack  # loaded on first use: only a Lyapunov solve needs it

    return int(lapack.dgees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0])


def _no_sort(wr, wi):  # dgees requires a select callback; sort_t=0 never calls it
    return 0


def _bartels_stewart(drift: np.ndarray, diffusions: np.ndarray) -> np.ndarray:
    """scipy.linalg's Lyapunov solution for (drift, -D), step for step, for a
    (d, d) diffusion D or each member of an (n, d, d) stack, with one real
    Schur factorization A = U T U^T of the drift."""
    from scipy.linalg import lapack

    t, _, _, _, u, _, info = lapack.dgees(_no_sort, drift, lwork=_gees_lwork(len(drift)))
    if info > 0:  # a NaN solution, which the residual gate rejects, quoting this warning
        warnings.warn(f"no real Schur form of the drift (LAPACK dgees info {info})", RuntimeWarning)
        return np.full(diffusions.shape, np.nan)
    if diffusions.ndim == 2:
        return _schur_solve(t, u, diffusions)
    return np.array([_schur_solve(t, u, d) for d in diffusions])


def _schur_solve(t: np.ndarray, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """V = U Y U^T with T Y + Y T^T = U^T (-D) U (``dtrsyl``), warning as scipy
    does when it had to perturb T.  ``dtrsyl`` scales Y down only where it
    would overflow: that solution is a NaN, which the residual gate rejects,
    quoting the warning."""
    from scipy.linalg import lapack

    y, scale, info = lapack.dtrsyl(t, t, u.T.dot((-d).dot(u)), tranb="T")
    if info == 1:
        warnings.warn(
            'Input "a" has an eigenvalue pair whose sum is very close to or exactly '
            "zero. The solution is obtained via perturbing the coefficients.",
            RuntimeWarning,
        )
    if scale != 1.0:
        warnings.warn(f"Lyapunov solution beyond float range (LAPACK dtrsyl scale {scale:.3e})",
                      RuntimeWarning)
        return np.full(d.shape, np.nan)
    return u.dot(y).dot(u.T)


def _residual_gate(drifts, diffusions, v) -> tuple[np.ndarray, np.ndarray]:
    """The steady-state rule over (..., d, d) stacks: per member, the residual
    ||A V + V A^T + D||_inf and whether it is finite and within 1e-9 ||D||_inf
    (any finite residual when D = 0).  An admitted V is finite: a non-finite
    entry of V makes its whole column of A V, so of the residual, non-finite."""
    d_scale = np.abs(diffusions).max(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails below
        residual = np.abs(drifts @ v + v @ drifts.mT + diffusions).max(axis=(-2, -1))
    return residual, np.isfinite(residual) & ((residual <= 1e-9 * d_scale) | (d_scale == 0))


def _check_residual(drift, diffusion, v, caught=(), name=None) -> None:
    """:class:`StiffnessError` if ``v``, or a member of a stack, fails :func:`_residual_gate`,
    quoting the ``caught`` solver warnings and naming the first failing member (:func:`_member`)."""
    residual, accurate = _residual_gate(drift, diffusion, v)
    if not accurate.all():
        i = int(np.argmin(accurate))
        solver_said = "".join(f"; solver warning: {w.message}" for w in caught)
        raise StiffnessError(
            f"{_member(v, i, name)}Lyapunov residual {np.ravel(residual)[i]:.3e} is not within "
            f"1e-9 * ||D||_inf (severely ill-conditioned drift){solver_said}"
        )
