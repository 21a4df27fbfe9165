"""Linear quantum Langevin machinery shared by the converter models.

Assembles drift/diffusion matrices from bath specifications, decides
stability, solves the steady-state Lyapunov equation A V + V A^T + D = 0 with
scipy's Bartels-Stewart solver behind a residual gate, and propagates
transient covariances.  The stability test, the solve and the residual gate
each work over one model or a stack of drifts alike.

Noise normalisation: this module uses the sqrt(2 kappa) input convention, so
a lone cavity block gets D = kappa (2 N + 1) I and relaxes to variance
N + 1/2.  (The parametric-amplifier module uses the sqrt(kappa) convention of
its own input-output relation and builds its diffusion directly.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np
from scipy import constants, linalg

from .errors import NoSteadyStateError, StiffnessError, ValidationError
from .gaussian import _asymmetric

__all__ = [
    "BathSpec",
    "LinearLangevinModel",
    "Stability",
    "thermal_occupation",
    "diffusion_from_baths",
    "is_stable",
    "steady_state_cov",
    "propagate_cov",
]


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean thermal photon number N = 1/(exp(hbar w / kB T) - 1); 0 at T = 0."""
    if not 0 < omega < math.inf:  # NaN fails this test too
        raise ValidationError("thermal_occupation requires a finite omega > 0")
    if not math.isfinite(temperature):
        raise ValidationError(f"temperature must be finite, got {temperature}")
    if temperature < 0:
        raise ValidationError("temperature must be non-negative")
    thermal_energy = constants.k * temperature
    if thermal_energy == 0.0:
        return 0.0
    x = constants.hbar * omega / thermal_energy
    if x > 60.0:
        return math.exp(-x) if x < 700.0 else 0.0
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class BathSpec:
    """One dissipative bath: mode frequency, damping rate, and temperature.

    ``kind`` selects the noise structure: a cavity mode receives isotropic
    input noise on both quadratures, a mechanical mode is Brownian with noise
    entering on the momentum quadrature only.
    """

    omega: float
    damping: float
    temperature: float
    kind: Literal["cavity", "mechanical"] = "cavity"

    def __post_init__(self):
        if self.omega <= 0:
            raise ValidationError("bath frequency must be positive")
        if self.damping < 0:
            raise ValidationError("bath damping must be non-negative")
        if self.temperature < 0:
            raise ValidationError("bath temperature must be non-negative")
        if self.kind not in ("cavity", "mechanical"):
            raise ValidationError(f"unknown bath kind {self.kind!r}")

    def occupation(self) -> float:
        return thermal_occupation(self.omega, self.temperature)


def diffusion_from_baths(baths: Sequence[BathSpec]) -> np.ndarray:
    """Block-diagonal diffusion matrix, one 2x2 block per bath/mode."""
    n = len(baths)
    d = np.zeros((2 * n, 2 * n))
    for i, bath in enumerate(baths):
        weight = bath.damping * (2.0 * bath.occupation() + 1.0)
        if bath.kind == "cavity":
            d[2 * i, 2 * i] = weight
            d[2 * i + 1, 2 * i + 1] = weight
        else:
            d[2 * i + 1, 2 * i + 1] = weight
    return d


@dataclass(frozen=True, eq=False)
class LinearLangevinModel:
    """Drift matrix, diffusion matrix and mode labels of u' = A u + n(t)."""

    drift: np.ndarray
    diffusion: np.ndarray
    mode_labels: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=float)
        d = np.asarray(self.diffusion, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise ValidationError(f"drift must be square 2N x 2N, got {a.shape}")
        if d.shape != a.shape:
            raise ValidationError("diffusion shape must match drift")
        if not (np.isfinite(a).all() and np.isfinite(d).all()):
            raise ValidationError("drift and diffusion must be finite")
        if _asymmetric(d):
            raise ValidationError("diffusion must be symmetric")
        d = 0.5 * (d + d.T)
        if np.linalg.eigvalsh(d).min() < -1e-10 * max(1.0, abs(d).max()):
            raise ValidationError("diffusion must be positive semidefinite")
        if len(self.mode_labels) != a.shape[0] // 2:
            raise ValidationError("one mode label per mode is required")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)
        object.__setattr__(self, "mode_labels", tuple(self.mode_labels))

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0] // 2


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


def steady_state_cov(model: LinearLangevinModel) -> np.ndarray:
    """Unique steady-state covariance of a stable model.

    Solves A V + V A^T + D = 0 with scipy's ``solve_continuous_lyapunov``
    (Bartels-Stewart) and raises :class:`StiffnessError` when the residual
    exceeds 1e-9 ||D||_inf.  The residual gate, not a solver warning, decides:
    warnings raised by the solve are kept out of the caller's warning stream
    and quoted in the :class:`StiffnessError` message.
    """
    stable, max_re = is_stable(model)
    if not stable:
        raise NoSteadyStateError(
            f"drift is not strictly stable (max Re eigenvalue {max_re:.6e})",
            eigenvalue=max_re,
        )
    v, caught = _solve_lyapunov(model.drift, model.diffusion)
    _check_residual(model.drift, model.diffusion, v, caught)
    return v


def _solve_lyapunov(drifts: np.ndarray, diffusions: np.ndarray):
    """The symmetrised solution V of A V + V A^T + D = 0 for one (d, d) pair
    or each member of (n, d, d) stacks, and the warnings the solves raised,
    kept out of the caller's warning stream."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if drifts.ndim == 2:
            v = linalg.solve_continuous_lyapunov(drifts, -diffusions)
        else:
            v = [linalg.solve_continuous_lyapunov(a, -d) for a, d in zip(drifts, diffusions)]
            v = np.array(v).reshape(drifts.shape)
    return 0.5 * (v + v.mT), caught


def _residual_gate(drifts, diffusions, v) -> tuple[np.ndarray, np.ndarray]:
    """The steady-state rule over (..., d, d) stacks: per member, the residual
    ||A V + V A^T + D||_inf and whether it is within 1e-9 ||D||_inf (always,
    when D = 0)."""
    d_scale = np.abs(diffusions).max(axis=(-2, -1))
    residual = np.abs(drifts @ v + v @ drifts.mT + diffusions).max(axis=(-2, -1))
    return residual, ~((d_scale > 0) & (residual > 1e-9 * d_scale))


def _check_residual(drift, diffusion, v, caught=()) -> None:
    """:class:`StiffnessError` when one steady state fails
    :func:`_residual_gate`, quoting the solver warnings ``caught``."""
    residual, accurate = _residual_gate(drift, diffusion, v)
    if not accurate:
        solver_said = "".join(f"; solver warning: {w.message}" for w in caught)
        raise StiffnessError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-9 * ||D||_inf "
            f"(severely ill-conditioned drift){solver_said}"
        )


def propagate_cov(model: LinearLangevinModel, v0: np.ndarray, t: float) -> np.ndarray:
    """Integrate dV/dt = A V + V A^T + D from V0 to time t (adaptive, rtol 1e-9)."""
    if t < 0:
        raise ValidationError("propagation time must be non-negative")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != model.drift.shape:
        raise ValidationError(f"V0 must match the drift shape {model.drift.shape}")
    if t == 0.0:
        return v0.copy()
    from scipy import integrate  # loaded on first use: only this path needs it

    a = model.drift
    d = model.diffusion
    dim = a.shape[0]

    def rhs(_t, y):
        v = y.reshape(dim, dim)
        return (a @ v + v @ a.T + d).ravel()

    atol = 1e-12 * max(1.0, abs(v0).max(), abs(d).max())
    sol = integrate.solve_ivp(
        rhs, (0.0, t), v0.ravel(), method="DOP853", rtol=1e-9, atol=atol
    )
    if not sol.success:
        raise StiffnessError(
            f"covariance ODE failed ({sol.message}); consider steady_state_cov"
        )
    v = sol.y[:, -1].reshape(dim, dim)
    return 0.5 * (v + v.T)
