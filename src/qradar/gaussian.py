"""Multimode Gaussian states over quadratures.

Conventions, fixed globally for the whole toolkit:
    x = (a + a^dag)/sqrt(2),  p = -i(a - a^dag)/sqrt(2),  hbar = 1,
    vacuum variance 1/2, quadrature ordering (x1, p1, x2, p2, ...).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import GaussianChannel
from .errors import (
    DegenerateStateError,
    PhysicalityError,
    UnphysicalChannelError,
    ValidationError,
)

__all__ = [
    "GaussianState",
    "symplectic_form",
    "vacuum_state",
    "thermal_state",
    "symplectic_eigenvalues",
    "partial_transpose",
    "entropy_term",
    "von_neumann_entropy",
    "wigner",
    "sample",
    "apply_channel",
]

VACUUM_VARIANCE = 0.5


@functools.lru_cache(maxsize=None)
def _omega(n_modes: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.kron(np.eye(n_modes), j)
    out.setflags(write=False)
    return out


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    if n_modes < 1:
        raise ValidationError("n_modes must be a positive integer")
    return _omega(n_modes)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean quadrature vector and real symmetric covariance matrix over N modes."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValidationError("n_modes must be a positive integer")
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        dim = 2 * self.n_modes
        if mean.shape != (dim,):
            raise ValidationError(f"mean must have length {dim}, got {mean.shape}")
        if cov.shape != (dim, dim):
            raise ValidationError(f"cov must be {dim}x{dim}, got {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("state invariant violated: mean/cov must be finite")
        scale = max(1.0, abs(cov).max())
        if abs(cov - cov.T).max() > 1e-10 * scale:
            raise ValidationError("state invariant violated: cov is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    def is_physical(self, tol: float = 1e-9) -> bool:
        return min(symplectic_eigenvalues(self)) >= VACUUM_VARIANCE - tol

    def validate_physical(self, tol: float = 1e-9) -> "GaussianState":
        nu_min = min(symplectic_eigenvalues(self))
        if nu_min < VACUUM_VARIANCE - tol:
            raise PhysicalityError(
                "state invariant violated: cov + (i/2)Omega not PSD "
                f"(min symplectic eigenvalue {nu_min:.3e} < 1/2)"
            )
        return self


def vacuum_state(n_modes: int = 1) -> GaussianState:
    dim = 2 * n_modes
    return GaussianState(n_modes, np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def thermal_state(n_occupation: float, n_modes: int = 1) -> GaussianState:
    if n_occupation < 0:
        raise ValidationError("thermal occupation must be non-negative")
    dim = 2 * n_modes
    return GaussianState(n_modes, np.zeros(dim), (n_occupation + 0.5) * np.eye(dim))


def symplectic_eigenvalues(state: GaussianState | np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending, length N.

    The eigenvalues of Omega V come in +-(i nu) pairs; the magnitudes are
    collected, sorted, and the pairing halved.  A bare covariance is checked
    by wrapping it in a zero-mean :class:`GaussianState`.
    """
    if not isinstance(state, GaussianState):
        cov = np.asarray(state, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 or not cov.size:
            raise ValidationError(f"covariance must be square 2N x 2N, N >= 1, got {cov.shape}")
        state = GaussianState(cov.shape[0] // 2, np.zeros(cov.shape[0]), cov)
    eigs = np.linalg.eigvals(symplectic_form(state.n_modes) @ state.cov)
    return np.sort(np.abs(eigs))[::2]


def partial_transpose(state: GaussianState, mode_index: int) -> GaussianState:
    """Sign-flip the p quadrature of one mode (momentum reversal); involutive."""
    if not 0 <= mode_index < state.n_modes:
        raise ValidationError(
            f"mode_index {mode_index} out of range for {state.n_modes} modes"
        )
    t = np.ones(2 * state.n_modes)
    t[2 * mode_index + 1] = -1.0
    return GaussianState(state.n_modes, t * state.mean, t[:, None] * state.cov * t[None, :])


def entropy_term(nu: float) -> float:
    """h(x) = (x+1/2) log2(x+1/2) - (x-1/2) log2(x-1/2), with h(1/2) = 0.

    Arguments are clamped to [1/2, inf); values within 1e-12 of 1/2 are
    treated as exactly pure (floating-point eigenvalues dip microscopically
    below the vacuum bound).
    """
    x = max(float(nu), 0.5)
    if x - 0.5 < 1e-12:
        return 0.0
    return (x + 0.5) * math.log2(x + 0.5) - (x - 0.5) * math.log2(x - 0.5)


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in bits: sum of h over the symplectic spectrum."""
    state.validate_physical()
    return float(sum(entropy_term(nu) for nu in symplectic_eigenvalues(state)))


def wigner(state: GaussianState, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner density of a single-mode state on a rectangular grid.

    ``q`` and ``p`` are 1-d coordinate arrays; the result has shape
    (len(q), len(p)).  W = exp(-delta^T V^-1 delta / 2) / (2 pi sqrt(det V)).
    """
    if state.n_modes != 1:
        raise ValidationError("wigner expects a single-mode state")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValidationError("grid coordinates must be finite")
    det = float(np.linalg.det(state.cov))
    if det < 1e-300:
        raise DegenerateStateError(f"covariance is numerically singular (det = {det:.3e})")
    inv = np.linalg.inv(state.cov)
    dq = q[:, None] - state.mean[0]
    dp = p[None, :] - state.mean[1]
    quad = inv[0, 0] * dq**2 + 2.0 * inv[0, 1] * dq * dp + inv[1, 1] * dp**2
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    scale = max(1.0, abs(cov).max())
    for jitter in (0.0, 1e-15, 1e-13, 1e-12):
        try:
            return np.linalg.cholesky(cov + jitter * scale * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise ValidationError(
        "covariance is not positive semidefinite within the 1e-12 jitter budget"
    )


def sample(
    state: GaussianState,
    n_samples: int,
    seed,
    measurement_noise: bool = False,
) -> np.ndarray:
    """Draw i.i.d. quadrature records; deterministic for a fixed seed.

    ``seed`` may be an int, ``numpy.random.SeedSequence`` or ``Generator``.
    With ``measurement_noise`` the sampled covariance is cov + I/4.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    state.validate_physical()
    cov = state.cov + (0.25 * np.eye(2 * state.n_modes) if measurement_noise else 0.0)
    chol = _cholesky_with_jitter(cov)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, 2 * state.n_modes))
    return state.mean[None, :] + z @ chol.T


def _cp_defect(channel: GaussianChannel) -> float:
    """Most negative eigenvalue of Y + (i/2)(Omega - X Omega X^T); >= 0 is CP."""
    omega = symplectic_form(channel.n_modes)
    m = channel.Y + 0.5j * (omega - channel.X @ omega @ channel.X.T)
    return float(np.linalg.eigvalsh(m).min())


def apply_channel(state: GaussianState, channel: GaussianChannel) -> GaussianState:
    """Gaussian channel action: mean -> X mean, cov -> X cov X^T + Y.

    The channel is checked against the complete-positivity bound
    Y + (i/2)(Omega - X Omega X^T) >= 0 before application.
    """
    if channel.X.shape[0] != 2 * state.n_modes:
        raise ValidationError(
            f"channel acts on {channel.n_modes} modes but state has {state.n_modes}"
        )
    defect = _cp_defect(channel)
    if defect < -1e-9:
        raise UnphysicalChannelError(
            f"channel violates complete positivity (defect {defect:.3e}): {channel.description!r}"
        )
    mean = channel.X @ state.mean
    cov = channel.X @ state.cov @ channel.X.T + channel.Y
    return GaussianState(state.n_modes, mean, cov)
