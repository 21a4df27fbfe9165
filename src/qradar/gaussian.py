"""Multimode Gaussian states over quadratures.

Conventions, fixed globally for the whole toolkit:
    x = (a + a^dag)/sqrt(2),  p = -i(a - a^dag)/sqrt(2),  hbar = 1,
    vacuum variance 1/2, quadrature ordering (x1, p1, x2, p2, ...).

Each covariance rule is written once here, over one (d, d) matrix or an
(n, d, d) stack alike: the structural rule (finite, and symmetric within
1e-10 of max(1, largest entry), a test the Langevin diffusion and the channel
noise matrix share) and the physical rule (positive definite, and
nu_min >= 1/2 - tol).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DegenerateStateError,
    PhysicalityError,
    UnphysicalChannelError,
    ValidationError,
)

if TYPE_CHECKING:  # channels imports the symmetry rule from this module
    from .channels import GaussianChannel

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
        if not np.isfinite(mean).all():
            raise ValidationError("state invariant violated: mean must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _symmetrised(cov))

    def is_physical(self, tol: float = 1e-9) -> bool:
        try:
            self.validate_physical(tol)
        except PhysicalityError:
            return False
        return True

    def validate_physical(self, tol: float = 1e-9) -> "GaussianState":
        _physical_spectra(self.cov, tol)
        return self


def _asymmetric(covs: np.ndarray) -> np.ndarray:
    """Per member of a finite (..., d, d) array: asymmetric by more than 1e-10
    of its largest entry (and of 1)."""
    asymmetry = np.abs(covs - covs.mT).max(axis=(-2, -1))
    return asymmetry > 1e-10 * np.abs(covs).max(axis=(-2, -1), initial=1.0)


def _member(covs: np.ndarray, i: int) -> str:
    """Prefix naming member ``i`` in an error about a stack of several."""
    return f"stack member {i}: " if covs.ndim > 2 and len(covs) > 1 else ""


def _symmetrised(covs: np.ndarray) -> np.ndarray:
    """The structural rule on a (d, d) covariance or an (n, d, d) stack: each
    must be finite and not :func:`_asymmetric`.  Returns it symmetrised.

    Python's ``any`` over ``.flat`` reduces the per-member flags (and ``min``
    the spectra in :func:`_physical_spectra`): on one matrix they are numpy
    scalars, whose ``.any()`` costs more than the check itself.
    """
    if not np.isfinite(covs).all():
        i = int(np.argmin(np.isfinite(covs).all(axis=(-2, -1))))
        raise ValidationError(f"{_member(covs, i)}state invariant violated: cov must be finite")
    asymmetric = _asymmetric(covs)
    if any(asymmetric.flat):
        raise ValidationError(
            f"{_member(covs, int(np.argmax(asymmetric)))}"
            "state invariant violated: cov is not symmetric"
        )
    return 0.5 * (covs + covs.mT)


def _physical_spectra(covs: np.ndarray, tol: float) -> np.ndarray:
    """The physical rule on a symmetric (2N, 2N) covariance or (n, 2N, 2N)
    stack: each must be positive definite with nu_min >= 1/2 - ``tol``.
    Returns the symplectic spectra, ascending along the last axis.

    The symplectic spectrum, taken from |eig(Omega V)|, is the same for V and
    -V and can pass an indefinite V, so definiteness is tested first, by
    LAPACK's potrf: ``np.linalg.cholesky`` costs about five times as much on
    one 4x4 or 6x6 matrix.
    """
    for i, cov in enumerate(covs if covs.ndim == 3 else (covs,)):
        if lapack.dpotrf(cov, lower=1, clean=0)[1]:
            raise PhysicalityError(
                f"{_member(covs, i)}state invariant violated: cov is not positive definite"
            )
    nus = _symplectic_spectra(covs)
    if min(nus.flat, default=math.inf) < VACUUM_VARIANCE - tol:
        nu_min = nus[..., 0]
        i = int(np.argmax(nu_min < VACUUM_VARIANCE - tol))
        raise PhysicalityError(
            f"{_member(covs, i)}state invariant violated: cov + (i/2)Omega not PSD "
            f"(min symplectic eigenvalue {nu_min.flat[i]:.3e} < 1/2)"
        )
    return nus


def _validated_stack(covs, n_modes: int, tol: float = 1e-9):
    """Check a stack of covariances as :class:`GaussianState` and
    :meth:`~GaussianState.validate_physical` check one.

    ``covs`` has shape (n, 2N, 2N) with N = ``n_modes``.  Errors name the
    index of the first offending member of a stack of several.  Returns the
    symmetrised stack and its symplectic spectra, shape (n, N), ascending
    along the last axis.
    """
    dim = 2 * n_modes
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3 or covs.shape[1:] != (dim, dim):
        raise ValidationError(f"expected a stack of {dim}x{dim} covariances, got {covs.shape}")
    covs = _symmetrised(covs)
    return covs, _physical_spectra(covs, tol)


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
    return _symplectic_spectra(state.cov)


def _symplectic_spectra(covs: np.ndarray) -> np.ndarray:
    """Symplectic spectra of a (..., 2N, 2N) stack, ascending along the last axis."""
    eigs = np.linalg.eigvals(_omega(covs.shape[-1] // 2) @ covs)
    return np.sort(np.abs(eigs), axis=-1)[..., ::2]


def partial_transpose(state: GaussianState, mode_index: int) -> GaussianState:
    """Sign-flip the p quadrature of one mode (momentum reversal); involutive."""
    if not 0 <= mode_index < state.n_modes:
        raise ValidationError(
            f"mode_index {mode_index} out of range for {state.n_modes} modes"
        )
    t = np.ones(2 * state.n_modes)
    t[2 * mode_index + 1] = -1.0
    return GaussianState(state.n_modes, t * state.mean, t[:, None] * state.cov * t[None, :])


def entropy_term(nu):
    """h(x) = (x+1/2) log2(x+1/2) - (x-1/2) log2(x-1/2), with h(1/2) = 0.

    Elementwise on arrays; a scalar argument gives a float.  Arguments are
    clamped to [1/2, inf); values within 1e-12 of 1/2 are treated as exactly
    pure (floating-point eigenvalues dip microscopically below the vacuum
    bound).
    """
    lo = np.maximum(np.asarray(nu, dtype=float), 0.5) - 0.5
    pure = lo < 1e-12
    lo = np.where(pure, 0.5, lo)  # any point where log2 is finite; masked below
    hi = lo + 1.0
    h = np.where(pure, 0.0, hi * np.log2(hi) - lo * np.log2(lo))
    return float(h) if h.ndim == 0 else h


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in bits: sum of h over the symplectic spectrum."""
    state.validate_physical()
    return float(entropy_term(symplectic_eigenvalues(state)).sum())


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


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``cov`` itself: a covariance that numpy cannot
    factor is an error, never a nudged nearby state."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateStateError(f"covariance is numerically singular: {exc}") from exc


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
    chol = _cholesky(cov)
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
