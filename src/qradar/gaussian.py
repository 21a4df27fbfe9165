"""Multimode Gaussian states over quadratures.

Conventions, fixed globally for the whole toolkit:
    x = (a + a^dag)/sqrt(2),  p = -i(a - a^dag)/sqrt(2),  hbar = 1,
    vacuum variance 1/2, quadrature ordering (x1, p1, x2, p2, ...).

One rule holds every matrix handed to the library: square 2N x 2N, N >= 1
(or the one size its caller fixes), real and finite (:func:`_square`); a
covariance, diffusion or channel noise matrix is also symmetric within 1e-10
of max(1, largest entry) and is stored as its symmetric part (M + M^T)/2, as
each Lyapunov solve is (:func:`_symmetrised`).  The physical rule
(V + i(1/2 - 1e-9)Omega positive definite, one tolerance for every state; one
Cholesky over an (n, d, d) stack) is written once here too, and so is the
rounding allowance of ``eigvalsh``: a channel's complete-positivity matrix and
a converter's temperature basis covariances are positive semidefinite within
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateStateError, PhysicalityError, ValidationError, _integer

__all__ = [
    "GaussianState",
    "symplectic_form",
    "vacuum_state",
    "symplectic_eigenvalues",
    "entropy_term",
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
        dim = 2 * self.n_modes
        if mean.shape != (dim,):
            raise ValidationError(f"mean must have length {dim}, got {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValidationError("state invariant violated: mean must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _symmetrised(self.cov, "state invariant violated: cov", dim))

    def validate_physical(self) -> "GaussianState":
        """The physical rule (:func:`_require_physical`)."""
        _require_physical(self.cov)
        return self


def _square(m, what: str, dim: int | None = None) -> np.ndarray:
    """A new finite float array of the real matrix ``m`` handed in as
    ``what``, which must be square 2N x 2N with N >= 1, and dim x dim when
    ``dim`` is given; else :class:`ValidationError`."""
    raw = np.asarray(m)
    if raw.dtype.kind == "c":  # float() would drop the imaginary part
        raise ValidationError(f"{what} must be real")
    try:
        out = np.array(raw, dtype=float)
    except OverflowError:  # an integer beyond float range
        raise ValidationError(f"{what} must be finite") from None
    n = out.shape[0] if out.ndim == 2 else 0
    if out.shape != (n, n) or n % 2 or not n or dim not in (None, n):
        rule = "square 2N x 2N, N >= 1"
        if dim is not None:
            rule = f"{dim}x{dim} ({rule})"
        raise ValidationError(f"{what} must be {rule}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValidationError(f"{what} must be finite")
    return out


def _asymmetric(m: np.ndarray) -> bool:
    """Whether a finite (d, d) matrix is asymmetric by more than 1e-10 of its
    largest entry (and of 1)."""
    return np.abs(m - m.T).max() > 1e-10 * np.abs(m).max(initial=1.0)


def _member(covs: np.ndarray, i: int, name: Callable[[int], str] | None = None) -> str:
    """Prefix naming member ``i`` in an error about a stack of several, or
    ``name(i)`` when a caller names its members itself."""
    if name is not None:
        return name(i)
    return f"stack member {i}: " if covs.ndim > 2 and len(covs) > 1 else ""


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2 of a (..., d, d) matrix or stack, exactly symmetric.  Halved
    first: M + M^T overflows above about 9e307."""
    half = 0.5 * m
    return half + half.mT


def _symmetrised(m, what: str, dim: int | None = None) -> np.ndarray:
    """The symmetric part of a :func:`_square` matrix handed in as ``what``
    that is not :func:`_asymmetric`; else :class:`ValidationError`."""
    out = _square(m, what, dim)
    if _asymmetric(out):
        raise ValidationError(f"{what} is not symmetric")
    return _symmetric_part(out)


def _require_physical(covs: np.ndarray, name: Callable[[int], str] | None = None) -> None:
    """The physical rule on a finite symmetric (2N, 2N) covariance or
    (n, 2N, 2N) stack (a state's, or a gated Lyapunov solve):
    each V + i(1/2 - 1e-9)Omega must be positive definite, one Cholesky over
    the stack.  By Williamson's theorem that is nu_min > 1/2 - 1e-9, and it
    implies V > 0; a mode pair of a passing state passes too (a principal
    submatrix), so it needs no second check.  A failing stack is factored
    member by member to name the first that fails (:func:`_member`).

    A failing state's message quotes its miss 1/2 - nu_min.  Near the bound,
    the verdict and the quoted miss are decided at rounding resolution,
    roughly eps * max|V|^2: on physical fig10 stacks with entries near 1e300,
    ``eigvals`` gives nu_min 1.229e-02.
    """
    bound = 1j * (VACUUM_VARIANCE - 1e-9) * _omega(covs.shape[-1] // 2)
    if _factors(covs + bound):
        return
    stack = covs if covs.ndim == 3 else covs[None]
    i = next(i for i, cov in enumerate(stack) if not _factors(cov + bound))
    prefix = f"{_member(covs, i, name)}state invariant violated: "
    if not _factors(stack[i]):
        raise PhysicalityError(f"{prefix}cov is not positive definite")
    miss = VACUUM_VARIANCE - _symplectic_spectra(stack[i])[0]
    raise PhysicalityError(
        f"{prefix}cov + (i/2)Omega not PSD (min symplectic eigenvalue {miss:.3e} below 1/2)"
    )


def _eigvalsh_rounding(m: np.ndarray) -> np.ndarray:
    """How far below an exact eigenvalue ``np.linalg.eigvalsh`` may place it,
    per member of a Hermitian (..., d, d) stack, d <= 6: p(d) eps ||M||_2 <=
    p(d) d eps max|M| (LAPACK Users' Guide, sec. 4.7), so 32 eps max|M| allows
    p(d) <= 8 at d <= 4 and p(d) <= 5 at d = 6.  Not finite where M is not."""
    return 32 * np.finfo(float).eps * np.abs(m).max(axis=(-2, -1))


def _factors(m: np.ndarray) -> bool:
    """Whether ``np.linalg.cholesky`` factors ``m``, every member of a stack."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def vacuum_state(n_modes: int = 1) -> GaussianState:
    dim = 2 * n_modes
    return GaussianState(n_modes, np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def symplectic_eigenvalues(state: GaussianState | np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending, length N.

    The eigenvalues of Omega V come in +-(i nu) pairs; the magnitudes are
    collected, sorted, and the pairing halved.  A bare covariance is held to
    the rule of a state's (:func:`_symmetrised`).
    """
    cov = state.cov if isinstance(state, GaussianState) else _symmetrised(state, "covariance")
    return _symplectic_spectra(cov)


def _symplectic_spectra(covs: np.ndarray) -> np.ndarray:
    """Symplectic spectra of a (..., 2N, 2N) stack, ascending along the last axis."""
    eigs = np.linalg.eigvals(_omega(covs.shape[-1] // 2) @ covs)
    return np.sort(np.abs(eigs), axis=-1)[..., ::2]


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


def wigner(state: GaussianState, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner density of a single-mode state on a rectangular grid.

    ``q`` and ``p`` are 1-d coordinate arrays; the result has shape
    (len(q), len(p)).  W = exp(-delta^T V^-1 delta / 2) / (2 pi sqrt(det V)).
    A grid reaching so far from the mean that the exponent is beyond float
    range is a :class:`ValidationError`.
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
    with np.errstate(over="ignore", invalid="ignore"):
        dq = q[:, None] - state.mean[0]
        dp = p[None, :] - state.mean[1]
        quad = inv[0, 0] * dq**2 + 2.0 * inv[0, 1] * dq * dp + inv[1, 1] * dp**2
    if not np.isfinite(quad).all():
        raise ValidationError(
            "grid reaches so far from the mean that the exponent is beyond float range"
        )
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``cov`` itself: a covariance that numpy cannot
    factor is an error, never a nudged nearby state."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateStateError(f"covariance is numerically singular: {exc}") from exc


def sample(state: GaussianState, n_samples: int, seed) -> np.ndarray:
    """Draw i.i.d. quadrature records of ``state``; deterministic for a fixed
    seed.

    ``seed`` may be an int, ``numpy.random.SeedSequence`` or ``Generator``.
    Records carry no added measurement noise: to draw with noise of
    covariance N, sample the state whose covariance is cov + N.
    """
    limit = np.iinfo(np.intp).max // (16 * state.n_modes)  # the largest (n_samples, 2N) array
    _integer("n_samples", n_samples, 1, limit)
    state.validate_physical()
    chol = _cholesky(state.cov)
    z = np.random.default_rng(seed).standard_normal((n_samples, 2 * state.n_modes))
    return state.mean[None, :] + z @ chol.T


def apply_channel(state: GaussianState, channel) -> GaussianState:
    """Gaussian channel action: mean -> X mean, cov -> X cov X^T + Y.

    ``channel`` is a :class:`~qradar.channels.GaussianChannel`, completely
    positive since it was made, so it is applied unchecked.
    """
    if channel.X.shape[0] != 2 * state.n_modes:
        raise ValidationError(
            f"channel acts on {channel.n_modes} modes but state has {state.n_modes}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite image fails as a state
        mean = channel.X @ state.mean
    return GaussianState(state.n_modes, mean, channel.act(state.cov))
