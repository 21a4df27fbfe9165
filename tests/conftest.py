"""Shared test helpers: random symplectics and random physical states, a
damped oscillator model (and its arrays, for grids); the definition-level
oracles that tests check shipped kernels against by another route (thermal
states, partial transposition, von Neumann entropy, the identity channel, the
covariance ODE and the ROC by ranks); a checked stack score built from the
library's rules; and the Hypothesis profile every property runs under."""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate
from scipy.linalg import expm

from qradar.channels import GaussianChannel
from qradar.criteria import _pt_nu_min
from qradar.gaussian import GaussianState, _require_physical, _symmetrised, entropy_term
from qradar.gaussian import symplectic_eigenvalues, symplectic_form
from qradar.langevin import LinearLangevinModel
from qradar.receiver import RocCurve

# Every property, present or future, draws the same examples on every run;
# each still sets its own max_examples (and deadline, where it needs one).
settings.register_profile("qradar", derandomize=True)
settings.load_profile("qradar")


def random_symplectic(rng: np.random.Generator, n_modes: int, scale: float = 0.6) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with H symmetric."""
    dim = 2 * n_modes
    h = rng.uniform(-scale, scale, (dim, dim))
    h = 0.5 * (h + h.T)
    return expm(symplectic_form(n_modes) @ h)


def random_physical_two_mode(rng: np.random.Generator, pure_fraction: float = 0.3) -> GaussianState:
    """Williamson-built random physical two-mode state (sometimes pure)."""
    if rng.uniform() < pure_fraction:
        nus = np.full(2, 0.5)
    else:
        nus = 0.5 + rng.exponential(0.7, size=2)
    diag = np.repeat(nus, 2)
    s = random_symplectic(rng, 2)
    cov = s @ np.diag(diag) @ s.T
    return GaussianState(2, np.zeros(4), cov)


def tmsv_cov(r: float) -> np.ndarray:
    c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
    sz = np.diag([1.0, -1.0])
    return 0.5 * np.block([[c2 * np.eye(2), s2 * sz], [s2 * sz, c2 * np.eye(2)]])


def damped(v: float) -> LinearLangevinModel:
    """A damped oscillator rotating at ``v`` whose steady state is (|v| + 1/2) I."""
    return LinearLangevinModel(np.array([[-1.0, v], [-v, -1.0]]), (2.0 * abs(v) + 1.0) * np.eye(2))


def damped_arrays(v: float) -> tuple[np.ndarray, np.ndarray]:
    """The drift and diffusion of :func:`damped`, as a grid builder gives them."""
    model = damped(v)
    return model.drift, model.diffusion


def thermal_state(n_occupation: float) -> GaussianState:
    """The one-mode thermal state: covariance (n + 1/2) I."""
    return GaussianState(1, np.zeros(2), (n_occupation + 0.5) * np.eye(2))


def partial_transpose(state: GaussianState, mode_index: int) -> GaussianState:
    """Sign-flip the p quadrature of one mode (momentum reversal); involutive."""
    t = np.ones(2 * state.n_modes)
    t[2 * mode_index + 1] = -1.0
    return GaussianState(state.n_modes, t * state.mean, t[:, None] * state.cov * t[None, :])


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in bits: sum of h over the symplectic spectrum."""
    return float(entropy_term(symplectic_eigenvalues(state)).sum())


def identity_channel(n_modes: int = 1) -> GaussianChannel:
    dim = 2 * n_modes
    return GaussianChannel(np.eye(dim), np.zeros((dim, dim)), "identity")


def two_eta_values(covs) -> np.ndarray:
    """2eta of each member of an (n, 4, 4) stack of unchecked covariances,
    each member held to the structural rule and the stack once to the
    physical rule, as a :class:`~qradar.criteria.BipartiteBlocks` is: errors
    name the member."""
    checked = [_symmetrised(cov, f"stack member {i}: cov", 4) for i, cov in enumerate(covs)]
    covs = np.array(checked).reshape(-1, 4, 4)
    _require_physical(covs)
    return 2.0 * _pt_nu_min(covs)


def propagate_cov(model: LinearLangevinModel, v0: np.ndarray, t: float) -> np.ndarray:
    """Integrate dV/dt = A V + V A^T + D from V0 to time t (DOP853, rtol 1e-9);
    an integration that fails or leaves float range fails the calling test."""
    a, d = model.drift, model.diffusion
    dim = len(a)

    def rhs(_t, y):
        v = y.reshape(dim, dim)
        return (a @ v + v @ a.T + d).ravel()

    atol = 1e-12 * max(1.0, abs(v0).max(), abs(d).max())
    sol = integrate.solve_ivp(rhs, (0.0, t), v0.ravel(), method="DOP853", rtol=1e-9, atol=atol)
    half = 0.5 * sol.y[:, -1].reshape(dim, dim)
    assert sol.success and np.isfinite(half).all(), sol.message
    return half + half.T


def roc_by_ranks(h0_samples, h1_samples) -> RocCurve:
    """The ROC of two non-empty finite sample sets by ranks: the distinct
    pooled values as thresholds (``np.unique``), and the samples of each set
    below each threshold by ``np.searchsorted``."""
    h0 = np.sort(np.asarray(h0_samples, dtype=float))
    h1 = np.sort(np.asarray(h1_samples, dtype=float))
    thresholds = np.unique(np.concatenate([h0, h1]))
    # P(stat >= t) via right-side ranks of the sorted samples.
    pfa = 1.0 - np.searchsorted(h0, thresholds, side="left") / h0.size
    pd = 1.0 - np.searchsorted(h1, thresholds, side="left") / h1.size
    pfa = np.concatenate([[1.0], pfa, [0.0]])
    pd = np.concatenate([[1.0], pd, [0.0]])
    thresholds = np.concatenate([[-np.inf], thresholds, [np.inf]])
    auc = float(np.trapezoid(pd[::-1], pfa[::-1]))
    return RocCurve(pfa=pfa, pd=pd, thresholds=thresholds, auc=auc)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
