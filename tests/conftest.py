"""Shared test helpers: random symplectics and random physical states, a
damped oscillator model (and its arrays, for grids); the definition-level
oracles that tests check shipped kernels against by another route (thermal
states, partial transposition, von Neumann entropy, the identity channel, the
covariance ODE, the ROC by ranks, each converter's drift as a hand-written
literal and both illuminations' statistics one hypothesis at a time); the
exact Lyapunov solve, physical rule and two-mode spectrum of ``exact``,
re-exported; a checked stack score built from the library's rules; and the
Hypothesis profile every property runs under."""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate
from scipy.linalg import expm

from exact import lyapunov_exact, physical_exact, two_mode_spectrum_exact  # noqa: F401  (re-exported)
from qradar.channels import GaussianChannel
from qradar.criteria import _pt_nu_min
from qradar.errors import UndefinedQuantityError
from qradar.gaussian import GaussianState, _cholesky, _require_physical, _symmetrised, apply_channel
from qradar.gaussian import entropy_term, symplectic_eigenvalues, symplectic_form
from qradar.langevin import LinearLangevinModel
from qradar.receiver import DetectionSamples, RocCurve

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


def detection_oracle(scenario, illumination: str) -> DetectionSamples:
    """The statistics of ``run_detection`` (illumination "qi") or
    ``ci_baseline`` ("ci") one hypothesis at a time, as the receiver drew them
    before it stacked the two: the source and each record a GaussianState
    (the record made by apply_channel), and each statistic from its own
    Cholesky factor, eigh and solve, H1 first, then H0.  CI keeps the
    cross-correlator's x_R x_I + p_R p_I that ci_baseline scored before it
    took QI's x_R x_I - p_R p_I."""
    if illumination == "qi":
        source = GaussianState(2, np.zeros(4), tmsv_cov(scenario.r))
        form = np.zeros((4, 4))
        form[0, 2] = form[2, 0] = 0.5
        form[1, 3] = form[3, 1] = -0.5
    else:
        amplitude = math.sqrt(2.0) * math.sinh(scenario.r)
        source = GaussianState(2, [amplitude, 0.0, amplitude, 0.0], 0.5 * np.eye(4))
        form = np.zeros((4, 4))
        form[0, 2] = form[2, 0] = form[1, 3] = form[3, 1] = 0.5
    if scenario.detector == "energy_detector":
        form = np.diag([1.0, 1.0, 0.0, 0.0])
    channels = (scenario.signal_channel, scenario.background_channel)
    records = [apply_channel(source, channel.expand(0, 2)) for channel in channels]
    noise = 0.5 * np.eye(4) if scenario.heterodyne else 0.0
    rng = np.random.default_rng(scenario.seed)
    k, n = scenario.samples_per_decision, scenario.n_decisions
    h1, h0 = (_statistic_oracle(rng, state.mean, state.cov + noise, form, k, n) for state in records)
    return DetectionSamples(h0=h0, h1=h1)


def _statistic_oracle(rng, mean, cov, form, k: int, n: int) -> np.ndarray:
    """n exact draws of (1/k) sum_i x_i^T A x_i with x_i ~ N(mean, cov) i.i.d.,
    as noncentral chi-squares weighted by the eigenvalues of L^T A L."""
    chol = _cholesky(cov)
    lam, u = np.linalg.eigh(chol.T @ form @ chol)
    c = u.T @ np.linalg.solve(chol, mean)
    with np.errstate(over="ignore", invalid="ignore"):
        noncentrality = k * c**2
        if noncentrality.any():
            draws = rng.noncentral_chisquare(k, noncentrality, size=(n, lam.size))
        else:
            draws = rng.chisquare(k, size=(n, lam.size))
        stat = draws @ lam / k
    if not np.isfinite(stat).all():
        raise UndefinedQuantityError("the decision statistic is beyond float range")
    return stat


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def eom_drift_literal(params, op_point) -> np.ndarray:
    """The electro-opto-mechanical drift written out entry by entry, as
    eom.drift_matrix wrote it before both converters shared the layout
    template converter._drift.  Its (p_x, Y_w) entry is -G11, so -0.0."""
    dc = params.delta_c
    dw = params.delta_w
    c_s = abs(op_point.c_s)
    j2 = params.g2 * dw
    g1s2 = math.sqrt(2.0) * params.g1
    g11 = 0.0                        # -sqrt(2) j2 Im{C_s}, zero by phase convention
    g22 = math.sqrt(2.0) * j2 * c_s  # sqrt(2) j2 Re{C_s}
    kappa_w1 = params.kappa_w        # + j2 Im{X_s}, X_s real
    delta_w1 = dw * (1.0 - params.g2 * op_point.x_s)
    wm = params.omega_m
    return np.array([
        [0.0, wm, g1s2, 0.0, 0.0, 0.0],
        [-wm, -params.gamma_m, 0.0, 0.0, g22, -g11],
        [0.0, 0.0, -params.kappa_c, dc, 0.0, 0.0],
        [0.0, -g1s2, -dc, -params.kappa_c, 0.0, 0.0],
        [g11, 0.0, 0.0, 0.0, -kappa_w1, delta_w1],
        [g22, 0.0, 0.0, 0.0, -delta_w1, -kappa_w1],
    ])


def oe_drift_literal(params, op_point) -> np.ndarray:
    """The opto-electronic drift written out entry by entry, as oe.drift_matrix
    wrote it before both converters shared the layout template converter._drift."""
    a_s = abs(op_point.a_s)
    c_s = abs(op_point.c_s)
    ga = math.sqrt(2.0) * params.g_op * a_s
    gc = math.sqrt(2.0) * params.g_wp * c_s
    dc1 = params.delta_c + params.g_op * op_point.p_s
    dw1 = params.delta_w - params.g_wp * op_point.x_s
    deg = params.delta_eg
    return np.array([
        [0.0, deg, ga, 0.0, 0.0, 0.0],
        [-deg, -params.gamma_p, 0.0, 0.0, gc, 0.0],
        [0.0, 0.0, -params.kappa_c, dc1, 0.0, 0.0],
        [0.0, -ga, -dc1, -params.kappa_c, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -params.kappa_w, dw1],
        [gc, 0.0, 0.0, 0.0, -dw1, -params.kappa_w],
    ])
