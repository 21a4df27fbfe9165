"""Quantum-illumination signal processing: two-mode squeezed source,
correlation coefficient, second-order-moment detection, matched-energy
classical baseline, and ROC curves.

The digital receiver reduces each decision to the mean of a quadratic form
over heterodyne-style records of the return and the retained idler, and
samples that statistic exactly: a Gaussian quadratic form is a weighted sum
of independent noncentral chi-square variables (Imhof, Biometrika 48, 1961),
so a decision costs a fixed number of draws whatever its record length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channels import GaussianChannel, attenuation_channel, thermal_background_channel
from .errors import DegenerateStateError, ValidationError
from .gaussian import GaussianState, _cholesky, apply_channel, vacuum_state

__all__ = [
    "QiScenario",
    "DetectionSamples",
    "RocCurve",
    "tmsv_cm",
    "correlation_coefficient",
    "low_signal_channels",
    "run_detection",
    "ci_baseline",
    "roc_curve",
]

_SIGMA_Z = np.diag([1.0, -1.0])


def tmsv_cm(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r (signal, idler)."""
    if r < 0:
        raise ValidationError("squeezing parameter must be non-negative")
    c2 = math.cosh(2.0 * r)
    s2 = math.sinh(2.0 * r)
    cov = 0.5 * np.block([
        [c2 * np.eye(2), s2 * _SIGMA_Z],
        [s2 * _SIGMA_Z, c2 * np.eye(2)],
    ])
    return GaussianState(2, np.zeros(4), cov)


def correlation_coefficient(state: GaussianState) -> float:
    """Cov(x_s, x_i)/sqrt(Var x_s Var x_i) read off the covariance matrix."""
    if state.n_modes != 2:
        raise ValidationError("correlation_coefficient expects a two-mode state")
    var_s = state.cov[0, 0]
    var_i = state.cov[2, 2]
    if var_s <= 1e-300 or var_i <= 1e-300:
        raise DegenerateStateError("zero quadrature variance")
    return float(state.cov[0, 2] / math.sqrt(var_s * var_i))


def low_signal_channels(
    n_background: float, transmissivity: float
) -> tuple[GaussianChannel, GaussianChannel]:
    """Target-present and target-absent channels with matched background.

    The present-hypothesis return keeps transmissivity tau and injects
    thermal noise scaled so both hypotheses carry the same background
    brightness (no passive energy giveaway).
    """
    if not 0.0 < transmissivity <= 1.0:
        raise ValidationError("transmissivity must be in (0, 1]")
    if n_background < 0:
        raise ValidationError("background occupation must be non-negative")
    kappa_r = -0.5 * math.log(transmissivity)  # tau = e^{-2 kappa R}, R = 1
    n_env = n_background / (1.0 - transmissivity) if transmissivity < 1.0 else 0.0
    signal = attenuation_channel(kappa_r, 1.0, n_env)
    background = thermal_background_channel(n_background)
    return signal, background


@dataclass(frozen=True)
class QiScenario:
    """One source -> channel -> receiver experiment.

    ``detector`` selects the per-decision statistic: ``covariance_detector``
    pairs the return with the retained idler through the phase-conjugate
    combination mean(x_R x_I - p_R p_I); ``energy_detector`` uses the return
    energy alone.
    ``heterodyne`` adds 1/2 to every measured quadrature variance (digital
    I/Q receiver emulation).
    Each decision averages ``samples_per_decision`` records; the
    ``n_decisions`` statistics of both hypotheses come from one generator
    seeded with ``seed``, so a scenario always yields the same samples.
    """

    r: float
    signal_channel: GaussianChannel
    background_channel: GaussianChannel
    samples_per_decision: int
    n_decisions: int
    seed: int
    detector: Literal["covariance_detector", "energy_detector"] = "covariance_detector"
    heterodyne: bool = True

    def __post_init__(self):
        if self.r < 0:
            raise ValidationError("squeezing parameter must be non-negative")
        if self.samples_per_decision < 1 or self.n_decisions < 1:
            raise ValidationError("sample and decision counts must be >= 1")
        if self.signal_channel.n_modes != 1 or self.background_channel.n_modes != 1:
            raise ValidationError("scenario channels must be single-mode")
        if self.detector not in ("covariance_detector", "energy_detector"):
            raise ValidationError(f"unknown detector {self.detector!r}")


@dataclass(frozen=True)
class DetectionSamples:
    """Per-decision statistics under each hypothesis."""

    h0: np.ndarray
    h1: np.ndarray


def _measured(cov: np.ndarray, heterodyne: bool) -> np.ndarray:
    return cov + (0.5 * np.eye(cov.shape[0]) if heterodyne else 0.0)


def _qi_moments(scenario: QiScenario):
    """(mean, cov) under H1 and H0 for the (return, idler) record."""
    source = tmsv_cm(scenario.r)
    h1 = apply_channel(source, scenario.signal_channel.expand(0, 2))
    ret0 = apply_channel(vacuum_state(1), scenario.background_channel)
    cov0 = np.zeros((4, 4))
    cov0[:2, :2] = ret0.cov
    cov0[2:, 2:] = source.cov[2:, 2:]
    mean1 = h1.mean
    mean0 = np.concatenate([ret0.mean, np.zeros(2)])
    return (
        (mean1, _measured(h1.cov, scenario.heterodyne)),
        (mean0, _measured(cov0, scenario.heterodyne)),
    )


def _ci_moments(scenario: QiScenario):
    """CI analogue: coherent signal of the same mean photon number, with the
    idler record replaced by a recorded reference of the transmitted tone."""
    alpha = math.sinh(scenario.r)
    sig_in = GaussianState(1, [math.sqrt(2.0) * alpha, 0.0], 0.5 * np.eye(2))
    ret1 = apply_channel(sig_in, scenario.signal_channel)
    ret0 = apply_channel(vacuum_state(1), scenario.background_channel)
    ref_mean = np.array([math.sqrt(2.0) * alpha, 0.0])
    ref_cov = 0.5 * np.eye(2)

    def joint(ret: GaussianState):
        mean = np.concatenate([ret.mean, ref_mean])
        cov = np.zeros((4, 4))
        cov[:2, :2] = ret.cov
        cov[2:, 2:] = ref_cov
        return mean, _measured(cov, scenario.heterodyne)

    return joint(ret1), joint(ret0)


def _sample_statistic(rng, mean, cov, form, k: int, n: int) -> np.ndarray:
    """n exact draws of (1/k) sum_i x_i^T A x_i with x_i ~ N(mean, cov) i.i.d.

    With cov = L L^T and L^T A L = U diag(lam) U^T, one record is
    x^T A x = sum_j lam_j (w_j + c_j)^2 for w ~ N(0, I) and c = U^T L^-1 mean,
    so over k records the j-th square sums to a noncentral chi-square variable
    with k degrees of freedom and noncentrality k c_j^2.
    """
    chol = _cholesky(cov)
    lam, u = np.linalg.eigh(chol.T @ form @ chol)
    c = u.T @ np.linalg.solve(chol, mean)
    return rng.noncentral_chisquare(k, k * c**2, size=(n, lam.size)) @ lam / k


def _run(scenario: QiScenario, moments, conjugate: bool) -> DetectionSamples:
    if scenario.detector == "energy_detector":
        form = np.diag([1.0, 1.0, 0.0, 0.0])
    else:
        form = np.zeros((4, 4))
        form[0, 2] = form[2, 0] = 0.5
        form[1, 3] = form[3, 1] = -0.5 if conjugate else 0.5
    rng = np.random.default_rng(scenario.seed)
    k, n = scenario.samples_per_decision, scenario.n_decisions
    h1, h0 = (_sample_statistic(rng, mean, cov, form, k, n) for mean, cov in moments)
    return DetectionSamples(h0=h0, h1=h1)


def run_detection(scenario: QiScenario) -> DetectionSamples:
    """Quantum-illumination statistics under both hypotheses.

    Under H1 the signal arm of the two-mode squeezed source passes through
    the target channel; under H0 the return is replaced by the thermal
    background while the idler is still recorded.  Deterministic per seed.
    """
    return _run(scenario, _qi_moments(scenario), conjugate=True)


def ci_baseline(scenario: QiScenario) -> DetectionSamples:
    """Classical-illumination comparator at equal mean signal photon number.

    The source is a coherent tone of sinh^2(r) photons; the retained arm is a
    recorded reference of that tone (carrying its intrinsic vacuum
    fluctuation plus the configured measurement noise, mirroring the idler
    treatment).  The correlation detector pairs quadratures positively, as a
    classical cross-correlator does.
    """
    return _run(scenario, _ci_moments(scenario), conjugate=False)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical receiver operating characteristic with trapezoid AUC."""

    pfa: np.ndarray
    pd: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_curve(h0_samples, h1_samples) -> RocCurve:
    """Threshold sweep over the pooled sample range; larger statistic => H1."""
    h0 = np.sort(np.asarray(h0_samples, dtype=float))
    h1 = np.sort(np.asarray(h1_samples, dtype=float))
    if h0.size == 0 or h1.size == 0:
        raise ValidationError("both hypothesis sample sets must be non-empty")
    thresholds = np.unique(np.concatenate([h0, h1]))
    # P(stat >= t) via right-side ranks of the sorted samples.
    pfa = 1.0 - np.searchsorted(h0, thresholds, side="left") / h0.size
    pd = 1.0 - np.searchsorted(h1, thresholds, side="left") / h1.size
    pfa = np.concatenate([[1.0], pfa, [0.0]])
    pd = np.concatenate([[1.0], pd, [0.0]])
    thresholds = np.concatenate([[-np.inf], thresholds, [np.inf]])
    # Trapezoid over the parametric curve; ties in pfa traverse vertical
    # segments in ascending pd so they contribute zero width.
    order = np.lexsort((pd, pfa))
    auc = float(np.trapezoid(pd[order], pfa[order]))
    return RocCurve(pfa=pfa, pd=pd, thresholds=thresholds, auc=auc)
