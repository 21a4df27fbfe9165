"""Quantum-illumination signal processing: two-mode squeezed source,
matched-background return channels, second-order-moment detection, a
matched-energy classical baseline, and ROC curves.

Both illuminations build their records by one step: a two-mode source
(the squeezed vacuum for QI, the coherent tone beside its recorded reference
for CI) has its mode 0 sent through the target channel (H1) or the
background channel (H0) while mode 1 is retained.  The digital receiver
reduces each decision to the mean of a quadratic form over heterodyne-style
records of the return and the retained arm, and samples that statistic
exactly: a Gaussian quadratic form is a weighted sum of independent
noncentral chi-square variables (Imhof, Biometrika 48, 1961), so a decision
costs a fixed number of draws whatever its record length.  A zero-mean
record (every QI record: the squeezed vacuum keeps zero mean through a
phase-insensitive channel) draws central chi-squares, which numpy's
noncentral sampler returns itself at zero noncentrality: the same draws
from the same generator stream.  A statistic beyond float range raises
:class:`UndefinedQuantityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channels import GaussianChannel, attenuation_channel, thermal_background_channel
from .errors import UndefinedQuantityError, ValidationError, _integer, _param, _require_valid, _valid
from .gaussian import GaussianState, _cholesky, apply_channel

__all__ = [
    "DETECTORS",
    "QiScenario",
    "DetectionSamples",
    "RocCurve",
    "tmsv_cm",
    "low_signal_channels",
    "run_detection",
    "ci_baseline",
    "roc_curve",
]

# The per-decision statistics a QiScenario can select.
DETECTORS = ("covariance_detector", "energy_detector")

_SIGMA_Z = np.diag([1.0, -1.0])


def tmsv_cm(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r (signal, idler)."""
    _valid("r", "non-negative", r)
    try:
        c2 = math.cosh(math.ldexp(r, 1))  # 2r; ldexp, unlike 2.0 * r, raises rather than give inf
    except OverflowError:
        raise ValidationError(f"two-mode squeezing cosh(2r) is beyond float range (r = {r!r})") from None
    s2 = math.sinh(2.0 * r)
    cov = 0.5 * np.block([
        [c2 * np.eye(2), s2 * _SIGMA_Z],
        [s2 * _SIGMA_Z, c2 * np.eye(2)],
    ])
    return GaussianState(2, np.zeros(4), cov)


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
    _valid("n_background", "non-negative", n_background)
    kappa_r = -0.5 * math.log(transmissivity)  # tau = e^{-2 kappa R}, R = 1
    n_env = n_background / (1.0 - transmissivity) if transmissivity < 1.0 else 0.0
    if n_env == math.inf:
        raise ValidationError(
            f"environment occupation n_B/(1 - tau) is beyond float range "
            f"(n_B = {n_background!r}, tau = {transmissivity!r})"
        )
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
    All three are integers: both counts positive, at most float range
    (``samples_per_decision``) and the largest (n_decisions, 4) array, and
    the seed non-negative, of any size.
    """

    r: float = _param(sign="non-negative")
    signal_channel: GaussianChannel
    background_channel: GaussianChannel
    samples_per_decision: int = _param(sign="positive")
    n_decisions: int = _param(sign="positive")
    seed: int  # not declared: any int >= 0 is a seed, one beyond float range too
    detector: Literal["covariance_detector", "energy_detector"] = "covariance_detector"
    heterodyne: bool = True

    def __post_init__(self):
        _require_valid(self)
        _integer("samples_per_decision", self.samples_per_decision, 1)
        _integer("n_decisions", self.n_decisions, 1, np.iinfo(np.intp).max // 32)  # an (n, 4) array
        _integer("seed", self.seed, 0)
        if self.signal_channel.n_modes != 1 or self.background_channel.n_modes != 1:
            raise ValidationError("scenario channels must be single-mode")
        if self.detector not in DETECTORS:
            raise ValidationError(f"unknown detector {self.detector!r}")


@dataclass(frozen=True)
class DetectionSamples:
    """Per-decision statistics under each hypothesis."""

    h0: np.ndarray
    h1: np.ndarray


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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic fails below
        noncentrality = k * c**2
        if noncentrality.any():
            draws = rng.noncentral_chisquare(k, noncentrality, size=(n, lam.size))
        else:  # the same draws and stream: numpy's noncentral sampler at 0 calls this one
            draws = rng.chisquare(k, size=(n, lam.size))
        stat = draws @ lam / k
    if not np.isfinite(stat).all():
        raise UndefinedQuantityError("the decision statistic is beyond float range")
    return stat


def _run(scenario: QiScenario, source: GaussianState, conjugate: bool) -> DetectionSamples:
    """Both hypotheses' statistics of the measured (return, retained) record
    of a two-mode ``source``: its mode 0 sent through the target channel (H1)
    or the background channel (H0), mode 1 kept, and heterodyne noise 1/2
    added to every quadrature variance when the scenario measures it."""
    if scenario.detector == "energy_detector":
        form = np.diag([1.0, 1.0, 0.0, 0.0])
    else:
        form = np.zeros((4, 4))
        form[0, 2] = form[2, 0] = 0.5
        form[1, 3] = form[3, 1] = -0.5 if conjugate else 0.5
    channels = (scenario.signal_channel, scenario.background_channel)
    records = [apply_channel(source, channel.expand(0, 2)) for channel in channels]
    noise = 0.5 * np.eye(4) if scenario.heterodyne else 0.0
    rng = np.random.default_rng(scenario.seed)
    k, n = scenario.samples_per_decision, scenario.n_decisions
    h1, h0 = (_sample_statistic(rng, state.mean, state.cov + noise, form, k, n) for state in records)
    return DetectionSamples(h0=h0, h1=h1)


def run_detection(scenario: QiScenario) -> DetectionSamples:
    """Quantum-illumination statistics under both hypotheses.

    Under H1 the signal arm of the two-mode squeezed source passes through
    the target channel; under H0 the return is replaced by the thermal
    background while the idler is still recorded.  Deterministic per seed.
    """
    return _run(scenario, tmsv_cm(scenario.r), conjugate=True)


def ci_baseline(scenario: QiScenario) -> DetectionSamples:
    """Classical-illumination comparator at equal mean signal photon number.

    The source is a coherent tone of sinh^2(r) photons; the retained arm is a
    recorded reference of that tone (carrying its intrinsic vacuum
    fluctuation plus the configured measurement noise, mirroring the idler
    treatment).  The correlation detector pairs quadratures positively, as a
    classical cross-correlator does.
    """
    if scenario.r > 710.1292864836639:  # the largest r whose sqrt(2) sinh(r) is finite
        raise ValidationError(f"tone amplitude sqrt(2) sinh(r) is beyond float range (r = {scenario.r!r})")
    amplitude = math.sqrt(2.0) * math.sinh(scenario.r)
    tone = GaussianState(2, [amplitude, 0.0, amplitude, 0.0], 0.5 * np.eye(4))
    return _run(scenario, tone, conjugate=False)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical receiver operating characteristic with trapezoid AUC."""

    pfa: np.ndarray
    pd: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_curve(h0_samples, h1_samples) -> RocCurve:
    """Threshold sweep over the pooled sample range; larger statistic => H1.
    Each sample set must be non-empty and finite."""
    try:
        h0 = np.sort(np.asarray(h0_samples, dtype=float))
        h1 = np.sort(np.asarray(h1_samples, dtype=float))
    except OverflowError:  # an integer beyond float range
        raise ValidationError("hypothesis samples must be finite") from None
    if h0.size == 0 or h1.size == 0:
        raise ValidationError("both hypothesis sample sets must be non-empty")
    if not (np.isfinite(h0).all() and np.isfinite(h1).all()):
        raise ValidationError("hypothesis samples must be finite")
    # One stable merge of the two sorted sets: the samples below each distinct
    # value t are those before its first place, and a running count of H1
    # members among them splits that into P(stat >= t) under each hypothesis.
    pooled = np.concatenate([h0, h1])
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    first = np.flatnonzero(np.concatenate([[True], pooled[1:] != pooled[:-1]]))
    is_h1 = order >= h0.size
    h1_below = (np.cumsum(is_h1) - is_h1)[first]
    thresholds = np.concatenate([[-np.inf], pooled[first], [np.inf]])
    pfa = np.concatenate([[1.0], 1.0 - (first - h1_below) / h0.size, [0.0]])
    pd = np.concatenate([[1.0], 1.0 - h1_below / h1.size, [0.0]])
    # Trapezoid over the parametric curve.  Both rates fall as the threshold
    # rises, so reversed they ascend in (pfa, pd) order: ties in pfa traverse
    # vertical segments in ascending pd and contribute zero width.
    auc = float(np.trapezoid(pd[::-1], pfa[::-1]))
    return RocCurve(pfa=pfa, pd=pd, thresholds=thresholds, auc=auc)
