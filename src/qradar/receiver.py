"""Quantum-illumination signal processing: two-mode squeezed source,
matched-background return channels, second-order-moment detection, a
matched-energy classical baseline, and ROC curves.

Both illuminations build their records by one step: a two-mode source
(the squeezed vacuum for QI, the coherent tone beside its recorded reference
for CI) has its mode 0 sent through the target channel (H1) or the
background channel (H0) while mode 1 is retained.  The two records are
channel images of a checked source under completely positive channels, so
they are formed as one (2, 4, 4) stack held to finiteness only, and one
stacked Cholesky, eigh and solve decompose both.  The digital receiver
reduces each decision to the mean of a quadratic form over heterodyne-style
records of the return and the retained arm, and samples that statistic
exactly: a Gaussian quadratic form is a weighted sum of independent
noncentral chi-square variables (Imhof, Biometrika 48, 1961), and the
variables of one weight sum to one, so a decision makes one draw per
distinct nonzero weight whatever its record length.  Weights within
64 eps * max|weight| of each other, eigh's backward error, are one weight.
On matched-background channels the weights are -lam_-, -lam_-, lam_+, lam_+
(0, 0, lam, lam for the energy detector), so a QI statistic is
(lam_+ X - lam_- Y)/k with X, Y ~ chi^2_2k.  A zero-mean column (every QI record: the squeezed
vacuum keeps zero mean through a phase-insensitive channel) draws a central
chi-square.  A statistic beyond float range raises
:class:`UndefinedQuantityError`; the weighted sum of a decision's draws,
about k times its statistic, is formed scaled by a power of two, so that
sum alone does not.

The covariance detector scores both illuminations with one form,
mean(x_R x_I - p_R p_I).  A CI reference has zero p mean, covariance
proportional to I and no correlation with the return, so p_I -> -p_I keeps
its record and maps the form onto x_R x_I + p_R p_I: the same statistics.
"""

from __future__ import annotations

import math
import sys
import types
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channels import GaussianChannel, attenuation_channel, thermal_background_channel
from .errors import UndefinedQuantityError, ValidationError, _integer, _param, _require_valid, _valid
from .gaussian import GaussianState, _cholesky, _symmetric_part

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

# The form over (x_R, p_R, x_I, p_I) whose mean each detector a QiScenario can
# select takes: x_R x_I - p_R p_I, or the return's energy x_R^2 + p_R^2.
_FORMS = types.MappingProxyType({
    "covariance_detector": np.array([[0, 0, 0.5, 0], [0, 0, 0, -0.5], [0.5, 0, 0, 0], [0, -0.5, 0, 0]]),
    "energy_detector": np.diag([1.0, 1.0, 0.0, 0.0]),
})
for _form in _FORMS.values():
    _form.setflags(write=False)
DETECTORS = tuple(_FORMS)

def tmsv_cm(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r (signal, idler)."""
    _valid("r", "non-negative", r)
    try:
        c2 = math.cosh(math.ldexp(r, 1))  # 2r; ldexp, unlike 2.0 * r, raises rather than give inf
    except OverflowError:
        raise ValidationError(f"two-mode squeezing cosh(2r) is beyond float range (r = {r!r})") from None
    c, s = 0.5 * c2, 0.5 * math.sinh(2.0 * r)
    z = 0.0 * s  # the zeros of the sinh(2r) sigma_z blocks: -0.0 at r = -0.0
    cov = np.array([
        [c, 0.0, s, z],
        [0.0, c, z, -s],
        [s, z, c, 0.0],
        [z, -s, 0.0, c],
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
    pairs the return with the retained arm through the combination
    mean(x_R x_I - p_R p_I); ``energy_detector`` uses the return
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


# A weight of L^T A L moves by up to c * eps * max|lam| under eigh's backward
# error: weights closer than this band are one weight, and a weight within it
# of zero is none.  c = 64: over matched-background records (n_B 1e-3 to 1e3,
# tau 0.01 to 1, r <= 3, both detectors and illuminations) eigh split a true
# pair by at most 4.8 eps * max|lam|.
_EIGH_BAND = 64 * sys.float_info.epsilon


def _spectral_columns(weights: list, noncentralities: list, k: int) -> list[tuple[float, float, float]]:
    """One statistic's draws as (weight, degrees of freedom, noncentrality)
    columns, from the ascending eigenvalues ``weights`` and their
    ``noncentralities``: a column holds the weights within the band of its
    least one, takes their mean as its weight, k degrees of freedom per
    member and their noncentralities' sum; a weight within the band of zero
    has none.  A column grows only while its weight times its mean draw,
    |weight| (k m + noncentrality), stays in float range, so a merge cannot
    overflow where one draw per weight would not."""
    band = _EIGH_BAND * max(-weights[0], weights[-1])
    k = float(k)
    columns = []  # [weight sum, least weight, members, noncentrality]
    for weight, noncentrality in zip(weights, noncentralities):
        if -band <= weight <= band:
            continue
        if columns:
            column = columns[-1]
            merged = column[3] + noncentrality
            if weight - column[1] <= band and abs(weight) * (k * (column[2] + 1) + merged) < math.inf:
                column[0] += weight
                column[2] += 1
                column[3] = merged
                continue
        columns.append([weight, weight, 1, noncentrality])
    return [(total / members, k * members, noncentrality) for total, _, members, noncentrality in columns]


def _sample_statistics(rng, means, covs, form, k: int, n: int) -> list[np.ndarray]:
    """n exact draws of (1/k) sum_i x_i^T A x_i with x_i ~ N(mean, cov) i.i.d.,
    for each (mean, cov) of an (h, 4) and an (h, 4, 4) stack, drawn in stack
    order.

    With cov = L L^T and L^T A L = U diag(lam) U^T, one record is
    x^T A x = sum_j lam_j (w_j + c_j)^2 for w ~ N(0, I) and c = U^T L^-1 mean,
    so over k records the j-th square sums to a noncentral chi-square variable
    with k degrees of freedom and noncentrality k c_j^2.  The squares of one
    weight sum to one such variable, of their degrees of freedom and
    noncentralities summed, so a statistic makes one draw of n values per
    distinct nonzero weight (:func:`_spectral_columns`), in ascending weight
    order.  One Cholesky, eigh and solve serve the whole stack.
    """
    chol = _cholesky(covs)
    lam, u = np.linalg.eigh(chol.mT @ form @ chol)
    c = (u.mT @ np.linalg.solve(chol, means[..., None]))[..., 0]
    # Draws and k scaled by 2^-e (exact) keep the weighted sum of draws, about
    # k times the statistic, in float range wherever the statistic is.
    e = math.frexp(k)[1]
    stats = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic fails below
        for weights, noncentralities in zip(lam.tolist(), (k * c**2).tolist()):
            columns = _spectral_columns(weights, noncentralities, k)
            draws = np.empty((n, len(columns)))
            for j, (_, df, noncentrality) in enumerate(columns):
                if noncentrality:
                    draws[:, j] = rng.noncentral_chisquare(df, noncentrality, n)
                else:
                    draws[:, j] = rng.chisquare(df, n)
            stats.append(np.ldexp(draws, -e) @ [weight for weight, _, _ in columns] / math.ldexp(k, -e))
    if not all(np.isfinite(stat).all() for stat in stats):
        raise UndefinedQuantityError("the decision statistic is beyond float range")
    return stats


def _run(scenario: QiScenario, mean: np.ndarray, cov: np.ndarray) -> DetectionSamples:
    """Both hypotheses' statistics of the measured (return, retained) record
    of a two-mode source of ``mean`` and ``cov``: its mode 0 sent through the
    target channel (H1) or the background channel (H0), mode 1 kept, and
    heterodyne noise 1/2 added to every quadrature variance when the
    scenario measures it.

    The two records are channel images of a checked source, so they are
    formed as one (2, 4, 4) stack, stored symmetrised as a state stores its
    covariance and held to finiteness only, H1's before H0's; a channel is
    completely positive from when it is made, so they are physical.
    """
    channels = [ch.expand(0, 2) for ch in (scenario.signal_channel, scenario.background_channel)]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean fails below
        means = np.array([ch.X @ mean for ch in channels])
    covs = _symmetric_part(np.array([ch.act(cov) for ch in channels]))
    for record_mean, record_cov in zip(means, covs):
        for what, values in (("mean", record_mean), ("cov", record_cov)):
            if not np.isfinite(values).all():
                raise ValidationError(f"state invariant violated: {what} must be finite")
    noise = 0.5 * np.eye(4) if scenario.heterodyne else 0.0
    rng = np.random.default_rng(scenario.seed)
    k, n = scenario.samples_per_decision, scenario.n_decisions
    h1, h0 = _sample_statistics(rng, means, covs + noise, _FORMS[scenario.detector], k, n)
    return DetectionSamples(h0=h0, h1=h1)


def run_detection(scenario: QiScenario) -> DetectionSamples:
    """Quantum-illumination statistics under both hypotheses.

    Under H1 the signal arm of the two-mode squeezed source passes through
    the target channel; under H0 the return is replaced by the thermal
    background while the idler is still recorded.  Deterministic per seed.
    """
    source = tmsv_cm(scenario.r)
    return _run(scenario, source.mean, source.cov)


def ci_baseline(scenario: QiScenario) -> DetectionSamples:
    """Classical-illumination comparator at equal mean signal photon number.

    The source is a coherent tone of sinh^2(r) photons; the retained arm is a
    recorded reference of that tone (carrying its intrinsic vacuum
    fluctuation plus the configured measurement noise, mirroring the idler
    treatment).  The correlation detector scores it with QI's form
    x_R x_I - p_R p_I, which for this record gives the statistics of a
    classical cross-correlator's x_R x_I + p_R p_I (see the module notes).
    """
    if scenario.r > 710.1292864836639:  # the largest r whose sqrt(2) sinh(r) is finite
        raise ValidationError(f"tone amplitude sqrt(2) sinh(r) is beyond float range (r = {scenario.r!r})")
    amplitude = math.sqrt(2.0) * math.sinh(scenario.r)
    return _run(scenario, np.array([amplitude, 0.0, amplitude, 0.0]), 0.5 * np.eye(4))


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
