"""Detection chain: source covariance, the measured records against their
closed form, Monte-Carlo statistics against a record-drawing oracle, ROC
construction, and the classical baseline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qradar.channels import GaussianChannel, amplifier_channel, attenuation_channel
from qradar.channels import thermal_background_channel
from qradar import receiver
from qradar.errors import DegenerateStateError, UndefinedQuantityError, ValidationError
from qradar.gaussian import GaussianState, apply_channel
from qradar.receiver import (
    DETECTORS,
    QiScenario,
    ci_baseline,
    low_signal_channels,
    roc_curve,
    run_detection,
    tmsv_cm,
)

from conftest import detection_oracle, roc_by_ranks, tmsv_cov


# The background and transmissivity of make_scenario's channels.
N_B, TAU = 10.0, 0.2


def make_scenario(**overrides) -> QiScenario:
    signal, background = low_signal_channels(n_background=N_B, transmissivity=TAU)
    defaults = dict(
        r=math.asinh(0.1),
        signal_channel=signal,
        background_channel=background,
        samples_per_decision=500,
        n_decisions=400,
        seed=77,
    )
    defaults.update(overrides)
    return QiScenario(**defaults)


def _record_moments(illumination: str, r: float, heterodyne: bool, n_b=N_B, tau=TAU):
    """Closed-form (mean, cov) of the measured (return, retained) record under
    H1 and under H0, behind ``low_signal_channels(n_b, tau)``.

    Both hypotheses' returns carry the background n_b + 1/2 per quadrature;
    under H1 the return also keeps tau of the signal arm's excess over vacuum
    and sqrt(tau) of its mean and of its correlation with the retained arm.
    QI retains the idler of a two-mode squeezed vacuum; CI retains a recorded
    reference, in vacuum noise, of a coherent tone of sinh^2 r photons.
    """
    sigma_z = np.diag([1.0, -1.0])
    measured = 0.5 * np.eye(4) if heterodyne else np.zeros((4, 4))
    if illumination == "qi":
        c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
        signal, idler, cross = 0.5 * c2, 0.5 * c2, 0.5 * s2 * sigma_z
        mean = np.zeros(4)
    else:
        signal, idler, cross = 0.5, 0.5, np.zeros((2, 2))
        amplitude = math.sqrt(2.0) * math.sinh(r)
        mean = np.array([amplitude, 0.0, amplitude, 0.0])
    out = []
    for kept in (tau, 0.0):
        ret = kept * signal + n_b + 0.5 * (1.0 - kept)
        cov = np.block([
            [ret * np.eye(2), math.sqrt(kept) * cross],
            [math.sqrt(kept) * cross.T, idler * np.eye(2)],
        ])
        out.append((mean * [math.sqrt(kept), 1.0, 1.0, 1.0], cov + measured))
    return out


def _record_statistics(scenario: QiScenario, moments, conjugate: bool):
    """Reference path: draw k records per decision and average the detector's
    product over them, for both hypotheses."""
    rng = np.random.default_rng(scenario.seed)
    k, n = scenario.samples_per_decision, scenario.n_decisions
    out = []
    for mean, cov in moments:
        records = mean + rng.standard_normal((n, k, 4)) @ np.linalg.cholesky(cov).T
        x_r, p_r, x_i, p_i = np.moveaxis(records, -1, 0)
        if scenario.detector == "energy_detector":
            out.append(np.mean(x_r**2 + p_r**2, axis=1))
        else:
            sign = -1.0 if conjugate else 1.0
            out.append(np.mean(x_r * x_i + sign * p_r * p_i, axis=1))
    h1, h0 = out
    return h0, h1


def _form(detector: str, conjugate: bool) -> np.ndarray:
    if detector == "energy_detector":
        return np.diag([1.0, 1.0, 0.0, 0.0])
    sign = -1.0 if conjugate else 1.0
    return 0.5 * np.array([
        [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, sign],
        [1.0, 0.0, 0.0, 0.0], [0.0, sign, 0.0, 0.0],
    ])


_ILLUMINATIONS = {
    "qi": (run_detection, True),
    "ci": (ci_baseline, False),
}

# A signal channel whose noise is not isotropic: its H1 records' weights are
# four distinct values.
_SKEWED_NOISE = GaussianChannel(
    np.array([[0.9, 0.3], [-0.4, 1.1]]), np.array([[3.0, 0.4], [0.4, 1.5]]), "skewed",
)


class TestRecords:
    """The measured records both illuminations sample, against their closed form."""

    @pytest.mark.parametrize("n_b, tau", [(N_B, TAU), (0.0, 1.0), (3.0, 0.7)])
    @pytest.mark.parametrize("heterodyne", [True, False])
    @pytest.mark.parametrize("illumination", ["qi", "ci"])
    def test_closed_form(self, monkeypatch, illumination, heterodyne, n_b, tau):
        sampled = []

        def recording(rng, means, covs, form, k, n):
            sampled.extend(zip(means, covs))
            return [np.zeros(n) for _ in means]

        monkeypatch.setattr(receiver, "_sample_statistics", recording)
        signal, background = low_signal_channels(n_b, tau)
        r = math.asinh(0.7)
        scenario = make_scenario(
            r=r, signal_channel=signal, background_channel=background, heterodyne=heterodyne,
        )
        _ILLUMINATIONS[illumination][0](scenario)
        expected = _record_moments(illumination, r, heterodyne, n_b, tau)
        assert len(sampled) == 2  # H1, then H0
        for (mean, cov), (mean_cf, cov_cf) in zip(sampled, expected):
            assert mean == pytest.approx(mean_cf, rel=1e-12, abs=1e-15)
            assert cov == pytest.approx(cov_cf, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("run", [run_detection, ci_baseline])
    def test_one_two_mode_channel_step_per_hypothesis(self, monkeypatch, run):
        # Both illuminations send a two-mode source through each hypothesis'
        # channel once, keeping the retained arm.
        images = []
        act = GaussianChannel.act

        def counting(channel, covs):
            images.append((channel.n_modes, covs.shape))
            return act(channel, covs)

        monkeypatch.setattr(GaussianChannel, "act", counting)
        run(make_scenario(n_decisions=5))
        assert images == [(2, (4, 4)), (2, (4, 4))]

    def test_statistic_near_float_range_is_sampled(self):
        # At 5e307 photons the weighted sum of 500 records' draws, near
        # 2.2e310, overflowed inside the matmul, and the run raised, though
        # the statistic, near 4.5e307, is in float range.  The draws are
        # summed scaled by a power of two, so it is sampled about its mean.
        r = math.asinh(math.sqrt(5e307))
        samples = run_detection(make_scenario(r=r, n_decisions=50, seed=1))
        (mean, cov), _ = _record_moments("qi", r, True)
        form = _form("covariance_detector", _ILLUMINATIONS["qi"][1])
        ratio = samples.h1 / (np.trace(form @ cov) + mean @ form @ mean)
        assert abs(ratio.mean() - 1.0) <= 5.0 * ratio.std() / math.sqrt(len(ratio))
        assert np.isfinite(samples.h0).all()

    # The energy statistic behind a background of 1e308 photons, near 2e308,
    # is beyond float range; a tone of sinh^2(354) photons overflows in k c^2.
    # Each leaked a RuntimeWarning and gave inf or NaN statistics before.
    @pytest.mark.parametrize("run, r, n_b, tau, detector", [
        (run_detection, 1.0, 1e308, 0.01, "energy_detector"),
        (ci_baseline, 354.0, N_B, TAU, "covariance_detector"),
    ])
    def test_statistic_beyond_float_range_raises(self, run, r, n_b, tau, detector):
        signal, background = low_signal_channels(n_b, tau)
        scenario = make_scenario(
            r=r, signal_channel=signal, background_channel=background, detector=detector, n_decisions=50, seed=1,
        )
        with pytest.raises(UndefinedQuantityError, match="^the decision statistic is beyond float range$"):
            run(scenario)

    @pytest.mark.parametrize("run, r, what", [(run_detection, 200.0, "cov"), (ci_baseline, 500.0, "mean")])
    def test_record_beyond_float_range_is_a_validation_error(self, run, r, what):
        # The H1 record's X V X^T (or the tone's X m) overflowed, with
        # RuntimeWarnings, before the typed error.
        scenario = make_scenario(r=r, signal_channel=amplifier_channel(3000.0))
        with pytest.raises(ValidationError, match=f"^state invariant violated: {what} must be finite$"):
            run(scenario)


def _run_or_error(run, *args):
    """The samples ``run`` returns, or the error's type and message."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _outcome(run, *args):
    """The bytes of both hypotheses' statistics, or the error's type and message."""
    got = _run_or_error(run, *args)
    return got if isinstance(got, tuple) else (got.h0.tobytes(), got.h1.tobytes())


# Draws per hypothesis and the level of each two-sample Kolmogorov-Smirnov
# test against the oracle: at 1000 draws a side whose CDF is 0.11 away from
# the oracle's fails, and the 400 tests of a 100-example property all pass
# by chance with probability 0.996.
_KS_DRAWS, _KS_ALPHA = 1000, 1e-5


def _assert_distributed_as_the_oracle(scenario: QiScenario, illumination: str) -> None:
    """Both hypotheses' statistics of ``scenario`` against the oracle's, drawn
    from the next seed so that the samples are independent, by a KS test at
    _KS_ALPHA; a failure must be the oracle's, of the same type and message."""
    got = _run_or_error(_ILLUMINATIONS[illumination][0], scenario)
    next_seed = dataclasses.replace(scenario, seed=scenario.seed + 1)
    oracle = _run_or_error(detection_oracle, next_seed, illumination)
    if isinstance(got, tuple) or isinstance(oracle, tuple):
        assert got == oracle
        return
    for hypothesis in ("h0", "h1"):
        assert stats.ks_2samp(getattr(got, hypothesis), getattr(oracle, hypothesis)).pvalue > _KS_ALPHA


class TestStackedRecords:
    """Both hypotheses' records formed and decomposed as one stack, each
    statistic drawn once per distinct weight, give the distributions and
    errors of one record at a time, drawn once per eigenvalue
    (``conftest.detection_oracle``).  The oracle scores CI with the
    cross-correlator's x_R x_I + p_R p_I, the receiver with QI's
    x_R x_I - p_R p_I: equal distributions show the sign changes nothing."""

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.0, 15.0),
        n_b=st.floats(0.0, 50.0),
        tau=st.floats(1e-3, 1.0),
        detector=st.sampled_from(DETECTORS),
        heterodyne=st.booleans(),
        k=st.integers(1, 5000),
        seed=st.integers(0, 2**63),
    )
    @example(r=0.0, n_b=N_B, tau=TAU, detector="covariance_detector", heterodyne=True, k=20, seed=3)
    @example(r=-0.0, n_b=N_B, tau=TAU, detector="covariance_detector", heterodyne=False, k=20, seed=3)
    @example(r=0.5, n_b=0.0, tau=1.0, detector="covariance_detector", heterodyne=True, k=20, seed=3)
    @example(r=0.5, n_b=N_B, tau=TAU, detector="energy_detector", heterodyne=False, k=20, seed=3)
    def test_distributed_as_the_one_record_oracle(self, r, n_b, tau, detector, heterodyne, k, seed):
        signal, background = low_signal_channels(n_b, tau)
        scenario = make_scenario(
            r=r, signal_channel=signal, background_channel=background, detector=detector,
            heterodyne=heterodyne, samples_per_decision=k, n_decisions=_KS_DRAWS, seed=seed,
        )
        for illumination in _ILLUMINATIONS:
            _assert_distributed_as_the_oracle(scenario, illumination)

    # X V X^T of a non-diagonal X is not exactly symmetric; for the twisting
    # channels, its lower triangle (all the Cholesky factor reads) changes
    # when it is symmetrised, as a state's covariance is.  The amplifier and
    # the non-isotropic noise give CI returns unlike an attenuator's.
    @pytest.mark.parametrize("signal", [
        GaussianChannel(np.array([[0.9, 0.3], [-0.4, 1.1]]), 2.0 * np.eye(2), "twisted"),
        GaussianChannel(np.array([[0.9, -0.4], [0.3, 0.7]]), 2.0 * np.eye(2), "twisted"),
        amplifier_channel(6.0, 0.2),
        _SKEWED_NOISE,
    ], ids=["twisted", "twisted-shear", "amplifier", "skewed-noise"])
    @pytest.mark.parametrize("r", [0.3, 1.7])
    def test_distributed_as_the_oracle_through_a_twisting_channel(self, signal, r):
        scenario = make_scenario(r=r, signal_channel=signal, n_decisions=_KS_DRAWS)
        for illumination in _ILLUMINATIONS:
            _assert_distributed_as_the_oracle(scenario, illumination)

    # The unfactorable record of TestRunDetection and both statistics of
    # TestRecords beyond float range.
    @pytest.mark.parametrize("illumination, r, heterodyne, n_b, tau, detector, error", [
        ("qi", 12.0, False, 0.0, 1.0, "covariance_detector", DegenerateStateError),
        ("qi", 1.0, True, 1e308, 0.01, "energy_detector", UndefinedQuantityError),
        ("ci", 354.0, True, N_B, TAU, "covariance_detector", UndefinedQuantityError),
    ])
    def test_failures_keep_their_type_and_message(self, illumination, r, heterodyne, n_b, tau, detector, error):
        signal, background = low_signal_channels(n_b, tau)
        scenario = make_scenario(
            r=r, signal_channel=signal, background_channel=background, heterodyne=heterodyne,
            detector=detector, n_decisions=50, seed=1,
        )
        got = _outcome(_ILLUMINATIONS[illumination][0], scenario)
        assert got == _outcome(detection_oracle, scenario, illumination)
        assert got[0] is error


class TestSource:
    def test_r_zero_is_vacuum(self):
        assert np.array_equal(tmsv_cm(0.0).cov, 0.5 * np.eye(4))

    @pytest.mark.parametrize("r", [0.0, -0.0, 1e-310, 0.3, 5.0, 300.0])
    def test_bit_equal_to_the_block_layout(self, r):
        # Signed zeros included: at r = -0.0 the sinh(2r) blocks' zeros are -0.0.
        assert tmsv_cm(r).cov.tobytes() == GaussianState(2, np.zeros(4), tmsv_cov(r)).cov.tobytes()

    def test_structure_at_r_half(self):
        state = tmsv_cm(0.5)
        assert state.cov[0, 0] == pytest.approx(0.5 * math.cosh(1.0))
        assert state.cov[0, 2] == pytest.approx(0.5 * math.sinh(1.0))
        assert state.cov[1, 3] == pytest.approx(-0.5 * math.sinh(1.0))

    @pytest.mark.parametrize("r", [0.2, 0.9, 1.6])
    def test_purity(self, r):
        from qradar.gaussian import symplectic_eigenvalues

        assert symplectic_eigenvalues(tmsv_cm(r)) == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_through_loss_closed_form(self):
        # Loss tau with background n_b on the signal arm of a TMSV.
        r, tau, n_b = 0.5, 0.3, 2.0
        lossy = apply_channel(
            tmsv_cm(r), attenuation_channel(-0.5 * math.log(tau), 1.0, n_b).expand(0, 2)
        ).cov
        c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
        signal = 0.5 * (tau * c2 + (1 - tau) * (2 * n_b + 1))
        cross = 0.5 * math.sqrt(tau) * s2
        expected = np.block([
            [signal * np.eye(2), cross * np.diag([1.0, -1.0])],
            [cross * np.diag([1.0, -1.0]), 0.5 * c2 * np.eye(2)],
        ])
        assert lossy == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestRunDetection:
    def test_deterministic(self):
        scenario = make_scenario()
        a = run_detection(scenario)
        b = run_detection(scenario)
        assert np.array_equal(a.h0, b.h0) and np.array_equal(a.h1, b.h1)

    def test_null_scenario_distributions_identical(self):
        background = thermal_background_channel(10.0)
        scenario = make_scenario(
            r=0.0, signal_channel=background, background_channel=background,
            n_decisions=2000, samples_per_decision=20,
        )
        samples = run_detection(scenario)
        ks = stats.ks_2samp(samples.h0, samples.h1)
        assert ks.pvalue > 0.01

    def test_mean_separation_grows_with_samples(self):
        small = run_detection(make_scenario(samples_per_decision=100, n_decisions=800))
        large = run_detection(make_scenario(samples_per_decision=1600, n_decisions=800))

        def deflection(s):
            pooled = 0.5 * (s.h0.var(ddof=1) + s.h1.var(ddof=1))
            return (s.h1.mean() - s.h0.mean()) / math.sqrt(pooled)

        # d' scales as sqrt(K); allow generous Monte-Carlo slack.
        assert deflection(large) > 2.5 * deflection(small)

    def test_statistic_mean_matches_analytic(self):
        scenario = make_scenario(n_decisions=3000, samples_per_decision=200)
        samples = run_detection(scenario)
        tau, r = 0.2, scenario.r
        analytic = math.sqrt(tau) * math.sinh(2 * r)
        se = samples.h1.std(ddof=1) / math.sqrt(samples.h1.size)
        assert abs(samples.h1.mean() - analytic) < 4 * se
        assert abs(samples.h0.mean()) < 4 * samples.h0.std(ddof=1) / math.sqrt(samples.h0.size)

    def test_unfactorable_covariance_raises(self):
        # At r = 12 without heterodyne noise the squeezed eigenvalue
        # e^{-2r}/2 ~ 2e-11 sits below double precision against the 6.6e9
        # photon diagonal: the record covariance must be refused, not
        # replaced by a nearby state.
        signal, background = low_signal_channels(0.0, 1.0)
        scenario = make_scenario(
            r=12.0, signal_channel=signal, background_channel=background, heterodyne=False,
        )
        with pytest.raises(DegenerateStateError):
            run_detection(scenario)

    def test_detector_forms_are_read_only(self):
        # Every run shares the one table, so no caller may change a form.
        with pytest.raises(TypeError):
            receiver._FORMS["energy_detector"] = np.eye(4)
        for form in receiver._FORMS.values():
            with pytest.raises(ValueError, match="read-only"):
                form[0, 0] = 2.0

    def test_energy_detector_ignores_idler(self):
        scenario = make_scenario(detector="energy_detector", n_decisions=200)
        samples = run_detection(scenario)
        assert (samples.h0 > 0).all() and (samples.h1 > 0).all()

    def test_record_covariance_converges_to_analytic(self):
        # The per-record second moments match the measured H1 covariance,
        # every entry within 4 standard errors at 1e5 samples.
        from qradar.gaussian import GaussianState, sample

        scenario = make_scenario()
        (mean1, cov1), _ = _record_moments("qi", scenario.r, scenario.heterodyne)
        n = 100_000
        draws = sample(GaussianState(2, mean1, cov1), n, seed=13)
        empirical = np.cov(draws, rowvar=False, ddof=1)
        for i in range(4):
            for j in range(4):
                se = math.sqrt((cov1[i, i] * cov1[j, j] + cov1[i, j] ** 2) / n)
                assert abs(empirical[i, j] - cov1[i, j]) < 4 * se


class TestExactStatistic:
    @pytest.mark.parametrize("hypothesis", ["h0", "h1"])
    @pytest.mark.parametrize("illumination", ["qi", "ci"])
    @pytest.mark.parametrize("detector", ["covariance_detector", "energy_detector"])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_matches_record_oracle(self, k, detector, illumination, hypothesis):
        run, conjugate = _ILLUMINATIONS[illumination]
        scenario = make_scenario(
            r=math.asinh(0.5), samples_per_decision=k, n_decisions=3000, detector=detector,
        )
        exact = getattr(run(scenario), hypothesis)
        oracle = _record_statistics(
            dataclasses.replace(scenario, seed=scenario.seed + 1),
            _record_moments(illumination, scenario.r, scenario.heterodyne), conjugate,
        )[hypothesis == "h1"]
        assert stats.ks_2samp(exact, oracle).pvalue > 0.01

    @pytest.mark.parametrize("k", [1, 16, 2000])
    def test_central_draws_are_the_noncentral_sampler_at_zero(self, k):
        # A zero-mean record's statistic is drawn by chisquare; numpy's
        # noncentral sampler at zero noncentrality gives the same draws and
        # leaves the generator in the same state.
        central, noncentral = np.random.default_rng(3), np.random.default_rng(3)
        draws = central.chisquare(k, size=(50, 4))
        reference = noncentral.noncentral_chisquare(k, np.zeros(4), size=(50, 4))
        assert np.array_equal(draws.view(np.int64), reference.view(np.int64))
        assert central.bit_generator.state == noncentral.bit_generator.state

    @pytest.mark.parametrize("heterodyne", [True, False])
    @pytest.mark.parametrize("illumination", ["qi", "ci"])
    @pytest.mark.parametrize("detector", ["covariance_detector", "energy_detector"])
    def test_moments_match_isserlis(self, detector, illumination, heterodyne):
        # mean tr(A S) + m^T A m, variance (2 tr(A S A S) + 4 m^T A S A m)/k
        run, conjugate = _ILLUMINATIONS[illumination]
        k, n = 2000, 4000
        scenario = make_scenario(
            r=math.asinh(1.0), samples_per_decision=k, n_decisions=n, detector=detector,
            heterodyne=heterodyne,
        )
        samples = run(scenario)
        form = _form(detector, conjugate)
        moments = _record_moments(illumination, scenario.r, heterodyne)
        for values, (mean, cov) in zip((samples.h1, samples.h0), moments):
            a_s = form @ cov
            mu = np.trace(a_s) + mean @ form @ mean
            var = (2.0 * np.trace(a_s @ a_s) + 4.0 * mean @ a_s @ form @ mean) / k
            assert abs(values.mean() - mu) < 5.0 * math.sqrt(var / n)
            assert abs(values.var(ddof=1) / var - 1.0) < 5.0 * math.sqrt(2.0 / (n - 1))


class _CountingGenerator:
    """A Generator that records the degrees of freedom of each chi-square draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.dfs = rng, []

    def chisquare(self, df, size):
        self.dfs.append(df)
        return self.rng.chisquare(df, size)

    def noncentral_chisquare(self, df, nonc, size):
        self.dfs.append(df)
        return self.rng.noncentral_chisquare(df, nonc, size)


def _draws_per_hypothesis(illumination: str, scenario: QiScenario) -> list[list[float]]:
    """The degrees of freedom of each draw behind H1's statistics, then H0's:
    _sample_statistics gets each record alone and a counting generator."""
    sample, draws = receiver._sample_statistics, []

    def counting(rng, means, covs, form, k, n):
        stats = []
        for i in range(len(means)):
            counter = _CountingGenerator(rng)
            stats += sample(counter, means[i:i + 1], covs[i:i + 1], form, k, n)
            draws.append(counter.dfs)
        return stats

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(receiver, "_sample_statistics", counting)
        _ILLUMINATIONS[illumination][0](scenario)
    return draws


# The band within which weights are one: 64 eps times the largest |weight|.
_BAND = 64 * np.finfo(float).eps

# Weights as eigh gives them: ascending, each drawn from a few clusters and
# split inside a cluster by 0 to 200 eps, so some splits fall inside the band
# and some outside it; each weight's noncentrality is drawn beside it.
_WEIGHTS = st.lists(
    st.tuples(
        st.sampled_from([-3.0, -1.0, 0.0, 1e-300, 1.0, 2.5]),
        st.integers(0, 200),
        st.floats(0.0, 50.0),
    ),
    min_size=1, max_size=4,
).map(lambda members: sorted(
    (base + split * np.finfo(float).eps * max(1.0, abs(base)), noncentrality)
    for base, split, noncentrality in members
))


class TestSpectralDraws:
    """Each statistic makes one chi-square draw per distinct nonzero weight
    of L^T A L (``receiver._spectral_columns``)."""

    @pytest.mark.parametrize("illumination", ["qi", "ci"])
    @pytest.mark.parametrize("detector, columns", [("covariance_detector", 2), ("energy_detector", 1)])
    def test_one_draw_per_distinct_weight(self, illumination, detector, columns):
        # The preset's channels give weights -lam_-, -lam_-, lam_+, lam_+ (0, 0,
        # lam, lam for the energy detector): 4 draws per scenario, or 2, where
        # one draw per eigenvalue made 8.
        k = 16
        scenario = make_scenario(detector=detector, samples_per_decision=k, n_decisions=5)
        assert _draws_per_hypothesis(illumination, scenario) == [[2 * k] * columns] * 2

    @pytest.mark.parametrize("illumination", ["qi", "ci"])
    def test_distinct_weights_keep_a_draw_each(self, illumination):
        k = 16
        scenario = make_scenario(signal_channel=_SKEWED_NOISE, samples_per_decision=k, n_decisions=5)
        assert _draws_per_hypothesis(illumination, scenario) == [[k] * 4, [2 * k] * 2]

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.0, 3.0),
        log_n_b=st.floats(-3.0, 3.0),
        tau=st.floats(0.01, 1.0),
        detector=st.sampled_from(DETECTORS),
        heterodyne=st.booleans(),
        illumination=st.sampled_from(sorted(_ILLUMINATIONS)),
    )
    def test_the_band_holds_each_pair_together(self, r, log_n_b, tau, detector, heterodyne, illumination):
        # Over the preset's family of channels eigh splits a true +-lam pair
        # by a few eps * max|lam|, well inside the band.
        signal, background = low_signal_channels(10.0**log_n_b, tau)
        scenario = make_scenario(
            r=r, signal_channel=signal, background_channel=background, detector=detector,
            heterodyne=heterodyne, samples_per_decision=3, n_decisions=1,
        )
        columns = 2 if detector == "covariance_detector" else 1
        assert _draws_per_hypothesis(illumination, scenario) == [[6] * columns] * 2

    @settings(max_examples=300, deadline=None)
    @given(members=_WEIGHTS, k=st.integers(1, 5000))
    def test_each_column_replaces_weights_within_the_band(self, members, k):
        weights, noncentralities = (list(values) for values in zip(*members))
        band = _BAND * max(abs(w) for w in weights)
        columns = receiver._spectral_columns(weights, noncentralities, k)
        kept = [(w, nc) for w, nc in members if abs(w) > band]  # the others have no draw
        for weight, df, noncentrality in columns:
            count = round(df / k)
            assert df == k * count and 1 <= count <= len(kept)
            replaced, kept = kept[:count], kept[count:]
            assert all(abs(weight - w) <= band for w, _ in replaced)
            assert noncentrality == pytest.approx(sum(nc for _, nc in replaced), rel=1e-15)
            # The next column starts more than the band above this one's least weight.
            assert not kept or kept[0][0] - replaced[0][0] > band
        assert not kept

    # samples_per_decision may be any integer up to float range.  A merged
    # draw has k m degrees of freedom, which can leave float range (an
    # untyped OverflowError), and its weighted value can overflow where one
    # draw per weight cancels in the sum.  Such weights keep a draw each.
    # Their weighted sum, near k times the statistic, left float range too,
    # and those runs raised; the draws are summed scaled by a power of two,
    # so only a CI tone's noncentrality k c^2 still overflows.
    @pytest.mark.parametrize("illumination, detector, k, noiseless, fails", [
        ("qi", "covariance_detector", int(1.7e308), False, False),
        ("ci", "covariance_detector", int(1.7e308), False, False),
        ("qi", "energy_detector", int(1.7e308), False, False),
        ("ci", "energy_detector", int(1.7e308), False, False),
        ("qi", "covariance_detector", 10**308, False, False),
        ("ci", "covariance_detector", 10**308, False, False),
        ("qi", "energy_detector", 10**308, False, False),
        ("ci", "energy_detector", 10**308, False, False),
        ("qi", "covariance_detector", 6 * 10**307, False, False),
        ("ci", "covariance_detector", 6 * 10**307, False, False),
        ("qi", "covariance_detector", int(1.7e308), True, False),
        ("ci", "covariance_detector", int(1.7e308), True, True),
        ("qi", "energy_detector", int(1.7e308), True, False),
        ("ci", "energy_detector", int(1.7e308), True, False),
    ], ids=lambda value: f"k={value:.2g}" if isinstance(value, int) and not isinstance(value, bool) else None)
    def test_samples_per_decision_near_float_range(self, illumination, detector, k, noiseless, fails):
        n_b, tau, heterodyne = (0.0, 1.0, False) if noiseless else (N_B, TAU, True)
        signal, background = low_signal_channels(n_b, tau)
        scenario = make_scenario(
            signal_channel=signal, background_channel=background, heterodyne=heterodyne,
            detector=detector, samples_per_decision=k, n_decisions=20,
        )
        run, conjugate = _ILLUMINATIONS[illumination]
        if fails:
            with pytest.raises(UndefinedQuantityError, match="^the decision statistic is beyond float range$"):
                run(scenario)
            return
        # Over ~1e308 records each statistic is its mean to rounding.
        samples, form = run(scenario), _form(detector, conjugate)
        moments = _record_moments(illumination, scenario.r, heterodyne, n_b, tau)
        for values, (mean, cov) in zip((samples.h1, samples.h0), moments):
            assert values == pytest.approx(np.full(20, np.trace(form @ cov) + mean @ form @ mean), abs=1e-12)


# Heavily tied samples: small integers, short floats and both signed zeros.
_TIED_SAMPLES = st.integers(-3, 3) | st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])


class TestRocCurve:
    def test_identical_distributions_chance_auc(self, rng):
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000)
        assert roc_curve(a, b).auc == pytest.approx(0.5, abs=0.01)

    def test_perfect_separation(self):
        assert roc_curve([0.0, 1.0, 2.0], [10.0, 11.0]).auc == 1.0

    def test_endpoints_and_monotonicity(self, rng):
        roc = roc_curve(rng.standard_normal(500), 1.0 + rng.standard_normal(500))
        assert roc.pfa[0] == 1.0 and roc.pfa[-1] == 0.0
        assert roc.pd[0] == 1.0 and roc.pd[-1] == 0.0
        assert (np.diff(roc.pfa) <= 0).all()
        assert (np.diff(roc.pd) <= 0).all()

    def test_auc_invariant_under_monotone_transform(self, rng):
        h0 = rng.standard_normal(400)
        h1 = 0.5 + rng.standard_normal(400)
        base = roc_curve(h0, h1).auc
        assert roc_curve(np.exp(h0), np.exp(h1)).auc == pytest.approx(base, abs=1e-12)

    def test_correlation_ordering(self):
        # Larger rho at the same noise must dominate in AUC.
        weak = run_detection(make_scenario(r=math.asinh(0.1), n_decisions=1500))
        strong = run_detection(make_scenario(r=math.asinh(0.35), n_decisions=1500))
        assert roc_curve(strong.h0, strong.h1).auc > roc_curve(weak.h0, weak.h1).auc

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            roc_curve([], [1.0])

    # Before, NaN and +-inf gave a finite AUC (0.5 and 1.0 for the first two,
    # where the finite samples give 1.0), and an integer beyond float range
    # leaked a bare OverflowError.
    @pytest.mark.parametrize("h0, h1", [
        ([math.nan, 0.1], [1.0, 2.0]),
        ([1.0, 2.0], [math.nan]),
        ([-math.inf, 0.0], [1.0]),
        ([0.0], [math.inf]),
        ([10**400, 0.0], [1.0]),
    ])
    def test_non_finite_samples_rejected(self, h0, h1):
        with pytest.raises(ValidationError, match="^hypothesis samples must be finite$"):
            roc_curve(h0, h1)

    @settings(max_examples=200, deadline=None)
    @given(
        h0=st.lists(_TIED_SAMPLES, min_size=1, max_size=40),
        h1=st.lists(_TIED_SAMPLES, min_size=1, max_size=40),
    )
    @example(h0=[0.0], h1=[-0.0])
    @example(h0=[-0.0, -0.0], h1=[2, 1, 1])
    @example(h0=[1, 1, -0.0], h1=[0.0])
    def test_bit_equal_to_the_rank_oracle(self, h0, h1):
        # One stable merge of the sorted sets gives the rank oracle's rates,
        # thresholds and AUC bit for bit.  Which zero np.unique keeps of a tie
        # between -0.0 and 0.0 is numpy's own choice (a hash table's order, or
        # an unstable sort's), so where both occur the zero is compared by value.
        roc, oracle = roc_curve(h0, h1), roc_by_ranks(h0, h1)
        zeros = np.signbit([x for x in h0 + h1 if x == 0])
        both_zeros = zeros.any() and not zeros.all()
        thresholds = [t + 0.0 if both_zeros else t for t in (roc.thresholds, oracle.thresholds)]
        for new, old in ((roc.pfa, oracle.pfa), (roc.pd, oracle.pd), thresholds):
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
        assert np.float64(roc.auc).view(np.int64) == np.float64(oracle.auc).view(np.int64)

    @settings(max_examples=200, deadline=None)
    @given(
        h0=st.lists(_TIED_SAMPLES, min_size=1, max_size=40),
        h1=st.lists(_TIED_SAMPLES, min_size=1, max_size=40),
    )
    def test_auc_equals_the_lexsorted_trapezoid(self, h0, h1):
        # Heavily tied samples give runs of equal pfa and of equal pd; the
        # curve reversed is already in (pfa, pd) order, so the AUC is the
        # same bits as the trapezoid over the lexsorted points.
        roc = roc_curve(h0, h1)
        order = np.lexsort((roc.pd, roc.pfa))
        assert roc.auc == float(np.trapezoid(roc.pd[order], roc.pfa[order]))


class TestCiBaseline:
    def test_r_zero_chance_for_both(self):
        scenario = make_scenario(r=0.0, n_decisions=3000, samples_per_decision=30)
        qi = run_detection(scenario)
        ci = ci_baseline(scenario)
        assert roc_curve(qi.h0, qi.h1).auc == pytest.approx(0.5, abs=0.02)
        assert roc_curve(ci.h0, ci.h1).auc == pytest.approx(0.5, abs=0.02)

    def test_low_signal_quantum_advantage(self):
        scenario = make_scenario(n_decisions=2500, samples_per_decision=2000)
        qi = run_detection(scenario)
        ci = ci_baseline(scenario)
        assert roc_curve(qi.h0, qi.h1).auc > roc_curve(ci.h0, ci.h1).auc + 0.05

    def test_strong_signal_advantage_shrinks(self):
        low = make_scenario(n_decisions=1200, samples_per_decision=2000)
        strong = make_scenario(
            r=math.asinh(2.0), n_decisions=1200, samples_per_decision=6,
        )
        gaps = {}
        for name, scenario in (("low", low), ("strong", strong)):
            qi = roc_curve(*dataclasses.astuple(run_detection(scenario))).auc
            ci = roc_curve(*dataclasses.astuple(ci_baseline(scenario))).auc
            gaps[name] = qi - ci
        assert gaps["strong"] < gaps["low"]

    @pytest.mark.parametrize("r", [710.3, 800.0])
    def test_tone_beyond_float_range_is_a_validation_error(self, r):
        # At r = 800 math.sinh raised a bare OverflowError; at 710.3 sinh is
        # finite but sqrt(2) sinh(r) is not, and the tone's mean failed
        # without naming r.
        with pytest.raises(ValidationError, match=rf"sinh\(r\) is beyond float range \(r = {r!r}\)"):
            ci_baseline(make_scenario(r=r))

    def test_matched_seed_decisions(self):
        scenario = make_scenario(n_decisions=50)
        qi = run_detection(scenario)
        ci = ci_baseline(scenario)
        assert qi.h0.shape == ci.h0.shape


class TestScenarioValidation:
    def test_counts_positive(self):
        with pytest.raises(ValidationError):
            make_scenario(n_decisions=0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"r": math.nan}, "r must be finite"),
            ({"r": math.inf}, "r must be finite"),
            ({"r": -0.1}, "r must be non-negative"),
            ({"samples_per_decision": 0}, "samples_per_decision must be positive"),
            ({"n_decisions": 0}, "n_decisions must be positive"),
            ({"seed": -1}, "seed must be an integer >= 0"),
        ],
    )
    def test_field_rules(self, changes, message):
        # Rejected at construction, with no RuntimeWarning (an error here).
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_scenario(**changes)

    @pytest.mark.parametrize("name", ["samples_per_decision", "n_decisions", "seed"])
    @pytest.mark.parametrize("value", [2.5, 20.0, True, np.float64(3.0)])
    def test_counts_and_seed_are_integers(self, name, value):
        # A fractional n_decisions or seed used to reach numpy as a bare
        # TypeError, and a fractional samples_per_decision drew chi-squares
        # with fractional degrees of freedom, which no mean over records has.
        with pytest.raises(ValidationError, match=f"^{name} must be an integer "):
            make_scenario(**{name: value})

    def test_decision_count_is_one_numpy_can_hold(self):
        limit = np.iinfo(np.intp).max // 32  # the largest (n, 4) float array
        with pytest.raises(ValidationError, match=f"^n_decisions must be an integer from 1 to {limit}$"):
            make_scenario(n_decisions=limit + 1)

    @pytest.mark.parametrize("name", ["samples_per_decision", "n_decisions", "seed"])
    def test_numpy_integers_accepted(self, name):
        scenario = make_scenario(**{name: np.int64(3)}, r=0.1)
        assert run_detection(scenario).h0.shape == (scenario.n_decisions,)

    def test_seed_beyond_float_range_accepted(self):
        assert make_scenario(seed=10**400).seed == 10**400

    def test_detector_choices(self):
        with pytest.raises(ValidationError):
            make_scenario(detector="telepathy")

    def test_channel_arity(self):
        bad = attenuation_channel(0.1, 1.0).expand(0, 2)
        with pytest.raises(ValidationError):
            make_scenario(signal_channel=bad)
