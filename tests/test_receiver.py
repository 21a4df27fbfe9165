"""Detection chain: source covariance, the measured records against their
closed form, Monte-Carlo statistics against a record-drawing oracle, ROC
construction, and the classical baseline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qradar.channels import attenuation_channel, thermal_background_channel
from qradar import receiver
from qradar.errors import DegenerateStateError, UndefinedQuantityError, ValidationError
from qradar.gaussian import apply_channel
from qradar.receiver import (
    QiScenario,
    ci_baseline,
    low_signal_channels,
    roc_curve,
    run_detection,
    tmsv_cm,
)


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


class TestRecords:
    """The measured records both illuminations sample, against their closed form."""

    @pytest.mark.parametrize("n_b, tau", [(N_B, TAU), (0.0, 1.0), (3.0, 0.7)])
    @pytest.mark.parametrize("heterodyne", [True, False])
    @pytest.mark.parametrize("illumination", ["qi", "ci"])
    def test_closed_form(self, monkeypatch, illumination, heterodyne, n_b, tau):
        sampled = []

        def recording(rng, mean, cov, form, k, n):
            sampled.append((mean, cov))
            return np.zeros(n)

        monkeypatch.setattr(receiver, "_sample_statistic", recording)
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
        modes = []

        def counting(state, channel):
            modes.append(state.n_modes)
            return apply_channel(state, channel)

        monkeypatch.setattr(receiver, "apply_channel", counting)
        run(make_scenario(n_decisions=5))
        assert modes == [2, 2]

    # At 5e307 photons the statistic overflowed inside the matmul, and a
    # tone of sinh^2(354) photons overflowed in k c^2: each leaked a
    # RuntimeWarning and gave inf or NaN statistics.
    @pytest.mark.parametrize("run, r", [
        (run_detection, math.asinh(math.sqrt(5e307))),
        (ci_baseline, 354.0),
    ])
    def test_statistic_beyond_float_range_raises(self, run, r):
        scenario = make_scenario(r=r, n_decisions=50, seed=1)
        with pytest.raises(UndefinedQuantityError, match="^the decision statistic is beyond float range$"):
            run(scenario)


class TestSource:
    def test_r_zero_is_vacuum(self):
        assert np.array_equal(tmsv_cm(0.0).cov, 0.5 * np.eye(4))

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
        h0=st.lists(st.integers(-3, 3) | st.floats(-3.0, 3.0), min_size=1, max_size=40),
        h1=st.lists(st.integers(-3, 3) | st.floats(-3.0, 3.0), min_size=1, max_size=40),
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
            ({"seed": -1}, "seed must be non-negative"),
        ],
    )
    def test_field_rules(self, changes, message):
        # Rejected at construction, with no RuntimeWarning (an error here).
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_scenario(**changes)

    def test_seed_beyond_float_range_accepted(self):
        assert make_scenario(seed=10**400).seed == 10**400

    def test_detector_choices(self):
        with pytest.raises(ValidationError):
            make_scenario(detector="telepathy")

    def test_channel_arity(self):
        bad = attenuation_channel(0.1, 1.0).expand(0, 2)
        with pytest.raises(ValidationError):
            make_scenario(signal_channel=bad)
