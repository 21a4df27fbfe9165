"""Propagation channels: effective thermal occupation, attenuation, target
scattering, amplifiers, and round-trip composition."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from qradar.channels import (
    GaussianChannel,
    ThermalProfile,
    amplifier_channel,
    attenuation_channel,
    n_eff_closed,
    n_eff_general,
    round_trip,
    target_channel,
    thermal_background_channel,
)
from qradar.criteria import BipartiteBlocks, lambda_sph, two_eta
from qradar.errors import ConvergenceError, QradarError, UndefinedQuantityError, UnphysicalChannelError
from qradar.errors import ValidationError
from qradar import channels
from qradar.gaussian import GaussianState, _eigvalsh_rounding, apply_channel, vacuum_state
from qradar.receiver import tmsv_cm

from conftest import identity_channel, tmsv_cov


_PROFILE = dict(n_in=0.05, n_out=624.0, mu_in=0.5, mu_out=2.0, l0=0.3141, length=1.0)


class TestThermalProfile:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", sorted(_PROFILE))
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ThermalProfile(**{**_PROFILE, field: value})

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n_in": -1.0}, "n_in must be non-negative"),
            ({"n_out": -1.0}, "n_out must be non-negative"),
            ({"mu_in": -1.0}, "mu_in must be non-negative"),
            ({"mu_out": -1.0}, "mu_out must be non-negative"),
            ({"l0": -1.0}, "l0 must be non-negative"),
            ({"length": 0.0, "l0": 0.0}, "length must be positive"),
            ({"l0": 1.5}, "l0 must not exceed length"),
        ],
    )
    def test_each_rule_names_its_field(self, changes, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ThermalProfile(**{**_PROFILE, **changes})


class TestNeffClosed:
    def test_uniform_bath(self):
        p = ThermalProfile(n_in=0.7, n_out=0.7, mu_in=1.0, mu_out=3.0, l0=0.4, length=1.0)
        assert n_eff_closed(p) == pytest.approx(0.7, rel=1e-12)

    def test_fully_cryogenic_line(self):
        p = ThermalProfile(n_in=0.3, n_out=9.0, mu_in=1.0, mu_out=3.0, l0=1.0, length=1.0)
        assert n_eff_closed(p) == pytest.approx(0.3, rel=1e-12)

    def test_plug_in_example(self):
        # mu_in l0 = mu_out (L - l0) = ln 2 with n_in = 0, n_out = 1 -> 2/3.
        ln2 = math.log(2.0)
        p = ThermalProfile(n_in=0.0, n_out=1.0, mu_in=ln2 / 0.5, mu_out=ln2 / 0.5, l0=0.5, length=1.0)
        assert n_eff_closed(p) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_zero_absorption_undefined(self):
        p = ThermalProfile(n_in=0.0, n_out=1.0, mu_in=0.0, mu_out=0.0, l0=0.5, length=1.0)
        with pytest.raises(UndefinedQuantityError):
            n_eff_closed(p)

    def test_convex_combination(self, rng):
        for _ in range(30):
            p = ThermalProfile(
                n_in=rng.uniform(0, 3), n_out=rng.uniform(0, 3),
                mu_in=rng.uniform(0.01, 3), mu_out=rng.uniform(0.01, 3),
                l0=rng.uniform(0, 1), length=1.0,
            )
            val = n_eff_closed(p)
            assert min(p.n_in, p.n_out) - 1e-12 <= val <= max(p.n_in, p.n_out) + 1e-12


@st.composite
def _smooth_absorption(draw):
    """mu(x) = a + b sin(k x + phi) with |b| < a, and its integral from 0."""
    a = draw(st.floats(0.05, 3.0))
    b = a * draw(st.floats(-0.99, 0.99))
    k = draw(st.floats(0.1, 10.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    mu = lambda x: a + b * np.sin(k * x + phi)
    absorbed = lambda x: a * x + b / k * (math.cos(phi) - math.cos(k * x + phi))
    return mu, absorbed


@st.composite
def _quadratic_occupation(draw):
    """n(x) = c + d (x - x0)^2 with c + d (x - x0)^2 >= 0 for |x - x0| <= 5."""
    c = draw(st.floats(0.0, 10.0))
    d = draw(st.floats(-c / 25.0, 10.0))
    x0 = draw(st.floats(0.0, 5.0))
    return lambda x: c + d * (x - x0) ** 2


class TestNeffGeneral:
    def test_step_profile_matches_closed_form(self, rng):
        for _ in range(10):
            p = ThermalProfile(
                n_in=rng.uniform(0, 2), n_out=rng.uniform(0, 2),
                mu_in=rng.uniform(0.05, 3), mu_out=rng.uniform(0.05, 3),
                l0=rng.uniform(0.05, 0.95), length=1.0,
            )
            general = n_eff_general(
                p.absorption_at, p.occupation_at, p.length, breakpoints=(p.l0,)
            )
            assert abs(general - n_eff_closed(p)) <= 1e-8

    def test_constant_profile(self):
        assert n_eff_general(lambda x: 1.3, lambda x: 0.9, 2.0) == pytest.approx(0.9, rel=1e-10)

    def test_linear_ramp_bracketed(self):
        n_fn = lambda x: 0.2 + 1.1 * x
        val = n_eff_general(lambda x: 0.8, n_fn, 1.0)
        assert n_fn(0.0) < val < n_fn(1.0)

    def test_step_off_the_panel_edges_fails_the_order_check(self):
        # Without the breakpoint the step at l0 falls inside a panel, where a
        # fixed rule cannot resolve it: the 8- and 16-point results disagree.
        p = ThermalProfile(**_PROFILE)
        with pytest.raises(ConvergenceError):
            n_eff_general(p.absorption_at, p.occupation_at, p.length)
        general = n_eff_general(p.absorption_at, p.occupation_at, p.length, breakpoints=(p.l0,))
        assert general == pytest.approx(n_eff_closed(p), rel=1e-14)

    @pytest.mark.parametrize("mu_in", [1e300, 1e6])
    def test_panel_too_opaque_for_the_rule_fails(self, mu_in):
        # The 8- and 16-point rules agreed and were both wrong: 624.0 at
        # 1e300 and 394.443 at 1e6, against the closed form's 394.811.
        p = ThermalProfile(n_in=1.0, n_out=624.0, mu_in=mu_in, mu_out=2.0, l0=0.5, length=1.0)
        with pytest.raises(ConvergenceError, match=r"^a panel's optical depth .* exceeds 25\.0"):
            n_eff_general(p.absorption_at, p.occupation_at, p.length, breakpoints=(p.l0,))

    def test_opaque_panel_within_the_bound_matches_closed_form(self):
        # 1e3 / 64 panels: an optical depth of 15.6 per panel, under the bound.
        p = ThermalProfile(n_in=1.0, n_out=624.0, mu_in=1e3, mu_out=2.0, l0=0.5, length=1.0)
        general = n_eff_general(p.absorption_at, p.occupation_at, p.length, breakpoints=(p.l0,))
        assert abs(general - n_eff_closed(p)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1e3), st.floats(0.0, 1e3),
        *[st.floats(math.log(1e-3), math.log(1e300)).map(math.exp)] * 2,
        st.floats(0.01, 0.99),
    )
    def test_step_profile_agrees_or_fails_typed(self, n_in, n_out, mu_in, mu_out, l0):
        # Absorption up to 1e300 per metre: never a wrong finite value.
        p = ThermalProfile(n_in=n_in, n_out=n_out, mu_in=mu_in, mu_out=mu_out, l0=l0, length=1.0)
        try:
            general = n_eff_general(p.absorption_at, p.occupation_at, p.length, breakpoints=(p.l0,))
        except QradarError:
            return
        assert abs(general - n_eff_closed(p)) <= 1e-8 * n_eff_closed(p)

    def test_nan_absorption_raises(self):
        # An invalid profile value, caught at the nodes before any quadrature.
        with pytest.raises(ValidationError, match="mu must be finite"):
            n_eff_general(lambda x: math.nan, lambda x: 0.9, 1.0)

    @pytest.mark.parametrize(
        "mu, n, name",
        [
            (-1000.0, 0.9, "mu"),  # once overflowed exp() with a bare OverflowError
            (math.inf, 0.9, "mu"),  # once an inf - inf exponent
            (0.8, -3.0, "n"),  # once returned n_eff = -3 silently
            (0.8, math.inf, "n"),
            (0.8, math.nan, "n"),
        ],
    )
    def test_invalid_profile_value_rejected(self, mu, n, name):
        # Bad only past x = 0.5, so the check must see every node.
        with pytest.raises(ValidationError, match=f"{name} must be finite and non-negative"):
            n_eff_general(
                lambda x: np.where(x < 0.5, 0.8, mu), lambda x: np.where(x < 0.5, 0.9, n), 1.0,
                breakpoints=(0.5,),
            )

    # The first three raised a bare TypeError from np.linspace before.
    @pytest.mark.parametrize("points", [2.5, math.nan, "8", 0])
    def test_quadrature_points_must_be_a_positive_integer(self, points):
        with pytest.raises(ValidationError, match=r"^quadrature_points must be an integer >= 1, got "):
            n_eff_general(lambda x: 1.3, lambda x: 0.9, 2.0, quadrature_points=points)

    @pytest.mark.parametrize("points", [10**20, channels._MAX_QUADRATURE_POINTS + 1], ids=["1e20", "cap+1"])
    def test_quadrature_points_above_the_cap_rejected_before_allocating(self, points):
        # 10**20 raised a bare ValueError from np.linspace; a smaller huge
        # value would have tried to allocate panels x 16 x 16 nested nodes.
        def profile(x):
            raise AssertionError("the profile was evaluated")

        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=rf"^quadrature_points must be <= 4096, got {points}$"):
                n_eff_general(profile, profile, 2.0, quadrature_points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_quadrature_points_at_the_cap_accepted(self):
        cap = channels._MAX_QUADRATURE_POINTS
        assert n_eff_general(lambda x: 1.3, lambda x: 0.9, 2.0, quadrature_points=cap) == pytest.approx(0.9)

    @settings(max_examples=100, deadline=None)
    @given(_smooth_absorption(), _quadratic_occupation(), st.floats(0.1, 5.0))
    def test_smooth_profile_matches_adaptive_reference(self, mu, n, length):
        mu_fn, absorbed = mu
        total = absorbed(length)
        numerator, _ = integrate.quad(
            lambda x: mu_fn(x) * n(x) * math.exp(absorbed(x) - total),
            0.0, length, epsabs=0.0, epsrel=1e-13, limit=500,
        )
        reference = numerator / -math.expm1(-total)
        assert abs(n_eff_general(mu_fn, n, length) - reference) <= 1e-12 * reference

    @settings(max_examples=100, deadline=None)
    @given(_smooth_absorption(), st.floats(0.0, 1e3), st.floats(0.1, 5.0))
    # Subnormal occupations lost their low bits in the weighted products:
    # 3.8e-11 off for the first, 2% for the second.
    @example((lambda x: 1.3, lambda x: 1.3 * x), 2.225073858507e-311, 2.0)
    @example((lambda x: 1.3, lambda x: 1.3 * x), 5e-320, 2.0)
    def test_uniform_occupation_is_returned(self, mu, n, length):
        assert abs(n_eff_general(mu[0], lambda x: n, length) - n) <= 1e-12 * n


class TestAttenuation:
    def test_zero_distance_identity(self):
        ch = attenuation_channel(2e-6, 0.0, 5.0)
        assert np.array_equal(ch.X, np.eye(2))
        assert np.array_equal(ch.Y, np.zeros((2, 2)))

    def test_published_numbers(self):
        # kappa_atm = 2e-6 /m over 20 m: power transmissivity e^{-8e-5}.
        ch = attenuation_channel(2e-6, 20.0)
        assert ch.X[0, 0] ** 2 == pytest.approx(math.exp(-8e-5), rel=1e-12)

    def test_segment_composition_length_additive(self):
        a = attenuation_channel(0.02, 3.0, 1.2)
        b = attenuation_channel(0.02, 5.0, 1.2)
        combined = attenuation_channel(0.02, 8.0, 1.2)
        chained = a.then(b)
        assert abs(chained.X - combined.X).max() < 1e-12
        assert abs(chained.Y - combined.Y).max() < 1e-12

    def test_composition_associative(self):
        a = attenuation_channel(0.02, 3.0, 1.2)
        b = attenuation_channel(0.05, 5.0, 0.4)
        c = attenuation_channel(0.01, 2.0, 2.0)
        left = a.then(b).then(c)
        right = a.then(b.then(c))
        assert abs(left.X - right.X).max() < 1e-12
        assert abs(left.Y - right.Y).max() < 1e-12


class TestTarget:
    def test_perfect_mirror(self):
        ch = target_channel(0.0, 1.0, 7.0)
        assert np.array_equal(ch.X, np.eye(2))
        assert np.array_equal(ch.Y, np.zeros((2, 2)))

    def test_published_reflectivity(self):
        ch = target_channel(18.2, 0.01)
        assert ch.X[0, 0] == pytest.approx(math.exp(-0.182), rel=1e-12)

    def test_thermal_flooding_separates(self):
        state = GaussianState(2, np.zeros(4), tmsv_cov(1.0))
        flooded = apply_channel(state, target_channel(18.2, 0.01, 1e6).expand(0, 2))
        assert lambda_sph(BipartiteBlocks.from_covariance(flooded.cov)) >= 0


class TestAmplifier:
    def test_unit_gain_identity(self):
        ch = amplifier_channel(0.0)
        assert np.array_equal(ch.X, np.eye(2))
        assert np.array_equal(ch.Y, np.zeros((2, 2)))

    def test_quantum_limited_arithmetic(self):
        # G = 4: variance 4 * 0.5 + 3 * 0.5 = 3.5 for vacuum input.
        ch = amplifier_channel(10.0 * math.log10(4.0))
        out = apply_channel(vacuum_state(1), ch)
        assert out.cov[0, 0] == pytest.approx(3.5, rel=1e-12)

    def test_noncommuting_with_loss(self):
        amp = amplifier_channel(6.0, 0.2)
        loss = attenuation_channel(0.3, 1.0, 0.5)
        out_a = apply_channel(vacuum_state(1), amp.then(loss))
        out_b = apply_channel(vacuum_state(1), loss.then(amp))
        assert abs(out_a.cov - out_b.cov).max() > 1e-3

    def test_below_unity_gain_rejected(self):
        with pytest.raises(ValidationError, match="attenuation"):
            amplifier_channel(-3.0)


class TestRoundTrip:
    def test_identity_composition(self):
        ch = round_trip(identity_channel(), identity_channel(), identity_channel())
        assert np.array_equal(ch.X, np.eye(2))

    def test_multiplicative_transmissivity(self):
        kappa_atm, distance = 2e-6, 20.0
        out = attenuation_channel(kappa_atm, distance)
        target = target_channel(18.2, 0.01)
        composite = round_trip(out, target, out)
        r_eff = math.exp(-18.2 * 0.01)
        tau_total = r_eff**2 * math.exp(-4 * kappa_atm * distance)
        assert composite.X[0, 0] ** 2 == pytest.approx(tau_total, rel=1e-12)

    def test_two_eta_monotone_in_loss_parameters(self):
        state = GaussianState(2, np.zeros(4), tmsv_cov(0.6))

        def eta_after(distance=10.0, thickness=0.01, n_env=0.1):
            out = attenuation_channel(5e-3, distance, n_env)
            target = target_channel(18.2, thickness, 0.1)
            composite = round_trip(out, target, out)
            final = apply_channel(state, composite.expand(0, 2))
            return two_eta(BipartiteBlocks.from_covariance(final.cov))

        for axis, values in (
            ("distance", np.linspace(1.0, 80.0, 8)),
            ("thickness", np.linspace(0.005, 0.12, 8)),
            ("n_env", np.linspace(0.0, 3.0, 8)),
        ):
            previous = -np.inf
            for v in values:
                value = eta_after(**{axis: float(v)})
                assert value >= previous - 1e-12, axis
                previous = value


def _cp_defect(ch: GaussianChannel) -> float:
    """The smallest eigenvalue of Y + (i/2)(Omega - X Omega X^T)."""
    omega = np.kron(np.eye(ch.n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.linalg.eigvalsh(ch.Y + 0.5j * (omega - ch.X @ omega @ ch.X.T)).min())


def test_every_constructor_is_completely_positive():
    for ch in (
        attenuation_channel(0.2, 3.0, 0.7),
        target_channel(5.0, 0.05, 0.3),
        amplifier_channel(8.0, 0.1),
        thermal_background_channel(2.0),
        identity_channel(),
    ):
        assert _cp_defect(ch) >= -1e-12


class TestCompletePositivity:
    """A channel is held to the complete-positivity bound once, where it is
    made, within the eigensolver's rounding."""

    @pytest.mark.parametrize("added_noise", [0.0, 0.3])
    def test_amplifier_at_every_gain_is_made_and_applied(self, added_noise):
        # Quantum-limited, the defect is 0 exactly, and eigvalsh rounds it by
        # up to about 4 eps max|M|; an absolute -1e-9 bound rejected 54 of
        # these gains, the first at 130 dB.
        for gain_db in np.arange(0.0, 3001.0, 10.0):
            out = apply_channel(vacuum_state(1), amplifier_channel(float(gain_db), added_noise))
            g = 10.0 ** (gain_db / 10.0)
            assert out.cov[0, 0] == pytest.approx(0.5 * g + (g - 1.0) * (added_noise + 0.5), rel=1e-12)

    @pytest.mark.parametrize("x, y, defect", [
        # Gain 4 needs added noise of at least (G - 1)/2 = 1.5 per quadrature.
        (2 * np.eye(2), 1.5 * (1 - 1e-6) * np.eye(2), r"-1\.500e-06"),
        # A defect of 1e-7, below the absolute floor 1e-9 but inside a 1e-6 one.
        (np.zeros((2, 2)), (0.5 - 1e-7) * np.eye(2), r"-1\.000e-07"),
        # A defect of 1e-3 past the rounding band 32 eps max|M| = 7.1e-5, but
        # inside a band 100 times as wide.
        (np.zeros((2, 2)), np.diag([1e10, 1 / 4e10 - 1e-3]), r"-1\.000e-03"),
    ], ids=["amplifier", "floor", "rounding-band"])
    def test_below_the_quantum_limit_rejected(self, x, y, defect):
        with pytest.raises(UnphysicalChannelError, match=f"defect {defect}"):
            GaussianChannel(x, y)

    def test_matrices_are_read_only_copies(self):
        # A caller's array changed after construction could make the channel
        # non-CP behind the one check; the channel holds its own copies.
        x, y = math.sqrt(0.5) * np.eye(2), 0.25 * np.eye(2)
        ch = GaussianChannel(x, y, "half loss")
        x *= 4.0
        assert np.array_equal(ch.X, math.sqrt(0.5) * np.eye(2))
        for m in (ch.X, ch.Y):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 4.0

    @pytest.mark.parametrize("x", [1e160 * np.eye(2), np.full((2, 2), 1e160)])
    def test_cp_matrix_beyond_float_range_rejected(self, x):
        # X Omega X^T overflows to inf; an inf (or NaN) max|M| made a bound
        # that no defect fell below.  A finite X Omega X^T is checked as
        # usual: diag(1e160, 1e-160) is symplectic, so with Y = I it is CP.
        with pytest.raises(UnphysicalChannelError, match="defect -inf"):
            GaussianChannel(x, np.eye(2))
        GaussianChannel(np.diag([1e160, 1e-160]), np.eye(2))

    def test_each_embedding_is_made_and_decided_once(self, monkeypatch):
        # A channel is frozen with read-only X and Y, so expand hands back the
        # embedding it made, and decided CP, the first time.
        decisions = []

        def counting(m):
            decisions.append(m.shape)
            return _eigvalsh_rounding(m)

        ch = attenuation_channel(0.2, 3.0, 0.7)
        monkeypatch.setattr(channels, "_eigvalsh_rounding", counting)
        assert ch.expand(0, 2) is ch.expand(0, 2)
        assert ch.expand(1, 2) is not ch.expand(0, 2)
        assert decisions == [(4, 4), (4, 4)]
        assert "embeddings" not in repr(ch)

    def test_a_bad_embedding_raises_on_every_call(self):
        # A float mode raised a bare TypeError from the slice before, and
        # would find the embedding kept for mode 0.
        ch = attenuation_channel(0.2, 3.0, 0.7)
        two_mode = ch.expand(0, 2)
        for _ in range(2):
            with pytest.raises(ValidationError, match="mode index 2 out of range for 2 modes"):
                ch.expand(2, 2)
            with pytest.raises(ValidationError, match="mode index 0.0 and mode count 2 must be integers"):
                ch.expand(0.0, 2)
            with pytest.raises(ValidationError, match="only applies to single-mode channels"):
                two_mode.expand(0, 2)

    def test_each_composite_is_made_and_decided_once(self, monkeypatch):
        # As expand keeps its embeddings, then keeps the composite it made
        # for each other channel, so a reused round trip is composed once.
        decisions = []

        def counting(m):
            decisions.append(m.shape)
            return _eigvalsh_rounding(m)

        a, b = attenuation_channel(0.2, 3.0, 0.7), target_channel(1.0, 0.5, 2.0)
        monkeypatch.setattr(channels, "_eigvalsh_rounding", counting)
        assert a.then(b) is a.then(b)
        assert a.then(a) is not a.then(b)
        assert b.then(a) is not a.then(b)
        assert decisions == [(2, 2)] * 3
        assert round_trip(a, b, a) is round_trip(a, b, a)
        assert decisions == [(2, 2)] * 4  # (a then b) then a, once
        assert [f.name for f in dataclasses.fields(a)] == ["X", "Y", "description"]
        assert "composites" not in repr(a)

    def test_a_mismatched_composite_raises_on_every_call(self):
        ch = attenuation_channel(0.2, 3.0, 0.7)
        mismatch = r"cannot compose channels of shape \(2, 2\) and \(4, 4\)"
        for _ in range(2):
            with pytest.raises(ValidationError, match=mismatch):
                ch.then(ch.expand(0, 2))

    def test_a_composite_beyond_float_range_fails_typed(self):
        # The composite noise of two 2000 dB amplifiers, G Y G^T + Y, is
        # beyond float range: its product leaked an overflow RuntimeWarning
        # before the typed error.
        with pytest.raises(ValidationError, match="^channel noise matrix Y must be finite$"):
            amplifier_channel(2000.0).then(amplifier_channel(2000.0))

    @pytest.mark.parametrize("state, what", [
        (tmsv_cm(200.0), "cov"),
        (GaussianState(2, [1e300, 0.0, 0.0, 0.0], 0.5 * np.eye(4)), "mean"),
    ])
    def test_an_image_beyond_float_range_fails_typed(self, state, what):
        # The image's X V X^T (or X m) overflowed, with overflow and invalid
        # value RuntimeWarnings, before the state's typed error.
        with pytest.raises(ValidationError, match=f"^state invariant violated: {what} must be finite$"):
            apply_channel(state, amplifier_channel(3000.0).expand(0, 2))
