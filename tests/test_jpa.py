"""Parametric amplifier: derived circuit values, classical pump field,
scattering/gain, and the intracavity squeezed covariance."""

import cmath
import math

import numpy as np
import pytest
from scipy import constants

from qradar.errors import ThresholdError, ValidationError
from qradar.gaussian import GaussianState
from qradar.jpa import (
    JpaParams,
    build_params,
    classical_field,
    derived_params,
    intracavity_cov,
    scattering_matrix,
    signal_power_gain,
)


def synthetic_params(kappa: float, lambda1: complex, delta0: float = 0.0) -> JpaParams:
    return JpaParams(
        e_c=1.0, omega0=1.0, kappa=kappa, delta0=delta0, lambda1=lambda1, branch_count=1,
    )


class TestDerivedParams:
    def test_normalized_identity(self):
        # E_c = E_J = 1 would give omega0 = sqrt(8); check the scaling law
        # through the capacitance that produces E_c = 1 rad/s.
        cap = constants.e**2 / (2.0 * constants.hbar)
        e_c, omega0, kerr = derived_params(1.0, cap)
        assert e_c == pytest.approx(1.0, rel=1e-12)
        assert omega0 == pytest.approx(math.sqrt(8.0), rel=1e-12)
        assert kerr == pytest.approx(-0.5, rel=1e-12)

    def test_capacitance_scaling(self):
        e_c1, w1, k1 = derived_params(1e10, 1e-12)
        e_c2, w2, k2 = derived_params(1e10, 2e-12)
        assert e_c2 == pytest.approx(e_c1 / 2, rel=1e-12)
        assert k2 == pytest.approx(k1 / 2, rel=1e-12)
        assert w2 == pytest.approx(w1 / math.sqrt(2), rel=1e-12)

    def test_unit_consistency(self):
        # Evaluate omega0 in rad/s units and in joule units; they must agree.
        e_j = 2 * math.pi * 50e9
        cap = 1e-12
        _, omega0, _ = derived_params(e_j, cap)
        e_c_joule = constants.e**2 / (2 * cap)
        omega0_joule_route = math.sqrt(8 * e_c_joule * e_j * constants.hbar) / constants.hbar
        assert omega0 == pytest.approx(omega0_joule_route, rel=1e-12)


class TestClassicalField:
    def test_zero_drive(self):
        field = classical_field(1e10, -5e7, 1e7, 1e10, 0.0)
        assert field.alpha == 0.0

    def test_linear_resonant_closed_form(self):
        kappa, eps = 1e7, 1e3
        field = classical_field(1e10, 0.0, kappa, 1e10, eps)
        assert field.alpha == pytest.approx(-2j * eps / kappa, rel=1e-12)

    def test_kerr_residual(self):
        field = classical_field(1e10, -6e7, 1e7, 1e10 - 3e6, 5e5)
        assert field.residual <= 1e-10

    def test_linear_solve_option(self):
        # kerr = 0 is the linear response, off resonance too: one branch,
        # alpha = -j eps / (j delta + kappa/2), delta = omega0 - omega_p.
        kappa, eps, delta = 1e7, 5e5, 3e6
        linear = classical_field(1e10, 0.0, kappa, 1e10 - delta, eps)
        assert linear.alpha == pytest.approx(-1j * eps / (1j * delta + 0.5 * kappa), rel=1e-12)
        assert linear.branch_count == 1
        assert linear.residual <= 1e-12
        assert classical_field(1e10, -6e7, kappa, 1e10 - delta, eps).alpha != linear.alpha

    @pytest.mark.parametrize("eps, match", [
        # A bare OverflowError before.
        pytest.param(1e200, r"^\|epsilon\|\^2 is beyond float range", id="drive"),
        # alpha = nan before: the drive is finite, the intensity root is not.
        pytest.param(1e100, "^no finite positive intensity root", id="intensity"),
    ])
    def test_drive_beyond_float_range_rejected(self, eps, match):
        with pytest.raises(ValidationError, match=match):
            classical_field(1e10, -6e7, 1e7, 1e10, eps)


class TestScattering:
    def test_no_pump_unit_reflection(self):
        s = scattering_matrix(synthetic_params(1e6, 0.0), 0.0)
        assert s == pytest.approx(np.eye(2))

    def test_quarter_pump_gain(self):
        kappa = 1e6
        s = scattering_matrix(synthetic_params(kappa, kappa / 4), 0.0)
        assert abs(s[0, 0]) == pytest.approx(5.0 / 3.0, abs=1e-10)
        # Closed-form oracle (kappa^2/4 + |l|^2)/(kappa^2/4 - |l|^2).
        oracle = (kappa**2 / 4 + (kappa / 4) ** 2) / (kappa**2 / 4 - (kappa / 4) ** 2)
        assert abs(s[0, 0]) == pytest.approx(oracle, rel=1e-12)

    def test_bogoliubov_identity_random(self, rng):
        kappa = 1e6
        worst = 0.0
        for _ in range(20):
            lam = rng.uniform(0.0, 0.499) * kappa * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            params = synthetic_params(kappa, lam, delta0=rng.uniform(-2, 2) * kappa)
            for omega in np.linspace(-3 * kappa, 3 * kappa, 101):
                s = scattering_matrix(params, omega)
                worst = max(worst, abs(abs(s[0, 0]) ** 2 - abs(s[0, 1]) ** 2 - 1.0))
        assert worst < 1e-8

    def test_gain_monotone_and_diverging(self):
        kappa = 1e6
        gains = [
            signal_power_gain(synthetic_params(kappa, f * kappa / 2))
            for f in (0.2, 0.4, 0.8, 0.98, 0.998)
        ]
        assert all(b > a for a, b in zip(gains, gains[1:]))
        assert gains[-1] > 1e4

    def test_phase_covariance(self):
        kappa = 1e6
        base = synthetic_params(kappa, 0.3 * kappa)
        theta = 0.7
        rotated = synthetic_params(kappa, 0.3 * kappa * cmath.exp(1j * theta))
        s0 = scattering_matrix(base, 0.2 * kappa)
        s1 = scattering_matrix(rotated, 0.2 * kappa)
        assert abs(s1[0, 0]) == pytest.approx(abs(s0[0, 0]), rel=1e-12)
        assert abs(s1[0, 1]) == pytest.approx(abs(s0[0, 1]), rel=1e-12)
        assert cmath.phase(s1[0, 1] / s0[0, 1]) == pytest.approx(theta, rel=1e-9)

    def test_threshold_raises(self):
        kappa = 1e6
        with pytest.raises(ThresholdError, match="1.2"):
            scattering_matrix(synthetic_params(kappa, 0.6 * kappa), 0.0)

    def test_build_params_pipeline(self):
        e_j, cap = 2 * math.pi * 50e9, 1e-12
        kappa, eps = 2e7, 1.8e6
        e_c, omega0, kerr = derived_params(e_j, cap)
        omega_p = omega0 - 3e6  # detuned, so delta0 carries omega_0 - omega_p
        params = build_params(e_j, cap, kappa, omega_p, eps)
        alpha = classical_field(omega0, kerr, kappa, omega_p, eps).alpha
        assert (params.e_c, params.omega0) == (e_c, omega0)
        assert params.below_threshold
        assert params.lambda1 == pytest.approx(2 * alpha**2 * kerr)
        assert params.delta0 == pytest.approx(omega0 + 4 * abs(alpha) ** 2 * kerr - omega_p)
        s = scattering_matrix(params, 0.0)
        assert abs(abs(s[0, 0]) ** 2 - abs(s[0, 1]) ** 2 - 1.0) < 1e-10

    def test_no_pump_frequency_pumps_at_the_bare_resonance(self):
        # omega_p None is omega_0 of the circuit build_params solves, bit for
        # bit: a float's repr round-trips it, -0.0 apart from 0.0.
        e_j, cap = 2 * math.pi * 50e9, 1e-12
        _, omega0, _ = derived_params(e_j, cap)
        at_none, at_omega0 = (build_params(e_j, cap, 2e7, w, 1.8e6) for w in (None, omega0))
        assert repr(at_none) == repr(at_omega0)


class TestIntracavityCov:
    def test_vacuum_limit(self):
        cov = intracavity_cov(0.0)
        assert cov == pytest.approx(0.5 * np.eye(2), abs=1e-12)

    def test_squeezed_variances_closed_form(self):
        for g in (0.1, 0.3, 0.4999):
            evs = np.linalg.eigvalsh(intracavity_cov(g))
            assert evs[0] == pytest.approx(0.5 / (1 + 2 * g), rel=1e-9)
            assert evs[-1] == pytest.approx(0.5 / (1 - 2 * g), rel=1e-9)

    def test_states_physical(self):
        for g in (0.0, 0.25, 0.49):
            GaussianState(1, np.zeros(2), intracavity_cov(g)).validate_physical()

    def test_above_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            intracavity_cov(0.5)
