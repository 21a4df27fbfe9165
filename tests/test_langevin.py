"""Langevin machinery: thermal occupations, diffusion assembly, stability,
the Lyapunov steady state, and transient propagation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants
from scipy.linalg import solve_continuous_lyapunov

from qradar.errors import NoSteadyStateError, ValidationError
from qradar.gaussian import GaussianState
from qradar.langevin import (
    BathSpec,
    LinearLangevinModel,
    diffusion_from_baths,
    is_stable,
    propagate_cov,
    steady_state_cov,
    thermal_occupation,
)


def random_stable_model(rng, dim=6):
    a = rng.uniform(-1.0, 1.0, (dim, dim))
    shift = max(float(np.linalg.eigvals(a).real.max()), 0.0) + 0.5
    a -= shift * np.eye(dim)
    d = rng.uniform(-1.0, 1.0, (dim, dim))
    d = d @ d.T
    labels = tuple(f"m{i}" for i in range(dim // 2))
    return LinearLangevinModel(a, d, labels)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(1e9, 0.0) == 0.0

    def test_ln2_point(self):
        # hbar w / kB T = ln 2 gives exactly one photon.
        omega = 1e9
        temperature = constants.hbar * omega / (constants.k * math.log(2.0))
        assert thermal_occupation(omega, temperature) == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_jeans_regime(self):
        omega = 2 * math.pi * 1e6
        exact = thermal_occupation(omega, 1.0)
        rj = constants.k * 1.0 / (constants.hbar * omega)
        assert exact == pytest.approx(2.08e4, rel=0.01)
        assert abs(rj - exact) / exact < 1e-3

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            thermal_occupation(0.0, 1.0)

    def test_nan_omega_rejected(self):
        # omega <= 0 is False for NaN, which used to return NaN.
        with pytest.raises(ValidationError, match="omega > 0"):
            thermal_occupation(math.nan, 1.0)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_non_finite_temperature_rejected(self, temperature):
        # inf used to divide by expm1(0) = 0, and NaN returned NaN.
        with pytest.raises(ValidationError, match="temperature must be finite"):
            thermal_occupation(1e9, temperature)

    @given(
        st.floats(min_value=1e3, max_value=1e15),
        st.floats(min_value=0.0, max_value=400.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_monotone_in_temperature(self, omega, temperature, bump):
        assert thermal_occupation(omega, temperature + bump) >= thermal_occupation(
            omega, temperature
        )


class TestDiffusionFromBaths:
    def test_cold_cavity(self):
        d = diffusion_from_baths([BathSpec(1e9, 1.0, 0.0, "cavity")])
        assert np.array_equal(d, np.eye(2))

    def test_mechanical_block(self):
        # gamma (2N + 1) on the momentum diagonal only; N = 2 via temperature.
        omega = 1e9
        temperature = constants.hbar * omega / (constants.k * math.log(1.5))
        d = diffusion_from_baths([BathSpec(omega, 0.1, temperature, "mechanical")])
        assert d == pytest.approx(np.diag([0.0, 0.5]), rel=1e-9)

    def test_independent_baths_block_diagonal(self):
        d = diffusion_from_baths([
            BathSpec(1e9, 1.0, 0.0, "cavity"),
            BathSpec(1e6, 0.5, 0.0, "mechanical"),
        ])
        assert np.array_equal(d[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(d[2:, :2], np.zeros((2, 2)))


class TestStability:
    def test_damped_identity(self):
        m = LinearLangevinModel(-np.eye(2), np.zeros((2, 2)), ("a",))
        assert is_stable(m).stable

    def test_undamped_oscillator_marginal(self):
        m = LinearLangevinModel(
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)), ("a",)
        )
        result = is_stable(m)
        assert not result.stable
        assert result.max_real_part == pytest.approx(0.0, abs=1e-12)


class TestModelValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_diffusion(self, bad):
        d = np.eye(2)
        d[1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            LinearLangevinModel(-np.eye(2), d, ("a",))


class TestSteadyState:
    def test_diagonal_balance(self):
        # drift -kappa I with D = 2 kappa (n + 1/2) I relaxes to (n + 1/2) I.
        kappa, n = 3.0, 1.7
        m = LinearLangevinModel(
            -kappa * np.eye(2), 2 * kappa * (n + 0.5) * np.eye(2), ("a",)
        )
        assert steady_state_cov(m) == pytest.approx((n + 0.5) * np.eye(2))

    def test_zero_diffusion(self, rng):
        m = random_stable_model(rng)
        m = LinearLangevinModel(m.drift, np.zeros_like(m.drift), m.mode_labels)
        assert abs(steady_state_cov(m)).max() < 1e-12

    def test_matches_scipy(self, rng):
        for _ in range(10):
            m = random_stable_model(rng)
            v = steady_state_cov(m)
            v_ref = solve_continuous_lyapunov(m.drift, -m.diffusion)
            assert abs(v - v_ref).max() < 1e-9 * max(1.0, abs(v_ref).max())

    def test_residual(self, rng):
        m = random_stable_model(rng)
        v = steady_state_cov(m)
        residual = abs(m.drift @ v + v @ m.drift.T + m.diffusion).max()
        assert residual <= 1e-9 * abs(m.diffusion).max()

    def test_matches_long_time_ode(self, rng):
        for _ in range(5):
            m = random_stable_model(rng)
            t_long = 50.0 / abs(np.linalg.eigvals(m.drift).real.max())
            v_ode = propagate_cov(m, np.zeros_like(m.drift), t_long)
            assert abs(steady_state_cov(m) - v_ode).max() < 1e-6

    def test_unstable_raises_with_eigenvalue(self):
        m = LinearLangevinModel(np.eye(2), np.eye(2), ("a",))
        with pytest.raises(NoSteadyStateError) as err:
            steady_state_cov(m)
        assert err.value.eigenvalue == pytest.approx(1.0)


class TestPropagation:
    def test_time_zero_identity(self, rng):
        m = random_stable_model(rng)
        v0 = np.eye(6)
        assert np.array_equal(propagate_cov(m, v0, 0.0), v0)

    def test_pure_decay_closed_form(self):
        kappa = 2.0
        m = LinearLangevinModel(-kappa * np.eye(2), np.zeros((2, 2)), ("a",))
        v0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        v = propagate_cov(m, v0, 0.7)
        assert v == pytest.approx(math.exp(-2 * kappa * 0.7) * v0, rel=1e-8)

    def test_symmetry_along_trajectory(self, rng):
        m = random_stable_model(rng)
        v = np.eye(6)
        for t in (0.1, 0.5, 2.0):
            v = propagate_cov(m, v, t)
            assert abs(v - v.T).max() < 1e-10

    def test_physicality_preserved_with_bath_diffusion(self):
        baths = [
            BathSpec(1e9, 0.8, 0.0, "cavity"),
            BathSpec(1e9, 0.3, 0.0, "cavity"),
        ]
        drift = np.array([
            [-0.8, 0.0, 0.4, 0.0],
            [0.0, -0.8, 0.0, -0.4],
            [-0.4, 0.0, -0.3, 0.0],
            [0.0, 0.4, 0.0, -0.3],
        ])
        m = LinearLangevinModel(drift, diffusion_from_baths(baths), ("a", "b"))
        v = 0.5 * np.eye(4)
        for t in (0.2, 1.0, 5.0):
            v = propagate_cov(m, v, t)
            GaussianState(2, np.zeros(4), v).validate_physical(1e-8)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValidationError):
            propagate_cov(random_stable_model(rng), np.eye(6), -1.0)
