"""Gaussian state algebra: symplectic spectra, transposition, entropy,
Wigner evaluation, sampling, and channel application."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qradar.channels import GaussianChannel, attenuation_channel, identity_channel
from qradar.criteria import discord_reports, two_eta_values
from qradar.errors import (
    DegenerateStateError,
    PhysicalityError,
    UnphysicalChannelError,
    ValidationError,
)
from qradar.gaussian import (
    GaussianState,
    apply_channel,
    entropy_term,
    partial_transpose,
    sample,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_state,
    vacuum_state,
    von_neumann_entropy,
    wigner,
)
from qradar.langevin import LinearLangevinModel

from conftest import random_physical_two_mode, random_symplectic, tmsv_cov


def tmsv(r: float) -> GaussianState:
    return GaussianState(2, np.zeros(4), tmsv_cov(r))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(vacuum_state(1)) == pytest.approx([0.5])

    def test_thermal(self):
        assert symplectic_eigenvalues(thermal_state(1.0)) == pytest.approx([1.5])

    def test_tmsv_is_globally_pure(self):
        # Pure-state oracle: every global symplectic eigenvalue equals 1/2.
        assert symplectic_eigenvalues(tmsv(0.5)) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_invariance_under_symplectic_conjugation(self, rng):
        for _ in range(30):
            state = random_physical_two_mode(rng)
            s = random_symplectic(rng, 2)
            conjugated = GaussianState(2, np.zeros(4), s @ state.cov @ s.T)
            assert symplectic_eigenvalues(conjugated) == pytest.approx(
                symplectic_eigenvalues(state), rel=1e-9, abs=1e-11
            )

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3), (2, 4), (4,)])
    def test_rejects_malformed_covariance(self, shape):
        with pytest.raises(ValidationError, match="square 2N x 2N"):
            symplectic_eigenvalues(np.zeros(shape))

    def test_rejects_asymmetric(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="symmetric"):
            symplectic_eigenvalues(cov)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            GaussianState(1, [0.0, np.nan], 0.5 * np.eye(2))

    def test_physicality_validation(self):
        squeezed_too_far = GaussianState(1, np.zeros(2), np.diag([0.1, 0.1]))
        with pytest.raises(PhysicalityError):
            squeezed_too_far.validate_physical()

    @pytest.mark.parametrize("cov", [-0.5 * np.eye(2), np.diag([1.0, -1.0])])
    def test_non_positive_definite_rejected(self, cov):
        # Both have nu = (1/2 or 1) from |eig(Omega V)|, so only the
        # definiteness test tells them from a covariance.
        state = GaussianState(1, np.zeros(2), cov)
        assert symplectic_eigenvalues(state)[0] >= 0.5
        assert not state.is_physical()
        with pytest.raises(PhysicalityError, match="not positive definite"):
            state.validate_physical()


# Every boundary that takes a symmetric 4x4 matrix, through the one symmetry
# rule: asymmetric by more than 1e-10 * max(1, largest entry) is rejected.
SYMMETRIC_4X4_BOUNDARIES = {
    "GaussianState": lambda m: GaussianState(2, np.zeros(4), m),
    "discord_reports": lambda m: discord_reports(np.array([tmsv_cov(0.3), m])),
    "two_eta_values": lambda m: two_eta_values(np.array([tmsv_cov(0.3), m])),
    "LinearLangevinModel.diffusion": lambda m: LinearLangevinModel(-np.eye(4), m, ("a", "b")),
    "GaussianChannel.Y": lambda m: GaussianChannel(np.eye(4), m),
}


@st.composite
def symmetric_matrices(draw):
    """Symmetric 2x2 or 4x4 matrices: A A^T + shift I (physical or not),
    its negative -V, and indefinite A + A^T."""
    dim = 2 * draw(st.integers(1, 2))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    a = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    a = a.reshape(dim, dim)
    shape = draw(st.sampled_from(["gram", "negative", "indefinite"]))
    gram = a @ a.T + draw(st.floats(0.0, 2.0)) * np.eye(dim)
    return {"gram": gram, "negative": -gram, "indefinite": a + a.T}[shape]


class TestCovarianceRules:
    @pytest.mark.parametrize("scale", [0.75, 1e3])
    @pytest.mark.parametrize("boundary", list(SYMMETRIC_4X4_BOUNDARIES))
    def test_one_symmetry_tolerance_at_every_boundary(self, boundary, scale):
        build = SYMMETRIC_4X4_BOUNDARIES[boundary]
        tolerance = 1e-10 * max(1.0, scale)
        accepted = scale * np.eye(4)
        accepted[0, 1] += 0.5 * tolerance
        build(accepted)
        rejected = scale * np.eye(4)
        rejected[0, 1] += 2.0 * tolerance
        with pytest.raises(ValidationError, match="symmetric"):
            build(rejected)

    @given(symmetric_matrices(), st.sampled_from([0.0, 1e-9, 1e-6, 0.1]))
    def test_is_physical_iff_validate_physical_passes(self, cov, tol):
        state = GaussianState(len(cov) // 2, np.zeros(len(cov)), cov)
        try:
            state.validate_physical(tol)
        except PhysicalityError:
            valid = False
        else:
            valid = True
        assert state.is_physical(tol) == valid
        if valid:  # -V has the symplectic spectrum of V but is no covariance
            assert not GaussianState(state.n_modes, state.mean, -cov).is_physical(tol)


class TestPartialTranspose:
    def test_vacuum_invariant(self):
        pt = partial_transpose(vacuum_state(2), 0)
        assert np.array_equal(pt.cov, vacuum_state(2).cov)

    def test_involution_exact(self, rng):
        state = random_physical_two_mode(rng)
        twice = partial_transpose(partial_transpose(state, 1), 1)
        assert np.array_equal(twice.cov, state.cov)
        assert np.array_equal(twice.mean, state.mean)

    def test_tmsv_ppt_eigenvalue(self):
        # PPT oracle: nu_min of the transposed TMSV is e^{-2r}/2.
        pt = partial_transpose(tmsv(0.5), 1)
        assert symplectic_eigenvalues(pt).min() == pytest.approx(
            math.exp(-1.0) / 2.0, abs=1e-12
        )

    def test_preserves_determinant(self, rng):
        state = random_physical_two_mode(rng)
        pt = partial_transpose(state, 0)
        assert np.linalg.det(pt.cov) == pytest.approx(np.linalg.det(state.cov), rel=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            partial_transpose(vacuum_state(2), 2)


class TestEntropy:
    def test_vacuum_zero(self):
        assert von_neumann_entropy(vacuum_state(1)) == 0.0

    def test_thermal_n1_is_two_bits(self):
        # h(1.5) = 2 log2 2 - 1 log2 1 = 2.
        assert von_neumann_entropy(thermal_state(1.0)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.8, 1.5])
    def test_tmsv_global_purity(self, r):
        assert von_neumann_entropy(tmsv(r)) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_and_zero_iff_pure(self, rng):
        for _ in range(20):
            state = random_physical_two_mode(rng)
            s = von_neumann_entropy(state)
            assert s >= 0.0
            pure = all(abs(nu - 0.5) <= 1e-9 for nu in symplectic_eigenvalues(state))
            assert (s == 0.0) == pure

    @given(st.floats(min_value=0.5, max_value=1e6))
    def test_entropy_term_nonnegative(self, x):
        assert entropy_term(x) >= 0.0

    def test_entropy_term_elementwise(self):
        nus = np.array([0.3, 0.5, 0.5 + 1e-13, 1.5, 40.0, np.nan])
        values = entropy_term(nus)
        assert values.shape == nus.shape
        assert list(values[:3]) == [0.0, 0.0, 0.0]
        assert values[3] == pytest.approx(2.0, abs=1e-12)
        assert values[4] == entropy_term(40.0) and isinstance(entropy_term(40.0), float)
        assert math.isnan(values[5])


class TestWigner:
    def test_vacuum_peak(self):
        assert wigner(vacuum_state(1), [0.0], [0.0])[0, 0] == pytest.approx(1 / math.pi)

    def test_vacuum_normalization(self):
        grid = np.arange(-6.0, 6.0, 0.05)
        w = wigner(vacuum_state(1), grid, grid)
        assert w.sum() * 0.05**2 == pytest.approx(1.0, abs=1e-3)

    def test_squeezed_peak_and_elongation(self):
        r = 0.5
        cov = np.diag([math.exp(-2 * r) / 2, math.exp(2 * r) / 2])
        state = GaussianState(1, np.zeros(2), cov)
        assert wigner(state, [0.0], [0.0])[0, 0] == pytest.approx(1 / math.pi)
        # Decay is slower along the anti-squeezed (p) axis.
        off_axis = 1.2
        w_q = wigner(state, [off_axis], [0.0])[0, 0]
        w_p = wigner(state, [0.0], [off_axis])[0, 0]
        assert w_p > w_q

    def test_positive_everywhere(self):
        grid = np.linspace(-5, 5, 41)
        assert (wigner(thermal_state(0.7), grid, grid) > 0).all()

    def test_singular_covariance(self):
        state = GaussianState(1, np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(DegenerateStateError):
            wigner(state, [0.0], [0.0])

    def test_multimode_rejected(self):
        with pytest.raises(ValidationError, match="single-mode"):
            wigner(vacuum_state(2), [0.0], [0.0])


class TestSampling:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            sample(vacuum_state(1), 0, seed=1)

    def test_deterministic(self):
        a = sample(tmsv(0.5), 1, seed=99)
        b = sample(tmsv(0.5), 1, seed=99)
        assert np.array_equal(a, b)

    def test_vacuum_variances(self):
        draws = sample(vacuum_state(1), 100_000, seed=5)
        assert draws.var(axis=0, ddof=1) == pytest.approx([0.5, 0.5], rel=0.015)

    def test_tmsv_correlation(self):
        n = 100_000
        draws = sample(tmsv(0.5), n, seed=11)
        rho = np.corrcoef(draws[:, 0], draws[:, 2])[0, 1]
        se = (1 - math.tanh(1.0) ** 2) / math.sqrt(n)
        assert abs(rho - math.tanh(1.0)) < 3 * se

    def test_measurement_noise_augmentation(self):
        draws = sample(vacuum_state(1), 200_000, seed=3, measurement_noise=True)
        assert draws.var(axis=0, ddof=1) == pytest.approx([0.75, 0.75], rel=0.02)


class TestApplyChannel:
    def test_identity(self, rng):
        state = random_physical_two_mode(rng)
        out = apply_channel(state, identity_channel(2))
        assert np.allclose(out.cov, state.cov)

    def test_unit_transmissivity_loss(self):
        out = apply_channel(vacuum_state(1), attenuation_channel(0.0, 10.0, 5.0))
        assert np.allclose(out.cov, vacuum_state(1).cov)

    def test_loss_with_thermal_occupation(self):
        # tau (1/2) + (1 - tau)(N_B + 1/2) with tau = 1/2, N_B = 1.
        tau = 0.5
        channel = attenuation_channel(-0.5 * math.log(tau), 1.0, 1.0)
        out = apply_channel(vacuum_state(1), channel)
        assert out.cov[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_composition_law(self, rng):
        c1 = attenuation_channel(0.3, 1.0, 0.5)
        c2 = attenuation_channel(0.1, 2.0, 2.0)
        state = random_physical_two_mode(rng)
        one_by_one = apply_channel(
            apply_channel(state, c1.expand(0, 2)), c2.expand(0, 2)
        )
        composed = apply_channel(state, c1.then(c2).expand(0, 2))
        assert abs(one_by_one.cov - composed.cov).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="modes"):
            apply_channel(vacuum_state(2), attenuation_channel(0.1, 1.0))

    def test_unphysical_channel_rejected(self):
        # Pure loss with negative noise cannot be completely positive.
        bad = GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)), "bogus loss")
        with pytest.raises(UnphysicalChannelError):
            apply_channel(vacuum_state(1), bad)

    def test_output_physical(self, rng):
        state = random_physical_two_mode(rng)
        out = apply_channel(state, attenuation_channel(0.4, 1.0, 1.3).expand(1, 2))
        assert out.is_physical()


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))
        assert np.array_equal(omega.T, -omega)
