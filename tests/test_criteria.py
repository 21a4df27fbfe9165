"""Entanglement criteria and Gaussian discord against closed-form and
definition-level oracles."""

import math

import numpy as np
import pytest

from qradar.channels import attenuation_channel
from qradar.criteria import (
    BipartiteBlocks,
    discord_reports,
    gaussian_discord,
    lambda_sph,
    standard_form,
    two_eta,
    two_eta_values,
)
from qradar.errors import NonStandardFormError, PhysicalityError, ValidationError
from qradar.gaussian import (
    GaussianState,
    apply_channel,
    entropy_term,
    symplectic_eigenvalues,
)

from conftest import random_physical_two_mode, random_symplectic, tmsv_cov


def tmsv_blocks(r: float) -> BipartiteBlocks:
    return BipartiteBlocks.from_covariance(tmsv_cov(r))


def vacuum_blocks() -> BipartiteBlocks:
    return BipartiteBlocks(0.5 * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2)))


def definition_level_discord(cov: np.ndarray) -> float:
    """Independent oracle: S(B) - S(AB) + S(A|heterodyne-on-B)."""
    a_block, b_block, c_block = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    s_b = entropy_term(math.sqrt(np.linalg.det(b_block)))
    s_ab = sum(entropy_term(nu) for nu in symplectic_eigenvalues(cov))
    cond = a_block - c_block @ np.linalg.inv(b_block + 0.5 * np.eye(2)) @ c_block.T
    s_cond = entropy_term(math.sqrt(np.linalg.det(cond)))
    return s_b - s_ab + s_cond


class TestBipartiteBlocks:
    def test_rejects_wrong_block_shape(self):
        with pytest.raises(ValidationError, match="block A must be 2x2"):
            BipartiteBlocks(np.eye(3), np.eye(2), np.zeros((2, 2)))

    def test_rejects_non_finite_entry(self):
        c = np.zeros((2, 2))
        c[0, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            BipartiteBlocks(np.eye(2), np.eye(2), c)

    def test_rejects_asymmetric_block(self):
        a = np.eye(2)
        a[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="symmetric"):
            BipartiteBlocks(a, np.eye(2), np.zeros((2, 2)))

    def test_blocks_are_views_of_the_state(self, rng):
        blocks = BipartiteBlocks.from_covariance(random_physical_two_mode(rng).cov)
        cov = blocks.state.cov
        assert np.shares_memory(blocks.A, cov)
        assert np.array_equal(blocks.A, cov[:2, :2])
        assert np.array_equal(blocks.B, cov[2:, 2:])
        assert np.array_equal(blocks.C, cov[:2, 2:])
        with pytest.raises(ValueError, match="read-only"):
            blocks.A[0, 1] = 1.0

    def test_to_covariance_returns_a_copy(self):
        blocks = tmsv_blocks(0.5)
        cov = blocks.to_covariance()
        assert np.array_equal(cov, tmsv_cov(0.5))
        cov[:] = 7.0
        assert np.array_equal(blocks.to_covariance(), tmsv_cov(0.5))
        assert np.array_equal(blocks.A, tmsv_cov(0.5)[:2, :2])
        assert np.array_equal(blocks.C, tmsv_cov(0.5)[:2, 2:])


class TestLambdaSph:
    def test_vacuum_boundary_exact(self):
        assert lambda_sph(vacuum_blocks()) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_closed_form(self, r):
        assert lambda_sph(tmsv_blocks(r)) == pytest.approx(
            (1.0 - math.cosh(4 * r)) / 8.0, abs=1e-9
        )

    def test_thermal_product_arithmetic(self):
        blocks = BipartiteBlocks(1.5 * np.eye(2), 1.5 * np.eye(2), np.zeros((2, 2)))
        assert lambda_sph(blocks) == 4.0

    @pytest.mark.parametrize("swap", [False, True])
    def test_product_state_one_ulp_below_vacuum(self, swap):
        # A decoupled converter's optical block as the Lyapunov solver returns
        # it: one ulp below vacuum, next to a hot mode whose det is ~4e5.
        near_vacuum = np.diag([0.49999999999999994, 0.5])
        hot = 625.0987 * np.eye(2)
        a, b = (hot, near_vacuum) if swap else (near_vacuum, hot)
        report = gaussian_discord(BipartiteBlocks(a, b, np.zeros((2, 2))))
        assert report.lambda_sph == 0.0
        assert report.entangled_by_sph is False
        assert report.entangled_by_ppt is False

    def test_unphysical_blocks_rejected(self):
        with pytest.raises(ValidationError):
            lambda_sph(BipartiteBlocks(0.1 * np.eye(2), 0.1 * np.eye(2), np.zeros((2, 2))))


class TestTwoEta:
    def test_vacuum_boundary_exact(self):
        assert two_eta(vacuum_blocks()) == 1.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_ppt_oracle(self, r):
        assert two_eta(tmsv_blocks(r)) == pytest.approx(math.exp(-2 * r), abs=1e-9)

    def test_thermal_product(self):
        blocks = BipartiteBlocks(1.5 * np.eye(2), 1.5 * np.eye(2), np.zeros((2, 2)))
        assert two_eta(blocks) == pytest.approx(3.0, abs=1e-12)

    def test_loss_monotonicity(self):
        source = GaussianState(2, np.zeros(4), tmsv_cov(0.8))
        previous = -np.inf
        for kappa_r in np.linspace(0.0, 1.5, 12):
            lossy = apply_channel(
                source, attenuation_channel(kappa_r, 1.0, 0.0).expand(0, 2)
            )
            value = two_eta(BipartiteBlocks.from_covariance(lossy.cov))
            assert value >= previous - 1e-12
            previous = value


class TestStandardForm:
    def test_vacuum(self):
        params = standard_form(vacuum_blocks())
        assert (params.a, params.b, params.tau, params.eta_param) == (0.5, 0.5, 0.0, 0.5)

    def test_tmsv_plugin_arithmetic(self):
        params = standard_form(tmsv_blocks(0.5))
        a = math.cosh(1.0) / 2
        d = math.sinh(1.0) / 2
        assert params.a == pytest.approx(a, rel=1e-12)
        assert params.b == pytest.approx(a, rel=1e-12)
        # b < 1 here, so the printed tau = d^2/(b^2-1) is negative.
        assert params.tau == pytest.approx(d**2 / (a**2 - 1.0), rel=1e-9)
        assert params.eta_param == pytest.approx(a - a * d**2 / (a**2 - 1.0), rel=1e-9)

    def test_two_mode_squeezed_thermal_reduction(self, rng):
        # Brute-force local-symplectic oracle: scramble a standard-form state
        # with local symplectics, then recover (a, b, d).
        n_occ, r = 1.0, 0.5
        a = b = 1.5 * math.cosh(1.0)
        d = 1.5 * math.sinh(1.0)
        cov = np.block([
            [a * np.eye(2), d * np.diag([1.0, -1.0])],
            [d * np.diag([1.0, -1.0]), b * np.eye(2)],
        ])
        local = np.zeros((4, 4))
        local[:2, :2] = random_symplectic(rng, 1)
        local[2:, 2:] = random_symplectic(rng, 1)
        scrambled = BipartiteBlocks.from_covariance(local @ cov @ local.T)
        params = standard_form(scrambled)
        assert params.a == pytest.approx(a, rel=1e-9)
        assert params.b == pytest.approx(b, rel=1e-9)
        assert params.tau == pytest.approx(d**2 / (b**2 - 1.0), rel=1e-8)

    def test_non_reducible_blocks_rejected(self):
        # Distinct |c+| != |c-| cannot reduce to d diag(1, -1).
        blocks = BipartiteBlocks(
            2.0 * np.eye(2), 2.0 * np.eye(2), np.diag([0.9, -0.2])
        )
        with pytest.raises(NonStandardFormError) as err:
            standard_form(blocks)
        assert err.value.residuals


class TestGaussianDiscord:
    def test_product_state_vanishes(self):
        blocks = BipartiteBlocks(1.2 * np.eye(2), 0.8 * np.eye(2), np.zeros((2, 2)))
        report = gaussian_discord(blocks)
        assert report.discord == pytest.approx(0.0, abs=1e-9)
        assert report.classical_corr == pytest.approx(0.0, abs=1e-9)
        assert report.mutual_info == pytest.approx(0.0, abs=1e-9)

    def test_tmsv_matches_definition_level_oracle(self):
        cov = tmsv_cov(0.5)
        report = gaussian_discord(BipartiteBlocks.from_covariance(cov))
        assert report.discord == pytest.approx(definition_level_discord(cov), abs=1e-10)
        assert report.discord > 0
        assert report.classical_corr > 0

    def test_entangled_implies_discordant(self, rng):
        found = 0
        for _ in range(200):
            state = random_physical_two_mode(rng)
            report = gaussian_discord(BipartiteBlocks.from_covariance(state.cov))
            if report.lambda_sph < 0:
                found += 1
                assert report.discord > 0
        assert found > 10

    def test_report_fields_consistent(self, rng):
        for _ in range(50):
            state = random_physical_two_mode(rng)
            report = gaussian_discord(BipartiteBlocks.from_covariance(state.cov))
            assert report.entangled_by_sph == (report.lambda_sph < 0)
            assert report.entangled_by_ppt == (report.two_eta < 1)
            assert report.discord >= 0
            assert report.mutual_info >= report.classical_corr >= 0


class TestStackEntryPoints:
    def test_rows_match_the_single_pair_functions(self, rng):
        covs = np.array([random_physical_two_mode(rng).cov for _ in range(60)])
        reports = discord_reports(covs)
        values = two_eta_values(covs)
        assert len(reports) == len(values) == len(covs)
        for cov, report, value in zip(covs, reports, values):
            blocks = BipartiteBlocks.from_covariance(cov)
            single = gaussian_discord(blocks)
            assert value == report.two_eta == two_eta(blocks) == single.two_eta
            assert report.lambda_sph == single.lambda_sph
            assert report.entangled_by_sph == single.entangled_by_sph
            assert report.entangled_by_ppt == single.entangled_by_ppt
            for field in ("discord", "classical_corr", "mutual_info"):
                assert getattr(report, field) == pytest.approx(
                    getattr(single, field), rel=1e-12, abs=1e-15
                ), field

    def test_empty_stack(self):
        assert discord_reports(np.empty((0, 4, 4))) == []
        assert two_eta_values(np.empty((0, 4, 4))).shape == (0,)

    @pytest.mark.parametrize("entry", [discord_reports, two_eta_values])
    def test_unphysical_member_named(self, entry):
        covs = np.array([tmsv_cov(0.3), tmsv_cov(0.5), 0.4 * np.eye(4)])
        with pytest.raises(PhysicalityError, match="stack member 2:"):
            entry(covs)

    def test_non_positive_definite_local_block_named(self):
        # -V has the symplectic spectrum of V, so it passes the nu >= 1/2
        # test; the local normal form must still refuse it.
        covs = np.array([tmsv_cov(0.3), -tmsv_cov(0.5), tmsv_cov(0.7)])
        with pytest.raises(ValidationError, match="stack member 1: local covariance block"):
            discord_reports(covs)

    @pytest.mark.parametrize(
        "covs, match",
        [
            (np.eye(4), "stack of 4x4"),
            (np.array([np.eye(4), np.diag([1.0, 1.0, np.nan, 1.0])]), "member 1: .*finite"),
            (np.array([np.eye(4), np.eye(4) + np.triu(np.ones((4, 4)), 1)]),
             "member 1: .*symmetric"),
        ],
    )
    def test_malformed_stack_rejected(self, covs, match):
        with pytest.raises(ValidationError, match=match):
            two_eta_values(covs)


class TestLocalSymplecticInvariance:
    def test_lambda_and_eta_invariant(self, rng):
        for _ in range(25):
            state = random_physical_two_mode(rng)
            blocks = BipartiteBlocks.from_covariance(state.cov)
            local = np.zeros((4, 4))
            local[:2, :2] = random_symplectic(rng, 1)
            local[2:, 2:] = random_symplectic(rng, 1)
            moved = BipartiteBlocks.from_covariance(local @ state.cov @ local.T)
            assert lambda_sph(moved) == pytest.approx(
                lambda_sph(blocks), rel=1e-9, abs=1e-9
            )
            assert two_eta(moved) == pytest.approx(two_eta(blocks), rel=1e-9, abs=1e-9)


def test_criterion_agreement_sample(rng):
    for _ in range(200):
        state = random_physical_two_mode(rng)
        blocks = BipartiteBlocks.from_covariance(state.cov)
        assert (lambda_sph(blocks) < 0) == (two_eta(blocks) < 1)
