"""Entanglement criteria and Gaussian discord against closed-form and
definition-level oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qradar.channels import attenuation_channel
from qradar.criteria import (
    BipartiteBlocks,
    _reports,
    gaussian_discord,
    lambda_sph,
    two_eta,
)
from qradar.errors import PhysicalityError, UndefinedQuantityError, ValidationError
from qradar.gaussian import (
    GaussianState,
    apply_channel,
    entropy_term,
    symplectic_eigenvalues,
)

from conftest import partial_transpose, random_physical_two_mode, random_symplectic, tmsv_cov
from conftest import two_eta_values, von_neumann_entropy


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

    def test_degenerate_partial_transpose_spectrum_is_exact(self):
        # The partial transpose of 2.5 I has the double eigenvalue 2.5, so the
        # discriminant Delta~^2 - 4 det V is 0; formed with the 4x4
        # determinant, its rounding, lifted by the square root, put 2eta at
        # 4.99999997.
        assert two_eta(BipartiteBlocks.from_covariance(2.5 * np.eye(4))) == 5.0

    def test_product_states_are_separable_by_both_criteria(self):
        # (n + 1/2) I is a product state: lambda_SPH = 0 and 2eta = 1 + 2n.
        # 2eta came out as 0.9999999985 at n = 2.98e-9 (PPT-entangled, SPH-
        # separable), and below 1 on 5 of these 400 n.
        n = np.append(np.geomspace(1e-12, 1e-3, 400), 2.9763514416313133e-09)
        reports = _reports((n[:, None, None] + 0.5) * np.eye(4))
        assert [r.entangled_by_ppt for r in reports] == [r.entangled_by_sph for r in reports] == [False] * len(n)
        assert [r.two_eta for r in reports] == pytest.approx(2.0 * (n + 0.5), rel=4 * np.finfo(float).eps)

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


class TestGaussianDiscord:
    def test_product_state_vanishes(self):
        blocks = BipartiteBlocks(1.2 * np.eye(2), 0.8 * np.eye(2), np.zeros((2, 2)))
        report = gaussian_discord(blocks)
        assert report.discord == pytest.approx(0.0, abs=1e-9)
        assert report.classical_corr == pytest.approx(0.0, abs=1e-9)
        assert report.mutual_info == pytest.approx(0.0, abs=1e-9)

    def test_tmsv_matches_definition_level_oracle(self):
        # With B = b I the oracle's heterodyne frame is B's normal frame; the
        # standard-form states have a != b and C = diag(c1, c2), c1 != -c2.
        standard = [
            np.block([[a * np.eye(2), np.diag(c)], [np.diag(c), b * np.eye(2)]])
            for a, b, c in ((1.2, 0.9, (0.6, -0.4)), (2.0, 1.5, (1.2, 0.3)), (0.8, 3.0, (0.9, -0.2)))
        ]
        for cov in (tmsv_cov(0.5), *standard):
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


def _with_non_positive_definite_member():
    """Stacks whose member 1 passes the nu >= 1/2 test but is no covariance:
    -V has the symplectic spectrum of V, and diag(1, -1, 1, 1) has nu = (1, 1)."""
    for bad in (-tmsv_cov(0.5), np.diag([1.0, -1.0, 1.0, 1.0])):
        yield np.array([tmsv_cov(0.3), bad, tmsv_cov(0.7)])


class TestStackEntryPoints:
    def test_rows_match_the_single_pair_functions(self, rng):
        covs = np.array([random_physical_two_mode(rng).cov for _ in range(60)])
        reports = _reports(covs)
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
        assert _reports(np.empty((0, 4, 4))) == []
        assert two_eta_values(np.empty((0, 4, 4))).shape == (0,)

    def test_unphysical_member_named(self):
        covs = np.array([tmsv_cov(0.3), tmsv_cov(0.5), 0.4 * np.eye(4)])
        with pytest.raises(PhysicalityError, match="stack member 2:"):
            two_eta_values(covs)

    def test_non_positive_definite_member_named(self):
        for covs in _with_non_positive_definite_member():
            with pytest.raises(PhysicalityError, match="stack member 1: .*not positive definite"):
                two_eta_values(covs)

    def test_non_positive_definite_pair_rejected(self):
        for covs in _with_non_positive_definite_member():
            blocks = BipartiteBlocks.from_covariance(covs[1])
            for score in (lambda_sph, two_eta, gaussian_discord):
                with pytest.raises(PhysicalityError, match="^state invariant .*not positive"):
                    score(blocks)

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    @pytest.mark.parametrize("entry", [_reports, two_eta_values])
    def test_invariant_beyond_float_range_named(self, entry, scale):
        # A finite, physical covariance whose 4x4 (1e80) or 2x2 (1e160)
        # determinants overflow: typed, never a NaN row or a RuntimeWarning.
        covs = np.array([tmsv_cov(0.3), scale * np.eye(4)])
        with pytest.raises(UndefinedQuantityError, match="^stack member 1: .*beyond float range"):
            entry(covs)

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    @pytest.mark.parametrize("score", [lambda_sph, two_eta, gaussian_discord])
    def test_invariant_beyond_float_range_pair_rejected(self, score, scale):
        # The single-pair entries run the same range check as the stacks.
        blocks = BipartiteBlocks.from_covariance(scale * np.eye(4))
        with pytest.raises(UndefinedQuantityError, match="^covariance invariants beyond float"):
            score(blocks)

    @pytest.mark.parametrize("scale", [1e70, 1e76, 1e77, 2e77, 1e78, 1e150, 1e200, 1e250, 1e300])
    @pytest.mark.parametrize("state", ["tmsv", "thermal split"])
    def test_det_v_range_edge(self, state, scale):
        # det V leaves float range between entries of 1e77 and 2e77.  Below,
        # every value is finite, the spectrum's sums of squares included (at
        # most 2 Delta); above, the determinant checks raise before the
        # spectrum is formed.  No RuntimeWarning either way.
        cov = scale * tmsv_cov(0.3) if state == "tmsv" else np.diag([0.5, 0.5, scale, scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if scale <= 1e77:
                (report,) = _reports(cov[None])
                assert all(math.isfinite(v) for v in dataclasses.astuple(report))
            else:
                with pytest.raises(UndefinedQuantityError, match="beyond float range"):
                    _reports(cov[None])

    def test_heterodyne_quotient_beyond_float_range_named(self):
        # Squeezing B by 1e40 leaves det B = 0 after rounding, so the
        # heterodyne quotient divided by b = 0: "divide by zero" leaked before.
        def rotation(t):
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        local = np.zeros((4, 4))
        local[:2, :2] = rotation(0.3) @ np.diag([1e10, 1e-10]) @ rotation(0.5)
        local[2:, 2:] = rotation(0.7) @ np.diag([1e40, 1e-40]) @ rotation(1.1)
        covs = np.array([tmsv_cov(0.3), local @ tmsv_cov(1.0) @ local.T])
        with pytest.raises(UndefinedQuantityError, match="^stack member 1: .*beyond float range"):
            _reports(covs)

    @pytest.mark.parametrize(
        "covs, match",
        [
            (np.array([np.eye(4), np.diag([1.0, 1.0, np.nan, 1.0])]), "member 1: .*finite"),
            (np.array([np.eye(4), np.eye(4) + np.triu(np.ones((4, 4)), 1)]),
             "member 1: .*symmetric"),
        ],
    )
    def test_malformed_stack_rejected(self, covs, match):
        with pytest.raises(ValidationError, match=match):
            two_eta_values(covs)


def _local_symplectic(rng: np.random.Generator) -> np.ndarray:
    local = np.zeros((4, 4))
    local[:2, :2] = random_symplectic(rng, 1)
    local[2:, 2:] = random_symplectic(rng, 1)
    return local


class TestLocalSymplecticInvariance:
    def test_lambda_and_eta_invariant(self, rng):
        for _ in range(25):
            state = random_physical_two_mode(rng)
            blocks = BipartiteBlocks.from_covariance(state.cov)
            local = _local_symplectic(rng)
            moved = BipartiteBlocks.from_covariance(local @ state.cov @ local.T)
            assert lambda_sph(moved) == pytest.approx(
                lambda_sph(blocks), rel=1e-9, abs=1e-9
            )
            assert two_eta(moved) == pytest.approx(two_eta(blocks), rel=1e-9, abs=1e-9)

    def test_discord_invariant(self, rng):
        for _ in range(25):
            cov = random_physical_two_mode(rng).cov
            local = _local_symplectic(rng)
            before, after = _reports(np.array([cov, local @ cov @ local.T]))
            for field in ("discord", "classical_corr", "mutual_info"):
                assert getattr(after, field) == pytest.approx(
                    getattr(before, field), rel=1e-9, abs=1e-9
                ), field


def test_criterion_agreement_sample(rng):
    for _ in range(200):
        state = random_physical_two_mode(rng)
        blocks = BipartiteBlocks.from_covariance(state.cov)
        assert (lambda_sph(blocks) < 0) == (two_eta(blocks) < 1)


def _drawn_state(seed: int) -> GaussianState:
    return random_physical_two_mode(np.random.default_rng(seed))


class TestIndependentOracles:
    """Kernels against gaussian's definition-level functions, by another route."""

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_two_eta_is_the_partial_transpose_spectrum(self, seed):
        state = _drawn_state(seed)
        nu_min = symplectic_eigenvalues(partial_transpose(state, 1))[0]
        scale = np.abs(state.cov).max()
        assert two_eta_values(state.cov[None])[0] == pytest.approx(
            2.0 * nu_min, rel=1e-9, abs=1e-12 * scale
        )

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_mutual_info_is_the_entropy_balance(self, seed):
        state = _drawn_state(seed)
        local = [GaussianState(1, np.zeros(2), state.cov[i:i + 2, i:i + 2]) for i in (0, 2)]
        balance = sum(map(von_neumann_entropy, local)) - von_neumann_entropy(state)
        (report,) = _reports(state.cov[None])
        assert report.mutual_info == pytest.approx(balance, rel=1e-9, abs=1e-9)
