"""Gaussian state algebra: symplectic spectra (the two-mode kernel against
the exact spectrum), transposition, entropy, Wigner evaluation, sampling,
and channel application."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qradar.channels import GaussianChannel, attenuation_channel
from qradar.criteria import BipartiteBlocks
from qradar.errors import (
    DegenerateStateError,
    PhysicalityError,
    UnphysicalChannelError,
    ValidationError,
)
from qradar import eom
from qradar.gaussian import (
    GaussianState,
    _require_physical,
    _two_mode_spectra,
    apply_channel,
    entropy_term,
    sample,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_state,
    wigner,
)
from qradar.langevin import LinearLangevinModel
from qradar.presets import eom_reference
from qradar.sweeps import run_grid

from conftest import identity_channel, partial_transpose, random_physical_two_mode, random_symplectic
from conftest import thermal_state, tmsv_cov, two_mode_spectrum_exact, von_neumann_entropy


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
        with pytest.raises(PhysicalityError, match="not positive definite"):
            state.validate_physical()


EPS = np.finfo(float).eps


def _beam_splitter(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])


def _squeezer(r: float) -> np.ndarray:
    return np.diag([math.exp(r), math.exp(-r)])


def _rotation(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _tmst(n1: float, n2: float, r: float) -> np.ndarray:
    """The two-mode squeezed thermal state: occupations n1, n2 squeezed by r."""
    ch, sh = math.cosh(r), math.sinh(r)
    sz = np.diag([1.0, -1.0])
    s = np.block([[ch * np.eye(2), sh * sz], [sh * sz, ch * np.eye(2)]])
    return s @ np.diag(np.repeat([n1 + 0.5, n2 + 0.5], 2)) @ s.T


def _locally_squeezed(n1: float, n2: float, r1: float, r2: float, t1: float, t2: float) -> np.ndarray:
    """Thermal occupations n1, n2, each mode squeezed by r and rotated by t."""
    local = np.zeros((4, 4))
    local[:2, :2] = _rotation(t1) @ _squeezer(r1)
    local[2:, 2:] = _rotation(t2) @ _squeezer(r2)
    return local @ np.diag(np.repeat([n1 + 0.5, n2 + 0.5], 2)) @ local.T


def _eom_pairs(axis: str, grid) -> np.ndarray:
    """The (OC-MC, OC-MR, MR-MC) pairs of a 32-point EOM grid's steady
    states, as one stack, the way the sweep scores them."""
    params = eom_reference()
    if axis == "temperature":
        covs = eom._basis(params)(grid)
    else:
        _, covs = run_grid(eom._grid_point(params, axis), grid)
    return np.concatenate([eom._pair_stack(covs, pair) for pair in eom.PAIR_NAMES])


# The fixed set the kernel is held to the exact spectrum on; each state is
# stored as a state's covariance is, its symmetric part.
SPECTRUM_CASES = {
    "eom wavelength pairs": lambda: _eom_pairs("wavelength", np.linspace(0.8e-6, 1.6e-6, 32)),
    "eom temperature pairs": lambda: _eom_pairs("temperature", np.linspace(1e-3, 0.351, 32)),
    "eom gamma_m pairs": lambda: _eom_pairs("gamma_m", 2 * math.pi * np.geomspace(5.0, 1500.0, 32)),
    "product states (n + 1/2) I": lambda: np.array([
        (n + 0.5) * np.eye(4) for n in np.geomspace(1e-12, 1e3, 16)
    ]),
    "near-degenerate two-mode squeezed thermal": lambda: np.array([
        _tmst(n, n * (1.0 + d), r)
        for n in (1e-3, 0.1, 10.0) for d in (0.0, 1e-12, 1e-8, 1e-4) for r in (0.1, 0.5, 1.0, 2.0)
    ]),
    "thermal splits": lambda: np.array([
        _beam_splitter(theta) @ np.diag([0.5, 0.5, 0.5 * q, 0.5 * q]) @ _beam_splitter(theta).T
        for q in np.geomspace(1.0, 1e6, 13) for theta in (0.1, 0.7, 1.3)
    ]),
    "locally squeezed": lambda: np.array([
        _locally_squeezed(n, 2.0 * n, r1, r2, 0.3, 1.1)
        for n in (0.0, 0.3, 5.0) for r1 in (0.0, 1.0, 3.0) for r2 in (-2.0, 0.5)
    ]),
}


def _relative_errors(covs: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """|nu - exact| / exact of (n, 2) spectra ``nus`` against the 50-digit
    exact spectrum of each member of ``covs``."""
    exact = [two_mode_spectrum_exact(cov) for cov in covs]
    return np.array([
        [float(abs(Decimal(float(got)) - ref) / ref) for got, ref in zip(row, refs)]
        for row, refs in zip(nus, exact)
    ])


class TestTwoModeSpectra:
    """gaussian._two_mode_spectra, the spectrum discord reads, from one
    Cholesky factor per stack.

    Its bound: within 4 eps kappa(V) of the exact spectrum, relative, with
    kappa(V) = ||V||_2 ||V^-1||_2.  The Cholesky factor is backward stable:
    L L^T = V + E with ||E|| a small multiple of eps ||V||, that is
    (1 - d) V <= V + E <= (1 + d) V with d = ||E|| / lambda_min(V), of the
    order eps kappa(V); and each symplectic eigenvalue is monotone in V and
    scales with it, so it moves by at most d, relative.  The measured worst
    case on this set is 1.33 eps kappa(V) (a product state, kappa = 1); on
    the EOM pairs the kernel errs by at most 2.2 eps, ``eigvals`` by 9.3 eps.
    max|V| / nu alone is no bound: squeezing conditions the spectrum as
    (max|V| / nu)^2, and the kernel and ``eigvals`` err by up to 32 and
    16 eps max|V| / nu on the locally squeezed states here, and by about
    5e4 eps max|V| / nu on a two-mode squeezed state at r = 6.
    """

    @pytest.mark.parametrize("case", SPECTRUM_CASES)
    def test_within_the_bound_of_the_exact_spectrum(self, case):
        covs = np.array([GaussianState(2, np.zeros(4), cov).cov for cov in SPECTRUM_CASES[case]()])
        errors = _relative_errors(covs, np.stack(_two_mode_spectra(covs), axis=-1))
        kappa = np.linalg.cond(covs)
        assert (errors <= 4.0 * EPS * kappa[:, None]).all(), errors.max(axis=1) / (EPS * kappa)

    def test_stack_members_are_scored_as_alone(self):
        covs = _eom_pairs("wavelength", np.linspace(0.8e-6, 1.6e-6, 32))
        stacked = np.stack(_two_mode_spectra(covs), axis=-1)
        alone = np.array([np.concatenate(_two_mode_spectra(cov[None])) for cov in covs])
        assert np.array_equal(stacked, alone)

    @pytest.mark.parametrize("cov", [np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros((4, 4))])
    def test_a_covariance_numpy_cannot_factor_is_typed(self, cov):
        # No state the physical rule admits reaches this: V + i(1/2 - 1e-9)
        # Omega positive definite makes its real part V positive definite,
        # and a real Cholesky of V fails only where the complex one of the
        # rule, which also carries the margin 1e-9, has already failed to
        # rounding.  An unchecked stack that does is typed, not LinAlgError.
        with pytest.raises(DegenerateStateError, match="numerically singular"):
            _two_mode_spectra(np.array([tmsv_cov(0.3), cov]))

    # The kernel and eigvals each within 4 eps kappa(V) of the exact
    # spectrum (eigvals measured within 3.2 eps kappa(V) on the fixed set),
    # so within the sum of both of each other.
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
        st.floats(0.0, 1.5),
    )
    def test_equals_the_eigensolve_within_the_bound(self, seed, log_nus, scale):
        rng = np.random.default_rng(seed)
        s = random_symplectic(rng, 2, scale)
        nus = 0.5 * 10.0 ** np.array(log_nus)
        cov = GaussianState(2, np.zeros(4), s @ np.diag(np.repeat(nus, 2)) @ s.T).cov
        got = np.concatenate(_two_mode_spectra(cov[None]))
        expected = symplectic_eigenvalues(cov)
        assert (np.abs(got - expected) <= 8.0 * EPS * np.linalg.cond(cov) * expected).all()


# Every boundary that takes a symmetric 4x4 matrix, through the one symmetry
# rule: asymmetric by more than 1e-10 * max(1, largest entry) is rejected.
SYMMETRIC_4X4_BOUNDARIES = {
    "GaussianState": lambda m: GaussianState(2, np.zeros(4), m),
    "LinearLangevinModel.diffusion": lambda m: LinearLangevinModel(-np.eye(4), m),
    "GaussianChannel.Y": lambda m: GaussianChannel(np.eye(4), m),
    "BipartiteBlocks.from_covariance": BipartiteBlocks.from_covariance,
}

# Every entry point that takes a matrix: (call on the matrix, the size it
# fixes or None, whether the matrix must be symmetric).  A drift or an X sets
# the size of its partner, which is given that size.
MATRIX_ENTRY_POINTS = {
    "GaussianState": (lambda m: GaussianState(2, np.zeros(4), m), 4, True),
    "LinearLangevinModel.drift": (lambda m: LinearLangevinModel(m, np.eye(len(m))), None, False),
    "LinearLangevinModel.diffusion": (lambda m: LinearLangevinModel(-np.eye(4), m), 4, True),
    "GaussianChannel.X": (lambda m: GaussianChannel(m, np.eye(len(m))), None, False),
    "GaussianChannel.Y": (lambda m: GaussianChannel(np.eye(4), m), 4, True),
    "BipartiteBlocks.A": (lambda m: BipartiteBlocks(m, np.eye(2), np.zeros((2, 2))), 2, True),
    "BipartiteBlocks.C": (lambda m: BipartiteBlocks(np.eye(2), np.eye(2), m), 2, False),
    "BipartiteBlocks.from_covariance": (BipartiteBlocks.from_covariance, 4, True),
    "symplectic_eigenvalues": (symplectic_eigenvalues, None, True),
}


def _with_entry(dim: int, index: tuple[int, int], value: float) -> np.ndarray:
    m = np.eye(dim)
    m[index] += value
    return m


# Malformed matrices, each made for the size an entry point fixes (4 if
# none), and the rule text it fails.  The asymmetric entry is in the top-right
# corner, in block C of a 4x4 two-mode covariance.
MALFORMED_MATRICES = {
    "0x0": (lambda dim: np.zeros((0, 0)), "square 2N x 2N, N >= 1"),
    "3x3": (lambda dim: np.eye(3), "square 2N x 2N, N >= 1"),
    "2x4": (lambda dim: np.zeros((2, 4)), "square 2N x 2N, N >= 1"),
    "vector": (lambda dim: np.zeros(4), "square 2N x 2N, N >= 1"),
    "wrong size": (lambda dim: np.eye(dim + 2), "square 2N x 2N, N >= 1"),
    "NaN": (lambda dim: _with_entry(dim, (1, 1), math.nan), "must be finite"),
    "inf": (lambda dim: _with_entry(dim, (0, 0), math.inf), "must be finite"),
    # A bare OverflowError, and an imaginary part dropped behind a
    # ComplexWarning, before.
    "integer beyond float range": (
        lambda dim: [[10**400 if i == j == 0 else int(i == j) for j in range(dim)] for i in range(dim)],
        "must be finite",
    ),
    "complex": (lambda dim: np.eye(dim) * (1 + 1j), "must be real"),
    "asymmetric": (lambda dim: _with_entry(dim, (0, dim - 1), 1e-3), "not symmetric"),
}


def _malformed_cases():
    for entry, (_, dim, symmetric) in MATRIX_ENTRY_POINTS.items():
        for case in MALFORMED_MATRICES:
            if (case == "wrong size" and dim is None) or (case == "asymmetric" and not symmetric):
                continue
            yield pytest.param(entry, case, id=f"{entry}-{case}")


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
    @pytest.mark.parametrize("entry, case", _malformed_cases())
    def test_every_matrix_entry_point_rejects_a_malformed_matrix(self, entry, case):
        # One rule at every entry: a 0x0 drift raised a bare ValueError, and
        # from_covariance dropped the lower-left block, so its asymmetry passed.
        call, dim, _ = MATRIX_ENTRY_POINTS[entry]
        make, rule = MALFORMED_MATRICES[case]
        with pytest.raises(ValidationError, match=rule):
            call(make(dim or 4))

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

    @settings(max_examples=100)
    @given(symmetric_matrices())
    def test_validate_physical_rejects_the_negated_covariance(self, cov):
        # -V has the symplectic spectrum of V but is no covariance.
        try:
            GaussianState(len(cov) // 2, np.zeros(len(cov)), cov).validate_physical()
        except PhysicalityError:
            return
        negated = GaussianState(len(cov) // 2, np.zeros(len(cov)), -cov)
        with pytest.raises(PhysicalityError, match="not positive definite"):
            negated.validate_physical()


class TestPhysicalRule:
    """V + i(1/2 - 1e-9)Omega positive definite, one Cholesky over a stack:
    by Williamson's theorem, nu_min > 1/2 - 1e-9."""

    @pytest.mark.parametrize("offset", [1e-3, -1e-3])
    def test_boundary_alone_and_as_a_stack_member(self, offset):
        cov = (0.5 - 1e-9 + offset * 1e-9) * np.eye(2)
        state = GaussianState(1, np.zeros(2), cov)
        stack = np.array([np.eye(2), cov, np.eye(2)])
        if offset > 0:
            state.validate_physical()
            _require_physical(stack)
            return
        with pytest.raises(PhysicalityError, match=r"^state invariant violated: .*not PSD"):
            state.validate_physical()
        with pytest.raises(PhysicalityError, match=r"^stack member 1: state invariant .*not PSD"):
            _require_physical(stack)

    def test_a_passing_stack_is_one_cholesky_and_no_eigensolve(self, rng, monkeypatch):
        stack = np.array([random_physical_two_mode(rng).cov for _ in range(32)])
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("cholesky", "eigvals", "eig", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        _require_physical(stack)
        assert calls == ["cholesky"]

    # A stored V lies within about eps * max|V|^2 of its nominal spectrum,
    # 2.2e-10 at entries of 1e3: the margin 1e-8 is far above that.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.floats(0.05, 4.0),
        st.floats(-8.0, -1.0),
        st.booleans(),
    )
    def test_accepts_exactly_above_the_bound(self, seed, n_modes, scale, log_margin, above):
        rng = np.random.default_rng(seed)
        nu_min = 0.5 - 1e-9 + (1.0 if above else -1.0) * 10.0**log_margin
        nus = np.concatenate(([nu_min], nu_min + rng.exponential(0.7, n_modes - 1)))
        s = random_symplectic(rng, n_modes, scale)
        cov = s @ np.diag(np.repeat(rng.permutation(nus), 2)) @ s.T
        assume(np.abs(cov).max() <= 1e3)
        state = GaussianState(n_modes, np.zeros(2 * n_modes), cov)
        if above:
            state.validate_physical()
        else:
            with pytest.raises(PhysicalityError):
                state.validate_physical()


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

    @settings(max_examples=100)
    @given(st.floats(min_value=0.5, max_value=1e6))
    def test_entropy_term_nonnegative(self, x):
        assert entropy_term(x) >= 0.0

    @pytest.mark.parametrize("excess", [1e-11, 1e-10, 1e-9])
    def test_entropy_term_just_above_the_purity_band(self, excess):
        # Only nu within 1e-12 of 1/2 is taken as pure; above that band h
        # follows its formula, about 3.8e-10 at nu = 1/2 + 1e-11.
        expected = (1.0 + excess) * math.log2(1.0 + excess) - excess * math.log2(excess)
        assert entropy_term(0.5 + excess) == pytest.approx(expected, rel=1e-4)

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

    def test_exponent_beyond_float_range_rejected(self):
        # Finite coordinates whose squared distance overflows: typed, with no
        # overflow or inf - inf RuntimeWarning on the way.
        with pytest.raises(ValidationError, match="beyond float range"):
            wigner(thermal_state(0.7), [-1e300, 0.0, 1e300], [0.0, 1e300])


class TestSampling:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            sample(vacuum_state(1), 0, seed=1)

    @pytest.mark.parametrize("n_samples", [1.5, 1.0, math.nan, True, 10**400])
    def test_sample_count_is_an_integer_numpy_can_hold(self, n_samples):
        with pytest.raises(ValidationError, match="n_samples must be an integer"):
            sample(vacuum_state(1), n_samples, seed=1)

    def test_numpy_integer_sample_count(self):
        assert sample(vacuum_state(1), np.int64(3), seed=1).shape == (3, 2)

    def test_deterministic(self):
        a = sample(tmsv(0.5), 1, seed=99)
        b = sample(tmsv(0.5), 1, seed=99)
        assert np.array_equal(a, b)

    def test_a_generator_seed_is_drawn_from_as_is(self):
        # Its stream continues: two calls give the two halves of one draw.
        rng = np.random.default_rng(99)
        halves = [sample(tmsv(0.5), 2, seed=rng) for _ in range(2)]
        assert np.array_equal(np.concatenate(halves), sample(tmsv(0.5), 4, seed=99))

    def test_vacuum_variances(self):
        draws = sample(vacuum_state(1), 100_000, seed=5)
        assert draws.var(axis=0, ddof=1) == pytest.approx([0.5, 0.5], rel=0.015)

    def test_tmsv_correlation(self):
        n = 100_000
        draws = sample(tmsv(0.5), n, seed=11)
        rho = np.corrcoef(draws[:, 0], draws[:, 2])[0, 1]
        se = (1 - math.tanh(1.0) ** 2) / math.sqrt(n)
        assert abs(rho - math.tanh(1.0)) < 3 * se


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
        # Pure loss with no added noise cannot be completely positive: it is
        # rejected where it is made, so no such channel reaches apply_channel.
        with pytest.raises(UnphysicalChannelError, match="bogus loss"):
            GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)), "bogus loss")

    def test_output_physical(self, rng):
        state = random_physical_two_mode(rng)
        out = apply_channel(state, attenuation_channel(0.4, 1.0, 1.3).expand(1, 2))
        out.validate_physical()


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))
        assert np.array_equal(omega.T, -omega)
