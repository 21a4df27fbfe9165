"""Langevin machinery: thermal occupations, diffusion assembly, stability,
the Lyapunov steady state (the symmetric Kronecker kernel, held to the exact
rational solution, and the residual gate around it), and the covariance ODE
that tests integrate as an independent route to it."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import constants
from scipy.linalg import solve_continuous_lyapunov

from conftest import damped, damped_arrays, lyapunov_exact, propagate_cov
from qradar import converter, eom, langevin, oe, sweeps
from qradar.errors import NoSteadyStateError, StiffnessError, UndefinedQuantityError, ValidationError
from qradar.gaussian import GaussianState
from qradar.langevin import (
    LinearLangevinModel,
    diffusion_from_baths,
    is_stable,
    steady_state_cov,
    thermal_occupation,
)
from qradar.presets import eom_reference, oe_reference


def random_stable_model(rng, dim=6):
    a = rng.uniform(-1.0, 1.0, (dim, dim))
    shift = max(float(np.linalg.eigvals(a).real.max()), 0.0) + 0.5
    a -= shift * np.eye(dim)
    d = rng.uniform(-1.0, 1.0, (dim, dim))
    d = d @ d.T
    return LinearLangevinModel(a, d)


def test_physical_constants_agree_with_scipy():
    # Written out in langevin so that results do not follow the installed
    # scipy's CODATA edition.  c, e, k and h are exact SI values in every
    # edition scipy carries, and hbar = h / 2 pi.  m_e is not compared: it
    # moved in its 9th significant digit between CODATA 2018 (9.1093837015e-31,
    # which older scipy releases carry) and 2022, and is pinned to 2022 here.
    pairs = [(langevin.C_LIGHT, constants.c), (langevin.HBAR, constants.hbar),
             (langevin.E_CHARGE, constants.e), (langevin.K_B, constants.k)]
    for ours, theirs in pairs:
        assert ours == pytest.approx(theirs, rel=1e-15)
    assert langevin.M_E == 9.1093837139e-31


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
        with pytest.raises(ValidationError, match="omega must be finite"):
            thermal_occupation(math.nan, 1.0)

    @pytest.mark.parametrize("temperature", [1.0, 0.0])
    def test_infinite_omega_rejected(self, temperature):
        # An infinite frequency used to pass as a cold bath (0 photons).
        with pytest.raises(ValidationError, match="omega must be finite"):
            thermal_occupation(math.inf, temperature)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_non_finite_temperature_rejected(self, temperature):
        # inf used to divide by expm1(0) = 0, and NaN returned NaN.
        with pytest.raises(ValidationError, match="temperature must be finite"):
            thermal_occupation(1e9, temperature)

    @pytest.mark.parametrize(
        "omega, temperature, message",
        [(1e9, 10**400, "temperature must be finite"), (10**400, 1.0, "omega must be finite")],
    )
    def test_int_beyond_float_range_rejected(self, omega, temperature, message):
        # A bare OverflowError ("int too large to convert to float") before.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            thermal_occupation(omega, temperature)

    @pytest.mark.parametrize("omega, temperature", [(1e-300, 1e10), (5e-324, 1e300)])
    def test_occupation_beyond_float_range_rejected(self, omega, temperature):
        # Valid baths whose hbar w / kB T underflows to 0 used to divide by
        # expm1(0) = 0 and raise a bare ZeroDivisionError.
        with pytest.raises(ValidationError, match="thermal occupation .* exceeds float range"):
            diffusion_from_baths([(omega, 1.0, temperature, "cavity")])

    @settings(max_examples=100)
    @given(
        st.floats(min_value=1e3, max_value=1e15),
        st.floats(min_value=0.0, max_value=400.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_monotone_in_temperature(self, omega, temperature, bump):
        assert thermal_occupation(omega, temperature + bump) >= thermal_occupation(
            omega, temperature
        )


_BATH = dict(omega=1e9, damping=1.0, temperature=0.1)


class TestDiffusionFromBaths:
    @pytest.mark.parametrize(
        "field, value, message",
        [(field, value, f"{field} must be finite") for field in _BATH for value in (math.nan, math.inf)]
        + [
            ("omega", 0.0, "omega must be positive"),
            ("damping", -1.0, "damping must be non-negative"),
            ("temperature", -1.0, "temperature must be non-negative"),
        ],
    )
    def test_bath_field_rules(self, field, value, message):
        # A bath breaking its declared rule never reaches the diffusion matrix.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            diffusion_from_baths([(*{**_BATH, field: value}.values(), "cavity")])

    def test_unknown_bath_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown bath kind 'phonon'"):
            diffusion_from_baths([(*_BATH.values(), "phonon")])

    def test_every_row_gives_a_finite_diagonal_or_fails_typed(self):
        # Every row on the boundary of the rules: a finite diagonal with
        # entries >= 0, or a ValidationError, and never a warning.
        values = (0, 5e-324, 1e-300, 1e-12, 1, 1e12, 1e300, 1.7e308, math.inf, math.nan, -1,
                  -5e-324, 10**400)
        rows = list(itertools.product(values, values, values, ("cavity", "mechanical", "phonon")))
        assert len(rows) == 6591
        failed = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for row in rows:
                try:
                    d = diffusion_from_baths([row])
                except ValidationError:
                    continue
                diagonal = np.diag(d)
                if not (np.isfinite(d).all() and (diagonal >= 0).all()
                        and np.array_equal(d, np.diag(diagonal))):
                    failed.append(row)
        assert failed == []
        assert [str(w.message) for w in caught] == []

    def test_cold_cavity(self):
        d = diffusion_from_baths([(1e9, 1.0, 0.0, "cavity")])
        assert np.array_equal(d, np.eye(2))

    def test_mechanical_block(self):
        # gamma (2N + 1) on the momentum diagonal only; N = 2 via temperature.
        omega = 1e9
        temperature = constants.hbar * omega / (constants.k * math.log(1.5))
        d = diffusion_from_baths([(omega, 0.1, temperature, "mechanical")])
        assert d == pytest.approx(np.diag([0.0, 0.5]), rel=1e-9)

    @pytest.mark.parametrize(
        "bath",
        [
            (1e9, 1e308, 1e10, "cavity"),  # damping (2 N + 1) overflows: used to give an inf matrix
            (1.0, 0.0, 1e297, "cavity"),  # N ~ 1.3e308, so 2 N + 1 = inf and 0 * inf = NaN
        ],
    )
    def test_weight_beyond_float_range_rejected(self, bath):
        with pytest.raises(ValidationError, match=r"^bath noise weight .* is not finite"):
            diffusion_from_baths([bath])

    def test_independent_baths_block_diagonal(self):
        d = diffusion_from_baths([
            (1e9, 1.0, 0.0, "cavity"),
            (1e6, 0.5, 0.0, "mechanical"),
        ])
        assert np.array_equal(d[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(d[2:, :2], np.zeros((2, 2)))


class TestStability:
    def test_damped_identity(self):
        m = LinearLangevinModel(-np.eye(2), np.zeros((2, 2)))
        assert is_stable(m).stable

    def test_undamped_oscillator_marginal(self):
        m = LinearLangevinModel(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)))
        result = is_stable(m)
        assert not result.stable
        assert result.max_real_part == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("rate, stable", [(2e-12, True), (1e-12, False), (1e-13, False)])
    def test_the_margin_is_1e_12(self, rate, stable):
        # A mode decaying at 1e-13 is marginal, not stable: strict Hurwitz
        # with every real part below -1e-12.
        m = LinearLangevinModel(np.diag([-rate, -1.0]), np.zeros((2, 2)))
        assert is_stable(m).stable is stable


class TestModelValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_diffusion(self, bad):
        d = np.eye(2)
        d[1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            LinearLangevinModel(-np.eye(2), d)


    def test_diffusion_near_float_max_builds_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = LinearLangevinModel(-np.eye(2), 1.7e308 * np.eye(2))
        assert np.array_equal(model.diffusion, 1.7e308 * np.eye(2))


class TestSteadyState:
    def test_diagonal_balance(self):
        # drift -kappa I with D = 2 kappa (n + 1/2) I relaxes to (n + 1/2) I.
        kappa, n = 3.0, 1.7
        m = LinearLangevinModel(-kappa * np.eye(2), 2 * kappa * (n + 0.5) * np.eye(2))
        assert steady_state_cov(m) == pytest.approx((n + 0.5) * np.eye(2))

    def test_zero_diffusion(self, rng):
        m = random_stable_model(rng)
        m = LinearLangevinModel(m.drift, np.zeros_like(m.drift))
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
        m = LinearLangevinModel(np.eye(2), np.eye(2))
        with pytest.raises(NoSteadyStateError, match=r"^drift is unstable: max Re eigenvalue 1\.000e\+00 "):
            steady_state_cov(m)


@st.composite
def _hurwitz(draw, dim):
    """A random drift shifted left until every eigenvalue has Re <= -margin."""
    a = draw(arrays(np.float64, (dim, dim), elements=st.floats(-1.0, 1.0)))
    margin = draw(st.floats(0.01, 2.0))
    return a - (max(float(np.linalg.eigvals(a).real.max()), 0.0) + margin) * np.eye(dim)


@st.composite
def _psd(draw, dim, max_rank):
    """B B^T for a random dim x rank B, rank <= max_rank: singular below dim."""
    rank = draw(st.integers(1, max_rank))
    b = draw(arrays(np.float64, (dim, rank), elements=st.floats(-2.0, 2.0)))
    return b @ b.T


@st.composite
def _lyapunov_inputs(draw):
    """(drifts, diffusions) as a single pair, a stack of pairs, or one drift
    shared by a stack of singular diffusions (a per-bath basis)."""
    dim = draw(st.sampled_from([2, 4, 6]))
    layout = draw(st.sampled_from(["single", "stack", "shared"]))
    if layout == "single":
        return draw(_hurwitz(dim)), draw(_psd(dim, dim))
    n = draw(st.integers(1, 4))
    if layout == "stack":
        drifts = np.array([draw(_hurwitz(dim)) for _ in range(n)])
        return drifts, np.array([draw(_psd(dim, dim)) for _ in range(n)])
    return draw(_hurwitz(dim)), np.array([draw(_psd(dim, dim - 1)) for _ in range(n)])


def _solved_alone(drifts, diffusions) -> np.ndarray:
    """Each member of a layout solved on its own, one drift and one diffusion at a time."""
    if drifts.ndim == 3:
        return np.array([langevin._solve_lyapunov(a, d) for a, d in zip(drifts, diffusions)])
    if diffusions.ndim == 3:
        return np.array([langevin._solve_lyapunov(drifts, d) for d in diffusions])
    return langevin._solve_lyapunov(drifts, diffusions)


def _accuracy_points():
    """(name, drift, diffusion) at the two references and at the points whose
    verdicts the solver's error used to decide: OE detunings within 40 rad/s
    of resonance, EOM at omega_m = 1e12 rad/s on two preset grid points, and
    the cold state of the EOM with gamma_m = 1e12 and of the OE with
    gamma_p = 1e12 rad/s."""
    eom_ref, oe_ref = eom_reference(), oe_reference()
    states = {"eom reference": eom._arrays(eom_ref), "oe reference": oe._arrays(oe_ref)}
    for delta_eg in (-40.0, -20.0, -10.0, 10.0):
        states[f"oe delta_eg {delta_eg}"] = oe._arrays(dataclasses.replace(oe_ref, delta_eg=delta_eg))
    fast = dataclasses.replace(eom_ref, omega_m=1e12)
    states["eom omega_m 1e12, 900 nm"] = eom._arrays(fast.at_wavelength(9e-7))
    states["eom omega_m 1e12, gamma_m 100 pi"] = eom._arrays(dataclasses.replace(fast, gamma_m=314.1592653589793))
    states["eom gamma_m 1e12, 0 K"] = eom._arrays(dataclasses.replace(eom_ref, gamma_m=1e12, temperature=0.0))
    states["oe gamma_p 1e12, 0 K"] = oe._arrays(dataclasses.replace(oe_ref, gamma_p=1e12, temperature=0.0))
    return [pytest.param(*arrays, id=name) for name, arrays in states.items()]


class TestLyapunovKernel:
    @pytest.mark.parametrize("drift, diffusion", _accuracy_points())
    def test_within_1e_10_of_the_exact_solution(self, drift, diffusion):
        # The worst of these points is off by 4e-12 max|V| (OE, delta_eg = 10
        # rad/s); the LAPACK Schur solve this kernel replaced was off by 1.65
        # max|V| there and by 2.5e-7 at omega_m = 1e12 rad/s.
        exact = np.array(lyapunov_exact(drift, diffusion), dtype=object)
        v = langevin._solve_lyapunov(drift, diffusion)
        error = max(abs(Fraction(x) - y) for x, y in zip(v.flat, exact.flat))
        assert float(error) <= 1e-10 * float(np.abs(exact).max())

    @settings(max_examples=150, deadline=None)
    @given(_lyapunov_inputs())
    def test_every_layout_solves_each_member(self, inputs):
        # A stack of drifts is each member's own solve, bit for bit (so a
        # grid point equals its single-point steady state); a drift shared by
        # several diffusions is one LU with a right-hand side each, which
        # rounds apart from the single solve by a few ulps.  Each V is
        # symmetric bit for bit and agrees with scipy's Schur solve.
        drifts, diffusions = inputs
        v = langevin._solve_lyapunov(drifts, diffusions)
        alone = _solved_alone(drifts, diffusions)
        if drifts.ndim == 3:
            assert np.array_equal(v, alone)
        else:
            assert np.allclose(v, alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())
        assert np.array_equal(v, v.mT)
        members = v.reshape(-1, *v.shape[-2:])
        for a, d, member in zip(np.broadcast_to(drifts, members.shape), diffusions.reshape(members.shape), members):
            reference = solve_continuous_lyapunov(a, -d)
            assert np.abs(member - reference).max() <= 1e-9 * max(1.0, np.abs(reference).max())

    def test_one_solve_per_stack_and_per_basis(self, monkeypatch):
        systems, real = [], np.linalg.solve

        def counting(a, b):
            systems.append(a.shape)
            return real(a, b)

        drift, baths = _reference_basis_inputs()
        monkeypatch.setattr(np.linalg, "solve", counting)
        converter._thermal_steady_state(drift, baths)
        assert systems == [(21, 21)]  # three baths, one system

        del systems[:]
        grid = [0.5, 1.0, 1.5, 2.0, 2.5]
        index, _ = sweeps.run_grid(damped_arrays, grid)
        assert index.tolist() == list(range(len(grid)))
        assert systems == [(len(grid), 3, 3)]

    @pytest.mark.parametrize("excess, accurate", [(0.9e-9, True), (2e-9, False)])
    def test_the_gate_is_1e_9_of_the_diffusion(self, excess, accurate):
        # V = (1 + e) D/2 leaves the residual A V + V A^T + D = -e D at A = -I.
        d = 1e3 * np.eye(2)
        residual, admitted = langevin._residual_gate(-np.eye(2), d, 0.5 * (1.0 + excess) * d)
        assert residual == pytest.approx(excess * 1e3, rel=1e-6)
        assert admitted == accurate

    def test_non_finite_residual_fails_the_gate(self):
        # A NaN residual compares False with any bound; it must still fail.
        with pytest.raises(StiffnessError, match="residual nan"):
            langevin._check_residual(-np.eye(2), np.eye(2), np.full((2, 2), math.nan))
        with pytest.raises(StiffnessError, match="residual nan"):  # and when D = 0
            langevin._check_residual(-np.eye(2), np.zeros((2, 2)), np.full((2, 2), math.nan))

    def test_non_finite_solution_rejected_on_every_path(self, monkeypatch):
        # A solution beyond float range; an all-NaN one is how numpy reports
        # a singular system (see test_singular_basis_has_no_steady_state).
        def inf_solve(drifts, diffusions):
            return np.full(np.broadcast_shapes(drifts.shape, diffusions.shape), math.inf)

        for module in (langevin, converter, sweeps):
            monkeypatch.setattr(module, "_solve_lyapunov", inf_solve)
        with pytest.raises(StiffnessError, match="residual nan"):
            steady_state_cov(damped(1.0))
        with pytest.raises(StiffnessError, match="residual nan"):
            converter._thermal_steady_state(*_reference_basis_inputs())
        index, covs = sweeps.run_grid(damped_arrays, [1.0, 2.0])
        assert index.size == 0 and covs.shape == (0, 2, 2)

    @pytest.mark.parametrize("member, drift, diffusion", [
        # Eigenvalues +-1 pair to a zero eigenvalue of the system: numpy
        # refuses it as singular.
        (1, np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)),
        # V = D / 2e-10 = 5e309 is beyond float range.
        (2, -1e-10 * np.eye(2), 1e300 * np.eye(2)),
    ])
    def test_failed_member_is_a_stiffness_error_naming_it(self, member, drift, diffusion):
        drifts = np.array([damped(1.0).drift, damped(2.0).drift, damped(3.0).drift])
        diffusions = np.array([damped(1.0).diffusion, damped(2.0).diffusion, damped(3.0).diffusion])
        drifts[member], diffusions[member] = drift, diffusion
        v = langevin._solve_lyapunov(drifts, diffusions)
        for i in {0, 1, 2} - {member}:
            assert np.array_equal(v[i], steady_state_cov(damped(i + 1.0)))
        with pytest.raises(StiffnessError, match=rf"^stack member {member}: Lyapunov residual (nan|inf) "):
            langevin._check_residual(drifts, diffusions, v)

    def test_singular_and_overflowing_members_leave_the_grid_solved(self):
        # No stability test stands before the solve: it marks the singular
        # point (NaN) and the overflowing one (inf), and the residual gate
        # leaves both out.
        singular = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        overflowing = (-1e-10 * np.eye(2), 1e300 * np.eye(2))
        builds = {1.0: singular, 3.0: overflowing}
        index, covs = sweeps.run_grid(lambda v: builds.get(v) or damped_arrays(v), [1.0, 2.0, 3.0, 4.0])
        assert index.tolist() == [1, 3]
        assert np.array_equal(covs[0], steady_state_cov(damped(2.0)))
        assert np.array_equal(covs[1], steady_state_cov(damped(4.0)))

    def test_singular_basis_has_no_steady_state(self):
        # An undamped drift: its eigenvalues +-i pair to lambda_i + lambda_j
        # = 0, so numpy finds the basis's system singular.  Before, the NaN
        # it gives failed the residual rule ("residual nan").
        undamped = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NoSteadyStateError, match="^no steady state: the drift's Lyapunov system is singular"):
            converter._thermal_steady_state(undamped, [(1e10, 1.0, 0.0, "cavity")] * 3)

    def test_hot_steady_state_is_solved(self):
        # At 1e300 K the LAPACK Sylvester solve scaled its solution down, for
        # fear of overflow, and the report failed with a StiffnessError; the
        # steady state is finite, and the criteria of its pairs are what
        # leave float range.
        hot = dataclasses.replace(eom_reference(), temperature=1e300)
        with pytest.raises(UndefinedQuantityError, match="^covariance invariants beyond float range"):
            eom.entanglement_report(hot)


def _reference_basis_inputs():
    """The EOM reference drift and its three baths."""
    params = eom_reference()
    return eom.drift_matrix(params, eom.operating_point(params)), eom._baths(params)


class TestPropagation:
    def test_time_zero_identity(self, rng):
        m = random_stable_model(rng)
        v0 = np.eye(6)
        assert np.array_equal(propagate_cov(m, v0, 0.0), v0)

    def test_pure_decay_closed_form(self):
        kappa = 2.0
        m = LinearLangevinModel(-kappa * np.eye(2), np.zeros((2, 2)))
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
            (1e9, 0.8, 0.0, "cavity"),
            (1e9, 0.3, 0.0, "cavity"),
        ]
        drift = np.array([
            [-0.8, 0.0, 0.4, 0.0],
            [0.0, -0.8, 0.0, -0.4],
            [-0.4, 0.0, -0.3, 0.0],
            [0.0, 0.4, 0.0, -0.3],
        ])
        m = LinearLangevinModel(drift, diffusion_from_baths(baths))
        v = 0.5 * np.eye(4)
        for t in (0.2, 1.0, 5.0):
            v = propagate_cov(m, v, t)
            GaussianState(2, np.zeros(4), v).validate_physical()

    @pytest.mark.parametrize(
        "drift, v0, t",
        [
            (-np.eye(2), 1e308 * np.eye(2), 1.0),  # dV/dt = -2 V0 + D overflows at once
            (np.eye(2), np.eye(2), 1000.0),  # V grows as e^{2t}, past float range
        ],
    )
    def test_leaving_float_range_fails_the_calling_test(self, drift, v0, t):
        # The oracle is only as good as its integration: one that fails must
        # fail the test that asked for it, not hand back a NaN covariance.
        with np.errstate(all="ignore"), pytest.raises(AssertionError, match="step size"):
            propagate_cov(LinearLangevinModel(drift, np.eye(2)), v0, t)
