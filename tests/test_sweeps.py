"""The stacked grid step (order, failed-point marking, error propagation,
agreement with the single-point gate, checks of the axis values, no record
built per point) and threshold root-finding (accuracy, None results, bracket
expansion, evaluation counts, typed failures, and Brent's iterates bit for bit
scipy.optimize.brentq's)."""

import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from conftest import damped, damped_arrays, lyapunov_exact
from qradar import eom, oe
from qradar.converter import steady_state
from qradar.errors import (
    ConvergenceError,
    NoSteadyStateError,
    PhysicalityError,
    StiffnessError,
    ValidationError,
)
from qradar.langevin import LinearLangevinModel, _solve_lyapunov
from qradar.presets import eom_reference, oe_reference
from qradar.sweeps import _brent, bisect_threshold, run_grid


def counting(fn):
    """Wrap ``fn`` and record how often each x is evaluated."""
    calls = collections.Counter()

    def wrapped(x):
        calls[x] += 1
        return fn(x)

    return wrapped, calls


class TestBisectThreshold:
    @pytest.mark.parametrize("resolution", [1e-3, 1e-6])
    def test_linear_crossing_within_half_resolution(self, resolution):
        root = 0.3141
        x = bisect_threshold(lambda t: t - root, lo=0.0, hi=8.0, resolution=resolution)
        assert abs(x - root) <= resolution / 2

    @pytest.mark.parametrize("root", [0.0161, 0.144, 0.2242])
    def test_steep_quartic_crossing_within_half_resolution(self, root):
        # Shaped like lambda_SPH(T): flat and negative when cold, steep when hot.
        def fn(t):
            return (t / root) ** 4 - 1.0

        x = bisect_threshold(fn, lo=0.0, hi=8.0, resolution=1e-3)
        assert abs(x - root) <= 0.5e-3

    def test_none_when_nonnegative_at_lo(self):
        assert bisect_threshold(lambda t: t - 1.0, lo=1.0, hi=8.0, resolution=1e-3) is None
        assert bisect_threshold(lambda t: 1.0, lo=0.0, hi=8.0, resolution=1e-3) is None

    def test_none_when_no_crossing_within_max_expand(self):
        fn, calls = counting(lambda t: t - 1e4)
        assert bisect_threshold(fn, lo=0.0, hi=1.0, resolution=1e-3) is None
        # lo, then hi = 1, 2, ..., 2048: the 12th doubling, to 4096, is never
        # evaluated.
        assert sorted(calls) == [0.0] + [2.0**i for i in range(12)]

    def test_expansion_finds_root_above_initial_hi(self):
        root = 37.5
        x = bisect_threshold(lambda t: t - root, lo=0.0, hi=1.0, resolution=1e-3)
        assert abs(x - root) <= 0.5e-3

    def test_each_distinct_x_evaluated_once(self):
        fn, calls = counting(lambda t: (t / 0.144) ** 4 - 1.0)
        bisect_threshold(fn, lo=0.0, hi=8.0, resolution=1e-3)
        assert calls
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize(
        "fn, x",
        [
            (lambda t: math.nan if 0.0 < t < 8.0 else t - 1.0, "1.0"),
            (lambda t: math.nan, "0.0"),
            (lambda t: math.nan if t == 8.0 else t - 20.0, "8.0"),
        ],
        ids=["inside", "at-lo", "while-expanding"],
    )
    def test_nan_value_raises_naming_x(self, fn, x):
        # scipy's brentq raised a bare ValueError inside the bracket or at lo;
        # a NaN at hi counted as negative and the bracket kept doubling.
        with pytest.raises(ConvergenceError, match=rf"^threshold function is NaN at x={x}$"):
            bisect_threshold(fn, lo=0.0, hi=8.0, resolution=1e-3)

    def test_iteration_limit_raises(self):
        # A step at 1e-300 leaves Brent bisecting from [0, 1], about 1000
        # halvings from xtol 5e-324; scipy's brentq raised a RuntimeError.
        fn, calls = counting(lambda t: -1.0 if t < 1e-300 else 1.0)
        message = r"^Brent's method did not reach xtol 5e-324 in 100 iterations; last x="
        with pytest.raises(ConvergenceError, match=message):
            bisect_threshold(fn, lo=0.0, hi=1.0, resolution=1e-323)
        assert sum(calls.values()) == 2 + 100


# Drifts that fail in each way a grid leaves a point out (with D = I), and
# the error the one-model chain raises for each.
FAILING_DRIFTS = {
    # Undamped, Re lambda = 0: eigenvalues +-i pair to lambda_i + lambda_j =
    # 0, so numpy finds the system singular, and its NaN fails the residual rule.
    "undamped": (NoSteadyStateError, [[0.0, 1.0], [-1.0, 0.0]]),
    # A saddle, eigenvalues 1 and -2: the system is regular, and its exact
    # solution diag(-1/2, 1/4) is not positive definite.
    "saddle": (NoSteadyStateError, [[1.0, 0.0], [0.0, -2.0]]),
    "stiff": (StiffnessError, [[-1.0, 1e12], [0.0, -1.0]]),  # residual far above 1e-9 ||D||
}


def model(arrays) -> LinearLangevinModel:
    """The one-mode model made of a grid builder's drift and diffusion."""
    return LinearLangevinModel(*arrays)


class TestRunGrid:
    def test_output_follows_grid_order(self):
        grid = [3.0, -1.0, 2.5, 0.0]
        index, covs = run_grid(damped_arrays, grid)
        assert index.tolist() == [0, 1, 2, 3]
        assert covs[:, 0, 0].tolist() == pytest.approx([3.5, 1.5, 3.0, 0.5], rel=1e-12)
        for v, cov in zip(grid, covs, strict=True):
            assert np.array_equal(cov, steady_state(damped(v)))

    @pytest.mark.parametrize("failure", [*FAILING_DRIFTS, "stalled"])
    def test_converter_failure_leaves_the_point_out(self, failure):
        error, drift = FAILING_DRIFTS.get(failure, (ConvergenceError, None))

        def build(v):
            if v != 2.0:
                return damped_arrays(v)
            if drift is None:
                raise error("stalled")
            return np.array(drift), np.eye(2)

        index, covs = run_grid(build, [1.0, 2.0, 3.0])
        assert index.tolist() == [0, 2]
        assert covs[:, 0, 0].tolist() == pytest.approx([1.5, 3.5], rel=1e-12)
        with pytest.raises(error):  # the point alone fails in that way
            steady_state(model(build(2.0)))

    def test_saddle_is_solved_and_not_positive_definite(self):
        # The saddle reaches the solve, which is accurate: V is not positive
        # definite exactly, as the exact reference confirms.
        drift, diffusion = np.array(FAILING_DRIFTS["saddle"][1]), np.eye(2)
        v = _solve_lyapunov(drift, diffusion)
        assert np.array_equal(v, np.diag([-0.5, 0.25]))
        assert lyapunov_exact(drift, diffusion) == [[Fraction(-1, 2), 0], [0, Fraction(1, 4)]]

    def test_validation_error_propagates(self):
        def build(v):
            raise ValidationError("bad input")

        with pytest.raises(ValidationError, match="bad input"):
            run_grid(build, [1.0])

    def test_no_operating_point_anywhere_is_an_empty_stack(self):
        def build(v):
            raise ConvergenceError("stalled")

        index, covs = run_grid(build, [1.0, 2.0])
        assert index.size == 0 and covs.shape == (0, 0, 0)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_point_named(self, which, value):
        # A non-finite drift or diffusion fails the one finiteness check over
        # the stack, naming its grid point, as the model constructor rejects
        # the matrix itself.
        def build(v):
            arrays = list(damped_arrays(v))
            if v == 0.25:
                arrays[which] = arrays[which].copy()
                arrays[which][1, 1] = value
            return tuple(arrays)

        named = r"^grid point 2 \(0\.25\): drift and diffusion must be finite$"
        with pytest.raises(ValidationError, match=named):
            run_grid(build, [0.0, 0.5, 0.25, 1.0])
        with pytest.raises(ValidationError, match=f"^{('drift', 'diffusion')[which]} must be finite$"):
            model(build(0.25))

    def test_physicality_error_names_the_grid_point(self):
        # Damping that outruns its noise: D = 0.998 I under A = -I relaxes to
        # V = 0.499 I, positive definite and 1e-3 below the vacuum bound.
        def build(v):
            if v == 0.25:
                return -np.eye(2), 0.998 * np.eye(2)
            return damped_arrays(v)

        named = r"^grid point 2 \(0\.25\): .*1\.000e-03 below 1/2"
        with pytest.raises(PhysicalityError, match=named):
            run_grid(build, [0.0, 0.5, 0.25, 1.0])
        with pytest.raises(PhysicalityError, match="^state invariant"):
            steady_state(model(build(0.25)))

    @pytest.mark.parametrize("failing", [[2], [0, 2, 3]])
    def test_noise_free_point_is_left_out(self, failing):
        # A stable drift with D = 0 has V = 0: the residual gate passes it
        # (nothing to scale against), and a V that is not positive definite
        # certifies no steady state, so the point is left out, whichever
        # other points fail with it.  The one-model chain's physical rule
        # refuses V = 0 as a state.  (Before, the grid raised that error.)
        grid = [0.0, 0.5, 0.25, 1.0]

        def build(v):
            if grid.index(v) in failing:
                return -np.eye(2), np.zeros((2, 2))
            return damped_arrays(v)

        index, covs = run_grid(build, grid)
        kept = [i for i in range(4) if i not in failing]
        assert index.tolist() == kept
        for i, cov in zip(kept, covs, strict=True):
            assert np.array_equal(cov, steady_state(model(build(grid[i]))))
        with pytest.raises(PhysicalityError, match="^state invariant violated: cov is not positive definite"):
            steady_state(model(build(grid[failing[0]])))


def _log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


def _signed(magnitudes):
    return st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), magnitudes)


# Axes and ranges that reach every outcome: stable points, unstable drifts
# (lambda_L above 1.92 um, some delta_eg), no operating point (delta_eg = 0)
# and the band |delta_eg| ~ 70-180 rad/s where rounding in the
# Lyapunov residual decides between a steady state and StiffnessError.
_EOM_AXES = {
    "wavelength": st.floats(min_value=0.5e-6, max_value=3e-6),
    "gamma_m": _log_uniform(2 * math.pi, 2 * math.pi * 1e4),
    "delta_w": st.floats(min_value=-3.0, max_value=3.0).map(lambda f: f * 2 * math.pi * 1e6),
}
_OE_DETUNINGS = st.one_of(
    st.just(0.0),
    _signed(st.floats(min_value=70.0, max_value=180.0)),
    _signed(_log_uniform(10.0, 3e7)),
)


def assert_grid_matches_points(build, point_model, grid):
    """The grid ``build`` gives keeps ascending positions, one covariance
    each; each equals the single-point gate's on ``point_model`` there, and
    each position left out is a point whose own gate fails the way a grid
    marks."""
    index, covs = run_grid(build, grid)
    assert index.tolist() == sorted(set(index.tolist())) and len(covs) == len(index)
    kept = dict(zip(index.tolist(), covs))
    for i, value in enumerate(grid):
        if i in kept:
            assert np.array_equal(kept[i], steady_state(point_model(value))), value
        else:
            with pytest.raises((NoSteadyStateError, StiffnessError, ConvergenceError)):
                steady_state(point_model(value))


class TestGridMatchesPoints:
    """The builders the converter grids use and the single-point path stay the same gate."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_eom_grid(self, data):
        axis = data.draw(st.sampled_from(sorted(_EOM_AXES)))
        grid = data.draw(st.lists(_EOM_AXES[axis], min_size=1, max_size=6))
        base = eom_reference()

        def point_model(value):
            if axis == "wavelength":
                return eom.build_model(base.at_wavelength(value))
            return eom.build_model(dataclasses.replace(base, **{axis: value}))

        assert_grid_matches_points(eom._grid_point(base, axis), point_model, grid)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_OE_DETUNINGS, min_size=1, max_size=6))
    def test_oe_detuning_grid(self, grid):
        base = oe_reference()
        assert_grid_matches_points(
            lambda value: oe._arrays(dataclasses.replace(base, delta_eg=value)),
            lambda value: oe.build_model(dataclasses.replace(base, delta_eg=value)),
            grid,
        )


# 32-point grids on the shipped presets' ranges.
_GRIDS = {
    "wavelength": np.linspace(8.0e-7, 1.6e-6, 32),
    "gamma_m": np.geomspace(2 * math.pi * 5.0, 2 * math.pi * 1500.0, 32),
    "delta_eg": np.linspace(-3.0e7, 3.0e7, 32),
}


def _sweep(axis, grid):
    """The stability marks of the shipped sweep on ``axis``."""
    if axis == "delta_eg":
        return [p.stable for p in oe.entanglement_vs_detuning(oe_reference(), grid).points]
    return [p.stable for p in eom.sweep(eom_reference(), axis, grid)]


class TestGridRecords:
    """A grid checks its axis values once and builds no record per point."""

    @pytest.mark.parametrize("axis", sorted(_GRIDS))
    def test_no_model_or_bath_built_per_point(self, axis, monkeypatch):
        built = []
        real = LinearLangevinModel.__post_init__
        monkeypatch.setattr(LinearLangevinModel, "__post_init__", lambda self: built.append(real(self)))
        assert any(_sweep(axis, _GRIDS[axis]))
        assert built == []
        eom.build_model(eom_reference())  # the count sees the single-point record
        assert len(built) == 1

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("temperature", 10**400, "temperature must be finite"),
            ("wavelength", 10**400, "lambda_l must be finite"),
            ("delta_eg", 10**400, "delta_eg must be finite"),
            ("gamma_m", math.nan, "gamma_m must be finite"),
            ("temperature", -1.0, "temperature must be non-negative"),
            ("wavelength", 0.0, "lambda_l must be positive"),
        ],
        ids=["temperature-int-1e400", "wavelength-int-1e400", "delta_eg-int-1e400",
             "gamma_m-nan", "temperature-negative", "wavelength-zero"],
    )
    def test_axis_values_meet_their_field_rule(self, axis, value, message):
        # An int beyond float range used to raise a bare OverflowError from float(v).
        with pytest.raises(ValidationError, match=f"^{message}$"):
            _sweep(axis, [value])

    # lambda_l only records the wavelength: swept bare, it left omega_c, g1
    # and e_c as they were, the same steady state at every point.  The
    # wavelength axis moves them.
    @pytest.mark.parametrize("axis", ["colour", "lambda_l"])
    def test_unknown_axis_rejected(self, axis):
        with pytest.raises(ValidationError, match=f"^unknown sweep axis '{axis}'$"):
            eom.sweep(eom_reference(), axis, [1e-6])


# Shapes a threshold's crossing function takes, each of (x, root): smooth and
# odd, flat then steep (lambda_SPH against T), saturating, a step (on which
# Brent falls back to bisection) and falling (-(x - root) is -0.0 at the root).
_SHAPES = {
    "linear": lambda x, r: x - r,
    "falling": lambda x, r: -(x - r),
    "cubic": lambda x, r: (x - r) ** 3,
    "quartic": lambda x, r: (x / r) ** 4 - 1.0,
    "tanh": lambda x, r: math.tanh(x - r),
    "expm1": lambda x, r: math.expm1(x - r),
    "step": lambda x, r: -1.0 if x < r else 1.0,
}


@st.composite
def _brackets(draw):
    """(shape, root, scale, a, b, xtol): scale * shape(x, root) on [a, b]."""
    root = draw(st.floats(min_value=-10.0, max_value=10.0))
    below, above = draw(_log_uniform(1e-6, 1e2)), draw(_log_uniform(1e-6, 1e2))
    return (
        draw(st.sampled_from(sorted(_SHAPES))),
        root,
        draw(st.one_of(_log_uniform(1e-3, 1e3), _log_uniform(1e-320, 1e-290))),  # tiny: f underflows
        root - below,
        root + above,
        draw(st.one_of(st.just(5e-324), _log_uniform(1e-300, 1.0))),
    )


def _traced(fn):
    """``fn`` and the list of each x it is evaluated at, in order."""
    seen = []

    def traced(x):
        seen.append(x)
        return fn(x)

    return traced, seen


class TestBrentMatchesScipy:
    """``_brent`` is scipy's brentq.c step for step: the same result and the
    same x evaluated, in the same order, bit for bit."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_brackets())
    @example(("linear", 1.0, 1.0, 0.0, 1.0, 5e-4))  # f(hi) == 0
    @example(("linear", 1e-4, 1.0, 0.0, 8.0, 5e-4))  # a root at 1e-4
    @example(("falling", 1.0, 1.0, 0.0, 2.0, 5e-4))  # the first step lands on f = -0.0
    @example(("falling", 1.0, 1.0, 0.0, 1.0, 5e-4))  # f(hi) == -0.0
    @example(("expm1", 0.3, 1.0, -2.0, 5.0, 5e-324))  # xtol the least subnormal
    @example(("quartic", 0.144, 1.0, 0.0, 8.0, 5e-4))  # the steep quartic
    @example(("step", 1e-300, 1.0, 0.0, 1.0, 5e-324))  # 100 iterations short of xtol
    @example(("quartic", 2.25, 1.0, 1.25, 3.25, 1.0))  # xtol sets the bound 3|sbis| - delta
    # f so small that the inverse-quadratic denominator underflows to 0
    @example(("cubic", 2.7813628108832393, 4.420741654411141e-295, 2.7813467809618646, 2.901281056513291, 5e-324))
    def test_iterates_and_result_bit_for_bit(self, case):
        shape, root, scale, a, b, xtol = case
        assume(shape != "quartic" or abs(root) > 1e-3)  # (x / root)^4 in float range

        def fn(x):
            return scale * _SHAPES[shape](x, root)

        fa, fb = fn(a), fn(b)
        assume(fa != 0.0 and (fb == 0.0 or (fa < 0.0) != (fb < 0.0)))
        expected, expected_xs = _traced(fn)
        try:
            expected_root = optimize.brentq(expected, a, b, xtol=xtol)
        except RuntimeError:  # out of iterations
            expected_root = None
        ours, xs = _traced(fn)
        try:
            root_found = _brent(ours, a, b, fa, fb, xtol)
        except ConvergenceError:
            root_found = None
        assert [x.hex() for x in [a, b, *xs]] == [x.hex() for x in expected_xs]
        if expected_root is None:
            assert root_found is None
        else:
            assert root_found.hex() == expected_root.hex()
