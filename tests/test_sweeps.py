"""The stacked grid step (order, failed-point marking, error propagation,
agreement with the single-point gate) and threshold root-finding (accuracy,
None results, bracket expansion and evaluation counts)."""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qradar import eom, oe
from qradar.converter import steady_state
from qradar.errors import (
    ConvergenceError,
    NoSteadyStateError,
    PhysicalityError,
    StiffnessError,
    ValidationError,
)
from qradar.langevin import LinearLangevinModel
from qradar.presets import eom_reference, oe_reference
from qradar.sweeps import bisect_threshold, run_grid


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
        fn, calls = counting(lambda t: t - 100.0)
        assert bisect_threshold(fn, lo=0.0, hi=1.0, resolution=1e-3, max_expand=6) is None
        # lo, then hi = 1, 2, ..., 32: the last doubling to 64 is never evaluated.
        assert sorted(calls) == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]

    def test_expansion_finds_root_above_initial_hi(self):
        root = 37.5
        x = bisect_threshold(lambda t: t - root, lo=0.0, hi=1.0, resolution=1e-3)
        assert abs(x - root) <= 0.5e-3

    def test_each_distinct_x_evaluated_once(self):
        fn, calls = counting(lambda t: (t / 0.144) ** 4 - 1.0)
        bisect_threshold(fn, lo=0.0, hi=8.0, resolution=1e-3)
        assert calls
        assert set(calls.values()) == {1}


def damped(v: float) -> LinearLangevinModel:
    """A damped oscillator rotating at ``v`` whose steady state is (|v| + 1/2) I."""
    return LinearLangevinModel(
        np.array([[-1.0, v], [-v, -1.0]]), (2.0 * abs(v) + 1.0) * np.eye(2), ("a",)
    )


# Drifts that fail in each way a grid marks a point from its model.
FAILING_DRIFTS = {
    NoSteadyStateError: [[0.0, 1.0], [-1.0, 0.0]],  # undamped: Re lambda = 0
    StiffnessError: [[-1.0, 1e12], [0.0, -1.0]],  # residual far above 1e-9 ||D||
}


class TestRunGrid:
    def test_output_follows_grid_order(self):
        grid = [3.0, -1.0, 2.5, 0.0]
        covs = run_grid(damped, grid)
        assert [cov[0, 0] for cov in covs] == pytest.approx([3.5, 1.5, 3.0, 0.5], rel=1e-12)
        for v, cov in zip(grid, covs):
            assert np.array_equal(cov, steady_state(damped(v)))

    @pytest.mark.parametrize(
        "error",
        [NoSteadyStateError("unstable"), ConvergenceError("stalled"), StiffnessError("stiff")],
    )
    def test_converter_failure_yields_none(self, error):
        def build(v):
            if v != 2.0:
                return damped(v)
            if isinstance(error, ConvergenceError):
                raise error
            return LinearLangevinModel(np.array(FAILING_DRIFTS[type(error)]), np.eye(2), ("a",))

        covs = run_grid(build, [1.0, 2.0, 3.0])
        assert covs[1] is None
        assert [cov[0, 0] for cov in covs[::2]] == pytest.approx([1.5, 3.5], rel=1e-12)
        with pytest.raises(type(error)):  # the point alone fails in that way
            steady_state(build(2.0))

    def test_validation_error_propagates(self):
        def build(v):
            raise ValidationError("bad input")

        with pytest.raises(ValidationError, match="bad input"):
            run_grid(build, [1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            run_grid(damped, [])

    def test_physicality_error_names_the_grid_point(self):
        # A stable drift with D = 0 has V = 0: the residual gate passes it
        # (nothing to scale against) and the physical rule rejects it.
        def build(v):
            if v == 0.25:
                return LinearLangevinModel(-np.eye(2), np.zeros((2, 2)), ("a",))
            return damped(v)

        named = r"^grid point 2 \(0\.25\): .*positive definite"
        with pytest.raises(PhysicalityError, match=named):
            run_grid(build, [0.0, 0.5, 0.25, 1.0])
        with pytest.raises(PhysicalityError, match="^state invariant"):
            steady_state(build(0.25))


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


def assert_grid_matches_points(build, grid):
    """Each grid covariance equals the single-point gate's, and each None
    is a point whose own gate fails the way a grid marks."""
    for value, cov in zip(grid, run_grid(build, grid), strict=True):
        if cov is None:
            with pytest.raises((NoSteadyStateError, StiffnessError, ConvergenceError)):
                steady_state(build(value))
        else:
            assert np.array_equal(cov, steady_state(build(value))), value


class TestGridMatchesPoints:
    """The stacked grid step and the single-point path stay the same gate."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_eom_grid(self, data):
        axis = data.draw(st.sampled_from(sorted(_EOM_AXES)))
        grid = data.draw(st.lists(_EOM_AXES[axis], min_size=1, max_size=6))
        base = eom_reference()

        def build(value):
            if axis == "wavelength":
                return eom.build_model(base.at_wavelength(value))
            return eom.build_model(dataclasses.replace(base, **{axis: value}))

        assert_grid_matches_points(build, grid)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(_OE_DETUNINGS, min_size=1, max_size=6))
    def test_oe_detuning_grid(self, grid):
        base = oe_reference()
        assert_grid_matches_points(
            lambda value: oe.build_model(dataclasses.replace(base, delta_eg=value)), grid
        )
