"""Threshold root-finding: accuracy, None results, bracket expansion and
evaluation counts."""

import collections

import pytest

from qradar.sweeps import bisect_threshold


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
