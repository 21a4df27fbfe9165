"""Shared converter pipeline: the root-finder fallback of the operating-point
solver, reached through both converter models, and its failure report."""

import pytest
import scipy.optimize

from qradar import eom, oe
from qradar.converter import solve_operating_point
from qradar.errors import ConvergenceError
from qradar.presets import eom_reference, oe_reference


@pytest.mark.parametrize("model, params", [(eom, eom_reference()), (oe, oe_reference())])
def test_fallback_agrees_with_fixed_point(model, params, monkeypatch):
    calls = []
    root = scipy.optimize.root

    def counted_root(*args, **kwargs):
        calls.append(1)
        return root(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "root", counted_root)
    default = model.operating_point(params)
    assert calls == []
    # Ten damped steps are far from converged, so the root finder finishes.
    fallback = model.operating_point(params, max_iter=10)
    assert len(calls) == 1
    assert fallback.residual <= 1e-9
    assert fallback.c_s == pytest.approx(default.c_s, rel=1e-9)
    assert fallback.a_s == pytest.approx(default.a_s, rel=1e-5)


def test_no_root_raises_with_residual():
    def update(params, a, c, p, x):
        return a + 1.0, c, p, x

    def equations(params, a, c, p, x):
        return 1.0 + abs(a) ** 2 + 0j, c, p, x

    with pytest.raises(ConvergenceError, match="did not converge") as info:
        solve_operating_point(None, update, equations, scale=1.0, max_iter=5)
    assert info.value.residual > 1e-9


def test_non_finite_residual_raises_at_once(monkeypatch):
    # The iterate overflows to inf on the second step, so a - a is NaN.  The
    # NaN goes in f1 and in f3, where Python's max(abs(f1), ...) skipped it.
    def update(params, a, c, p, x):
        return a * 1e300 + 1e300, c, p, x

    monkeypatch.setattr(scipy.optimize, "root", pytest.fail)
    for position in (0, 2):
        calls = []

        def equations(params, a, c, p, x):
            calls.append(a)
            f = [1.0, c, p, x]
            f[position] = a - a + 1.0
            return f

        with pytest.raises(ConvergenceError, match="diverged") as info:
            solve_operating_point(None, update, equations, scale=1.0, max_iter=1000)
        assert len(calls) == 2
        assert info.value.residual != info.value.residual
