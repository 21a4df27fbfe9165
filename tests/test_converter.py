"""Shared converter pipeline: the root-finder fallback of the operating-point
solver, reached through both converter models, and its failure report; the
temperature-affine steady state the thresholds bisect, and its properties."""

import dataclasses

import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qradar import eom, oe
from qradar.converter import _thermal_steady_state, solve_operating_point, steady_state
from qradar.criteria import BipartiteBlocks, two_eta
from qradar.errors import ConvergenceError, NoSteadyStateError
from qradar.presets import channel_preset, eom_reference, oe_reference


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


def _thresholds():
    """(model, parameters, keyword arguments) of each of the five thresholds."""
    atmosphere = channel_preset("fig10_atmosphere")
    target = channel_preset("fig10_target")
    cases = [(eom, eom_reference(), {"pair": pair}) for pair in eom.PAIR_NAMES]
    cases.append((oe, oe_reference(), {}))
    cases.append((oe, oe_reference(), {"channel_spec": atmosphere, "target_spec": target}))
    return cases


class TestThresholdSolvesOnce:
    @pytest.mark.parametrize("model, params, kwargs", _thresholds())
    def test_one_operating_point_per_threshold(self, model, params, kwargs, monkeypatch):
        calls = []
        solve = model.operating_point

        def counted(p):
            calls.append(p)
            return solve(p)

        monkeypatch.setattr(model, "operating_point", counted)
        assert model.threshold_temperature(params, **kwargs) is not None
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "model, params",
        [
            # An overdriven microwave drive, and a blue-detuned optical cavity.
            (eom, dataclasses.replace(eom_reference(), e_w=3.0 * eom_reference().e_w)),
            (oe, dataclasses.replace(oe_reference(), delta_c=-oe_reference().delta_c)),
        ],
    )
    def test_unstable_drift_has_no_threshold(self, model, params):
        with pytest.raises(NoSteadyStateError, match="unstable"):
            model.threshold_temperature(params)


# Each property draws temperatures in 0-2 K and jitters the rates and the
# microwave drive by up to 5% about the reference.
_JITTER = {
    eom: ("kappa_c", "kappa_w", "gamma_m", "e_w"),
    oe: ("kappa_c", "kappa_w", "gamma_p", "e_w"),
}
_REFERENCE = {eom: eom_reference(), oe: oe_reference()}
_PAIRS = {eom: eom.PAIR_NAMES, oe: ("oc_mc",)}
_temperatures = st.floats(min_value=0.0, max_value=2.0)
_factors = st.lists(st.floats(min_value=0.95, max_value=1.05), min_size=4, max_size=4)
_models = st.sampled_from([eom, oe])


def _jittered(model, factors):
    base = _REFERENCE[model]
    return dataclasses.replace(
        base, **{name: getattr(base, name) * f for name, f in zip(_JITTER[model], factors)}
    )


def _blocks(model, cov, pair):
    if model is eom:
        return eom._pair_blocks(cov, pair)
    return BipartiteBlocks.from_covariance(cov[oe._OC_MC])


class TestTemperatureAffineSteadyState:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_models, _factors, _temperatures)
    def test_matches_the_solve_at_that_temperature(self, model, factors, temperature):
        params = _jittered(model, factors)
        cov_at = _thermal_steady_state(model.build_model(params), model._baths(params))
        hot = dataclasses.replace(params, temperature=temperature)
        solved = steady_state(model.build_model(hot))
        assert abs(cov_at(temperature) - solved).max() <= 1e-9 * abs(solved).max()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_models, _factors, _temperatures, _temperatures)
    def test_two_eta_does_not_decrease_with_temperature(self, model, factors, t1, t2):
        params = _jittered(model, factors)
        cov_at = _thermal_steady_state(model.build_model(params), model._baths(params))
        cold, hot = cov_at(min(t1, t2)), cov_at(max(t1, t2))
        for pair in _PAIRS[model]:
            before = two_eta(_blocks(model, cold, pair))
            after = two_eta(_blocks(model, hot, pair))
            assert after >= before * (1.0 - 1e-12), pair
