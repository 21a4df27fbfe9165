"""Shared converter pipeline: the closed-form operating point, reached
through both converter models, its residual gate and failure report; the
temperature-affine steady state the thresholds bisect, and its properties."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qradar import eom, oe
from qradar.converter import _response_roots, _thermal_steady_state, steady_state
from qradar.criteria import BipartiteBlocks, two_eta
from qradar.errors import ConvergenceError, NoSteadyStateError
from qradar.presets import channel_preset, eom_reference, oe_reference


def _record_cubics(model, monkeypatch) -> list:
    """Collects the (k, h, g, rhs) of every cubic ``model`` solves from now on."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _response_roots(*args)

    monkeypatch.setattr(model, "_response_roots", recording)
    return calls


@pytest.mark.parametrize("model, params", [(eom, eom_reference()), (oe, oe_reference())])
def test_cubic_roots_agree_with_companion_eigenvalues(model, params, monkeypatch):
    # The OE reference drive is bistable: its P cubic has three real roots.
    cubics = _record_cubics(model, monkeypatch)
    model.operating_point(params)
    assert cubics
    for k, h, g, rhs in cubics:
        roots = _response_roots(k, h, g, rhs)
        companion = np.roots([g * g, -2.0 * g * h, k * k + h * h, -rhs])
        real = np.sort(companion[abs(companion.imag) <= 1e-9 * abs(companion)].real)
        assert sorted(roots) == pytest.approx(real, rel=1e-9)
        assert abs(roots[0]) == min(abs(r) for r in roots)


@pytest.mark.parametrize("model, params", [(eom, eom_reference()), (oe, oe_reference())])
def test_inexact_root_raises_with_residual(model, params, monkeypatch):
    def perturbed(*args):
        return [r * (1.0 + 1e-9) for r in _response_roots(*args)]

    monkeypatch.setattr(model, "_response_roots", perturbed)
    with pytest.raises(ConvergenceError, match="relative residual") as info:
        model.operating_point(params)
    assert 1e-12 < info.value.residual < 1e-6


def test_non_finite_residual_raises_at_once(monkeypatch):
    # e_w^2 overflows to inf: the gate reports the NaN residual after one
    # cubic solve, with no RuntimeWarning on the way.
    cubics = _record_cubics(eom, monkeypatch)
    params = dataclasses.replace(eom_reference(), e_w=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="relative residual nan") as info:
            eom.operating_point(params)
    assert len(cubics) == 1
    assert info.value.residual != info.value.residual


@pytest.mark.parametrize(
    "model, changes",
    [
        # omega_m (kappa_c^2 + delta_c^2) = 2 g1^2 delta_c: P_s is not finite.
        (eom, {"kappa_c": 0.0, "delta_c": 0.0}),
        # An undamped microwave cavity on resonance.
        (oe, {"kappa_w": 0.0, "delta_w": 0.0, "gamma_p": 0.0}),
    ],
)
def test_no_isolated_root_raises(model, changes):
    params = dataclasses.replace({eom: eom_reference(), oe: oe_reference()}[model], **changes)
    with pytest.raises(ConvergenceError, match="operating point"):
        model.operating_point(params)


@pytest.mark.parametrize(
    "model, changes",
    [
        (eom, {"g1": 0.0, "g2": 0.0}),
        (oe, {"g_op": 0.0}),
        (oe, {"g_wp": 0.0}),
        (oe, {"g_op": 0.0, "g_wp": 0.0}),
    ],
)
def test_zero_coupling_is_linear(model, changes):
    params = dataclasses.replace({eom: eom_reference(), oe: oe_reference()}[model], **changes)
    op = model.operating_point(params)
    assert op.residual <= 1e-12
    if model is eom:
        assert op.p_s == 0.0 and op.x_s == 0.0 and op.branches == 1
        return
    if params.g_op == 0.0:
        assert op.p_s == 0.0 and op.branches == 1
    if params.g_wp == 0.0:
        assert op.x_s == pytest.approx(-params.gamma_p * op.p_s / params.delta_eg, rel=1e-15)


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


def _dc_equations(model, q, op):
    """The terms of each DC equation at ``op``, written out independently of
    the models' own ``_equations``."""
    a, c, p, x = op.a_s, op.c_s, op.p_s, op.x_s
    if model is eom:
        return [
            [-1j * q.delta_c * a, -q.kappa_c * a, -1j * q.g1 * p, q.e_c],
            [-1j * q.delta_w * (1.0 - q.g2 * x) * c, -q.kappa_w * c, q.e_w],
            [q.omega_m * p, 2.0 * q.g1 * a.real],
            [-q.gamma_m * p, -q.omega_m * x, q.delta_w * q.g2 * abs(c) ** 2],
        ]
    return [
        [-1j * (q.delta_c + q.g_op * p) * a, -q.kappa_c * a, q.e_c],
        [-1j * (q.delta_w - q.g_wp * x) * c, -q.kappa_w * c, q.e_w],
        [q.delta_eg * p, q.g_op * abs(a) ** 2],
        [-q.gamma_p * p, -q.delta_eg * x, q.g_wp * abs(c) ** 2],
    ]


def _worst_relative_residual(equations) -> float:
    """Largest |sum of terms| / largest |term|; an all-zero equation holds."""
    return max(abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300) for terms in equations)


# The presets' and the benchmark's ranges: lambda_L 0.8-1.6 um, gamma_m
# 2 pi (5-1500) rad/s, delta_eg of either sign up to 3e7 rad/s and exactly 0,
# the rates jittered by 5% and the drives off or scaled from 1e-6 to 3 times
# the reference (overdriven points are bistable or unstable).  Drives far
# weaker, near 1e-300 of the reference, make the unknowns subnormal, where
# float arithmetic no longer holds a relative residual of 1e-12.
_drives = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=3.0))
_detunings = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=1.0, max_value=math.log10(3e7)),
    ),
)


class TestOperatingPointProperties:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        _factors,
        _drives,
        st.floats(min_value=0.8e-6, max_value=1.6e-6),
        st.floats(min_value=math.log(2 * math.pi * 5), max_value=math.log(2 * math.pi * 1500)),
    )
    def test_eom_solves_each_equation(self, factors, drive, lambda_l, log_gamma_m):
        base = _jittered(eom, factors)
        params = dataclasses.replace(
            base, e_c=drive * base.e_c, e_w=drive * base.e_w, gamma_m=math.exp(log_gamma_m)
        ).at_wavelength(lambda_l)
        op = eom.operating_point(params)
        assert _worst_relative_residual(_dc_equations(eom, params, op)) <= 1e-12

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_factors, _drives, _detunings)
    def test_oe_fails_only_at_zero_detuning(self, factors, drive, delta_eg):
        base = _jittered(oe, factors)
        params = dataclasses.replace(
            base, e_c=drive * base.e_c, e_w=drive * base.e_w, delta_eg=delta_eg
        )
        try:
            op = oe.operating_point(params)
        except ConvergenceError:
            assert delta_eg == 0.0
            return
        assert delta_eg != 0.0
        assert _worst_relative_residual(_dc_equations(oe, params, op)) <= 1e-12
