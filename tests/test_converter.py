"""Shared converter pipeline: the closed-form operating point, reached
through both converter models, its residual gate and failure report; the
three-mode drift template against each converter's hand-written literal; the
temperature-affine steady state the thresholds bisect and the temperature
grids stack, its properties, an integrated oracle for it, and the checks each
threshold step and grid still makes on it."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qradar import converter, criteria, eom, gaussian, langevin, oe, sweeps
from qradar.channels import GaussianChannel
from qradar.converter import _response_roots, _thermal_steady_state, steady_state
from qradar.criteria import BipartiteBlocks, lambda_sph, two_eta
from qradar.errors import ConvergenceError, NoSteadyStateError, PhysicalityError, StiffnessError
from qradar.errors import ValidationError
from qradar.langevin import LinearLangevinModel, diffusion_from_baths
from qradar.presets import channel_preset, eom_reference, oe_reference

from conftest import eom_drift_literal, lyapunov_exact, oe_drift_literal, physical_exact, propagate_cov


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


@pytest.mark.parametrize("imbalance, accepted", [(1e-13, True), (1e-11, False)])
def test_the_operating_point_gate_is_1e_12(imbalance, accepted):
    # One DC equation whose two terms cancel to 1e-13 or 1e-11 of the larger.
    equations = [[1.0, imbalance - 1.0]]
    if accepted:
        assert converter._gated_point(0.0, 0.0, 0.0, 0.0, 1, equations).residual == pytest.approx(imbalance, rel=1e-3)
    else:
        with pytest.raises(ConvergenceError, match=r"relative residual 1\.000e-11"):
            converter._gated_point(0.0, 0.0, 0.0, 0.0, 1, equations)


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


def _drawn(data, record):
    """``record`` with each float or complex field scaled by a drawn factor in
    [1/2, 2], of a drawn sign for the detunings delta_c, delta_w and delta_eg."""
    changes = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, (float, complex)):
            factor = data.draw(st.floats(min_value=0.5, max_value=2.0), label=field.name)
            if field.name in ("delta_c", "delta_w", "delta_eg") and data.draw(st.booleans()):
                factor = -factor
            changes[field.name] = value * factor
    return dataclasses.replace(record, **changes)


class TestDriftTemplate:
    # The rates and the operating point are drawn around the references, not
    # solved for, so every draw reaches the drift, stable or not.
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_oe_drift_is_its_literal_bit_for_bit(self, data):
        params = _drawn(data, oe_reference())
        op = _drawn(data, oe.operating_point(oe_reference()))
        drift, literal = oe.drift_matrix(params, op), oe_drift_literal(params, op)
        assert np.array_equal(drift.view(np.int64), literal.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_eom_drift_is_its_literal_bit_for_bit_but_one_zero(self, data):
        params = _drawn(data, eom_reference())
        op = _drawn(data, eom.operating_point(eom_reference()))
        drift, literal = eom.drift_matrix(params, op), eom_drift_literal(params, op)
        # The literal's (p_x, Y_w) entry is -G11 = -0.0 and the template's a
        # plain 0.0: equal as values, and the Lyapunov solves on the two
        # drifts give the same bits.
        diffusion = diffusion_from_baths(eom._baths(params))
        solves = [langevin._solve_lyapunov(a, diffusion) for a in (drift, literal)]
        assert np.array_equal(*(v.view(np.int64) for v in solves))
        assert drift[1, 5] == literal[1, 5] == 0.0
        drift[1, 5] = literal[1, 5]
        assert np.array_equal(drift.view(np.int64), literal.view(np.int64))


def _thresholds():
    """(model, parameters, keyword arguments) of each of the five thresholds."""
    atmosphere = channel_preset("fig10_atmosphere")
    target = channel_preset("fig10_target")
    cases = [(eom, eom_reference(), {"pair": pair}) for pair in eom.PAIR_NAMES]
    cases.append((oe, oe_reference(), {}))
    cases.append((oe, oe_reference(), {"channel_spec": atmosphere, "target_spec": target}))
    return cases


def _public_crossing(model, params, kwargs, temperature):
    """The value a threshold bisects, from the public per-point report."""
    params = dataclasses.replace(params, temperature=temperature)
    if model is eom:
        return eom.entanglement_report(params)[kwargs["pair"]].lambda_sph
    if kwargs:
        return oe.end_to_end_report(params, **kwargs).two_eta - 1.0
    return oe.direct_report(params).two_eta - 1.0


def _count_inits(monkeypatch, cls) -> list:
    """Collects every instance of ``cls`` made from now on."""
    made = []
    init = cls.__post_init__

    def counted(instance):
        made.append(instance)
        return init(instance)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return made


def _count_cp_checks(monkeypatch) -> list:
    """Collects the matrix of every complete-positivity check from now on: a
    channel is checked by one np.linalg.eigvalsh of its complex M as it is
    made.  The temperature basis's real V_b check is not counted."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda m: np.iscomplexobj(m) and calls.append(m) or eigvalsh(m)
    )
    return calls


def _count_gaussian_calls(monkeypatch, *names) -> dict:
    """Counts the calls of each named gaussian function from now on, in every
    qradar module that imported it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(gaussian, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (gaussian, converter, criteria, sweeps, eom, oe):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _count_choleskies(monkeypatch) -> list:
    """Collects the shape of every matrix the physical rule factors from now
    on (``gaussian._factors``): it factors each stack it checks once.  The
    factor a symplectic spectrum is read from is no check, and is not
    counted here."""
    calls = []
    factors = gaussian._factors
    monkeypatch.setattr(gaussian, "_factors", lambda m: calls.append(m.shape) or factors(m))
    return calls


class TestEachStateCheckedOnce:
    """A converter steady state is held to the physical rule once, with its
    grid stack, or, on a temperature stack, through the one factorisation of
    its basis's 0 K state; the mode pairs sliced from it, and the
    backscattered pairs, images under a CP channel, are scored with no
    second check."""

    @pytest.mark.parametrize("axis, grid, factored", [
        ("wavelength", np.linspace(0.8e-6, 1.6e-6, 32), [(32, 6, 6)]),
        ("temperature", np.linspace(1e-3, 0.351, 32), [(1, 6, 6)]),  # the basis's 0 K state
    ])
    def test_eom_sweep(self, axis, grid, factored, monkeypatch):
        calls = _count_choleskies(monkeypatch)
        points = eom.sweep(eom_reference(), axis, grid)
        assert any(point.stable for point in points)
        assert calls == factored

    @pytest.mark.parametrize("axis, grid", [
        ("wavelength", np.linspace(0.8e-6, 1.6e-6, 32)),
        ("temperature", np.linspace(1e-3, 0.351, 32)),
    ])
    def test_one_spectrum_factor_per_report_stack(self, axis, grid, monkeypatch):
        # The three pairs of all 32 points are one (96, 4, 4) stack, whose
        # symplectic spectra come from one Cholesky factor.
        calls = []
        factor = gaussian._cholesky
        monkeypatch.setattr(gaussian, "_cholesky", lambda m: calls.append(m.shape) or factor(m))
        points = eom.sweep(eom_reference(), axis, grid)
        assert all(point.stable for point in points)
        assert calls == [(96, 4, 4)]

    def test_oe_detuning_sweep(self, monkeypatch):
        calls = _count_choleskies(monkeypatch)
        result = oe.entanglement_vs_detuning(oe_reference(), np.linspace(-3e7, 3e7, 32))
        stable = sum(point.stable for point in result.points)
        assert stable and calls == [(stable, 6, 6)]

    def test_oe_end_to_end_grid(self, monkeypatch):
        atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
        calls = _count_choleskies(monkeypatch)
        oe.end_to_end_vs_temperature(oe_reference(), atmosphere, target, np.linspace(0.01, 0.33, 9))
        assert calls == [(1, 6, 6)]  # the basis's 0 K state, and no grid point

    @pytest.mark.parametrize("axis, grid", [
        ("wavelength", np.linspace(0.8e-6, 1.6e-6, 32)),
        ("temperature", np.linspace(1e-3, 0.351, 32)),
    ])
    def test_a_gated_solve_takes_no_structural_check(self, axis, grid, monkeypatch):
        # A solve the residual gate admits is finite, and the solve or the
        # temperature weighting stores it symmetric: only the physical rule
        # checks the stack.  Before, the structural rule ran on it again.
        calls = _count_gaussian_calls(monkeypatch, "_symmetrised", "_require_physical")
        eom.sweep(eom_reference(), axis, grid)
        assert calls == {"_symmetrised": 0, "_require_physical": 1}

    @pytest.mark.parametrize("model, params, kwargs", _thresholds())
    def test_threshold_step(self, model, params, kwargs, monkeypatch):
        captured = []
        monkeypatch.setattr(model, "bisect_threshold", lambda fn, **_: captured.append(fn))
        model.threshold_temperature(params, **kwargs)
        (crossing,) = captured
        calls = _count_choleskies(monkeypatch)
        crossing(0.1)
        assert calls == []  # the basis decided physicality for every temperature


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

    @pytest.mark.parametrize("model, params, kwargs", _thresholds())
    def test_steps_build_no_blocks_and_no_channels(self, model, params, kwargs, monkeypatch):
        # The round trip's channels (two compositions and the expansion onto
        # the (OC, MC) register) are made, and so checked completely
        # positive, once, before the bisection; no step builds blocks or
        # makes or checks a channel.
        blocks = _count_inits(monkeypatch, BipartiteBlocks)
        channels = _count_inits(monkeypatch, GaussianChannel)
        cp_checks = _count_cp_checks(monkeypatch)
        captured = []
        monkeypatch.setattr(model, "bisect_threshold", lambda fn, **bracket: captured.append((fn, bracket)))
        model.threshold_temperature(params, **kwargs)
        made = 3 if "channel_spec" in kwargs else 0
        assert [len(channels), len(cp_checks)] == [made, made]
        ((crossing, bracket),) = captured
        assert sweeps.bisect_threshold(crossing, **bracket) is not None
        assert [len(blocks), len(channels), len(cp_checks)] == [0, made, made]

    def test_grid_makes_the_channels_once(self, monkeypatch):
        atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
        channels = _count_inits(monkeypatch, GaussianChannel)
        cp_checks = _count_cp_checks(monkeypatch)
        grid = np.linspace(0.0, 1.0, 5)
        direct, returned = oe.end_to_end_vs_temperature(oe_reference(), atmosphere, target, grid)
        assert [len(channels), len(cp_checks)] == [3, 3]  # the round trip, not one per point
        assert direct.shape == returned.shape == grid.shape

    def test_a_reused_round_trip_is_made_once(self, monkeypatch):
        # then keeps its composites and expand its embeddings, so thresholds
        # on the same channel objects share one round trip.
        atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
        channels = _count_inits(monkeypatch, GaussianChannel)
        for _ in range(2):
            assert oe.threshold_temperature(oe_reference(), channel_spec=atmosphere, target_spec=target)
        assert len(channels) == 3

    @pytest.mark.parametrize("model, params, kwargs", _thresholds())
    def test_step_scores_the_public_value(self, model, params, kwargs, monkeypatch):
        # The function each threshold hands to Brent, captured, equals the
        # per-point report's criterion at the same temperature.
        captured = []
        monkeypatch.setattr(model, "bisect_threshold", lambda fn, **_: captured.append(fn))
        model.threshold_temperature(params, **kwargs)
        (crossing,) = captured
        for temperature in np.geomspace(1e-4, 0.5, 5):
            expected = _public_crossing(model, params, kwargs, float(temperature))
            assert crossing(float(temperature)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model, params, kwargs", _thresholds())
    def test_basis_holds_the_cold_state_to_the_one_rule(self, model, params, kwargs, monkeypatch):
        # Damping that outruns its baths' noise leaves V(0) = (1/2 - 1e-7) I:
        # it fails the one physical rule (1/2 - 1e-9) when the basis is
        # built, so no step is taken.
        baths = [(1e10, 1.0 - 2e-7, 0.0, "cavity")] * 3
        monkeypatch.setattr(
            model, "_thermal_steady_state", lambda *_: _thermal_steady_state(-np.eye(6), baths)
        )
        monkeypatch.setattr(model, "bisect_threshold", lambda *_, **__: pytest.fail("a step was taken"))
        with pytest.raises(PhysicalityError, match=r"^temperature 0.0 K: .*eigenvalue 1.000e-07 below"):
            model.threshold_temperature(params, **kwargs)

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
        return BipartiteBlocks.from_covariance(eom._pair_stack(cov, pair))
    return BipartiteBlocks.from_covariance(cov[oe._OC_MC])


# Converter points across the presets' ranges: lambda_L 0.8-1.6 um, gamma_m
# 2 pi (5-1500) rad/s and delta_w within 3 omega_m for the EOM, delta_eg of
# either sign within 10-3e7 rad/s for the OE, each with the rates jittered as
# above.  Some points have no steady state; the properties hold on the others.
def _log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


def _eom_point(factors, lambda_l, gamma_m, delta_w_factor):
    params = _jittered(eom, factors)
    delta_w = delta_w_factor * params.omega_m
    return dataclasses.replace(params, gamma_m=gamma_m, delta_w=delta_w).at_wavelength(lambda_l)


_eom_points = st.builds(
    _eom_point,
    _factors,
    st.floats(min_value=0.8e-6, max_value=1.6e-6),
    _log_uniform(2 * math.pi * 5, 2 * math.pi * 1500),
    st.floats(min_value=-3.0, max_value=3.0),
)
_oe_points = st.builds(
    lambda factors, sign, magnitude: dataclasses.replace(
        _jittered(oe, factors), delta_eg=sign * magnitude
    ),
    _factors,
    st.sampled_from([-1.0, 1.0]),
    _log_uniform(10.0, 3e7),
)
_points = st.one_of(st.tuples(st.just(eom), _eom_points), st.tuples(st.just(oe), _oe_points))


def _cov_at(model, params):
    """The temperature-affine steady state of ``params``; None where the
    point has no steady state."""
    try:
        return model._basis(params)
    except (ConvergenceError, NoSteadyStateError, StiffnessError):
        return None


def _basis_with_solve_error(error, monkeypatch):
    """The basis of three unit-damped cold cavities under A = -I, with
    ``error`` added to entry (0, 0) of the solved V_1.  Each V_b is D_b / 2
    on its own mode (1/4 at unit scale) and exactly 0 elsewhere, so a
    negative error is V_1's lowest eigenvalue; its residual, 2 |error|, is
    within the residual rule's 1e-9 ||D_1|| = 5e-10.  V(0) = I / 2 is
    physical."""
    solve = converter._solve_lyapunov

    def inaccurate(drift, diffusions):
        v = solve(drift, diffusions)
        v[1, 0, 0] += error
        return v

    monkeypatch.setattr(converter, "_solve_lyapunov", inaccurate)
    return _thermal_steady_state(-np.eye(6), [(1e10, 1.0, 0.0, "cavity")] * 3)


class TestTemperatureAffineSteadyState:
    def test_cold_state_is_held_to_the_physical_rule(self):
        # Damping that outruns its baths' noise leaves V(0) = 0.4995 I, below
        # the vacuum bound by more than the physical rule's 1e-9: the basis
        # is refused when it is built.
        baths = [(1e10, 0.999, 0.0, "cavity")] * 3
        model = LinearLangevinModel(-np.eye(6), diffusion_from_baths(baths))
        with pytest.raises(PhysicalityError, match="^temperature 0.0 K: .*eigenvalue 5.000e-04 below"):
            _thermal_steady_state(model.drift, baths)

    def test_inaccurate_basis_covariance_names_its_bath(self, monkeypatch):
        # -1e-12 is below eigvalsh's rounding, 32 eps max|V_1| = 1.8e-15.
        with pytest.raises(StiffnessError, match=r"^bath 1 \(cavity, omega 10000000000.0 rad/s\): "
                                                  r"Lyapunov basis covariance V_b has eigenvalue -4.000e-12 "):
            _basis_with_solve_error(-1e-12, monkeypatch)

    def test_inaccurate_basis_solve_names_its_bath(self, monkeypatch):
        # A residual 2e-6 above 1e-9 ||D_1|| = 5e-10 fails the basis; the
        # error names the bath, as it names a temperature of a stack.
        with pytest.raises(StiffnessError, match=r"^bath 1 \(cavity, omega 10000000000.0 rad/s\): "
                                                  r"Lyapunov residual 2.000e-06 is not within"):
            _basis_with_solve_error(1e-6, monkeypatch)

    def test_basis_covariance_within_rounding_passes(self, monkeypatch):
        cov_at = _basis_with_solve_error(-(2.0**-53), monkeypatch)
        assert cov_at([0.0])[0] == pytest.approx(0.5 * np.eye(6))

    @settings(max_examples=100, deadline=None)
    @given(_points, _temperatures)
    def test_every_temperature_passes_the_physical_rule(self, point, temperature):
        # The oracle for the check the basis no longer makes per step: a
        # basis that was built, so whose V(0) passed, gives a physical V(T).
        cov_at = _cov_at(*point)
        if cov_at is not None:
            gaussian._require_physical(cov_at([temperature]))

    @settings(max_examples=100, deadline=None)
    @given(_models, _factors, _temperatures)
    def test_matches_the_solve_at_that_temperature(self, model, factors, temperature):
        params = _jittered(model, factors)
        cov_at = model._basis(params)
        hot = dataclasses.replace(params, temperature=temperature)
        solved = steady_state(model.build_model(hot))
        assert abs(cov_at([temperature])[0] - solved).max() <= 1e-9 * abs(solved).max()

    @settings(max_examples=100, deadline=None)
    @given(_points, _temperatures, _temperatures)
    def test_two_eta_does_not_decrease_with_temperature(self, point, t1, t2):
        # V(T2) - V(T1) = sum_b 2 (N_b(T2) - N_b(T1)) V_b is positive
        # semidefinite: heating adds classical noise, which cannot create
        # entanglement, so each threshold is the one crossing its bracket finds.
        cov_at = _cov_at(*point)
        if cov_at is None:
            return
        model = point[0]
        cold, hot = cov_at(sorted([t1, t2]))
        for pair in _PAIRS[model]:
            before = two_eta(_blocks(model, cold, pair))
            after = two_eta(_blocks(model, hot, pair))
            assert after >= before * (1.0 - 1e-12), pair

    @settings(max_examples=100, deadline=None)
    @given(_points, _temperatures)
    # The exact steady state has lambda_SPH = +1.7e-37 and 2eta = 1.  The
    # solved pair's lambda_SPH is -5.9e-39, exactly so for its float
    # entries; the 4x4 determinant in the PPT discriminant put its 2eta at
    # 1 + 1.6e-9, outside the band below.
    @example((oe, dataclasses.replace(_jittered(oe, [1.00390625, 1.0, 1.0, 1.0]), delta_eg=-math.exp(2.375))), 0.0)
    def test_sph_and_ppt_agree(self, point, temperature):
        # For two modes, Simon's criterion and the partial-transpose
        # symplectic eigenvalue are the same test: lambda_SPH < 0 iff 2eta < 1.
        # On the boundary itself they round apart: a product state with a
        # vacuum mode (delta_w = 0 decouples the microwave cavity) has
        # lambda_SPH = 0 exactly but 2eta = 1 - 2e-16.
        cov_at = _cov_at(*point)
        if cov_at is None:
            return
        model, (cov,) = point[0], cov_at([temperature])
        for pair in _PAIRS[model]:
            blocks = _blocks(model, cov, pair)
            eta2 = two_eta(blocks)
            if abs(eta2 - 1.0) > 1e-12:
                assert (lambda_sph(blocks) < 0.0) == (eta2 < 1.0), pair


def _temperature_grid(model, params, grid):
    """A temperature grid through the model's public caller."""
    if model is eom:
        return eom.sweep(params, "temperature", grid)
    atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
    return oe.end_to_end_vs_temperature(params, atmosphere, target, grid)


def _threshold(model, params):
    """The threshold :func:`_temperature_grid` pairs with, on the same channels."""
    if model is eom:
        return eom.threshold_temperature(params)
    atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
    return oe.threshold_temperature(params, channel_spec=atmosphere, target_spec=target)


class TestTemperatureGrids:
    @pytest.mark.parametrize("model", [eom, oe])
    def test_one_operating_point_and_basis_per_grid(self, model, monkeypatch):
        points, solves = [], []
        solve_point, solve_lyapunov = model.operating_point, converter._solve_lyapunov

        def counted_point(params):
            points.append(params)
            return solve_point(params)

        def counted_lyapunov(drifts, diffusions):
            solves.append(len(diffusions))
            return solve_lyapunov(drifts, diffusions)

        monkeypatch.setattr(model, "operating_point", counted_point)
        for module in (converter, langevin, sweeps):
            monkeypatch.setattr(module, "_solve_lyapunov", counted_lyapunov)
        _temperature_grid(model, _REFERENCE[model], np.linspace(0.0, 0.3, 7))
        assert len(points) == 1
        assert solves == [3]  # one stacked solve: the basis, one member per bath

    @pytest.mark.parametrize("model", [eom, oe])
    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "must not be empty"),
            ([-0.1, 0.1], "must be non-negative"),
            ([0.1, math.inf], "must be finite"),
            ([math.nan], "must be finite"),
            # Before, oe.end_to_end_vs_temperature let float() raise a bare
            # OverflowError here.
            ([0.1, 10**400], "must be finite"),
        ],
    )
    def test_bad_grid_rejected(self, model, grid, message):
        with pytest.raises(ValidationError, match=message):
            _temperature_grid(model, _REFERENCE[model], grid)

    @pytest.mark.parametrize("grid", [[], [-0.1, 0.1], [0.2, 0.1]])
    def test_bad_grid_rejected_without_a_steady_state(self, grid):
        # An overdriven microwave drive has no steady state at any
        # temperature, which a good grid raises as the threshold does (it
        # marked both rows unstable before); a bad grid is refused first.
        wild = dataclasses.replace(eom_reference(), e_w=3.0 * eom_reference().e_w)
        with pytest.raises(NoSteadyStateError, match="^drift is unstable"):
            eom.sweep(wild, "temperature", [0.1, 0.2])
        with pytest.raises(ValidationError):
            eom.sweep(wild, "temperature", grid)

    @pytest.mark.parametrize(
        "model, changes, error",
        [
            (eom, {"e_w": 3.0 * eom_reference().e_w}, NoSteadyStateError),
            (eom, {"kappa_c": 0.0, "delta_c": 0.0}, ConvergenceError),  # P_s diverges
            (eom, {"gamma_m": 1e12}, PhysicalityError),  # V(0) is unphysical
            (oe, {"delta_c": -oe_reference().delta_c}, NoSteadyStateError),
            (oe, {"delta_eg": 0.0}, ConvergenceError),
            (oe, {"gamma_p": 1e12}, PhysicalityError),
        ],
    )
    def test_grid_fails_as_its_threshold_does(self, model, changes, error):
        # Both weigh the same basis of the same model, so a failing model
        # fails both alike; an eom temperature grid marked every row unstable
        # before, while its threshold raised.
        params = dataclasses.replace(_REFERENCE[model], **changes)
        with pytest.raises(error) as threshold:
            _threshold(model, params)
        with pytest.raises(error) as grid:
            _temperature_grid(model, params, [0.1, 0.2])
        assert str(grid.value) == str(threshold.value)

    @pytest.mark.parametrize("model, changes, miss", [
        (eom, {"gamma_m": 1e12}, "3.072e-05"),
        (oe, {"gamma_p": 1e12}, "5.573e-06"),
    ])
    def test_cold_state_is_unphysical_exactly(self, model, changes, miss):
        # The exact steady state at 0 K misses the vacuum bound by 3.07e-5
        # (EOM) and 5.57e-6 (OE), beyond the physical rule's 1e-9.  The
        # LAPACK Schur solve missed the optical bath's basis covariance by
        # more than the residual rule allows, and both raised that rule's
        # StiffnessError for bath 1 instead.
        params = dataclasses.replace(_REFERENCE[model], **changes)
        with pytest.raises(PhysicalityError, match=rf"^temperature 0.0 K: .*eigenvalue {miss} below 1/2"):
            _threshold(model, params)
        cold = model._arrays(dataclasses.replace(params, temperature=0.0))
        assert not physical_exact(lyapunov_exact(*cold), 1e-9)

    def test_subnormal_bath_damping(self):
        # 1e-9 ||D_b|| of a bath with damping 5e-324 underflows to 0, so its
        # unscaled basis solve failed the residual rule (StiffnessError);
        # solved scaled by a power of two, it matches the solve at each
        # temperature.
        params = dataclasses.replace(oe_reference(), gamma_p=5e-324)
        cov_at = oe._basis(params)
        for temperature in (0.0, 0.1):
            solved = steady_state(oe.build_model(dataclasses.replace(params, temperature=temperature)))
            assert abs(cov_at([temperature])[0] - solved).max() <= 1e-9 * abs(solved).max()

    def test_inaccurate_member_names_its_temperature(self, monkeypatch):
        params = eom_reference()
        cov_at = eom._basis(params)
        gate = langevin._residual_gate

        def second_fails(drift, diffusions, covs):
            residual, accurate = gate(drift, diffusions, covs)
            return residual, accurate & (np.arange(len(covs)) != 1)

        monkeypatch.setattr(langevin, "_residual_gate", second_fails)
        with pytest.raises(StiffnessError, match=r"^temperature 0.2 K: Lyapunov residual"):
            cov_at([0.1, 0.2, 0.3])

    @pytest.mark.parametrize("model", [eom, oe])
    def test_basis_matches_the_integrated_covariance(self, model):
        # An independent oracle: integrate dV/dt = A V + V A^T + D(T) from
        # the vacuum for 40 decay times of the slowest mode.
        params = _REFERENCE[model]
        temperatures = [1e-3, 0.03, 0.3]
        covs = model._basis(params)(temperatures)
        for temperature, cov in zip(temperatures, covs):
            hot = model.build_model(dataclasses.replace(params, temperature=temperature))
            t_end = 40.0 / abs(np.linalg.eigvals(hot.drift).real.max())
            integrated = propagate_cov(hot, 0.5 * np.eye(6), t_end)
            assert abs(integrated - cov).max() <= 1e-5 * abs(cov).max(), temperature


def _grid_entry_points():
    """(axis field, call on a grid) of each converter grid entry point."""
    atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
    return [
        pytest.param(
            "lambda_l", lambda grid: eom.sweep(eom_reference(), "wavelength", grid), id="eom-wavelength"
        ),
        pytest.param(
            "temperature", lambda grid: eom.sweep(eom_reference(), "temperature", grid), id="eom-temperature"
        ),
        pytest.param(
            "delta_eg", lambda grid: oe.entanglement_vs_detuning(oe_reference(), grid), id="oe-detuning"
        ),
        pytest.param(
            "temperature",
            lambda grid: oe.end_to_end_vs_temperature(oe_reference(), atmosphere, target, grid),
            id="oe-end-to-end",
        ),
    ]


class TestGridEntryPoints:
    """Every converter grid is held non-empty and ascending where the
    converter takes it, with its values (:func:`qradar.errors._grid_values`)."""

    @pytest.mark.parametrize("field, run", _grid_entry_points())
    def test_empty_grid_rejected(self, field, run):
        with pytest.raises(ValidationError, match=f"^{field} grid must not be empty$"):
            run([])

    @pytest.mark.parametrize("field, run", _grid_entry_points())
    def test_descending_grid_rejected(self, field, run):
        # Before, only eom.sweep held a grid ascending, with its own message.
        descending = {"lambda_l": [1.6e-6, 8e-7], "delta_eg": [3e7, -3e7]}.get(field, [0.2, 0.1])
        with pytest.raises(ValidationError, match=f"^{field} grid must be ascending$"):
            run(descending)


def _count_calls(monkeypatch, module, name) -> list:
    """Collects the positional arguments of every call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# EOM grids on each axis of the presets: temperatures 0-2 K, lambda_L
# 0.8-1.6 um (the long end has no steady state) and gamma_m 2 pi (5-1500) rad/s.
_eom_axis_grids = st.one_of(
    st.tuples(st.just("temperature"), st.lists(_temperatures, min_size=1, max_size=6)),
    st.tuples(
        st.just("wavelength"), st.lists(st.floats(min_value=0.8e-6, max_value=1.6e-6), min_size=1, max_size=6)
    ),
    st.tuples(
        st.just("gamma_m"),
        st.lists(_log_uniform(2 * math.pi * 5, 2 * math.pi * 1500), min_size=1, max_size=6),
    ),
)


class TestOneCriteriaPassPerGrid:
    """A converter grid scores its pairs in one criteria pass, one stacked
    call, which computes the stack's local determinants once; each score is
    bit for bit the one its pair's stack scored alone gives."""

    @settings(max_examples=100, deadline=None)
    @given(_factors, _eom_axis_grids)
    def test_eom_sweep_scores_each_pair_as_alone(self, factors, axis_grid):
        axis, grid = axis_grid[0], sorted(axis_grid[1])
        params = _jittered(eom, factors)
        points = eom.sweep(params, axis, grid)
        if axis == "temperature":
            covs = _cov_at(eom, params)(grid)
        else:
            covs = sweeps.run_grid(eom._grid_point(params, axis), grid)[1]
        stable = covs.reshape(-1, 6, 6)
        alone = {pair: criteria._reports(eom._pair_stack(stable, pair)) for pair in eom.PAIR_NAMES}
        scored = [point.reports for point in points if point.stable]
        assert len(scored) == len(stable)
        for k, reports in enumerate(scored):
            for pair in eom.PAIR_NAMES:
                assert dataclasses.astuple(reports[pair]) == dataclasses.astuple(alone[pair][k]), (k, pair)

    @settings(max_examples=50, deadline=None)
    @given(_factors, st.lists(_temperatures, min_size=1, max_size=6))
    def test_oe_end_to_end_grid_scores_each_stack_as_alone(self, factors, grid):
        grid = sorted(grid)
        params = _jittered(oe, factors)
        atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
        direct, returned = oe.end_to_end_vs_temperature(params, atmosphere, target, grid)
        pairs = _cov_at(oe, params)(grid)[oe._OC_MC]
        backscattered = gaussian._symmetric_part(oe._backscatter(atmosphere, target).act(pairs))
        assert direct.tolist() == (2.0 * criteria._pt_nu_min(pairs)).tolist()
        assert returned.tolist() == (2.0 * criteria._pt_nu_min(backscattered)).tolist()

    @pytest.mark.parametrize("axis, grid", [
        ("temperature", np.linspace(1e-3, 0.351, 8)),
        ("wavelength", np.linspace(0.8e-6, 2e-6, 8)),  # the last points have no steady state
        ("gamma_m", 2 * math.pi * np.geomspace(5.0, 1500.0, 8)),
    ])
    def test_eom_sweep_makes_one_pass(self, axis, grid, monkeypatch):
        reports = _count_calls(monkeypatch, eom, "_reports")
        dets = _count_calls(monkeypatch, criteria, "_local_dets")
        stable = sum(point.stable for point in eom.sweep(eom_reference(), axis, grid))
        assert stable and len(reports) == 1 and len(dets) == 1
        assert reports[0][0].shape == (3 * stable, 4, 4)

    def test_oe_end_to_end_grid_makes_one_pass(self, monkeypatch):
        atmosphere, target = channel_preset("fig10_atmosphere"), channel_preset("fig10_target")
        calls = _count_calls(monkeypatch, oe, "_pt_nu_min")
        oe.end_to_end_vs_temperature(oe_reference(), atmosphere, target, np.linspace(0.01, 0.33, 9))
        assert [args[0].shape for args in calls] == [(18, 4, 4)]


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
    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=150, deadline=None)
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
