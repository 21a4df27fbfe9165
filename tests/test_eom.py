"""Electro-opto-mechanical converter: operating point, drift structure,
steady-state entanglement, and sweeps."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from qradar import eom
from qradar.converter import steady_state
from qradar.eom import (
    PAIR_NAMES,
    EomParams,
    build_model,
    drift_matrix,
    entanglement_report,
    operating_point,
    sweep,
    threshold_temperature,
)
from qradar.errors import NoSteadyStateError, UndefinedQuantityError, ValidationError
from qradar.langevin import LinearLangevinModel, is_stable
from qradar.presets import eom_reference


@pytest.fixture(scope="module")
def reference() -> EomParams:
    return eom_reference()


class TestOperatingPoint:
    def test_undriven_fixed_point(self, reference):
        params = dataclasses.replace(reference, e_c=0.0, e_w=0.0)
        op = operating_point(params)
        assert op.a_s == 0 and op.c_s == 0 and op.p_s == 0 and op.x_s == 0

    def test_decoupled_closed_form(self, reference):
        params = dataclasses.replace(reference, g1=0.0, g2=0.0)
        op = operating_point(params)
        expected_a = params.e_c / (1j * params.delta_c + params.kappa_c)
        expected_c = params.e_w / (1j * params.delta_w + params.kappa_w)
        assert op.a_s == pytest.approx(expected_a, rel=1e-9)
        assert op.c_s == pytest.approx(expected_c, rel=1e-9)
        assert op.p_s == 0.0 and op.x_s == 0.0

    def test_reference_residual(self, reference):
        op = operating_point(reference)
        assert op.residual <= 1e-12
        assert op.branches == 1

    def test_unstable_wavelength_reports_no_steady_state(self, reference):
        # A unique root with an unstable drift, not a solver failure.
        params = reference.at_wavelength(2e-6)
        assert operating_point(params).residual <= 1e-12
        with pytest.raises(NoSteadyStateError, match="unstable"):
            steady_state(build_model(params))


class TestParams:
    def test_int_beyond_float_range_is_not_finite(self, reference):
        with pytest.raises(ValidationError, match="^e_c must be finite$"):
            dataclasses.replace(reference, e_c=10**400)

    @pytest.mark.parametrize(
        "value, message", [(math.inf, "finite"), (math.nan, "finite"), (0.0, "positive"), (-1.0, "positive")]
    )
    def test_at_wavelength_checks_lambda_l(self, reference, value, message):
        with pytest.raises(ValidationError, match=f"^lambda_l must be {message}$"):
            reference.at_wavelength(value)


class TestDriftMatrix:
    def test_harmonic_skew_pair(self, reference):
        a = drift_matrix(reference, operating_point(reference))
        assert a[0, 1] == reference.omega_m
        assert a[1, 0] == -reference.omega_m

    def test_oc_mr_coupling_entry(self, reference):
        a = drift_matrix(reference, operating_point(reference))
        assert a[3, 1] == pytest.approx(-math.sqrt(2) * reference.g1, rel=1e-12)
        assert a[0, 2] == pytest.approx(math.sqrt(2) * reference.g1, rel=1e-12)

    def test_zero_coupling_block_diagonal(self, reference):
        params = dataclasses.replace(reference, g1=0.0, g2=0.0)
        a = drift_matrix(params, operating_point(params))
        mech = a[:2, :2]
        assert mech == pytest.approx(np.array([
            [0.0, params.omega_m], [-params.omega_m, -params.gamma_m]
        ]))
        off = a.copy()
        for k in range(3):
            off[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = 0.0
        assert abs(off).max() == 0.0

    def test_reference_drift_stable(self, reference):
        a = drift_matrix(reference, operating_point(reference))
        model = LinearLangevinModel(a, np.zeros_like(a))
        assert is_stable(model).stable


class TestEntanglementReport:
    def test_reference_all_pairs_entangled(self, reference):
        reports = entanglement_report(dataclasses.replace(reference, temperature=0.001))
        for pair in ("oc_mc", "oc_mr", "mr_mc"):
            assert reports[pair].lambda_sph < 0, pair
            assert reports[pair].entangled_by_sph == reports[pair].entangled_by_ppt

    def test_pair_names_order_the_modes(self, reference):
        # Discord is asymmetric, so the first-named mode of each pair must be
        # the first block: mode order (mr, oc, mc) in the steady state.
        from qradar.converter import steady_state
        from qradar.criteria import BipartiteBlocks, gaussian_discord
        from qradar.eom import build_model

        cov = steady_state(build_model(reference))
        reports = entanglement_report(reference)
        index = {"mr": 0, "oc": 2, "mc": 4}
        for pair in PAIR_NAMES:
            i, j = (index[m] for m in pair.split("_"))
            blocks = BipartiteBlocks(cov[i:i + 2, i:i + 2], cov[j:j + 2, j:j + 2],
                                     cov[i:i + 2, j:j + 2])
            assert reports[pair] == gaussian_discord(blocks), pair

    def test_zero_coupling_exactly_separable(self, reference):
        params = dataclasses.replace(reference, g1=0.0, g2=0.0)
        reports = entanglement_report(params)
        for pair, report in reports.items():
            assert report.lambda_sph >= 0.0, pair
            assert not report.entangled_by_sph

    def test_thermal_death(self, reference):
        hot = entanglement_report(dataclasses.replace(reference, temperature=5.0))
        for pair, report in hot.items():
            assert report.lambda_sph >= 0.0, pair

    def test_temperature_beyond_float_range_rejected(self, reference):
        # The steady state is finite, its determinants are not.
        with pytest.raises(UndefinedQuantityError, match="^covariance invariants beyond float"):
            entanglement_report(dataclasses.replace(reference, temperature=1e200))

    def test_millikelvin_vs_kelvin_anchor(self, reference):
        # Entangled at 30 mK, separable by 1200 mK, lambda increasing between.
        cold = entanglement_report(dataclasses.replace(reference, temperature=0.03))
        hot = entanglement_report(dataclasses.replace(reference, temperature=1.2))
        assert cold["oc_mc"].lambda_sph < 0.0
        assert hot["oc_mc"].lambda_sph > cold["oc_mc"].lambda_sph
        assert hot["oc_mc"].lambda_sph >= 0.0


class TestSweep:
    def test_singleton_matches_report(self, reference):
        # The grid weighs one Lyapunov basis, the report solves at 0.05 K:
        # the two agree to rounding, not bit for bit.
        points = sweep(reference, "temperature", [0.05])
        direct = entanglement_report(dataclasses.replace(reference, temperature=0.05))
        for pair in PAIR_NAMES:
            assert points[0].reports[pair].lambda_sph == pytest.approx(
                direct[pair].lambda_sph, rel=1e-12, abs=0.0
            ), pair

    def test_stacked_points_match_reports(self, reference):
        # delta_w = -8e6 rad/s is unstable (max Re ~3e4) between stable points.
        grid = [-9e6, -8e6, -7e6]
        points = sweep(reference, "delta_w", grid)
        assert [p.stable for p in points] == [True, False, True]
        assert points[1].reports is None
        for point in (points[0], points[2]):
            direct = entanglement_report(dataclasses.replace(reference, delta_w=point.axis_value))
            for pair in PAIR_NAMES:
                got, want = point.reports[pair], direct[pair]
                assert (got.lambda_sph, got.two_eta) == (want.lambda_sph, want.two_eta)
                for field in ("discord", "classical_corr", "mutual_info"):
                    assert getattr(got, field) == pytest.approx(
                        getattr(want, field), rel=1e-12, abs=0.0
                    ), (pair, field)

    def test_gamma_m_degrades_oc_mr(self, reference):
        grid = [2 * math.pi * g for g in (5.0, 50.0, 500.0, 5000.0)]
        points = sweep(reference, "gamma_m", grid)
        lams = [p.reports["oc_mr"].lambda_sph for p in points if p.stable]
        assert len(lams) == len(grid)
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_wavelength_axis_modulates_entanglement(self, reference):
        points = sweep(reference, "wavelength", list(np.linspace(8e-7, 1.6e-6, 5)))
        values = [p.reports["oc_mc"].lambda_sph for p in points if p.stable]
        assert len(values) == 5
        assert max(values) - min(values) > 1e-3

    def test_unstable_points_marked_not_fatal(self, reference):
        # A strongly overdriven microwave drive destabilizes the converter.
        # On a gamma_m grid each point is its own model, so each is marked.
        # A temperature grid has one model for every point: it raises what
        # threshold_temperature raises (it marked both rows before).
        wild = dataclasses.replace(reference, e_w=reference.e_w * 3.0)
        points = sweep(wild, "gamma_m", [2 * math.pi * g for g in (5.0, 50.0, 500.0)])
        assert all(not p.stable and p.reports is None for p in points)
        with pytest.raises(NoSteadyStateError) as threshold:
            threshold_temperature(wild)
        with pytest.raises(NoSteadyStateError, match=f"^{re.escape(str(threshold.value))}$"):
            sweep(wild, "temperature", [0.01, 0.02])

    def test_diverging_operating_points_marked_unstable(self, reference):
        # Below about 3e6 rad/s the operating point exists but the drift is
        # unstable (max Re lambda up to +1.76e6); those points are marked
        # unstable, the rest are scored as alone.
        grid = np.geomspace(1e5, 1e8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = sweep(reference, "omega_m", grid)
        assert [p.stable for p in points] == [False] * 4 + [True] * 4
        for omega_m in grid[:4]:
            with pytest.raises(NoSteadyStateError, match="unstable"):
                steady_state(build_model(dataclasses.replace(reference, omega_m=omega_m)))
        alone = sweep(reference, "omega_m", grid[4:])
        for point, want in zip(points[4:], alone):
            assert point.reports == want.reports

    @pytest.mark.parametrize("hot", [1e200, 1e300])
    def test_temperature_beyond_float_range_named(self, reference, hot):
        # A stable row with lambda_SPH = nan and RuntimeWarnings before; then
        # "stack member 1", its place in the stack, not its temperature.
        with pytest.raises(UndefinedQuantityError, match=rf"^grid point 1 \({re.escape(repr(hot))}\): "):
            sweep(reference, "temperature", [1.0, hot])

    def test_grid_point_beyond_float_range_named(self, reference):
        # At 1e200 K the covariance invariants of every stable point leave
        # float range.  The first four points are unstable, so the first
        # failing point is grid point 4, which was named "stack member 0".
        grid = np.geomspace(1e5, 1e8, 8)
        hot = dataclasses.replace(reference, temperature=1e200)
        with pytest.raises(UndefinedQuantityError, match=rf"^grid point 4 \({float(grid[4])!r}\): "):
            sweep(hot, "omega_m", grid)

    def test_unsorted_grid_rejected(self, reference):
        with pytest.raises(ValidationError, match="^temperature grid must be ascending$"):
            sweep(reference, "temperature", [0.2, 0.1])

    def test_unknown_axis_rejected(self, reference):
        with pytest.raises(ValidationError, match="axis"):
            sweep(reference, "flux_capacitance", [1.0])

    @pytest.mark.parametrize("axis, value", [("kappa_w", math.nan), ("e_w", math.inf)])
    def test_non_finite_point_rejected(self, reference, axis, value):
        with pytest.raises(ValidationError, match=f"{axis} must be finite"):
            sweep(reference, axis, [value])


class TestThreshold:
    # The reference thresholds are about 0.144 K (oc_mc), 0.016 K (oc_mr)
    # and 0.032 K (mr_mc).
    BOUNDS = {"oc_mc": (0.05, 0.5), "oc_mr": (0.005, 0.05), "mr_mc": (0.01, 0.1)}

    def test_step_beyond_float_range_named(self, reference, monkeypatch):
        # The step Brent evaluates names its temperature; before, a failing
        # step, alone in its stack, was named by nothing.
        captured = []
        monkeypatch.setattr(eom, "bisect_threshold", lambda fn, **_: captured.append(fn))
        threshold_temperature(reference)
        with pytest.raises(UndefinedQuantityError, match=r"^temperature 1e\+200 K: "):
            captured[0](1e200)

    def test_threshold_exists_and_is_resolved(self, reference):
        # The default pair is oc_mc.
        t_star = threshold_temperature(reference, resolution=1e-3)
        self._check_resolved(reference, "oc_mc", t_star)

    @pytest.mark.parametrize("pair", PAIR_NAMES)
    def test_threshold_of_each_pair_is_resolved(self, reference, pair):
        t_star = threshold_temperature(reference, pair, resolution=1e-3)
        self._check_resolved(reference, pair, t_star)

    def _check_resolved(self, reference, pair, t_star):
        assert t_star is not None
        lo, hi = self.BOUNDS[pair]
        assert lo < t_star < hi
        below = entanglement_report(
            dataclasses.replace(reference, temperature=t_star - 2e-3)
        )[pair].lambda_sph
        above = entanglement_report(
            dataclasses.replace(reference, temperature=t_star + 2e-3)
        )[pair].lambda_sph
        assert below < 0 <= above

    def test_separable_input_returns_none(self, reference):
        params = dataclasses.replace(reference, g1=0.0, g2=0.0)
        assert threshold_temperature(params) is None
