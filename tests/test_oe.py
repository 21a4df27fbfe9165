"""Opto-electronic converter: perturbative coupling, drift structure,
detuning resonance, and end-to-end channel reports."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import constants

from qradar.channels import identity_channel
from qradar.converter import steady_state
from qradar.errors import ConvergenceError, NoSteadyStateError, StiffnessError, ValidationError
from qradar.oe import (
    OeParams,
    PdMaterialSpec,
    build_model,
    coupling_gop,
    direct_report,
    drift_matrix,
    end_to_end_report,
    end_to_end_vs_temperature,
    entanglement_vs_detuning,
    gwp_from_mu_c,
    operating_point,
    threshold_temperature,
)
from qradar.presets import channel_preset, oe_reference


@pytest.fixture(scope="module")
def reference() -> OeParams:
    return oe_reference()


GAAS_LIKE = PdMaterialSpec(
    dipole_moment=2e-29,          # C m, interband scale
    density_of_states=1.2e44,     # 1/(J m^3) at the transition energy
    lorentzian_width=2 * math.pi * 1e12,
    mode_volume=1e-18,            # um^3 scale cavity
)


class TestCouplingGop:
    def test_zero_dipole(self):
        spec = dataclasses.replace(GAAS_LIKE, dipole_moment=1e-300)
        assert coupling_gop(spec, 2.33e15, 2.33e15) == pytest.approx(0.0, abs=1e-30)

    def test_quadratic_in_dipole(self):
        doubled = dataclasses.replace(GAAS_LIKE, dipole_moment=2 * GAAS_LIKE.dipole_moment)
        assert coupling_gop(doubled, 2.33e15, 2.33e15) == pytest.approx(
            4.0 * coupling_gop(GAAS_LIKE, 2.33e15, 2.33e15), rel=1e-12
        )

    def test_unit_audit(self):
        # (rad/s) * (C m)^2 * (1/(J m^3)) * (s/rad) / (F/m * m^3) -> rad/s:
        # the assembled value must be positive, finite, and scale linearly
        # with omega_c as the formula prescribes.
        value = coupling_gop(GAAS_LIKE, 2.33e15, 2.33e15)
        assert value > 0 and math.isfinite(value)
        assert coupling_gop(GAAS_LIKE, 2 * 2.33e15, 2.33e15) == pytest.approx(
            2 * value, rel=1e-12
        )


class TestGwpFromMuC:
    def test_linear_in_mu_c(self):
        assert gwp_from_mu_c(4e-4) == pytest.approx(2 * gwp_from_mu_c(2e-4), rel=1e-12)

    def test_published_formula(self):
        mu_c, omega_w, d, m_eff, omega_eg = 2e-4, 2 * math.pi * 10e9, 1e-6, 0.067 * constants.m_e, 2.332e15
        expected = mu_c * omega_w / (2 * d) * math.sqrt(constants.hbar / (omega_eg * m_eff))
        assert gwp_from_mu_c(mu_c) == pytest.approx(expected, rel=1e-12)


class TestOperatingPoint:
    def test_residual(self, reference):
        op = operating_point(reference)
        assert op.residual <= 1e-12

    def test_bistable_reference_counts_branches(self, reference):
        # The reference drive has three real P roots; the one nearest zero is
        # taken, and each P root carries one real X root.
        assert operating_point(reference).branches == 3

    # Entries of np.geomspace(10, 3e7, 60) in the band where a damped
    # fixed-point iteration does not contract; each has one real root and a
    # stable drift.
    @pytest.mark.parametrize(
        "delta_eg, want",
        [(115325.0094115204, 1.0000002), (191199.57874131584, 1.0000002),
         (316993.5046821221, 1.0000022)],
    )
    def test_recovered_points_are_stable(self, reference, delta_eg, want):
        (point,) = entanglement_vs_detuning(reference, [delta_eg]).points
        assert point.stable
        assert point.two_eta == pytest.approx(want, abs=1e-7)

    def test_unstable_point_reports_no_steady_state(self, reference):
        params = dataclasses.replace(reference, delta_eg=408161.5397764463)
        assert operating_point(params).residual <= 1e-12
        with pytest.raises(NoSteadyStateError, match="unstable"):
            steady_state(build_model(params))

    def test_zero_detuning_singular(self, reference):
        with pytest.raises(ConvergenceError):
            operating_point(dataclasses.replace(reference, delta_eg=0.0))


class TestDriftMatrix:
    def test_pd_block_carries_detuning(self, reference):
        a = drift_matrix(reference, operating_point(reference))
        assert a[0, 1] == reference.delta_eg
        assert a[1, 0] == -reference.delta_eg
        assert a[1, 1] == -reference.gamma_p

    def test_zero_coupling_block_diagonal(self, reference):
        params = dataclasses.replace(reference, g_op=0.0, g_wp=0.0)
        a = drift_matrix(params, operating_point(params))
        off = a.copy()
        for k in range(3):
            off[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = 0.0
        assert abs(off).max() == 0.0

    def test_detuning_shifts_present(self, reference):
        op = operating_point(reference)
        a = drift_matrix(reference, op)
        assert a[2, 3] == pytest.approx(reference.delta_c + reference.g_op * op.p_s)
        assert a[4, 5] == pytest.approx(reference.delta_w - reference.g_wp * op.x_s)
        assert a[5, 4] == pytest.approx(-a[4, 5])


class TestDetuningSweep:
    def test_no_microwave_coupling_is_separable(self, reference):
        params = dataclasses.replace(reference, g_wp=0.0)
        om0 = 2 * math.pi * 1e6
        result = entanglement_vs_detuning(params, np.linspace(-3, 3, 7) * om0)
        for point in result.points:
            if point.stable:
                assert point.two_eta == pytest.approx(1.0, abs=1e-6)

    def test_resonance_dip_near_small_detuning(self, reference):
        om0 = 2 * math.pi * 1e6
        grid = np.linspace(-30, 30, 41) * om0
        result = entanglement_vs_detuning(reference, grid)
        assert result.min_two_eta < 1.0
        assert abs(result.argmin_delta_eg) <= 2 * om0
        # single pronounced minimum: stable two_eta values rise on both sides
        stable = [(p.delta_eg, p.two_eta) for p in result.points if p.stable]
        left_edge = stable[0][1]
        right_edge = stable[-1][1]
        assert left_edge > result.min_two_eta + 0.01
        assert right_edge > result.min_two_eta + 0.01

    def test_far_detuning_decouples(self, reference):
        om0 = 2 * math.pi * 1e6
        result = entanglement_vs_detuning(reference, [300 * om0])
        assert result.points[0].two_eta == pytest.approx(1.0, abs=1e-3)

    def test_instability_markers(self, reference):
        om0 = 2 * math.pi * 1e6
        result = entanglement_vs_detuning(reference, [0.0, 0.9 * om0])
        assert not result.points[0].stable
        assert result.points[1].stable

    def test_stiff_points_marked_unstable(self, reference):
        # Within a few tens of rad/s of delta_eg = 0 the drift is so
        # ill-conditioned that the Lyapunov residual gate rejects the solve.
        # At +-10 rad/s scipy also warns that it perturbed the Schur
        # coefficients; the gate decides, and the warning must not leak.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entanglement_vs_detuning(reference, [-40.0, -20.0, -10.0, 10.0, 5e2])
        assert [p.stable for p in result.points] == [False, False, False, False, True]

    def test_solver_warning_quoted_in_stiffness_error(self, reference):
        params = dataclasses.replace(reference, delta_eg=10.0)
        with pytest.raises(StiffnessError, match="solver warning: .*eigenvalue pair"):
            steady_state(build_model(params))

    def test_continuity_away_from_instability(self, reference):
        # No jumps larger than 10x the local grid slope on a stable segment.
        om0 = 2 * math.pi * 1e6
        grid = np.linspace(0.7, 3.0, 30) * om0
        result = entanglement_vs_detuning(reference, grid)
        values = np.array([p.two_eta for p in result.points])
        assert all(p.stable for p in result.points)
        steps = np.abs(np.diff(values))
        local = np.median(steps)
        assert steps.max() <= 10.0 * max(local, 1e-12)


class TestEndToEnd:
    def test_identity_round_trip_matches_direct(self, reference):
        direct = direct_report(reference)
        e2e = end_to_end_report(reference, identity_channel(), identity_channel())
        assert e2e.two_eta == pytest.approx(direct.two_eta, abs=1e-10)
        assert e2e.lambda_sph == pytest.approx(direct.lambda_sph, abs=1e-10)

    def test_backscatter_loses_entanglement_sooner(self, reference):
        atmosphere = channel_preset("fig10_atmosphere")
        target = channel_preset("fig10_target")
        direct = direct_report(reference).two_eta
        returned = end_to_end_report(reference, atmosphere, target).two_eta
        assert returned > direct

    def test_backscatter_separable_above_threshold(self, reference):
        atmosphere = channel_preset("fig10_atmosphere")
        target = channel_preset("fig10_target")
        t_back = threshold_temperature(
            reference, channel_spec=atmosphere, target_spec=target
        )
        hot = dataclasses.replace(reference, temperature=t_back + 0.05)
        assert end_to_end_report(hot, atmosphere, target).two_eta >= 1.0

    def test_two_eta_pair_matches_the_reports(self, reference):
        # Each grid point's pair equals the single-point reports there.
        atmosphere = channel_preset("fig10_atmosphere")
        target = channel_preset("fig10_target")
        grid = [0.01, reference.temperature, 0.2]
        pairs = end_to_end_vs_temperature(reference, atmosphere, target, grid)
        for temperature, pair in zip(grid, pairs, strict=True):
            params = dataclasses.replace(reference, temperature=temperature)
            assert pair == (
                direct_report(params).two_eta,
                end_to_end_report(params, atmosphere, target).two_eta,
            )

    def test_cross_module_consistency_with_manual_channel(self, reference):
        # Applying the composed round-trip channel by hand reproduces the
        # converter's end-to-end report exactly.
        from qradar.channels import round_trip
        from qradar.criteria import BipartiteBlocks, gaussian_discord
        from qradar.gaussian import apply_channel
        from qradar.oe import _oc_mc_blocks

        atmosphere = channel_preset("fig10_atmosphere")
        target = channel_preset("fig10_target")
        reported = end_to_end_report(reference, atmosphere, target)
        state = _oc_mc_blocks(reference).state
        composite = round_trip(atmosphere, target, atmosphere).expand(1, 2)
        manual = gaussian_discord(
            BipartiteBlocks.from_covariance(apply_channel(state, composite).cov)
        )
        assert manual.two_eta == reported.two_eta
        assert manual.lambda_sph == reported.lambda_sph


class TestValidation:
    def test_negative_rate_rejected(self, reference):
        with pytest.raises(ValidationError):
            dataclasses.replace(reference, kappa_c=-1.0)

    @pytest.mark.parametrize("field", ["kappa_w", "e_w", "delta_eg", "omega_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, reference, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            dataclasses.replace(reference, **{field: value})

    @pytest.mark.parametrize("given", ["channel_spec", "target_spec"])
    def test_threshold_needs_channel_and_target_together(self, reference, given, monkeypatch):
        # Rejected before any solve.
        monkeypatch.setattr("qradar.oe.operating_point", pytest.fail)
        with pytest.raises(ValidationError, match="together"):
            threshold_temperature(reference, **{given: channel_preset("fig10_atmosphere")})

    def test_material_spec_positive(self):
        with pytest.raises(ValidationError):
            PdMaterialSpec(0.0, 1.0, 1.0, 1.0)
