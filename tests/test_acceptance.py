"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not calibrated elsewhere.
"""

import cmath
import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qradar import eom, oe
from qradar.channels import (
    ThermalProfile,
    attenuation_channel,
    n_eff_closed,
    n_eff_general,
    round_trip,
    target_channel,
)
from qradar.cli import run_scenario
from qradar.config import validate_config
from qradar.criteria import BipartiteBlocks, gaussian_discord, lambda_sph, two_eta
from qradar.gaussian import GaussianState, apply_channel, sample, wigner
from qradar.jpa import JpaParams, intracavity_cov, scattering_matrix, signal_power_gain
from qradar.langevin import LinearLangevinModel, propagate_cov, steady_state_cov
from qradar.presets import (
    SCENARIO_PRESETS,
    channel_preset,
    eom_reference,
    oe_reference,
    qi_low_signal_scenario,
)
from qradar.receiver import ci_baseline, roc_curve, run_detection, tmsv_cm

from conftest import random_physical_two_mode, tmsv_cov


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:02d} ({name}): PASS ({elapsed:.2f} s)")


R_GRID = [round(0.1 * k, 1) for k in range(11)]


def test_criterion_01_lambda_sph_closed_form():
    with criterion(1, "lambda_SPH closed form"):
        start = time.perf_counter()
        for r in R_GRID:
            blocks = BipartiteBlocks.from_covariance(tmsv_cov(r))
            expected = (1.0 - math.cosh(4.0 * r)) / 8.0
            assert abs(lambda_sph(blocks) - expected) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_02_ppt_oracle_and_vacuum_boundary():
    with criterion(2, "PPT oracle and vacuum boundary"):
        for r in R_GRID:
            blocks = BipartiteBlocks.from_covariance(tmsv_cov(r))
            assert abs(two_eta(blocks) - math.exp(-2.0 * r)) <= 1e-9
        vacuum = BipartiteBlocks.from_covariance(0.5 * np.eye(4))
        report = gaussian_discord(vacuum)
        assert abs(report.lambda_sph) <= 1e-9
        assert abs(report.two_eta - 1.0) <= 1e-9
        assert abs(report.discord) <= 1e-9


def test_criterion_03_criterion_agreement():
    with criterion(3, "criterion agreement on random states"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            state = random_physical_two_mode(rng)
            report = gaussian_discord(BipartiteBlocks.from_covariance(state.cov))
            assert report.entangled_by_sph == report.entangled_by_ppt
            if report.entangled_by_sph:
                assert report.discord > 0.0
        for _ in range(200):
            a = random_physical_two_mode(rng).cov[:2, :2]
            b = random_physical_two_mode(rng).cov[2:, 2:]
            product = BipartiteBlocks(a, b, np.zeros((2, 2)))
            assert gaussian_discord(product).discord <= 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_04_lyapunov_ode_cross_check():
    with criterion(4, "Lyapunov vs long-time ODE"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, (6, 6))
            a -= (max(float(np.linalg.eigvals(a).real.max()), 0.0) + 0.5) * np.eye(6)
            d = rng.uniform(-1.0, 1.0, (6, 6))
            d = d @ d.T
            model = LinearLangevinModel(a, d, ("m1", "m2", "m3"))
            v_ss = steady_state_cov(model)
            t_long = 50.0 / abs(float(np.linalg.eigvals(a).real.max()))
            v_ode = propagate_cov(model, np.zeros((6, 6)), t_long)
            assert abs(v_ss - v_ode).max() <= 1e-6
        assert time.perf_counter() - start < 60.0


def test_criterion_05_eom_temperature_behaviour():
    with criterion(5, "EOM monotone lambda_SPH(T) with finite threshold"):
        params = eom_reference()
        grid = np.linspace(0.0, 0.30, 50)
        points = eom.sweep(params, "temperature", grid)
        assert all(p.stable for p in points)
        lams = np.array([p.reports["oc_mc"].lambda_sph for p in points])
        assert (np.diff(lams) >= -1e-12).all()
        t_star = eom.threshold_temperature(params, resolution=1e-3)
        assert t_star is not None and math.isfinite(t_star)
        assert lams[0] < 0.0 < lams[-1]
        decoupled = dataclasses.replace(params, g1=0.0, g2=0.0)
        for pair, report in eom.entanglement_report(decoupled).items():
            assert report.lambda_sph >= 0.0, pair
            assert not report.entangled_by_sph


def test_criterion_06_oe_comparative_claims():
    with criterion(6, "OE threshold ordering"):
        t_eom = eom.threshold_temperature(eom_reference(), resolution=1e-3)
        t_oe = oe.threshold_temperature(oe_reference(), resolution=1e-3)
        assert t_oe is not None and t_eom is not None
        assert t_oe > t_eom
        t_oe_stronger = oe.threshold_temperature(
            oe_reference(mu_c=2.5e-4), resolution=1e-3
        )
        assert t_oe_stronger > t_oe
        atmosphere = channel_preset("fig10_atmosphere")
        target = channel_preset("fig10_target")
        t_back = oe.threshold_temperature(
            oe_reference(), resolution=1e-3, channel_spec=atmosphere, target_spec=target
        )
        assert t_back is not None
        assert t_back < t_oe


def test_criterion_07_jpa_scattering():
    with criterion(7, "JPA Bogoliubov identity and gain"):
        kappa = 1e6

        def params(lambda1, delta0=0.0):
            return JpaParams(
                e_j=1.0, e_c=1.0, omega0=1.0, kerr=-0.5, kappa=kappa, omega_p=1.0,
                epsilon=0.0, alpha=0.0, delta0=delta0, lambda1=lambda1,
                branch_count=1,
            )

        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = rng.uniform(0.0, 0.499) * kappa * cmath.exp(2j * math.pi * rng.uniform())
            p = params(lam, delta0=rng.uniform(-2.0, 2.0) * kappa)
            for omega in np.linspace(-3 * kappa, 3 * kappa, 101):
                s = scattering_matrix(p, omega)
                assert abs(abs(s[0, 0]) ** 2 - abs(s[0, 1]) ** 2 - 1.0) <= 1e-8
        s = scattering_matrix(params(kappa / 4.0), 0.0)
        assert abs(abs(s[0, 0]) - 5.0 / 3.0) <= 1e-10
        gains = [
            signal_power_gain(params(f * kappa / 2.0))
            for f in (0.40, 0.49, 0.80, 0.95, 0.99, 0.999)
        ]
        assert all(b > a for a, b in zip(gains, gains[1:]))
        assert gains[-1] > 1e5


def test_criterion_08_wigner_sweep():
    with criterion(8, "Wigner normalization and squeezing order"):
        squeezed = []
        for g in (0.3, 0.4, 0.4999):
            cov = intracavity_cov(g)
            sigma_max = math.sqrt(float(np.diag(cov).max()))
            sigma_min = math.sqrt(float(np.linalg.eigvalsh(cov).min()))
            half = 6.5 * sigma_max
            step = sigma_min / 2.0
            grid = np.arange(-half, half + step, step)
            w = wigner(GaussianState(1, np.zeros(2), cov), grid, grid)
            assert abs(w.sum() * step * step - 1.0) <= 1e-3
            squeezed.append(float(np.linalg.eigvalsh(cov).min()))
        assert squeezed[0] > squeezed[1] > squeezed[2]


def test_criterion_09_channel_checks():
    with criterion(9, "channel closed forms and monotonicity"):
        uniform = ThermalProfile(n_in=0.9, n_out=0.9, mu_in=0.7, mu_out=1.9, l0=0.3, length=1.0)
        assert n_eff_closed(uniform) == pytest.approx(0.9, rel=1e-14)
        cryo = ThermalProfile(n_in=0.4, n_out=7.0, mu_in=0.7, mu_out=1.9, l0=1.0, length=1.0)
        assert n_eff_closed(cryo) == pytest.approx(0.4, rel=1e-14)
        rng = np.random.default_rng(9)
        for _ in range(10):
            profile = ThermalProfile(
                n_in=rng.uniform(0, 2), n_out=rng.uniform(0, 2),
                mu_in=rng.uniform(0.05, 3), mu_out=rng.uniform(0.05, 3),
                l0=rng.uniform(0.05, 0.95), length=1.0,
            )
            general = n_eff_general(
                profile.absorption_at, profile.occupation_at, profile.length,
                breakpoints=(profile.l0,),
            )
            assert abs(general - n_eff_closed(profile)) <= 1e-8

        first = attenuation_channel(0.07, 2.5, 0.8)
        second = attenuation_channel(0.07, 4.0, 0.8)
        whole = attenuation_channel(0.07, 6.5, 0.8)
        chained = first.then(second)
        assert abs(chained.X - whole.X).max() <= 1e-12
        assert abs(chained.Y - whole.Y).max() <= 1e-12

        source = GaussianState(2, np.zeros(4), tmsv_cov(0.6))

        def eta_after(distance=10.0, optical_depth=0.2, n_env=0.1):
            out = attenuation_channel(5e-3, distance, n_env)
            tgt = target_channel(optical_depth / 0.01, 0.01, 0.1)
            final = apply_channel(
                source, round_trip(out, tgt, out).expand(0, 2)
            )
            return two_eta(BipartiteBlocks.from_covariance(final.cov))

        for axis, values in (
            ("distance", np.linspace(1.0, 100.0, 9)),
            ("optical_depth", np.linspace(0.05, 2.0, 9)),
            ("n_env", np.linspace(0.0, 4.0, 9)),
        ):
            previous = -np.inf
            for value in values:
                current = eta_after(**{axis: float(value)})
                assert current >= previous - 1e-12, axis
                previous = current


def test_criterion_10_receiver_statistics():
    with criterion(10, "receiver correlation, null AUC, QI dominance"):
        start = time.perf_counter()
        r = math.asinh(0.1)
        n = 100_000
        draws = sample(tmsv_cm(r), n, seed=31)
        rho_emp = float(np.corrcoef(draws[:, 0], draws[:, 2])[0, 1])
        rho = math.tanh(2.0 * r)
        se = (1.0 - rho**2) / math.sqrt(n)
        assert abs(rho_emp - rho) <= 3.0 * se

        from qradar.channels import thermal_background_channel

        background = thermal_background_channel(10.0)
        null = dataclasses.replace(
            qi_low_signal_scenario(n_decisions=10_000, samples_per_decision=10, seed=404),
            r=0.0, signal_channel=background, background_channel=background,
        )
        null_samples = run_detection(null)
        assert abs(roc_curve(null_samples.h0, null_samples.h1).auc - 0.5) <= 0.01

        scenario = qi_low_signal_scenario(n_decisions=10_000)
        qi = run_detection(scenario)
        ci = ci_baseline(scenario)
        roc_qi = roc_curve(qi.h0, qi.h1)
        roc_ci = roc_curve(ci.h0, ci.h1)
        assert roc_qi.auc >= roc_ci.auc

        # Pointwise dominance within the Monte-Carlo band on a pfa grid.
        pfa_grid = np.linspace(0.01, 0.99, 49)
        order_qi = np.lexsort((roc_qi.pd, roc_qi.pfa))
        order_ci = np.lexsort((roc_ci.pd, roc_ci.pfa))
        pd_qi = np.interp(pfa_grid, roc_qi.pfa[order_qi], roc_qi.pd[order_qi])
        pd_ci = np.interp(pfa_grid, roc_ci.pfa[order_ci], roc_ci.pd[order_ci])
        n_dec = scenario.n_decisions
        band = 3.0 * np.sqrt(
            pd_qi * (1 - pd_qi) / n_dec + pd_ci * (1 - pd_ci) / n_dec
        )
        assert (pd_qi >= pd_ci - band).all()
        assert time.perf_counter() - start < 300.0


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "CLI byte-identical reruns incl. parallelism 8"):
        for name, preset in sorted(SCENARIO_PRESETS.items()):
            csv_reference = {}
            for parallelism in (1, 8):
                outdir = tmp_path / f"{name}_p{parallelism}"
                cfg = validate_config({
                    **preset, "parallelism": parallelism, "output_dir": str(outdir),
                })
                assert run_scenario(cfg)[0] == 0, name
                first = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
                assert run_scenario(cfg)[0] == 0, name
                second = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
                assert first == second, (name, parallelism)
                csvs = {k: v for k, v in first.items() if k.endswith(".csv")}
                if parallelism == 1:
                    csv_reference = csvs
                else:
                    assert csvs == csv_reference, name
