"""Scenario-driven command line: validate configs, run them, list presets.

Subcommands:
    qradar run <config.json>       execute a scenario, write CSV/JSON artifacts
    qradar validate <config.json>  schema-check only
    qradar presets list            names of shipped scenario presets
    qradar presets show <name>     print a preset as runnable JSON

Exit codes: 0 success, 1 validation error, 2 numerical failure (instability
or non-convergence; the reason lands in summary.json).  The default output
directory comes from $QRADAR_OUTPUT_DIR when a config has no ``output_dir``.
Outputs are deterministic for a fixed config and seed; wall time is printed
to stdout rather than written into summary.json to keep the artifacts
byte-stable.  Every scenario runs serially.
Converter overrides and ``eom_sweep`` axes reach their params fields and
sweep axes through qradar.config's maps, built from the field declarations.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import channels, eom, jpa, oe, receiver
from .config import EOM_AXES, OVERRIDE_FIELDS, ScenarioConfig, parse_config, wigner_file
from .errors import ConfigError, ConvergenceError, QradarError
from .gaussian import GaussianState, sample, wigner
from .output import FORMAT_VERSION, config_hash, write_csv, write_json
from .presets import SCENARIO_PRESETS, eom_reference, oe_reference

__all__ = ["main", "run_scenario"]

def _params(reference, overrides: dict):
    """``reference`` (EomParams or OeParams) with the config overrides applied."""
    names = OVERRIDE_FIELDS[type(reference)]
    return dataclasses.replace(reference, **{names[k]: v for k, v in overrides.items()})


def _run_eom_sweep(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    params = _params(eom_reference(), p["eom"])
    axis = p["axis"]
    points = eom.sweep(params, EOM_AXES[axis], p["grid"])
    columns = {axis: [pt.axis_value for pt in points]}
    for pair in eom.PAIR_NAMES:
        columns[f"lambda_sph_{pair}"] = [
            pt.reports[pair].lambda_sph if pt.stable else math.nan for pt in points
        ]
    columns["stable"] = [pt.stable for pt in points]
    write_csv(outdir / "eom_sweep.csv", columns)
    stable_lams = [pt.reports["oc_mc"].lambda_sph for pt in points if pt.stable]
    summary = {
        "n_points": len(points),
        "n_stable": len(stable_lams),
        "lambda_sph_oc_mc_min": min(stable_lams) if stable_lams else None,
    }
    if axis == "temperature_k" and stable_lams and stable_lams[0] < 0.0:
        summary["threshold_temperature_k"] = eom.threshold_temperature(params)
    return summary


def _run_oe_sweep(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    params = _params(oe_reference(), p["oe"])
    result = oe.entanglement_vs_detuning(params, p["delta_eg_grid_rad_s"])
    points = result.points
    stable = [pt.stable for pt in points]
    write_csv(outdir / "oe_sweep.csv", {
        "delta_eg_rad_s": [pt.delta_eg for pt in points],
        "two_eta": [pt.two_eta if pt.stable else math.nan for pt in points],
        "stable": stable,
    })
    return {
        "n_points": len(points),
        "n_stable": sum(stable),
        "argmin_delta_eg_rad_s": result.argmin_delta_eg,
        "min_two_eta": result.min_two_eta,
    }


def _run_oe_end_to_end(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    params = _params(oe_reference(), p["oe"])
    atmosphere = channels.attenuation_channel(p["kappa_atm_per_m"], p["distance_m"], p["n_env"])
    target = channels.target_channel(p["kappa_t_per_m"], p["target_thickness_m"], p["n_t"])

    grid = p["temperature_grid_k"]
    direct, backscatter = oe.end_to_end_vs_temperature(params, atmosphere, target, grid)
    write_csv(outdir / "oe_end_to_end.csv", {
        "temperature_k": grid,
        "two_eta_direct": direct,
        "two_eta_backscatter": backscatter,
        "stable": [True] * len(grid),  # a grid with no steady state raises instead
    })
    return {
        "n_points": len(grid),
        "threshold_direct_k": oe.threshold_temperature(params),
        "threshold_backscatter_k": oe.threshold_temperature(
            params, channel_spec=atmosphere, target_spec=target
        ),
    }


def _run_jpa_gain(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    params = jpa.build_params(
        p["e_j_rad_s"], p["capacitance_f"], p["kappa_rad_s"], p.get("omega_p_rad_s"), p["epsilon_rad_s"]
    )
    omega = p["omega_grid_rad_s"]
    s = [jpa.scattering_matrix(params, w) for w in omega]
    # Scalar abs: numpy's vectorised complex abs differs in the last bit.
    sig = np.array([abs(m[0, 0]) ** 2 for m in s])
    idl = np.array([abs(m[0, 1]) ** 2 for m in s])
    write_csv(outdir / "jpa_gain_vs_omega.csv", {
        "omega_rad_s": omega,
        "signal_power_gain": sig,
        "idler_power_gain": idl,
        "bogoliubov_residual": sig - idl - 1.0,
    })
    fractions = p["pump_fraction_grid"]
    write_csv(outdir / "jpa_gain_vs_pump.csv", {
        "pump_fraction_of_threshold": fractions,
        "signal_power_gain": [
            jpa.signal_power_gain(
                dataclasses.replace(params, delta0=0.0, lambda1=f * 0.5 * params.kappa)
            )
            for f in fractions
        ],
    })
    return {
        "omega0_rad_s": params.omega0,
        "e_c_rad_s": params.e_c,
        "abs_lambda1_rad_s": float(abs(params.lambda1)),
        "delta0_rad_s": params.delta0,
        "below_threshold": params.below_threshold,
        "branch_count": params.branch_count,
    }


def _run_jpa_wigner(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    n = p["grid_points_per_axis"]
    summary = {"fields": []}
    for g in p["g_values"]:
        cov = jpa.intracavity_cov(float(g))
        half = 6.0 * math.sqrt(float(np.max(np.diag(cov))))  # +-6 sigma of the widest quadrature
        q = np.linspace(-half, half, n)
        w = wigner(GaussianState(1, np.zeros(2), cov), q, q)
        step = q[1] - q[0]
        normalization = float(w.sum() * step * step)
        if not abs(normalization - 1.0) <= 1e-3:  # the bound a resolved field meets (acceptance criterion 8)
            raise ConvergenceError(
                f"Wigner field at g={float(g)!r} is under-resolved: normalization {normalization!r} "
                f"misses 1 by more than 1e-3 at grid_points_per_axis={n}"
            )
        name = wigner_file(g)
        write_csv(outdir / name, {"q": np.repeat(q, n), "p": np.tile(q, n), "w": w.ravel()})
        summary["fields"].append({
            "g": float(g),
            "file": name,
            "normalization": normalization,
            "squeezed_variance": float(np.linalg.eigvalsh(cov).min()),
        })
    return summary


def _run_channel_neff(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    grid = p["l0_grid_m"]
    closed, general = [], []
    for l0 in grid:
        profile = channels.ThermalProfile(
            n_in=p["n_in"], n_out=p["n_out"],
            mu_in=p["mu_in_per_m"], mu_out=p["mu_out_per_m"],
            l0=l0, length=p["length_m"],
        )
        closed.append(channels.n_eff_closed(profile))
        general.append(channels.n_eff_general(
            profile.absorption_at, profile.occupation_at, profile.length,
            p["quadrature_points"], breakpoints=(profile.l0,),
        ))
    write_csv(outdir / "channel_neff.csv", {
        "l0_m": grid, "n_eff_closed": closed, "n_eff_general": general,
    })
    worst = max(0.0, *(abs(c - g) for c, g in zip(closed, general)))
    return {"n_points": len(grid), "max_abs_difference": worst}


def _run_qi_roc(cfg: ScenarioConfig, outdir: Path) -> dict:
    p = cfg.parameters
    r = math.asinh(math.sqrt(p["mean_signal_photons"]))
    signal, background = receiver.low_signal_channels(p["n_background"], p["transmissivity"])
    scenario = receiver.QiScenario(
        r=r,
        signal_channel=signal,
        background_channel=background,
        samples_per_decision=p["samples_per_decision"],
        n_decisions=p["n_decisions"],
        seed=cfg.seed,
        detector=p["detector"],
        heterodyne=p["heterodyne"],
    )
    qi = receiver.run_detection(scenario)
    ci = receiver.ci_baseline(scenario)
    roc_qi = receiver.roc_curve(qi.h0, qi.h1)
    roc_ci = receiver.roc_curve(ci.h0, ci.h1)
    for name, roc in (("roc_qi.csv", roc_qi), ("roc_ci.csv", roc_ci)):
        write_csv(outdir / name, {"threshold": roc.thresholds, "pfa": roc.pfa, "pd": roc.pd})
    source = receiver.tmsv_cm(r)
    draws = sample(source, p["rho_samples"], np.random.SeedSequence((cfg.seed, 1)))
    rho_emp = float(np.corrcoef(draws[:, 0], draws[:, 2])[0, 1])
    return {
        "auc_qi": roc_qi.auc,
        "auc_ci": roc_ci.auc,
        "rho_analytic": math.tanh(2.0 * r),
        "rho_empirical": rho_emp,
    }


_RUNNERS = {
    "eom_sweep": _run_eom_sweep,
    "oe_sweep": _run_oe_sweep,
    "oe_end_to_end": _run_oe_end_to_end,
    "jpa_gain": _run_jpa_gain,
    "jpa_wigner": _run_jpa_wigner,
    "channel_neff": _run_channel_neff,
    "qi_roc": _run_qi_roc,
}


def _output_dir(cfg: ScenarioConfig) -> Path:
    base = cfg.output_dir or os.environ.get("QRADAR_OUTPUT_DIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_scenario(cfg: ScenarioConfig) -> tuple[int, dict]:
    """Execute a validated scenario; returns (exit_code, summary)."""
    outdir = _output_dir(cfg)
    base = {
        "format_version": FORMAT_VERSION,
        "kind": cfg.kind,
        "config_sha256": config_hash(cfg.normalized()),
        "inputs": cfg.normalized(),
    }
    try:
        summary = _RUNNERS[cfg.kind](cfg, outdir)
    except QradarError as exc:
        base["status"] = "failed"
        base["reason"] = f"{type(exc).__name__}: {exc}"
        write_json(outdir / "summary.json", base)
        return 2, base
    base["status"] = "ok"
    base["summary"] = summary
    write_json(outdir / "summary.json", base)
    return 0, base


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qradar",
        description="Microwave quantum radar simulation scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    val_p = sub.add_parser("validate", help="validate a scenario config")
    val_p.add_argument("config", help="path to a JSON scenario config")
    pre_p = sub.add_parser("presets", help="list or show shipped presets")
    pre_sub = pre_p.add_subparsers(dest="preset_command", required=True)
    pre_sub.add_parser("list", help="list preset names")
    show_p = pre_sub.add_parser("show", help="print a preset config")
    show_p.add_argument("name")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "presets":
        if args.preset_command == "list":
            for name in sorted(SCENARIO_PRESETS):
                print(name)
            return 0
        if args.name not in SCENARIO_PRESETS:
            print(f"unknown preset {args.name!r}; available: {sorted(SCENARIO_PRESETS)}",
                  file=sys.stderr)
            return 1
        print(json.dumps(SCENARIO_PRESETS[args.name], indent=2, sort_keys=True))
        return 0

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"valid: kind={cfg.kind} seed={cfg.seed}")
        return 0

    start = time.perf_counter()
    code, summary = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    print(f"kind={cfg.kind} status={summary.get('status')} wall_time_s={elapsed:.3f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
