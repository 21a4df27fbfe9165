"""Configuration parsing, CLI subcommands, artifact schemas, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qradar
from qradar import channels, eom, oe, receiver
from qradar.cli import _params, main, run_scenario
from qradar.config import PARAMETER_SCHEMAS, parse_config, validate_config, wigner_file
from qradar.errors import ConfigError, ValidationError
from qradar.presets import SCENARIO_PRESETS, eom_reference, oe_reference


def read_csv(path: Path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestParsing:
    def test_minimal_qi_roc_defaults_filled(self):
        cfg = parse_config(json.dumps({"kind": "qi_roc", "parameters": {}}))
        assert cfg.seed == 0
        assert cfg.parameters["mean_signal_photons"] == 0.01
        assert cfg.parameters["n_background"] == 10.0
        assert cfg.parameters["detector"] == "covariance_detector"
        assert cfg.parameters["heterodyne"] is True

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{\n  bad json\n}")
        assert "line 2" in err.value.errors[0]

    def test_misspelled_key_suggestion(self):
        raw = {"kind": "qi_roc", "parameters": {"n_backgruond": 4.0}}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("n_background" in e for e in err.value.errors)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"kind": "teleportation", "parameters": {}})
        assert any("teleportation" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        raw = {
            "kind": "qi_roc",
            "seed": "not-an-int",
            "parameters": {"transmissivity": 2.0, "bogus": 1},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert len(err.value.errors) == 3

    def test_out_of_range(self):
        raw = {"kind": "qi_roc", "parameters": {"n_decisions": 0}}
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_negative_seed_rejected(self):
        raw = {"kind": "qi_roc", "seed": -1, "parameters": {}}
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_grid_must_ascend(self):
        raw = {
            "kind": "eom_sweep",
            "parameters": {"axis": "temperature_k", "grid": [0.2, 0.1]},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("ascending" in e for e in err.value.errors)

    @pytest.mark.parametrize(
        "raw, errors",
        [
            ({}, ["kind: required key is missing"]),
            ({"kind": "qi_roc"}, ["parameters: required key is missing"]),
            # A present key is reported by its value, never as missing.
            ({"kind": "qi_roc", "parameters": None}, ["parameters: expected an object"]),
            ({"kind": "qi_roc", "parameters": [1]}, ["parameters: expected an object"]),
            (
                {"kind": "teleport", "parameters": {"x": 1}},
                ["kind: 'teleport' is not one of ['channel_neff', 'eom_sweep', 'jpa_gain', "
                 "'jpa_wigner', 'oe_end_to_end', 'oe_sweep', 'qi_roc']"],
            ),
            (
                {"kind": "eom_sweep", "parameters": {"axis": "temperature_k", "grid": [0.1], "eom": 3}},
                ["parameters.eom: expected an object"],
            ),
            (
                {"kind": "qi_roc", "sed": 1, "parameters": {}},
                ["sed: unknown key (did you mean 'seed'?)"],
            ),
            ({"kind": 3, "parameters": {}}, ["kind: expected a string, got int"]),
            (
                {
                    "kind": "channel_neff",
                    "parameters": {
                        "n_in": "x", "n_out": 0, "mu_in_per_m": 0, "mu_out_per_m": 0,
                        "length_m": 1, "l0_grid_m": [0.0],
                    },
                },
                ["parameters.n_in: expected a number, got str"],
            ),
            (
                {"kind": "eom_sweep", "parameters": {"axis": "temperature_k", "grid": [0.01, math.inf]}},
                ["parameters.grid[1]: expected a finite number"],
            ),
            (
                {"kind": "eom_sweep", "parameters": {"axis": "temperature_k", "grid": [-math.inf, 0.01]}},
                ["parameters.grid[0]: expected a finite number"],
            ),
            # json.loads reads a 401-digit integer as an int beyond float range.
            (
                {"kind": "eom_sweep", "parameters": {"axis": "temperature_k", "grid": [0.01, 10**400]}},
                ["parameters.grid[1]: expected a finite number"],
            ),
            (
                {"kind": "qi_roc", "parameters": {"n_background": 10**400}},
                ["parameters.n_background: must be finite"],
            ),
            (
                {"kind": "qi_roc", "parameters": {"n_background": math.inf}},
                ["parameters.n_background: must be finite"],
            ),
            (
                {"kind": "qi_roc", "parameters": {"heterodyne": "yes"}},
                ["parameters.heterodyne: expected a boolean, got str"],
            ),
        ],
        ids=[
            "empty", "parameters_missing", "parameters_null", "parameters_list",
            "unknown_kind", "eom_not_object", "misspelled_top_level", "kind_not_string",
            "n_in_not_number", "grid_inf", "grid_minus_inf", "grid_int_overflow",
            "number_int_overflow", "number_inf", "boolean_not_bool",
        ],
    )
    def test_error_lists_pinned(self, raw, errors):
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.errors == errors

    def test_infinite_grid_text_rejected(self):
        # Python's json reads the non-standard token Infinity as inf.
        text = '{"kind": "eom_sweep", "parameters": {"axis": "temperature_k", "grid": [0.01, Infinity]}}'
        with pytest.raises(ConfigError, match="finite"):
            parse_config(text)

    def test_fig10_preset_published_values(self):
        cfg = validate_config(SCENARIO_PRESETS["fig10"])
        assert cfg.kind == "oe_end_to_end"
        assert cfg.parameters["kappa_atm_per_m"] == 2e-6
        assert cfg.parameters["kappa_t_per_m"] == 18.2
        assert cfg.parameters["distance_m"] == 20.0


def _loaded_after(code: str, modules=("scipy.optimize", "scipy.integrate"), **env) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after running
    ``code``."""
    code += f"; print([m for m in {modules!r} if m in sys.modules])"
    src = str(Path(qradar.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.strip()


class TestCliCommands:
    def test_import_leaves_optimize_and_integrate_unloaded(self):
        # No qradar module uses scipy.integrate or scipy.optimize.
        assert _loaded_after("import sys, qradar.cli") == "[]"

    @pytest.mark.parametrize("preset, threshold", [
        ("eom_fig2a_temperature", "threshold_temperature_k"),
        ("fig10", "threshold_backscatter_k"),
    ])
    def test_threshold_preset_leaves_optimize_and_integrate_unloaded(self, preset, threshold, tmp_path):
        # Thresholds run Brent's method in qradar.sweeps, not scipy's brentq.
        code = (
            "import sys; from qradar.cli import run_scenario; "
            "from qradar.config import validate_config; "
            "from qradar.presets import SCENARIO_PRESETS; "
            f"code, summary = run_scenario(validate_config(SCENARIO_PRESETS[{preset!r}])); "
            f"assert code == 0 and summary['summary'][{threshold!r}] > 0"
        )
        assert _loaded_after(code, QRADAR_OUTPUT_DIR=str(tmp_path)) == "[]"

    def test_channels_import_leaves_converter_unloaded(self):
        # The record rules live in qradar.errors, below every model.
        code = "import sys, qradar.channels; assert 'qradar.converter' not in sys.modules"
        assert _loaded_after(code) == "[]"

    @pytest.mark.parametrize("preset, artifacts", [
        pytest.param("channel_neff_line", ["channel_neff.csv"], id="channel_neff_line"),
        pytest.param("jpa_gain", ["jpa_gain_vs_omega.csv", "jpa_gain_vs_pump.csv"], id="jpa_gain"),
        pytest.param(
            "jpa_wigner_fig13",
            [wigner_file(g) for g in SCENARIO_PRESETS["jpa_wigner_fig13"]["parameters"]["g_values"]],
            id="jpa_wigner_fig13",
        ),
        pytest.param("qi_roc_low_signal", ["roc_ci.csv", "roc_qi.csv"], id="qi_roc_low_signal"),
    ])
    def test_non_converter_preset_loads_no_scipy(self, preset, artifacts, tmp_path):
        # Constants are literals, the JPA's covariance is in closed form and
        # langevin imports LAPACK on its first solve, which only a converter
        # makes: a run that solves no Lyapunov equation loads no scipy.
        code = (
            "import sys, qradar.cli; from qradar.config import validate_config; "
            "from qradar.presets import SCENARIO_PRESETS; "
            f"assert qradar.cli.run_scenario(validate_config(SCENARIO_PRESETS[{preset!r}]))[0] == 0"
        )
        assert _loaded_after(code, ("scipy",), QRADAR_OUTPUT_DIR=str(tmp_path)) == "[]"
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*artifacts, "summary.json"])

    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(SCENARIO_PRESETS)

    def test_presets_show_round_trips(self, capsys):
        assert main(["presets", "show", "jpa_gain"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert validate_config(shown).kind == "jpa_gain"

    def test_presets_show_unknown(self, capsys):
        assert main(["presets", "show", "nope"]) == 1

    def test_validate_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SCENARIO_PRESETS["channel_neff_line"]))
        assert main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "qi_roc", "parameters": {"bogus": 1}}))
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "parameters, error",
        [
            (
                {"temperature_grid_k": [-0.1, 0.1]},
                "parameters.temperature_grid_k[0]: must be >= 0.0, got -0.1",
            ),
            (
                {"axis": "temperature_k", "grid": [-0.1, 0.1]},
                "parameters.grid[0]: must be >= 0.0, got -0.1",
            ),
            (
                {"axis": "gamma_m_rad_s", "grid": [-5, 10]},
                "parameters.grid[0]: must be >= 0.0, got -5.0",
            ),
            (
                {"axis": "wavelength_m", "grid": [-1e-6, 1e-6]},
                "parameters.grid[0]: must be > 0.0, got -1e-06",
            ),
        ],
        ids=["oe_end_to_end_temperature", "eom_temperature", "eom_gamma_m", "eom_wavelength"],
    )
    def test_grid_outside_its_field_rule_exits_1_without_artifacts(
        self, parameters, error, tmp_path, monkeypatch, capsys
    ):
        # A grid value outside its field's rule is a config error: exit 1
        # before any artifact is written, not a failure in the model (exit 2).
        kind = "oe_end_to_end" if "temperature_grid_k" in parameters else "eom_sweep"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": kind, "parameters": parameters}))
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(path)]) == 1
        assert f"config error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, parameters, error",
        [
            ("channel_neff", {"l0_grid_m": [-1.0, 0.5]}, "parameters.l0_grid_m[0]: must be >= 0.0, got -1.0"),
            ("channel_neff", {"l0_grid_m": [0.5, 2.0]}, "parameters.l0_grid_m[1]: must be <= 1.0, got 2.0"),
            ("jpa_wigner", {"g_values": [-1.0, 2.0]}, "parameters.g_values[0]: must be >= 0.0, got -1.0"),
            ("jpa_wigner", {"g_values": [0.1, 0.5]}, "parameters.g_values[1]: must be < 0.5, got 0.5"),
            (
                "jpa_wigner",
                {"g_values": [0.10001, 0.10002], "grid_points_per_axis": 11},
                "parameters.g_values[1]: writes jpa_wigner_g0.1000.csv, as an earlier value does",
            ),
            (
                "jpa_wigner",
                {"g_values": [0.2, 0.2]},
                "parameters.g_values[1]: writes jpa_wigner_g0.2000.csv, as an earlier value does",
            ),
            (
                "jpa_gain",
                {"pump_fraction_grid": [0.5, 1.0]},
                "parameters.pump_fraction_grid[1]: must be < 1.0, got 1.0",
            ),
            (
                "jpa_gain",
                {"pump_fraction_grid": [-2.0, 0.5]},
                "parameters.pump_fraction_grid[0]: must be > -1.0, got -2.0",
            ),
        ],
        ids=[
            "l0_negative", "l0_beyond_length", "g_negative", "g_at_threshold",
            "g_sharing_a_file_name", "g_repeated",
            "pump_at_threshold", "pump_below_minus_threshold",
        ],
    )
    def test_grid_outside_its_domain_exits_1_without_artifacts(
        self, kind, parameters, error, tmp_path, monkeypatch, capsys
    ):
        # Each grid stops where its model does: l0 in [0, length_m] (the
        # preset's length_m is 1), the squeezing fraction g in [0, 0.5), the
        # pump fraction in (-1, 1).
        preset = {"channel_neff": "channel_neff_line", "jpa_wigner": "jpa_wigner_fig13"}.get(kind, kind)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"kind": kind, "parameters": {**SCENARIO_PRESETS[preset]["parameters"], **parameters}}
        ))
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("points", [10**20, channels._MAX_QUADRATURE_POINTS + 1], ids=["1e20", "cap+1"])
    def test_quadrature_points_above_the_cap_exit_1_without_a_run(
        self, points, tmp_path, monkeypatch, capsys
    ):
        # The config holds the key to n_eff_general's cap, so nothing is run
        # or allocated for it.
        def n_eff_general(*args, **kwargs):
            raise AssertionError("n_eff_general was called")

        monkeypatch.setattr(channels, "n_eff_general", n_eff_general)
        config = SCENARIO_PRESETS["channel_neff_line"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "parameters": {**config["parameters"], "quadrature_points": points}}))
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(path)]) == 1
        error = f"parameters.quadrature_points: must be <= 4096, got {points}"
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset, key, cap", [
        ("jpa_wigner_fig13", "grid_points_per_axis", 1500),
        ("qi_roc_low_signal", "n_decisions", 500_000),
        ("qi_roc_low_signal", "rho_samples", 5_000_000),
    ])
    def test_count_above_its_cap_is_invalid(self, preset, key, cap, tmp_path, capsys):
        # Uncapped, each count let a valid config die in numpy's untyped
        # MemoryError with no summary.json: 1e6 grid points asked for 7.28 TiB.
        config = SCENARIO_PRESETS[preset]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "parameters": {**config["parameters"], key: cap + 1}}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: parameters.{key}: must be <= {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize("preset, parameters, error", [
        pytest.param(
            "jpa_wigner_fig13", {"grid_half_width": 1.0},
            "parameters.grid_half_width: unknown key", id="jpa_wigner-grid_half_width",
        ),
        *(
            pytest.param(
                preset, {"oe": {"mu_c_dimensionless": 8e-4}},
                "parameters.oe.mu_c_dimensionless: unknown key", id=f"{kind}-mu_c",
            )
            for kind, preset in (("oe_sweep", "oe_fig12_detuning"), ("oe_end_to_end", "fig10"))
        ),
    ])
    def test_retired_key_exits_1_without_artifacts(
        self, preset, parameters, error, tmp_path, monkeypatch, capsys
    ):
        # Settings that no run read: the Wigner window is always +-6 sigma of
        # the widest quadrature, and g_wp, not mu_c, sets the OE coupling.
        config = SCENARIO_PRESETS[preset]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "parameters": {**config["parameters"], **parameters}}))
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(path)]) == 1
        assert f"config error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self):
        assert main(["run", "/nonexistent/cfg.json"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # Pump far above threshold: the gain runner must fail numerically.
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = {
            "kind": "jpa_gain",
            "parameters": {
                "epsilon_rad_s": 5e7,
                "omega_grid_rad_s": [0.0],
                "pump_fraction_grid": [0.0],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert "Threshold" in summary["reason"]

    @pytest.mark.parametrize("preset, parameters, reason", [
        # A positive omega_w so small that hbar w / kB T underflows to 0: a
        # ZeroDivisionError traceback before.
        pytest.param(
            "oe_fig12_detuning", {"oe": {"omega_w_rad_s": 5e-324}},
            "ValidationError: thermal occupation at omega 5e-324 rad/s and temperature 0.03 K "
            "exceeds float range",
            id="oe_sweep-omega_w",
        ),
        # A bare OverflowError traceback from |epsilon|^2 before.
        pytest.param(
            "jpa_gain", {"epsilon_rad_s": 1.7e308},
            "ValidationError: |epsilon|^2 is beyond float range (epsilon = (1.7e+308+0j))",
            id="jpa_gain-epsilon",
        ),
        # A bare ZeroDivisionError traceback from e^2/(2 C hbar) before.
        pytest.param(
            "jpa_gain", {"capacitance_f": 5e-324},
            "ValidationError: charging energy e^2/(2 C hbar) is beyond float range "
            "(capacitance = 5e-324 F)",
            id="jpa_gain-capacitance",
        ),
        # A bare OverflowError traceback from math.cosh, and no summary.json, before.
        pytest.param(
            "qi_roc_low_signal", {"mean_signal_photons": 1.7e308},
            "ValidationError: two-mode squeezing cosh(2r) is beyond float range "
            "(r = 355.55656562717405)",
            id="qi_roc-mean_signal_photons",
        ),
        # An uncaught "overflow encountered in matmul" RuntimeWarning, and no
        # summary.json, before.
        pytest.param(
            "qi_roc_low_signal", {"mean_signal_photons": 5e307},
            "UndefinedQuantityError: the decision statistic is beyond float range",
            id="qi_roc-mean_signal_photons-5e307",
        ),
        # Exit 2, but after a leaked "invalid value" RuntimeWarning, before.
        pytest.param(
            "qi_roc_low_signal", {"n_background": 1.7e308},
            "ValidationError: environment occupation n_B/(1 - tau) is beyond float range "
            "(n_B = 1.7e+308, tau = 0.2)",
            id="qi_roc-n_background",
        ),
        # Exit 2 with "n_eff changes by nan", after leaked overflow RuntimeWarnings, before.
        *(
            pytest.param(
                "channel_neff_line", {key: 1.7e308},
                "UndefinedQuantityError: n_eff is undefined: the absorption integral is "
                "beyond float range",
                id=f"channel_neff-{key}",
            )
            for key in ("mu_in_per_m", "mu_out_per_m", "length_m")
        ),
        # Exit 0 with a NaN row marked stable and leaked RuntimeWarnings before;
        # then the error named "stack member 1", the point's place among the
        # stable points, not its grid value.
        *(
            pytest.param(
                "eom_fig2a_temperature", {"grid": [1.0, hot]},
                f"UndefinedQuantityError: grid point 1 ({hot!r}): covariance invariants beyond "
                "float range; the criteria are undefined",
                id=f"eom_sweep-{hot:g}",
            )
            for hot in (1e200, 1e300)
        ),
        # The same exit, but after leaked overflow RuntimeWarnings, before.
        pytest.param(
            "eom_fig2a_temperature", {"grid": [1.0, 1e301]},
            "StiffnessError: temperature 1e+301 K: Lyapunov residual nan is not within "
            "1e-9 * ||D||_inf (severely ill-conditioned drift)",
            id="eom_sweep-1e+301",
        ),
    ])
    def test_value_beyond_float_range_fails_the_run(
        self, tmp_path, monkeypatch, preset, parameters, reason
    ):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        config = SCENARIO_PRESETS[preset]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "parameters": {**config["parameters"], **parameters}}))
        assert main(["run", str(path)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["status"], summary["reason"]) == ("failed", reason)

    # Before: the first two exited 2 on "n_eff changes by nan" after leaked
    # overflow and invalid-value RuntimeWarnings; the third let a bare
    # OverflowError from math.fsum escape, with no summary.json.
    @pytest.mark.parametrize("parameters", [
        {"n_in": 1e12, "mu_in_per_m": 1e300},
        {"n_out": 1e12, "mu_out_per_m": 1e300},
        {"n_out": 1.7e308, "mu_in_per_m": 1e300},
    ])
    def test_noise_integral_beyond_float_range_fails_the_run(
        self, tmp_path, monkeypatch, parameters
    ):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        config = SCENARIO_PRESETS["channel_neff_line"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "parameters": {**config["parameters"], **parameters}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path)]) == 2
        assert [str(w.message) for w in caught] == []
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["status"], summary["reason"]) == (
            "failed",
            "UndefinedQuantityError: n_eff is undefined: the noise integral is beyond float range",
        )


class TestEomTemperatureGridFailures:
    def test_unstable_converter_fails_the_run(self, tmp_path, monkeypatch):
        # An overdriven microwave drive: the drift is unstable at every
        # temperature, so the grid fails as its threshold does.  Before, the
        # run exited 0 with every row marked unstable.
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        config = SCENARIO_PRESETS["eom_fig2a_temperature"]
        parameters = {**config["parameters"], "eom": {"e_w_rad_s": 3.0 * eom_reference().e_w}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "parameters": parameters}))
        assert main(["run", str(path)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert summary["reason"] == (
            "NoSteadyStateError: drift is unstable: max Re eigenvalue 1.194e+06 is not below -1e-12"
        )


class TestOeEndToEndFailures:
    """A converter with no steady state, or an unphysical one, fails the run:
    temperature moves neither, so the grid has one for every point or none."""

    GRID = [0.01, 0.05, 0.1]

    def _config(self, tmp_path, oe_overrides=None):
        parameters = {**SCENARIO_PRESETS["fig10"]["parameters"], "temperature_grid_k": self.GRID}
        if oe_overrides:
            parameters["oe"] = oe_overrides
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "oe_end_to_end", "parameters": parameters}))
        return path

    def test_unstable_converter_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        # A blue-detuned optical cavity: the drift is unstable at every temperature.
        path = self._config(tmp_path, {"delta_c_rad_s": -oe_reference().delta_c})
        assert main(["run", str(path)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert summary["reason"] == (
            "NoSteadyStateError: drift is unstable: max Re eigenvalue 4.067e+05 is not below -1e-12"
        )

    def test_physicality_error_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        # Undamped baths inject no noise: the steady state is V = 0, which is
        # not positive definite; the basis's 0 K state is refused before any
        # grid temperature is formed.
        real = oe._baths
        monkeypatch.setattr(
            oe, "_baths", lambda p: [(omega, 0.0, t, kind) for omega, _, t, kind in real(p)]
        )
        assert main(["run", str(self._config(tmp_path))]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert summary["reason"] == (
            "PhysicalityError: temperature 0.0 K: state invariant violated: "
            "cov is not positive definite"
        )

    def test_inaccurate_basis_solve_names_its_bath(self, tmp_path, monkeypatch):
        # A photodetector damping of 1e12 rad/s leaves the optical bath's
        # Lyapunov basis covariance outside the residual rule; the reason
        # named no bath before.
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(self._config(tmp_path, {"gamma_p_rad_s": 1e12}))]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert summary["reason"] == (
            "StiffnessError: bath 1 (cavity, omega 2332000000000000.0 rad/s): Lyapunov residual "
            "1.804e-07 is not within 1e-9 * ||D||_inf (severely ill-conditioned drift)"
        )

    def test_one_operating_point_per_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        monkeypatch.setattr(oe, "threshold_temperature", lambda *args, **kwargs: None)
        calls = []
        real = oe.operating_point

        def counting(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(oe, "operating_point", counting)
        assert main(["run", str(self._config(tmp_path))]) == 0
        assert len(calls) == 1
        rows = read_csv(tmp_path / "out" / "oe_end_to_end.csv")
        assert rows["stable"].tolist() == [1, 1, 1]
        assert np.isfinite(rows["two_eta_backscatter"]).all()


class TestConverterOverrides:
    """Every converter override key reaches the params field it names, and
    that field reaches the model."""

    @pytest.mark.parametrize(
        "kind, parameters, table, reference, unset",
        [
            ("eom_sweep", {"axis": "temperature_k", "grid": [0.01]}, "eom", eom_reference,
             {"lambda_l"}),
            ("oe_end_to_end", {"temperature_grid_k": [0.01]}, "oe", oe_reference, set()),
        ],
    )
    def test_every_key_sets_its_field(self, kind, parameters, table, reference, unset):
        base = reference()
        build_model = {"eom": eom.build_model, "oe": oe.build_model}[table]
        base_model = build_model(base)
        fields = [f.name for f in dataclasses.fields(base)]
        keys = list(PARAMETER_SCHEMAS[kind][table].table)
        seen = set()
        for i, key in enumerate(keys):
            value = 1234.5 + i
            cfg = validate_config({"kind": kind, "parameters": {**parameters, table: {key: value}}})
            params = _params(base, cfg.parameters[table])
            changed = [f for f in fields if getattr(params, f) != getattr(base, f)]
            assert len(changed) == 1, (key, changed)
            assert key.startswith(changed[0] + "_")
            assert getattr(params, changed[0]) == value
            model = build_model(params)
            assert not (
                np.array_equal(model.drift, base_model.drift)
                and np.array_equal(model.diffusion, base_model.diffusion)
            ), key
            seen.add(changed[0])
        assert len(seen) == len(keys)
        assert set(fields) - seen == unset


def _override_cases():
    """(table, key, value, accepted) for each converter override: a value
    just outside its schema bound (0 when the bound is > 0, -1 when >= 0) and
    one just inside it (the smallest positive float, 0; -1 when unbounded)."""
    cases = []
    for kind, table in (("eom_sweep", "eom"), ("oe_end_to_end", "oe")):
        for key, spec in PARAMETER_SCHEMAS[kind][table].table.items():
            if spec.exclusive_minimum == 0.0:
                cases += [(table, key, 0.0, False), (table, key, math.ulp(0.0), True)]
            elif spec.minimum == 0.0:
                cases += [(table, key, -1.0, False), (table, key, 0.0, True)]
            else:
                assert spec.minimum is None and spec.exclusive_minimum is None, key
                cases.append((table, key, -1.0, True))
    return cases


class TestOverrideRules:
    """The CLI and the library accept the same converter values."""

    @pytest.mark.parametrize("table, key, value, accepted", _override_cases())
    def test_schema_and_params_agree(self, table, key, value, accepted):
        kind, parameters, reference = {
            "eom": ("eom_sweep", {"axis": "temperature_k", "grid": [0.01]}, eom_reference),
            "oe": ("oe_end_to_end", {"temperature_grid_k": [0.01]}, oe_reference),
        }[table]
        raw = {"kind": kind, "parameters": {**parameters, table: {key: value}}}
        if accepted:
            _params(reference(), validate_config(raw).parameters[table])
        else:
            with pytest.raises(ConfigError) as err:
                validate_config(raw)
            assert err.value.errors[0].startswith(f"parameters.{table}.{key}: must be ")
            with pytest.raises(ValidationError, match="must be (positive|non-negative)"):
                _params(reference(), {key: value})


_EXTREMES = (0.0, *(s * v for v in (5e-324, 1e-300, 1e-12, 1e12, 1e300, 1.7e308) for s in (1, -1)))


def _one_key_changes(parameters: dict, kind: str):
    """Each (key, value, parameters) that sets one number key of ``kind``, or
    one key of an override table, to a value of :data:`_EXTREMES`."""
    for key, spec in PARAMETER_SCHEMAS[kind].items():
        for value in _EXTREMES:
            if spec.kind == "number":
                yield key, value, {**parameters, key: value}
            elif spec.kind == "table":
                for sub in spec.table:
                    table = {**parameters.get(key, {}), sub: value}
                    yield f"{key}.{sub}", value, {**parameters, key: table}


def _finite_numbers(tree) -> bool:
    """Whether every float in a summary's nested dicts and lists is finite."""
    if isinstance(tree, dict):
        return all(_finite_numbers(value) for value in tree.values())
    if isinstance(tree, list):
        return all(_finite_numbers(value) for value in tree)
    return not isinstance(tree, float) or math.isfinite(tree)


class TestOneKeyChanged:
    """A shipped preset with one number changed to an extreme value either
    runs, with finite headline numbers, or fails the run typed: exit 2 with
    a summary.json, never an escaping exception or a leaked warning."""

    @pytest.mark.parametrize("preset", [
        name for name, config in sorted(SCENARIO_PRESETS.items())
        if any(_one_key_changes(config["parameters"], config["kind"]))
    ])
    def test_runs_or_fails_typed(self, preset, tmp_path):
        config = SCENARIO_PRESETS[preset]
        base = config["parameters"]
        if config["kind"] == "qi_roc":  # the same code paths at a fraction of the samples
            base = {**base, "samples_per_decision": 20, "n_decisions": 20, "rho_samples": 1000}
        failures = []
        for i, (key, value, parameters) in enumerate(_one_key_changes(base, config["kind"])):
            try:
                cfg = validate_config({**config, "parameters": parameters})
            except ConfigError:
                continue
            outdir = tmp_path / str(i)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code, summary = run_scenario(dataclasses.replace(cfg, output_dir=str(outdir)))
                except Exception as exc:
                    failures.append((key, value, f"{type(exc).__name__}: {exc}"))
                    continue
            if caught:
                failures.append((key, value, [str(w.message) for w in caught]))
            elif code not in (0, 2) or not (outdir / "summary.json").exists():
                failures.append((key, value, code))
            elif code == 0 and not _finite_numbers(summary["summary"]):
                failures.append((key, value, summary["summary"]))
        assert failures == [], "\n".join(map(str, failures))

    # At omega_m = 1e12 rad/s a steady state of the grid sits below the
    # vacuum bound by more than 1e-9 but less than 1e-6.  The one physical
    # rule rejects it where the grid is solved and names its grid value;
    # before, a 1e-6 gate let it through, and the second check, of the pairs,
    # named only its place among the stable points ("stack member 1").  The
    # message quotes the miss 1/2 - nu_min, which "5.000e-01 < 1/2" hid.
    @pytest.mark.parametrize("preset, point, miss", [
        ("eom_fig2b_wavelength", "grid point 1 (9e-07)", "4.177e-08"),
        ("eom_fig2d_gamma_m", "grid point 2 (314.1592653589793)", "1.589e-09"),
    ])
    def test_unphysical_point_names_its_grid_value(self, preset, point, miss, tmp_path):
        config = SCENARIO_PRESETS[preset]
        parameters = {**config["parameters"], "eom": {"omega_m_rad_s": 1e12}}
        cfg = validate_config({**config, "parameters": parameters, "output_dir": str(tmp_path)})
        code, summary = run_scenario(cfg)
        assert (code, summary["reason"]) == (
            2,
            f"PhysicalityError: {point}: state invariant violated: cov + (i/2)Omega not PSD "
            f"(min symplectic eigenvalue {miss} below 1/2)",
        )


class TestArtifacts:
    def test_eom_sweep_csv_shape(self, tmp_path):
        cfg = validate_config({
            "kind": "eom_sweep",
            "output_dir": str(tmp_path),
            "parameters": {
                "axis": "temperature_k",
                "grid": [0.01, 0.05, 0.1, 0.15, 0.2],
            },
        })
        code, summary = run_scenario(cfg)
        assert code == 0
        rows = read_csv(tmp_path / "eom_sweep.csv")
        assert rows.shape == (5,)
        assert rows.dtype.names == (
            "temperature_k", "lambda_sph_oc_mc", "lambda_sph_oc_mr",
            "lambda_sph_mr_mc", "stable",
        )
        assert summary["summary"]["n_stable"] == 5

    def test_qi_roc_auc_matches_summary(self, tmp_path):
        cfg = validate_config({
            "kind": "qi_roc",
            "seed": 5,
            "output_dir": str(tmp_path),
            "parameters": {"n_decisions": 400, "samples_per_decision": 200},
        })
        code, summary = run_scenario(cfg)
        assert code == 0
        rows = read_csv(tmp_path / "roc_qi.csv")
        order = np.lexsort((rows["pd"], rows["pfa"]))
        auc = float(np.trapezoid(rows["pd"][order], rows["pfa"][order]))
        assert abs(auc - summary["summary"]["auc_qi"]) <= 1e-12

    def test_qi_roc_seed_beyond_float_range_runs(self, tmp_path):
        # Any int >= 0 seeds the generator, one beyond float range too.
        cfg = validate_config({
            "kind": "qi_roc",
            "seed": 10**400,
            "output_dir": str(tmp_path),
            "parameters": {"n_decisions": 20, "samples_per_decision": 16, "rho_samples": 1000},
        })
        assert run_scenario(cfg)[0] == 0

    # Any JSON integer up to float range is a samples_per_decision.  The
    # receiver merges squares of one weight into one draw only while that
    # draw stays in float range, so each run ends as one draw per eigenvalue
    # ends it: the energy detector's preset statistic overflows, noiseless
    # channels' does not.
    @pytest.mark.parametrize("parameters, status", [
        ({"samples_per_decision": 10**308}, "ok"),
        ({"samples_per_decision": 10**308, "detector": "energy_detector"}, "failed"),
        ({"samples_per_decision": int(1.7e308), "detector": "energy_detector",
          "n_background": 0.0, "transmissivity": 1.0, "heterodyne": False}, "ok"),
    ], ids=["covariance", "energy", "energy-noiseless"])
    def test_qi_roc_samples_per_decision_near_float_range(self, parameters, status, tmp_path):
        raw = {
            **SCENARIO_PRESETS["qi_roc_low_signal"],
            "output_dir": str(tmp_path),
            "parameters": {
                **SCENARIO_PRESETS["qi_roc_low_signal"]["parameters"],
                "n_decisions": 20, "rho_samples": 1000, **parameters,
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == (0 if status == "ok" else 2)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == status
        if status == "failed":
            assert summary["reason"] == "UndefinedQuantityError: the decision statistic is beyond float range"

    def test_qi_roc_preset_csvs_pinned(self, tmp_path):
        raw = {**SCENARIO_PRESETS["qi_roc_low_signal"], "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())["summary"]

        cfg = validate_config(raw)
        p = cfg.parameters
        signal, background = receiver.low_signal_channels(p["n_background"], p["transmissivity"])
        scenario = receiver.QiScenario(
            r=math.asinh(math.sqrt(p["mean_signal_photons"])),
            signal_channel=signal,
            background_channel=background,
            samples_per_decision=p["samples_per_decision"],
            n_decisions=p["n_decisions"],
            seed=cfg.seed,
            detector=p["detector"],
            heterodyne=p["heterodyne"],
        )
        for name, run in (("qi", receiver.run_detection), ("ci", receiver.ci_baseline)):
            rows = read_csv(tmp_path / f"roc_{name}.csv")
            t, pfa, pd = rows["threshold"], rows["pfa"], rows["pd"]
            assert tuple(rows[0]) == (-np.inf, 1.0, 1.0)
            assert tuple(rows[-1]) == (np.inf, 0.0, 0.0)
            assert (np.diff(t) > 0).all()
            assert (np.diff(pfa) <= 0).all() and (np.diff(pd) <= 0).all()
            order = np.lexsort((pd, pfa))
            auc = float(np.trapezoid(pd[order], pfa[order]))
            assert abs(auc - summary[f"auc_{name}"]) <= 1e-12
            # The .16e text round-trips to the exact in-process curve.
            stats = run(scenario)
            curve = receiver.roc_curve(stats.h0, stats.h1)
            assert np.array_equal(t, curve.thresholds)
            assert np.array_equal(pfa, curve.pfa)
            assert np.array_equal(pd, curve.pd)

    def test_run_twice_byte_identical(self, tmp_path):
        base = SCENARIO_PRESETS["channel_neff_line"]
        outputs = []
        for sub in ("a", "b"):
            cfg = validate_config({**base, "output_dir": str(tmp_path / sub)})
            assert run_scenario(cfg)[0] == 0
            outputs.append({
                p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())
            })
        names_a, names_b = set(outputs[0]), set(outputs[1])
        assert names_a == names_b
        for name in names_a:
            if name == "summary.json":
                # The config echo embeds output_dir; compare the rest.
                a = json.loads(outputs[0][name])
                b = json.loads(outputs[1][name])
                a["inputs"].pop("output_dir"), b["inputs"].pop("output_dir")
                a.pop("config_sha256"), b.pop("config_sha256")
                assert a == b
            else:
                assert outputs[0][name] == outputs[1][name]

    def test_parallelism_is_an_unknown_key(self, tmp_path, monkeypatch):
        # Retired: no run read it, so a config that sets it fails validation
        # as any unknown key does.
        config = {**SCENARIO_PRESETS["eom_fig2d_gamma_m"], "parallelism": 8}
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.errors == ["parallelism: unknown key"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(path)]) == 1

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "env_out"))
        cfg = validate_config(SCENARIO_PRESETS["jpa_gain"])
        assert run_scenario(cfg)[0] == 0
        assert (tmp_path / "env_out" / "jpa_gain_vs_omega.csv").exists()

    def test_summary_has_versioned_format(self, tmp_path):
        cfg = validate_config({**SCENARIO_PRESETS["jpa_gain"], "output_dir": str(tmp_path)})
        run_scenario(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["format_version"] == 1
        assert len(summary["config_sha256"]) == 64
        assert summary["status"] == "ok"
