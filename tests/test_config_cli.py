"""Configuration parsing, CLI subcommands, artifact schemas, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qradar
from qradar import oe, receiver
from qradar.cli import _params, main, run_scenario
from qradar.config import PARAMETER_SCHEMAS, parse_config, validate_config
from qradar.errors import ConfigError
from qradar.langevin import LinearLangevinModel
from qradar.presets import SCENARIO_PRESETS, eom_reference, oe_reference


def read_csv(path: Path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestParsing:
    def test_minimal_qi_roc_defaults_filled(self):
        cfg = parse_config(json.dumps({"kind": "qi_roc", "parameters": {}}))
        assert cfg.seed == 0
        assert cfg.parallelism == 1
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


class TestCliCommands:
    def test_import_leaves_optimize_and_integrate_unloaded(self):
        # Only thresholds, n_eff_general and propagate_cov use them, and each
        # imports its module on first use.
        code = (
            "import sys, qradar.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])"
        )
        src = str(Path(qradar.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[]"

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


class TestOeEndToEndFailures:
    """Only the converter failures mark a point unstable; others abort the run."""

    GRID = [0.01, 0.05, 0.1]

    def _failing_at(self, monkeypatch, temperature, broken):
        """The converter model at ``temperature`` is replaced by ``broken(model)``."""
        real = oe.build_model

        def fake(params):
            model = real(params)
            return broken(model) if params.temperature == temperature else model

        monkeypatch.setattr(oe, "build_model", fake)

    def _config(self, tmp_path):
        parameters = {**SCENARIO_PRESETS["fig10"]["parameters"], "temperature_grid_k": self.GRID}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "oe_end_to_end", "parameters": parameters}))
        return path

    def test_no_steady_state_marks_row_unstable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        # The reversed drift has every eigenvalue in the right half-plane.
        self._failing_at(
            monkeypatch, 0.05, lambda m: LinearLangevinModel(-m.drift, m.diffusion, m.mode_labels)
        )
        assert main(["run", str(self._config(tmp_path))]) == 0
        rows = read_csv(tmp_path / "out" / "oe_end_to_end.csv")
        assert rows["stable"].tolist() == [1, 0, 1]
        assert np.isnan(rows["two_eta_direct"][1]) and np.isnan(rows["two_eta_backscatter"][1])
        assert np.isfinite(rows["two_eta_backscatter"][[0, 2]]).all()

    def test_physicality_error_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        # Without noise the steady state is V = 0, which is not positive definite.
        self._failing_at(
            monkeypatch,
            0.05,
            lambda m: LinearLangevinModel(m.drift, 0 * m.diffusion, m.mode_labels),
        )
        assert main(["run", str(self._config(tmp_path))]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert summary["reason"] == (
            "PhysicalityError: grid point 1 (0.05): "
            "state invariant violated: cov is not positive definite"
        )

    def test_one_converter_solve_per_point(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRADAR_OUTPUT_DIR", str(tmp_path / "out"))
        monkeypatch.setattr(oe, "threshold_temperature", lambda *args, **kwargs: None)
        calls = []
        real = oe.build_model

        def counting(params):
            calls.append(params.temperature)
            return real(params)

        monkeypatch.setattr(oe, "build_model", counting)
        assert main(["run", str(self._config(tmp_path))]) == 0
        assert calls == self.GRID


class TestConverterOverrides:
    """Every converter override key reaches the params field it names."""

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
            seen.add(changed[0])
        assert len(seen) == len(keys)
        assert set(fields) - seen == unset


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
