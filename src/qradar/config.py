"""Strict scenario-configuration parsing.

One canonical format: a JSON object with ``kind``, ``seed``, optional
``output_dir``, and a kind-specific ``parameters`` table.  Physical
quantities carry explicit unit suffixes in their key names.  Parsing is
strict: unknown keys are rejected (with a nearest-key suggestion) and every
validation error is collected, not just the first, one per key.  One walker
checks every table, the top level included, against its schema; the
``parameters`` table is checked against its kind's schema once ``kind`` is
valid.  Numbers and grid values must be finite, and grids ascending; a
grid's values meet the rule of the model they feed (an ``eom_sweep`` grid,
that of its axis's field; ``l0_grid_m``, ``ThermalProfile.l0``'s and <=
``length_m``; ``g_values`` [0, 0.5) and ``pump_fraction_grid`` (-1, 1), below
threshold), no two ``g_values`` name the same artifact, and each count that
sizes a run's arrays is capped so that the run fits in about 1 GiB.  Field
rules come from the records' declarations (qradar.errors._param); this module
also maps each override key to the field it sets and each ``eom_sweep`` axis
key to the axis it sweeps, which qradar.cli applies.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field, fields
from typing import Any

from .channels import _MAX_QUADRATURE_POINTS, ThermalProfile
from .eom import EomParams, _axis_field
from .errors import ConfigError, _finite, _rules
from .oe import OeParams
from .receiver import DETECTORS

__all__ = ["ScenarioConfig", "FieldSpec", "KINDS", "parse_config", "validate_config"]

@dataclass(frozen=True)
class FieldSpec:
    """Schema entry for one configuration key."""

    kind: str                      # number | integer | string | boolean | grid | table
    required: bool = False
    default: Any = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: float | None = None
    exclusive_maximum: float | None = None
    choices: tuple | None = None
    table: dict | None = None      # nested schema for kind == "table"; None: unchecked


def _num(required=False, default=None, **bounds):
    return FieldSpec("number", required, default, **bounds)


def _grid(**bounds):
    return FieldSpec("grid", required=True, **bounds)


def _rule(cls, name: str) -> dict:
    """The bounds of the sign rule declared on a record field (qradar.errors._param)."""
    sign = dict(_rules(cls))[name]
    return {"positive": {"exclusive_minimum": 0.0}, "non-negative": {"minimum": 0.0}}.get(sign, {})


# Each converter's override keys, mapped to the params fields they set: one
# key per field with a unit, the field's name plus its unit suffix.
OVERRIDE_FIELDS = {
    cls: {f"{f.name}_{f.metadata['unit']}": f.name for f in fields(cls) if f.metadata.get("unit")}
    for cls in (EomParams, OeParams)
}
# Each converter's override table: its keys, bounded by their fields' sign rules.
_OVERRIDES = {
    cls: {key: _num(**_rule(cls, name)) for key, name in keys.items()}
    for cls, keys in OVERRIDE_FIELDS.items()
}

# The largest counts that size a run's arrays, each keeping the run's peak
# RSS under 1 GiB (measured on a 2-vCPU x86-64 Linux VM, numpy 2.x):
# - grid_points_per_axis n gives each Wigner field n^2 CSV rows, 18 MB per
#   float column and 158 MB of CSV text at 1500; 734 MiB peak with 3 fields.
# - n_decisions n gives (n, 4) draws per hypothesis and two ROC CSVs of
#   2n + 2 rows, 16 MB and about 70 MB each at 500 000; 548 MiB peak.
# - rho_samples n gives (n, 4) normal draws and records, 160 MB each at
#   5 000 000; 498 MiB peak, 633 MiB with n_decisions at its cap too.
_MAX_GRID_POINTS_PER_AXIS = 1500
_MAX_DECISIONS = 500_000
_MAX_RHO_SAMPLES = 5_000_000

# Each eom_sweep axis key: the eom.sweep axis it names.
EOM_AXES = {"temperature_k": "temperature", "wavelength_m": "wavelength", "gamma_m_rad_s": "gamma_m"}

PARAMETER_SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "eom_sweep": {
        "axis": FieldSpec("string", required=True, choices=tuple(EOM_AXES)),
        "grid": _grid(),  # checked against its axis's rule in validate_config
        "eom": FieldSpec("table", table=_OVERRIDES[EomParams]),
    },
    "oe_sweep": {
        "delta_eg_grid_rad_s": _grid(),
        "oe": FieldSpec("table", table=_OVERRIDES[OeParams]),
    },
    "oe_end_to_end": {
        "temperature_grid_k": _grid(**_rule(OeParams, "temperature")),
        "kappa_atm_per_m": _num(default=2e-6, minimum=0.0),
        "distance_m": _num(default=20.0, minimum=0.0),
        "kappa_t_per_m": _num(default=18.2, minimum=0.0),
        "target_thickness_m": _num(default=0.01, exclusive_minimum=0.0),
        "n_env": _num(default=0.0, minimum=0.0),
        "n_t": _num(default=0.05, minimum=0.0),
        "oe": FieldSpec("table", table=_OVERRIDES[OeParams]),
    },
    "jpa_gain": {
        "e_j_rad_s": _num(default=3.141592653589793e11, exclusive_minimum=0.0),  # 2 pi x 50 GHz
        "capacitance_f": _num(default=1e-12, exclusive_minimum=0.0),
        "kappa_rad_s": _num(default=2.0e7, exclusive_minimum=0.0),
        "epsilon_rad_s": _num(default=1.8e6, minimum=0.0),
        "omega_p_rad_s": _num(exclusive_minimum=0.0),
        "omega_grid_rad_s": _grid(),
        # |lambda1| = f kappa/2 must stay below threshold kappa/2.
        "pump_fraction_grid": _grid(exclusive_minimum=-1.0, exclusive_maximum=1.0),
    },
    "jpa_wigner": {
        "g_values": _grid(minimum=0.0, exclusive_maximum=0.5),  # jpa.intracavity_cov's domain
        "grid_points_per_axis": FieldSpec("integer", default=101, minimum=11, maximum=_MAX_GRID_POINTS_PER_AXIS),
    },
    "channel_neff": {
        "n_in": _num(required=True, **_rule(ThermalProfile, "n_in")),
        "n_out": _num(required=True, **_rule(ThermalProfile, "n_out")),
        "mu_in_per_m": _num(required=True, **_rule(ThermalProfile, "mu_in")),
        "mu_out_per_m": _num(required=True, **_rule(ThermalProfile, "mu_out")),
        "length_m": _num(required=True, **_rule(ThermalProfile, "length")),
        "l0_grid_m": _grid(),  # checked against l0's rule and length_m in validate_config
        "quadrature_points": FieldSpec("integer", default=64, minimum=1, maximum=_MAX_QUADRATURE_POINTS),
    },
    "qi_roc": {
        "mean_signal_photons": _num(default=0.01, exclusive_minimum=0.0),
        "n_background": _num(default=10.0, minimum=0.0),
        "transmissivity": _num(default=0.2, exclusive_minimum=0.0, maximum=1.0),
        "samples_per_decision": FieldSpec("integer", default=2000, minimum=1),
        "n_decisions": FieldSpec("integer", default=2000, minimum=1, maximum=_MAX_DECISIONS),
        "detector": FieldSpec("string", default="covariance_detector", choices=DETECTORS),
        "heterodyne": FieldSpec("boolean", default=True),
        "rho_samples": FieldSpec("integer", default=100_000, minimum=1000, maximum=_MAX_RHO_SAMPLES),
    },
}

KINDS = tuple(PARAMETER_SCHEMAS)

_TOP_LEVEL = {
    "kind": FieldSpec("string", required=True, choices=KINDS),
    "seed": FieldSpec("integer", default=0, minimum=0),
    "output_dir": FieldSpec("string"),
    "parameters": FieldSpec("table"),  # replaced by the kind's schema in validate_config
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: kind, seed, output dir, parameters."""

    kind: str
    seed: int
    output_dir: str | None
    parameters: dict = field(default_factory=dict)

    def normalized(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "parameters": self.parameters,
        }
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out


def wigner_file(g: float) -> str:
    """The artifact a jpa_wigner run writes for squeezing fraction ``g``."""
    return f"jpa_wigner_g{g:.4f}.csv"


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_value(path: str, spec: FieldSpec, value, errors: list):
    if spec.kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected a number, got {type(value).__name__}")
            return None
        value = _finite(value)
        if value is None:
            errors.append(f"{path}: must be finite")
            return None
        _check_bounds(path, spec, value, errors)
        return value
    if spec.kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{path}: expected an integer, got {type(value).__name__}")
            return None
        _check_bounds(path, spec, value, errors)
        return value
    if spec.kind == "string":
        if not isinstance(value, str):
            errors.append(f"{path}: expected a string, got {type(value).__name__}")
            return None
        if spec.choices and value not in spec.choices:
            errors.append(
                f"{path}: {value!r} is not one of {sorted(spec.choices)}"
                + _suggest(value, spec.choices)
            )
        return value
    if spec.kind == "boolean":
        if not isinstance(value, bool):
            errors.append(f"{path}: expected a boolean, got {type(value).__name__}")
            return None
        return value
    if spec.kind == "grid":
        if not isinstance(value, list) or not value:
            errors.append(f"{path}: expected a non-empty array of numbers")
            return None
        out = []
        for i, v in enumerate(value):
            v = None if isinstance(v, bool) or not isinstance(v, (int, float)) else _finite(v)
            if v is None:
                errors.append(f"{path}[{i}]: expected a finite number")
                return None
            out.append(v)
        if sorted(out) != out:
            errors.append(f"{path}: grid values must be ascending")
        _check_grid_bounds(path, spec, out, errors)
        return out
    raise AssertionError(f"unhandled spec kind {spec.kind}")


def _check_bounds(path: str, spec: FieldSpec, value: float, errors: list) -> None:
    if spec.minimum is not None and value < spec.minimum:
        errors.append(f"{path}: must be >= {spec.minimum}, got {value}")
    if spec.exclusive_minimum is not None and value <= spec.exclusive_minimum:
        errors.append(f"{path}: must be > {spec.exclusive_minimum}, got {value}")
    if spec.maximum is not None and value > spec.maximum:
        errors.append(f"{path}: must be <= {spec.maximum}, got {value}")
    if spec.exclusive_maximum is not None and value >= spec.exclusive_maximum:
        errors.append(f"{path}: must be < {spec.exclusive_maximum}, got {value}")


def _check_grid_bounds(path: str, spec: FieldSpec, grid: list, errors: list) -> None:
    """The errors of the first value of a finite ``grid`` out of ``spec``'s bounds."""
    for i, value in enumerate(grid):
        found = len(errors)
        _check_bounds(f"{path}[{i}]", spec, value, errors)
        if len(errors) > found:
            return


def _check_table(path: str, schema: dict, obj, errors: list) -> dict:
    """Check one table against ``schema`` (``path`` "" is the top level): one
    error per present key that is unknown or invalid, and one per absent
    required key; an absent key with a default gets it."""
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected an object")
        return {}
    prefix = f"{path}." if path else ""
    out = {}
    for key, value in obj.items():
        spec = schema.get(key)
        if spec is None:
            errors.append(f"{prefix}{key}: unknown key" + _suggest(key, schema))
        elif spec.kind != "table":
            checked = _check_value(prefix + key, spec, value, errors)
            if checked is not None:
                out[key] = checked
        elif spec.table is not None:
            out[key] = _check_table(prefix + key, spec.table, value, errors)
    for key, spec in schema.items():
        if key in obj:
            continue
        if spec.required:
            errors.append(f"{prefix}{key}: required key is missing")
        elif spec.default is not None:
            out[key] = spec.default
        elif spec.kind == "table" and spec.table is not None:
            out[key] = {}
    return out


def validate_config(obj) -> ScenarioConfig:
    """Validate a decoded JSON object; raises ConfigError with all problems."""
    if not isinstance(obj, dict):
        raise ConfigError(["top level: expected a JSON object"])
    schema = _TOP_LEVEL
    kind = obj.get("kind")
    if isinstance(kind, str) and kind in PARAMETER_SCHEMAS:
        parameters = FieldSpec("table", required=True, table=PARAMETER_SCHEMAS[kind])
        schema = {**_TOP_LEVEL, "parameters": parameters}
    errors: list[str] = []
    top = _check_table("", schema, obj, errors)
    parameters = top.get("parameters", {})
    if kind == "eom_sweep" and parameters.get("axis") in EOM_AXES and "grid" in parameters:
        name = _axis_field(EOM_AXES[parameters["axis"]])
        _check_grid_bounds("parameters.grid", _num(**_rule(EomParams, name)), parameters["grid"], errors)
    if kind == "channel_neff" and "l0_grid_m" in parameters:
        l0 = FieldSpec("grid", maximum=parameters.get("length_m"), **_rule(ThermalProfile, "l0"))
        _check_grid_bounds("parameters.l0_grid_m", l0, parameters["l0_grid_m"], errors)
    if kind == "jpa_wigner" and "g_values" in parameters:
        names = [wigner_file(g) for g in parameters["g_values"]]
        shared = next((i for i, name in enumerate(names) if name in names[:i]), None)
        if shared is not None:
            errors.append(f"parameters.g_values[{shared}]: writes {names[shared]}, as an earlier value does")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        kind=top["kind"],
        seed=top["seed"],
        output_dir=top.get("output_dir"),
        parameters=top["parameters"],
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate configuration text (JSON)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    return validate_config(obj)
