"""Strict scenario-configuration parsing.

One canonical format: a JSON object with ``kind``, ``seed``, ``parallelism``,
optional ``output_dir``, and a kind-specific ``parameters`` table.  Physical
quantities carry explicit unit suffixes in their key names.  Parsing is
strict: unknown keys are rejected (with a nearest-key suggestion) and every
validation error is collected, not just the first, one per key.  One walker
checks every table, the top level included, against its schema; the
``parameters`` table is checked against its kind's schema once ``kind`` is
valid.  Numbers and grid values must be finite, and grids ascending.
``parallelism`` is validated and recorded in the normalized inputs (and so in
the config hash) but changes nothing: every scenario runs serially.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError

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
    choices: tuple | None = None
    table: dict | None = None      # nested schema for kind == "table"; None: unchecked


def _num(required=False, default=None, minimum=None, maximum=None, exclusive_minimum=None):
    return FieldSpec("number", required, default, minimum, maximum, exclusive_minimum)


def _grid():
    return FieldSpec("grid", required=True)


# Converter overrides: each key is an EomParams/OeParams field plus its unit
# suffix, and qradar.cli derives the field by dropping the suffix.
_EOM_OVERRIDES = {
    "omega_c_rad_s": _num(exclusive_minimum=0.0),
    "omega_m_rad_s": _num(exclusive_minimum=0.0),
    "omega_w_rad_s": _num(exclusive_minimum=0.0),
    "kappa_c_rad_s": _num(minimum=0.0),
    "gamma_m_rad_s": _num(minimum=0.0),
    "kappa_w_rad_s": _num(minimum=0.0),
    "delta_c_rad_s": _num(),
    "delta_w_rad_s": _num(),
    "g1_rad_s": _num(minimum=0.0),
    "g2_dimensionless": _num(minimum=0.0),
    "e_c_rad_s": _num(minimum=0.0),
    "e_w_rad_s": _num(minimum=0.0),
    "temperature_k": _num(minimum=0.0),
}

_OE_OVERRIDES = {
    "delta_c_rad_s": _num(),
    "delta_w_rad_s": _num(),
    "delta_eg_rad_s": _num(),
    "kappa_c_rad_s": _num(minimum=0.0),
    "kappa_w_rad_s": _num(minimum=0.0),
    "gamma_p_rad_s": _num(minimum=0.0),
    "g_op_rad_s": _num(minimum=0.0),
    "g_wp_rad_s": _num(minimum=0.0),
    "mu_c_dimensionless": _num(minimum=0.0),
    "temperature_k": _num(minimum=0.0),
    "e_c_rad_s": _num(minimum=0.0),
    "e_w_rad_s": _num(minimum=0.0),
    "omega_c_rad_s": _num(exclusive_minimum=0.0),
    "omega_w_rad_s": _num(exclusive_minimum=0.0),
    "omega_eg_rad_s": _num(exclusive_minimum=0.0),
}

PARAMETER_SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "eom_sweep": {
        "axis": FieldSpec(
            "string",
            required=True,
            choices=("temperature_k", "wavelength_m", "gamma_m_rad_s"),
        ),
        "grid": _grid(),
        "eom": FieldSpec("table", table=_EOM_OVERRIDES),
    },
    "oe_sweep": {
        "delta_eg_grid_rad_s": _grid(),
        "oe": FieldSpec("table", table=_OE_OVERRIDES),
    },
    "oe_end_to_end": {
        "temperature_grid_k": _grid(),
        "kappa_atm_per_m": _num(default=2e-6, minimum=0.0),
        "distance_m": _num(default=20.0, minimum=0.0),
        "kappa_t_per_m": _num(default=18.2, minimum=0.0),
        "target_thickness_m": _num(default=0.01, exclusive_minimum=0.0),
        "n_env": _num(default=0.0, minimum=0.0),
        "n_t": _num(default=0.05, minimum=0.0),
        "oe": FieldSpec("table", table=_OE_OVERRIDES),
    },
    "jpa_gain": {
        "e_j_rad_s": _num(default=3.141592653589793e11, exclusive_minimum=0.0),  # 2 pi x 50 GHz
        "capacitance_f": _num(default=1e-12, exclusive_minimum=0.0),
        "kappa_rad_s": _num(default=2.0e7, exclusive_minimum=0.0),
        "epsilon_rad_s": _num(default=1.8e6, minimum=0.0),
        "omega_p_rad_s": _num(exclusive_minimum=0.0),
        "omega_grid_rad_s": _grid(),
        "pump_fraction_grid": _grid(),
    },
    "jpa_wigner": {
        "g_values": _grid(),
        "grid_points_per_axis": FieldSpec("integer", default=101, minimum=11),
        "grid_half_width": _num(exclusive_minimum=0.0),
    },
    "channel_neff": {
        "n_in": _num(required=True, minimum=0.0),
        "n_out": _num(required=True, minimum=0.0),
        "mu_in_per_m": _num(required=True, minimum=0.0),
        "mu_out_per_m": _num(required=True, minimum=0.0),
        "length_m": _num(required=True, exclusive_minimum=0.0),
        "l0_grid_m": _grid(),
        "quadrature_points": FieldSpec("integer", default=64, minimum=1),
    },
    "qi_roc": {
        "mean_signal_photons": _num(default=0.01, exclusive_minimum=0.0),
        "n_background": _num(default=10.0, minimum=0.0),
        "transmissivity": _num(default=0.2, exclusive_minimum=0.0, maximum=1.0),
        "samples_per_decision": FieldSpec("integer", default=2000, minimum=1),
        "n_decisions": FieldSpec("integer", default=2000, minimum=1),
        "detector": FieldSpec("string", default="covariance_detector", choices=("covariance_detector", "energy_detector")),
        "heterodyne": FieldSpec("boolean", default=True),
        "rho_samples": FieldSpec("integer", default=100_000, minimum=1000),
    },
}

KINDS = tuple(PARAMETER_SCHEMAS)

_TOP_LEVEL = {
    "kind": FieldSpec("string", required=True, choices=KINDS),
    "seed": FieldSpec("integer", default=0, minimum=0),
    "parallelism": FieldSpec("integer", default=1, minimum=1),
    "output_dir": FieldSpec("string"),
    "parameters": FieldSpec("table"),  # replaced by the kind's schema in validate_config
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: kind, seed, parallelism, output dir, parameters."""

    kind: str
    seed: int
    parallelism: int
    output_dir: str | None
    parameters: dict = field(default_factory=dict)

    def normalized(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "parallelism": self.parallelism,
            "parameters": self.parameters,
        }
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _finite(value) -> float | None:
    """A JSON number as a finite float; None for inf, NaN or an integer beyond
    float range (on which ``math.isfinite`` raises OverflowError)."""
    try:
        return float(value) if math.isfinite(value) else None
    except OverflowError:
        return None


def _check_value(path: str, spec: FieldSpec, value, errors: list):
    if spec.kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected a number, got {type(value).__name__}")
            return None
        value = _finite(value)
        if value is None:
            errors.append(f"{path}: must be finite")
            return None
        if spec.minimum is not None and value < spec.minimum:
            errors.append(f"{path}: must be >= {spec.minimum}, got {value}")
        if spec.exclusive_minimum is not None and value <= spec.exclusive_minimum:
            errors.append(f"{path}: must be > {spec.exclusive_minimum}, got {value}")
        if spec.maximum is not None and value > spec.maximum:
            errors.append(f"{path}: must be <= {spec.maximum}, got {value}")
        return value
    if spec.kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{path}: expected an integer, got {type(value).__name__}")
            return None
        if spec.minimum is not None and value < spec.minimum:
            errors.append(f"{path}: must be >= {int(spec.minimum)}, got {value}")
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
        return out
    raise AssertionError(f"unhandled spec kind {spec.kind}")


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
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        kind=top["kind"],
        seed=top["seed"],
        parallelism=top["parallelism"],
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
