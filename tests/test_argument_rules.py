"""Every public entry point that takes a physical argument holds it to its
rule: called with any one argument at an extreme value (NaN, +-inf, negative,
zero, subnormal, or up to and beyond float range) and the others at reference
values, it returns all-finite numbers or raises a QradarError, and leaks no
warning."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qradar import channels, gaussian, jpa, langevin, oe, receiver
from qradar.errors import QradarError

EXTREMES = (
    math.nan, math.inf, -math.inf, -1.0, -5e-324, 0.0, 5e-324, 1e-300,
    1.0, 1e12, 1e300, 1.7e308, 10**400,
)

_E_J, _C = 3.141592653589793e11, 1e-12  # the jpa_gain defaults: 2 pi x 50 GHz, 1 pF
_, _OMEGA0, _KERR = jpa.derived_params(_E_J, _C)
_JPA = {"kappa": 2.0e7, "omega_p": _OMEGA0, "epsilon": 1.8e6}


def jpa_gain(e_j, capacitance, kappa, omega_p, epsilon):
    """The signal power gain of a :func:`jpa.build_params` operating point."""
    return jpa.signal_power_gain(jpa.build_params(e_j, capacitance, kappa, omega_p, epsilon))


def undriven_jpa_gain(e_j, capacitance, kappa, omega_p):
    """The same at zero pump drive, where the pump frequency enters only the detuning."""
    return jpa_gain(e_j, capacitance, kappa, omega_p, 0.0)


def constant_line_n_eff(length):
    return channels.n_eff_general(lambda x: 0.5, lambda x: 2.0, length)


def vacuum_sample(n_samples):
    return gaussian.sample(gaussian.vacuum_state(), n_samples, seed=0)


def one_sample_auc(h0, h1):
    """The AUC of one sample per hypothesis: a curve's thresholds hold +-inf by design."""
    return receiver.roc_curve([h0], [h1]).auc


# Each entry point with reference keyword arguments, all of which it accepts.
REFERENCE = [
    (channels.attenuation_channel, {"kappa_atm": 1e-3, "distance": 1e3, "n_env": 1.0}),
    (channels.target_channel, {"kappa_t": 1.0, "dz_t": 0.1, "n_t": 1.0}),
    (channels.amplifier_channel, {"gain_db": 20.0, "added_noise": 0.5}),
    (channels.thermal_background_channel, {"n_occupation": 1.0}),
    (constant_line_n_eff, {"length": 1.0}),
    (vacuum_sample, {"n_samples": 1}),
    (jpa.derived_params, {"e_j": _E_J, "capacitance": _C}),
    (jpa.classical_field, {"omega0": _OMEGA0, "kerr": _KERR, **_JPA}),
    (jpa.build_params, {"e_j": _E_J, "capacitance": _C, **_JPA}),
    (jpa_gain, {"e_j": _E_J, "capacitance": _C, **_JPA}),
    (undriven_jpa_gain, {"e_j": _E_J, "capacitance": _C, "kappa": 2.0e7, "omega_p": _OMEGA0}),
    (receiver.tmsv_cm, {"r": 0.5}),
    (receiver.low_signal_channels, {"n_background": 1.0, "transmissivity": 0.5}),
    (one_sample_auc, {"h0": 0.0, "h1": 1.0}),
    (oe.gwp_from_mu_c, {"mu_c": 2e-4}),
    (langevin.thermal_occupation, {"omega": 3.14e10, "temperature": 0.1}),
]


def _all_finite(result) -> bool:
    if dataclasses.is_dataclass(result):
        return all(_all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return all(map(_all_finite, result))
    return isinstance(result, str) or bool(np.isfinite(result).all())


def _failures(function, reference: dict) -> list:
    """(argument, value, what went wrong) of each call of ``function`` with
    one argument of ``reference`` at one of the ``EXTREMES``."""
    failures = []
    for name in reference:
        for value in EXTREMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = function(**{**reference, name: value})
                except QradarError:
                    continue
                except Exception as exc:  # an untyped error, or a warning raised as one
                    failures.append((name, value, f"{type(exc).__name__}: {exc}"))
                    continue
            if not _all_finite(result):
                failures.append((name, value, result))
    return failures


@pytest.mark.parametrize(
    "function, reference", REFERENCE, ids=[f.__name__ for f, _ in REFERENCE]
)
def test_each_argument_runs_finite_or_fails_typed(function, reference):
    failures = _failures(function, reference)
    assert failures == [], "\n".join(map(str, failures))
