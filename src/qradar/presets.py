"""Reference parameter sets and named channel presets.

The converter figures in the source material come without complete parameter
tables, so the sets here are RECONSTRUCTED: chosen to reproduce the
qualitative behaviour (entangled at millikelvin temperatures, finite
separability threshold, detuning resonance, threshold ordering between the
two converters) rather than claimed as extracted values.  The channel
numbers kappa_atm = 2e-6 /m, kappa_t = 18.2 /m and the 20 m one-way distance
are the published ones and are used verbatim.
"""

from __future__ import annotations

import math

from .channels import (
    GaussianChannel,
    amplifier_channel,
    attenuation_channel,
    target_channel,
)
from .eom import EomParams
from .errors import ValidationError
from .langevin import C_LIGHT
from .oe import OeParams, gwp_from_mu_c
from .receiver import QiScenario, low_signal_channels

__all__ = [
    "eom_reference",
    "oe_reference",
    "channel_preset",
    "qi_low_signal_scenario",
    "SCENARIO_PRESETS",
    "CHANNEL_PRESET_NAMES",
    "FIG10_KAPPA_ATM",
    "FIG10_KAPPA_T",
    "FIG10_DISTANCE",
    "FIG10_TARGET_THICKNESS",
    "FIG10_TARGET_OCCUPATION",
]

_OMEGA_M = 2.0 * math.pi * 1e6

# Published channel constants (one-way distance, absorption, target).
FIG10_KAPPA_ATM = 2e-6        # 1/m
FIG10_KAPPA_T = 18.2          # 1/m
FIG10_DISTANCE = 20.0         # m
FIG10_TARGET_THICKNESS = 0.01  # m, reconstructed effective skin thickness
FIG10_TARGET_OCCUPATION = 0.05  # reconstructed ambient thermal photons at the target


def eom_reference() -> EomParams:
    """Reconstructed electro-opto-mechanical reference point.

    Red-detuned optical cavity, blue-detuned microwave cavity, mechanical
    mode at 2 pi x 1 MHz.  All three mode pairs are entangled at 30 mK and
    the OC-MC pair loses entanglement near 0.14 K.
    """
    wm = _OMEGA_M
    kappa_w = 2.0 * math.pi * 1.5e5
    g2 = 1e-5
    # Drive sized so |C_s| yields G_m = sqrt(2) g2 |delta_w| |C_s| ~ 0.3 wm
    # (the 1.045 factor pre-compensates the operating-point detuning shift).
    c_s_target = 0.3 * wm / (math.sqrt(2.0) * g2 * wm)
    e_w = c_s_target * math.hypot(1.045 * wm, kappa_w)
    return EomParams(
        omega_c=2.0 * math.pi * C_LIGHT / 1064e-9,
        omega_m=wm,
        omega_w=2.0 * math.pi * 10e9,
        kappa_c=2.0 * math.pi * 2e5,
        gamma_m=2.0 * math.pi * 30.0,
        kappa_w=kappa_w,
        delta_c=wm,
        delta_w=-wm,
        g1=0.8 * wm / math.sqrt(2.0),
        g2=g2,
        e_c=1e8,
        e_w=e_w,
        temperature=0.03,
    )


def oe_reference() -> OeParams:
    """Reconstructed opto-electronic reference point, at mu_c = 2e-4.

    The photodetector mediates at an optical transition frequency, so its
    bath is empty at kelvin temperatures; the microwave bath sets the
    separability threshold (~0.22 K here, above the EOM reference and rising
    with mu_c over the reference range).  Another mu_c is
    ``dataclasses.replace(oe_reference(), g_wp=gwp_from_mu_c(mu_c))``: the
    drives stay sized at the reference, as in the source.
    """
    om0 = _OMEGA_M
    kappa_c = 2.0 * math.pi * 2e5
    kappa_w = 2.0 * math.pi * 1.5e5
    g_wp = gwp_from_mu_c(2e-4)
    g_op = 100.0
    # Drives sized for effective couplings sqrt(2) g_op |A_s| = 0.3 om0 and
    # sqrt(2) g_wp |C_s| = 0.08 om0.
    a_s_target = 0.3 * om0 / (math.sqrt(2.0) * g_op)
    c_s_target = 0.08 * om0 / (math.sqrt(2.0) * g_wp)
    return OeParams(
        delta_c=om0,
        delta_w=-om0,
        delta_eg=0.9 * om0,
        kappa_c=kappa_c,
        kappa_w=kappa_w,
        gamma_p=2.0 * math.pi * 1e4,
        g_op=g_op,
        g_wp=g_wp,
        temperature=0.03,
        e_c=a_s_target * math.hypot(om0, kappa_c),
        e_w=c_s_target * math.hypot(om0, kappa_w),
    )


def channel_preset(name: str) -> GaussianChannel:
    """Named single-mode channels for library callers (no scenario key selects one)."""
    if name == "fig10_atmosphere":
        return attenuation_channel(FIG10_KAPPA_ATM, FIG10_DISTANCE, 0.0)
    if name == "fig10_target":
        return target_channel(FIG10_KAPPA_T, FIG10_TARGET_THICKNESS, FIG10_TARGET_OCCUPATION)
    if name == "quantum_limited_amp":
        return amplifier_channel(10.0, 0.0)
    raise ValidationError(
        f"unknown channel preset {name!r}; available: {sorted(CHANNEL_PRESET_NAMES)}"
    )


CHANNEL_PRESET_NAMES = ("fig10_atmosphere", "fig10_target", "quantum_limited_amp")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num)]


# Runnable scenario configs for the CLI (see qradar.config for the schema);
# a key left out takes its schema default (seed 0).
SCENARIO_PRESETS: dict[str, dict] = {
    "eom_fig2a_temperature": {
        "kind": "eom_sweep",
        "parameters": {"axis": "temperature_k", "grid": _linspace(0.001, 0.351, 15)},
    },
    "eom_fig2b_wavelength": {
        "kind": "eom_sweep",
        "parameters": {"axis": "wavelength_m", "grid": _linspace(8.0e-7, 1.6e-6, 9)},
    },
    "eom_fig2d_gamma_m": {
        "kind": "eom_sweep",
        "parameters": {
            "axis": "gamma_m_rad_s",
            "grid": [2.0 * math.pi * g for g in (5.0, 15.0, 50.0, 150.0, 500.0, 1500.0)],
        },
    },
    "oe_fig12_detuning": {
        "kind": "oe_sweep",
        "parameters": {"delta_eg_grid_rad_s": _linspace(-3.0e7, 3.0e7, 25)},
    },
    "fig10": {
        "kind": "oe_end_to_end",
        "parameters": {
            "temperature_grid_k": _linspace(0.01, 0.33, 9),
            "kappa_atm_per_m": FIG10_KAPPA_ATM,
            "distance_m": FIG10_DISTANCE,
            "kappa_t_per_m": FIG10_KAPPA_T,
            "target_thickness_m": FIG10_TARGET_THICKNESS,
            "n_env": 0.0,
            "n_t": FIG10_TARGET_OCCUPATION,
        },
    },
    "jpa_gain": {
        "kind": "jpa_gain",
        "parameters": {
            "omega_grid_rad_s": _linspace(-6.0e7, 6.0e7, 41),
            "pump_fraction_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.98],
        },
    },
    "jpa_wigner_fig13": {
        "kind": "jpa_wigner",
        "parameters": {"g_values": [0.3, 0.4, 0.45], "grid_points_per_axis": 101},
    },
    "channel_neff_line": {
        "kind": "channel_neff",
        "parameters": {
            "n_in": 0.05,
            "n_out": 624.0,
            "mu_in_per_m": 0.5,
            "mu_out_per_m": 2.0,
            "length_m": 1.0,
            "l0_grid_m": _linspace(0.0, 1.0, 11),
        },
    },
    "qi_roc_low_signal": {
        "kind": "qi_roc",
        "seed": 20260809,
        "parameters": {
            "mean_signal_photons": 0.01,
            "n_background": 10.0,
            "transmissivity": 0.2,
            "samples_per_decision": 2000,
            "n_decisions": 2000,
        },
    },
}


def qi_low_signal_scenario(
    n_decisions: int = 10_000,
    samples_per_decision: int = 2000,
    seed: int = 20260809,
) -> QiScenario:
    """Low-signal/high-noise quantum-illumination preset.

    Mean signal photon number sinh^2 r = 0.01, background occupation
    n_B = 10, return transmissivity 0.2.
    """
    signal, background = low_signal_channels(n_background=10.0, transmissivity=0.2)
    return QiScenario(
        r=math.asinh(0.1),
        signal_channel=signal,
        background_channel=background,
        samples_per_decision=samples_per_decision,
        n_decisions=n_decisions,
        seed=seed,
    )
