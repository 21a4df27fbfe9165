"""Electro-opto-mechanical converter: optical cavity and microwave cavity
coupled through a mechanical resonator.

The workflow is: solve the DC operating point of the driven system, assemble
the 6x6 linearized drift matrix in (q_x, p_x, X_c, Y_c, X_w, Y_w) order,
solve the steady-state covariance with the thermal diffusion of the three
baths, and evaluate the entanglement criteria on each mode pair.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import constants, optimize

from .criteria import BipartiteBlocks, CriteriaReport, gaussian_discord
from .errors import ConvergenceError, NoSteadyStateError, StiffnessError, ValidationError
from .gaussian import GaussianState
from .langevin import (
    BathSpec,
    LinearLangevinModel,
    diffusion_from_baths,
    is_stable,
    steady_state_cov,
)
from .sweeps import bisect_threshold, run_grid

__all__ = [
    "EomParams",
    "EomOperatingPoint",
    "SweepPoint",
    "PAIR_NAMES",
    "operating_point",
    "drift_matrix",
    "build_model",
    "entanglement_report",
    "sweep",
    "threshold_temperature",
]

PAIR_NAMES = ("oc_mc", "oc_mr", "mr_mc")
_MODE_INDEX = {"mr": 0, "oc": 1, "mc": 2}


@dataclass(frozen=True)
class EomParams:
    """Converter parameters (all rates in rad/s, temperature in kelvin).

    ``g1`` is the optical-cavity/mechanics coupling, ``g2`` the dimensionless
    microwave capacitive coupling; ``e_c``/``e_w`` are the drive rates.
    ``lambda_l`` records the drive wavelength in metres; use
    :meth:`at_wavelength` to move along the wavelength axis.
    """

    omega_c: float
    omega_m: float
    omega_w: float
    kappa_c: float
    gamma_m: float
    kappa_w: float
    delta_c: float
    delta_w: float
    g1: float
    g2: float
    e_c: float
    e_w: float
    temperature: float
    lambda_l: float | None = None

    def __post_init__(self):
        for name in ("omega_c", "omega_m", "omega_w"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("kappa_c", "gamma_m", "kappa_w", "g1", "g2", "e_c", "e_w"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        if self.temperature < 0:
            raise ValidationError("temperature must be non-negative")
        if self.lambda_l is not None and self.lambda_l <= 0:
            raise ValidationError("lambda_l must be positive")

    def at_wavelength(self, lambda_l: float) -> "EomParams":
        """Re-derive the drive-wavelength dependence.

        The cavity is taken as locked to the drive at fixed detuning, so the
        wavelength enters through the optical frequency: the coupling and
        drive rate carry the 1/sqrt(omega_c) zero-point scaling.
        """
        if lambda_l <= 0:
            raise ValidationError("lambda_l must be positive")
        omega_new = 2.0 * math.pi * constants.c / lambda_l
        scale = math.sqrt(self.omega_c / omega_new)
        return dataclasses.replace(
            self,
            omega_c=omega_new,
            g1=self.g1 * scale,
            e_c=self.e_c * scale,
            lambda_l=lambda_l,
        )


@dataclass(frozen=True)
class EomOperatingPoint:
    """DC fixed point of the driven converter; ``residual`` is relative."""

    a_s: complex
    c_s: complex
    p_s: float
    x_s: float
    residual: float


def _fixed_point_residual(params: EomParams, a_s, c_s, p_s, x_s) -> float:
    dc = params.delta_c
    dw = params.delta_w
    f1 = -(1j * dc + params.kappa_c) * a_s - 1j * params.g1 * p_s + params.e_c
    f2 = (
        -(1j * dw + params.kappa_w) * c_s
        + 1j * dw * params.g2 * x_s * c_s
        + params.e_w
    )
    f3 = params.omega_m * p_s + 2.0 * params.g1 * a_s.real
    f4 = -params.gamma_m * p_s - params.omega_m * x_s + dw * params.g2 * abs(c_s) ** 2
    scale = max(1.0, abs(params.e_c), abs(params.e_w))
    return max(abs(f1), abs(f2), abs(f3), abs(f4)) / scale


def operating_point(params: EomParams, max_iter: int = 1_000) -> EomOperatingPoint:
    """Solve the four coupled fixed-point relations.

    Damped fixed-point iteration from the zero-drive solution (which tracks
    the continuously connected branch), with a multidimensional root finder
    as fallback.  Converged relative residual <= 1e-9.
    """
    dc = params.delta_c
    dw = params.delta_w
    a_s = 0.0 + 0.0j
    c_s = 0.0 + 0.0j
    p_s = 0.0
    x_s = 0.0
    damp = 0.5
    for _ in range(max_iter):
        a_new = (params.e_c - 1j * params.g1 * p_s) / (1j * dc + params.kappa_c)
        c_new = params.e_w / (1j * dw * (1.0 - params.g2 * x_s) + params.kappa_w)
        p_new = -2.0 * params.g1 * a_new.real / params.omega_m
        x_new = (-params.gamma_m * p_new + dw * params.g2 * abs(c_new) ** 2) / params.omega_m
        a_s = (1 - damp) * a_s + damp * a_new
        c_s = (1 - damp) * c_s + damp * c_new
        p_s = (1 - damp) * p_s + damp * p_new
        x_s = (1 - damp) * x_s + damp * x_new
        if _fixed_point_residual(params, a_s, c_s, p_s, x_s) <= 1e-9:
            return EomOperatingPoint(
                a_s, c_s, p_s, x_s, _fixed_point_residual(params, a_s, c_s, p_s, x_s)
            )

    def system(v):
        a = v[0] + 1j * v[1]
        c = v[2] + 1j * v[3]
        p, x = v[4], v[5]
        f1 = -(1j * dc + params.kappa_c) * a - 1j * params.g1 * p + params.e_c
        f2 = -(1j * dw + params.kappa_w) * c + 1j * dw * params.g2 * x * c + params.e_w
        f3 = params.omega_m * p + 2.0 * params.g1 * a.real
        f4 = -params.gamma_m * p - params.omega_m * x + dw * params.g2 * abs(c) ** 2
        return [f1.real, f1.imag, f2.real, f2.imag, f3, f4]

    sol = optimize.root(
        system, [a_s.real, a_s.imag, c_s.real, c_s.imag, p_s, x_s], method="hybr"
    )
    a_s = sol.x[0] + 1j * sol.x[1]
    c_s = sol.x[2] + 1j * sol.x[3]
    p_s, x_s = sol.x[4], sol.x[5]
    residual = _fixed_point_residual(params, a_s, c_s, p_s, x_s)
    if residual > 1e-9:
        raise ConvergenceError(
            f"operating point did not converge (relative residual {residual:.3e}); "
            "the drive may sit in a bistable region",
            residual=residual,
        )
    return EomOperatingPoint(a_s, c_s, p_s, x_s, residual)


def drift_matrix(params: EomParams, op_point: EomOperatingPoint) -> np.ndarray:
    """Linearized 6x6 drift in (q_x, p_x, X_c, Y_c, X_w, Y_w) order.

    The MC frame phase is chosen so C_s is real and positive, which zeroes
    the G11 composite.  The mechanics/microwave coupling pair is placed on
    the (p_x, X_w)/(Y_w, q_x) entries as required by the converter's own
    linearized fluctuation equations (Hamiltonian consistency).
    """
    dc = params.delta_c
    dw = params.delta_w
    c_s = abs(op_point.c_s)
    j2 = params.g2 * dw
    g1s2 = math.sqrt(2.0) * params.g1
    g11 = 0.0                        # -sqrt(2) j2 Im{C_s}, zero by phase convention
    g22 = math.sqrt(2.0) * j2 * c_s  # sqrt(2) j2 Re{C_s}
    kappa_w1 = params.kappa_w        # + j2 Im{X_s}, X_s real
    delta_w1 = dw * (1.0 - params.g2 * op_point.x_s)
    wm = params.omega_m
    return np.array([
        [0.0, wm, g1s2, 0.0, 0.0, 0.0],
        [-wm, -params.gamma_m, 0.0, 0.0, g22, -g11],
        [0.0, 0.0, -params.kappa_c, dc, 0.0, 0.0],
        [0.0, -g1s2, -dc, -params.kappa_c, 0.0, 0.0],
        [g11, 0.0, 0.0, 0.0, -kappa_w1, delta_w1],
        [g22, 0.0, 0.0, 0.0, -delta_w1, -kappa_w1],
    ])


def build_model(params: EomParams) -> LinearLangevinModel:
    """Drift + bath diffusion as a ready-to-solve Langevin model."""
    op = operating_point(params)
    baths = [
        BathSpec(params.omega_m, params.gamma_m, params.temperature, "mechanical"),
        BathSpec(params.omega_c, params.kappa_c, params.temperature, "cavity"),
        BathSpec(params.omega_w, params.kappa_w, params.temperature, "cavity"),
    ]
    return LinearLangevinModel(
        drift_matrix(params, op), diffusion_from_baths(baths), ("mr", "oc", "mc")
    )


def _pair_blocks(cov: np.ndarray, first: str, second: str) -> BipartiteBlocks:
    i = _MODE_INDEX[first]
    j = _MODE_INDEX[second]
    si, sj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
    return BipartiteBlocks(cov[si, si], cov[sj, sj], cov[si, sj])


def entanglement_report(params: EomParams) -> dict[str, CriteriaReport]:
    """Steady-state criteria for the OC-MC, OC-MR and MR-MC pairs."""
    model = build_model(params)
    stable, max_re = is_stable(model)
    if not stable:
        raise NoSteadyStateError(
            f"converter drift is unstable at these parameters (max Re {max_re:.3e})",
            eigenvalue=max_re,
        )
    cov = steady_state_cov(model)
    GaussianState(3, np.zeros(6), cov).validate_physical(1e-6)
    return {
        "oc_mc": gaussian_discord(_pair_blocks(cov, "oc", "mc")),
        "oc_mr": gaussian_discord(_pair_blocks(cov, "oc", "mr")),
        "mr_mc": gaussian_discord(_pair_blocks(cov, "mr", "mc")),
    }


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample; ``reports`` is None where the model is unstable."""

    axis_value: float
    reports: dict[str, CriteriaReport] | None
    stable: bool


def _with_axis(params: EomParams, axis: str, value: float) -> EomParams:
    if axis == "temperature":
        return dataclasses.replace(params, temperature=value)
    if axis == "wavelength":
        return params.at_wavelength(value)
    if axis in {f.name for f in dataclasses.fields(EomParams)}:
        return dataclasses.replace(params, **{axis: value})
    raise ValidationError(f"unknown sweep axis {axis!r}")


def sweep(
    params: EomParams,
    axis: str,
    grid,
    parallelism: int = 1,
) -> list[SweepPoint]:
    """One entanglement report per grid point; instabilities are marked, not fatal."""
    grid = [float(v) for v in grid]
    if sorted(grid) != grid:
        raise ValidationError("sweep grid must be ascending")

    def point(value: float) -> SweepPoint:
        try:
            reports = entanglement_report(_with_axis(params, axis, value))
        except (NoSteadyStateError, ConvergenceError, StiffnessError):
            return SweepPoint(value, None, False)
        return SweepPoint(value, reports, True)

    return run_grid(point, grid, parallelism)


def threshold_temperature(
    params: EomParams,
    pair: str = "oc_mc",
    resolution: float = 1e-3,
    t_max: float = 8.0,
) -> float | None:
    """Temperature where lambda_SPH for ``pair`` crosses zero, to ``resolution``/2.

    Returns None when the pair is already separable at the base temperature;
    the bracket expands above ``t_max`` if needed.
    """
    if pair not in PAIR_NAMES:
        raise ValidationError(f"pair must be one of {PAIR_NAMES}")

    def crossing(temperature: float) -> float:
        p = dataclasses.replace(params, temperature=temperature)
        return entanglement_report(p)[pair].lambda_sph

    return bisect_threshold(crossing, lo=0.0, hi=t_max, resolution=resolution)
