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
from typing import Callable

import numpy as np

from .converter import OperatingPoint, _gated_point, _response_roots
from .converter import _at_temperatures, _thermal_steady_state, steady_state
from .criteria import BipartiteBlocks, CriteriaReport, _lambda_sph, _reports, gaussian_discord
from .errors import ConvergenceError, ValidationError
from .errors import _grid_values, _param, _require_valid
from .langevin import C_LIGHT, LinearLangevinModel, diffusion_from_baths
# Kept for perfbench/test_perfbench.py, which checks the tracer wraps this binding.
from .langevin import steady_state_cov  # noqa: F401
from .sweeps import _at_grid_points, bisect_threshold, run_grid

__all__ = [
    "EomParams",
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

    omega_c: float = _param("rad_s", "positive")
    omega_m: float = _param("rad_s", "positive")
    omega_w: float = _param("rad_s", "positive")
    kappa_c: float = _param("rad_s", "non-negative")
    gamma_m: float = _param("rad_s", "non-negative")
    kappa_w: float = _param("rad_s", "non-negative")
    delta_c: float = _param("rad_s")
    delta_w: float = _param("rad_s")
    g1: float = _param("rad_s", "non-negative")
    g2: float = _param("dimensionless", "non-negative")
    e_c: float = _param("rad_s", "non-negative")
    e_w: float = _param("rad_s", "non-negative")
    temperature: float = _param("k", "non-negative")
    lambda_l: float | None = _param(sign="positive", default=None)

    def __post_init__(self):
        _require_valid(self)

    def at_wavelength(self, lambda_l: float) -> "EomParams":
        """Re-derive the drive-wavelength dependence.

        The cavity is taken as locked to the drive at fixed detuning, so the
        wavelength enters through the optical frequency: the coupling and
        drive rate carry the 1/sqrt(omega_c) zero-point scaling.
        """
        _require_valid(self, {"lambda_l": lambda_l})  # before dividing by it
        omega_new = 2.0 * math.pi * C_LIGHT / lambda_l
        scale = math.sqrt(self.omega_c / omega_new)
        return dataclasses.replace(
            self,
            omega_c=omega_new,
            g1=self.g1 * scale,
            e_c=self.e_c * scale,
            lambda_l=lambda_l,
        )


def _equations(params: EomParams, a, c, p, x):
    """Each DC equation's terms, which sum to zero at the operating point."""
    dw = params.delta_w
    return (
        (-1j * params.delta_c * a, -params.kappa_c * a, -1j * params.g1 * p, params.e_c),
        (-1j * dw * c, -params.kappa_w * c, 1j * dw * params.g2 * x * c, params.e_w),
        (params.omega_m * p, 2.0 * params.g1 * a.real),
        (-params.gamma_m * p, -params.omega_m * x, dw * params.g2 * abs(c) * abs(c)),
    )


def operating_point(params: EomParams) -> OperatingPoint:
    """DC operating point in closed form.

    The optical and displacement equations are linear in (A_s, P_s), which
    gives P_s.  X_s is the root of the cubic
    (omega_m X + gamma_m P_s)(kappa_w^2 + delta_w^2 (1 - g2 X)^2) = delta_w g2 e_w^2
    nearest its zero-drive value -gamma_m P_s / omega_m: the branch
    continuously connected to zero drive.  Raises :class:`ConvergenceError`
    where no finite root exists.
    """
    kc, dc, dw = params.kappa_c, params.delta_c, params.delta_w
    wm, g1, g2, gm = params.omega_m, params.g1, params.g2, params.gamma_m
    denominator = wm * (kc * kc + dc * dc) - 2.0 * g1 * g1 * dc
    if denominator == 0.0:
        raise ConvergenceError("no finite operating point: P_s diverges")
    p = -2.0 * g1 * params.e_c * kc / denominator
    a = (params.e_c - 1j * g1 * p) / (kc + 1j * dc)
    # The cubic in v = omega_m X + gamma_m P_s, whose zero-drive root is v = 0.
    e_w = params.e_w
    shifted = dw * (1.0 + g2 * gm * p / wm)
    roots = _response_roots(params.kappa_w, shifted, dw * g2 / wm, dw * g2 * e_w * e_w)
    x = (roots[0] - gm * p) / wm
    c = e_w / (params.kappa_w + 1j * dw * (1.0 - g2 * x))
    return _gated_point(a, c, p, x, len(roots), _equations(params, a, c, p, x))


def drift_matrix(params: EomParams, op_point: OperatingPoint) -> np.ndarray:
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


def _baths(params: EomParams) -> list[tuple]:
    """The mechanical, optical and microwave baths, in mode order, each as
    (omega, damping, temperature, kind) row of
    :func:`~qradar.langevin.diffusion_from_baths`."""
    t = params.temperature
    return [
        (params.omega_m, params.gamma_m, t, "mechanical"),
        (params.omega_c, params.kappa_c, t, "cavity"),
        (params.omega_w, params.kappa_w, t, "cavity"),
    ]


def _arrays(params: EomParams) -> tuple[np.ndarray, np.ndarray]:
    """The drift at the operating point and the bath diffusion: the arrays of
    :func:`build_model`, and of each point of a non-temperature :func:`sweep` grid."""
    return drift_matrix(params, operating_point(params)), diffusion_from_baths(_baths(params))


def build_model(params: EomParams) -> LinearLangevinModel:
    """Drift + bath diffusion as a ready-to-solve Langevin model."""
    return LinearLangevinModel(*_arrays(params))


def _pair_stack(covs: np.ndarray, pair: str) -> np.ndarray:
    """The 4x4 covariance of ``pair`` (first mode first) in a steady state or a stack."""
    i, j = (_MODE_INDEX[mode] for mode in pair.split("_"))
    index = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    return covs[..., index, :][..., index]


def entanglement_report(params: EomParams) -> dict[str, CriteriaReport]:
    """Steady-state criteria for the OC-MC, OC-MR and MR-MC pairs."""
    cov = steady_state(build_model(params))
    return {pair: gaussian_discord(BipartiteBlocks.from_covariance(_pair_stack(cov, pair)))
            for pair in PAIR_NAMES}


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample; ``reports`` is None where the model is unstable."""

    axis_value: float
    reports: dict[str, CriteriaReport] | None
    stable: bool


def _axis_field(axis: str) -> str:
    """The params field a sweep axis sets (lambda_l on the wavelength axis)."""
    field = "lambda_l" if axis == "wavelength" else axis
    if field not in {f.name for f in dataclasses.fields(EomParams)}:
        raise ValidationError(f"unknown sweep axis {axis!r}")
    return field


def _grid_point(params: EomParams, axis: str) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
    """The :func:`~qradar.sweeps.run_grid` builder of :func:`sweep` on ``axis``
    (not temperature): a checked axis value -> :func:`_arrays` there."""
    if axis == "wavelength":
        return lambda value: _arrays(params.at_wavelength(value))
    return lambda value: _arrays(dataclasses.replace(params, **{axis: value}))


def sweep(params: EomParams, axis: str, grid) -> list[SweepPoint]:
    """One entanglement report per grid point, each equal to
    :func:`entanglement_report` there (to rounding on a temperature grid).

    The grid is held once, by :func:`~qradar.errors._grid_values`, to the
    rule of the field ``axis`` sets.  A temperature grid weighs the Lyapunov
    basis of :func:`threshold_temperature`, so it is stable at every point
    or raises what that threshold raises; other axes take one stacked
    :func:`~qradar.sweeps.run_grid` step, which marks a point with no steady
    state unstable.  Each steady state is checked once, there (a temperature
    grid's through its basis's 0 K state); its pairs are scored unchecked,
    all as one stack, with determinants computed once
    (:func:`~qradar.criteria._reports`).
    """
    grid = _grid_values(EomParams, _axis_field(axis), grid)
    if axis == "temperature":
        covs = _thermal_steady_state(drift_matrix(params, operating_point(params)), _baths(params))(grid)
    else:
        covs = run_grid(_grid_point(params, axis), grid)
    index = [i for i, cov in enumerate(covs) if cov is not None]
    stable = np.array([covs[i] for i in index]).reshape(-1, 6, 6)
    pairs = np.concatenate([_pair_stack(stable, pair) for pair in PAIR_NAMES])
    scored = _reports(pairs, _at_grid_points(grid, index * len(PAIR_NAMES)))
    reports = (dict(zip(PAIR_NAMES, scored[k::len(index)])) for k in range(len(index)))
    return [
        SweepPoint(v, None, False) if cov is None else SweepPoint(v, next(reports), True)
        for v, cov in zip(grid, covs)
    ]


def threshold_temperature(
    params: EomParams,
    pair: str = "oc_mc",
    resolution: float = 1e-3,
) -> float | None:
    """Temperature where lambda_SPH for ``pair`` crosses zero, to ``resolution``/2.

    The operating point and the Lyapunov basis, which decides physicality
    for every temperature, are solved once; each evaluation forms the steady
    state at its temperature, held to the residual rule only, and scores
    lambda_SPH on the pair sliced from it, with no state or blocks built.
    Returns None when the pair is already separable at zero temperature; the
    bracket starts at [0, 8] K and expands as
    :func:`~qradar.sweeps.bisect_threshold` does.
    """
    if pair not in PAIR_NAMES:
        raise ValidationError(f"pair must be one of {PAIR_NAMES}")
    cov_at = _thermal_steady_state(drift_matrix(params, operating_point(params)), _baths(params))

    def crossing(temperature: float) -> float:
        at = [temperature]
        return float(_lambda_sph(_pair_stack(cov_at(at), pair), _at_temperatures(at))[0])

    return bisect_threshold(crossing, lo=0.0, hi=8.0, resolution=resolution)
