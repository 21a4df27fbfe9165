"""Opto-electronic converter: optical cavity coupled to a microwave cavity
through a photodetector/varactor chain.

Structurally a sibling of the electro-opto-mechanical model, with the
photodetector pair (q_x, p_x) as mediator at its transition frequency
omega_eg; because that frequency is optical, the mediator bath is empty even
at kelvin temperatures, which is what lets this converter hold entanglement
where the mechanical one cannot.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channels import GaussianChannel, round_trip
from .converter import _OC_MC, OperatingPoint, _bath_rows, _drift, _gated_point, _response_roots
from .converter import _at_temperatures, _thermal_steady_state, steady_state
from .criteria import BipartiteBlocks, CriteriaReport, _pt_nu_min, gaussian_discord
from .errors import ConvergenceError, ValidationError, _grid_values, _param, _require_valid, _valid
from .gaussian import _symmetric_part, apply_channel
from .langevin import HBAR, M_E, LinearLangevinModel, diffusion_from_baths
from .sweeps import _at_grid_points, bisect_threshold, run_grid

__all__ = [
    "OeParams",
    "DetuningSweep",
    "DetuningPoint",
    "gwp_from_mu_c",
    "operating_point",
    "drift_matrix",
    "build_model",
    "direct_report",
    "entanglement_vs_detuning",
    "end_to_end_report",
    "end_to_end_vs_temperature",
    "threshold_temperature",
]


_OMEGA_W = 2 * math.pi * 10e9  # default microwave mode frequency, rad/s
_OMEGA_EG = 2.332e15  # default photodetector transition frequency (808 nm), rad/s


@dataclass(frozen=True)
class OeParams:
    """Converter parameters (rates rad/s, temperature kelvin).

    ``g_wp`` is the microwave/photodetector coupling, which
    :func:`gwp_from_mu_c` derives from the capacitance sensitivity.  The
    absolute frequencies are needed for the bath occupations.
    """

    delta_c: float = _param("rad_s")
    delta_w: float = _param("rad_s")
    delta_eg: float = _param("rad_s")
    kappa_c: float = _param("rad_s", "non-negative")
    kappa_w: float = _param("rad_s", "non-negative")
    gamma_p: float = _param("rad_s", "non-negative")
    g_op: float = _param("rad_s", "non-negative")
    g_wp: float = _param("rad_s", "non-negative")
    temperature: float = _param("k", "non-negative")
    e_c: float = _param("rad_s", "non-negative")
    e_w: float = _param("rad_s", "non-negative")
    omega_c: float = _param("rad_s", "positive", default=2.332e15)  # 808 nm
    omega_w: float = _param("rad_s", "positive", default=_OMEGA_W)
    omega_eg: float = _param("rad_s", "positive", default=_OMEGA_EG)

    def __post_init__(self):
        _require_valid(self)


def gwp_from_mu_c(mu_c: float) -> float:
    """Microwave/photodetector coupling from the dimensionless capacitance
    sensitivity, g_wp = (mu_c omega_w / 2 d) sqrt(hbar / (omega_eg m_eff)),
    at the default omega_w and omega_eg, a 1 um depletion width d and
    m_eff = 0.067 m_e."""
    _valid("mu_c", "non-negative", mu_c)
    depletion_width, m_eff = 1e-6, 0.067 * M_E
    g_wp = mu_c * _OMEGA_W / (2.0 * depletion_width) * math.sqrt(
        HBAR / (_OMEGA_EG * m_eff)
    )
    return _valid("g_wp", "non-negative", g_wp)  # the rule OeParams holds it to; inf from mu_c ~ 1e300


def _equations(params: OeParams, a, c, p, x):
    """Each DC equation's terms, which sum to zero at the operating point."""
    g_op, g_wp = params.g_op, params.g_wp
    return (
        (-1j * params.delta_c * a, -1j * g_op * p * a, -params.kappa_c * a, params.e_c),
        (-1j * params.delta_w * c, 1j * g_wp * x * c, -params.kappa_w * c, params.e_w),
        (params.delta_eg * p, g_op * abs(a) * abs(a)),
        (-params.gamma_p * p, -params.delta_eg * x, g_wp * abs(c) * abs(c)),
    )


def operating_point(params: OeParams) -> OperatingPoint:
    """DC operating point in closed form.

    P_s is a root of P (kappa_c^2 + (delta_c + g_op P)^2) = -g_op e_c^2 / delta_eg
    and X_s one of (delta_eg X + gamma_p P_s)(kappa_w^2 + (delta_w - g_wp X)^2)
    = g_wp e_w^2, each the root nearest its zero-drive value (P = 0,
    X = -gamma_p P_s / delta_eg): the branch continuously connected to zero
    drive.  Raises :class:`ConvergenceError` at delta_eg = 0, where the
    photodetector pair is singular, and where no finite root exists.
    """
    deg = params.delta_eg
    if deg == 0.0:
        raise ConvergenceError("operating point is singular at delta_eg = 0")
    e_c, e_w, g_op, g_wp = params.e_c, params.e_w, params.g_op, params.g_wp
    p_roots = _response_roots(params.kappa_c, params.delta_c, -g_op, -g_op * e_c * e_c / deg)
    # One cubic in v = delta_eg X + gamma_p P per P root; v = 0 at zero drive.
    g, rhs = g_wp / deg, g_wp * e_w * e_w
    x_roots = [
        _response_roots(params.kappa_w, params.delta_w + g * params.gamma_p * p, g, rhs)
        for p in p_roots
    ]
    p = p_roots[0]
    x = (x_roots[0][0] - params.gamma_p * p) / deg
    a = e_c / (params.kappa_c + 1j * (params.delta_c + g_op * p))
    c = e_w / (params.kappa_w + 1j * (params.delta_w - g_wp * x))
    branches = sum(len(roots) for roots in x_roots)
    return _gated_point(a, c, p, x, branches, _equations(params, a, c, p, x))


def drift_matrix(params: OeParams, op_point: OperatingPoint) -> np.ndarray:
    """Linearized 6x6 drift in (q_x, p_x, X_c, Y_c, X_w, Y_w) order.

    Both cavity frames are rotated so A_s and C_s are real and positive; the
    detunings carry the operating-point shifts delta_c + g_op P_s and
    delta_w - g_wp X_s.
    """
    ga = math.sqrt(2.0) * params.g_op * abs(op_point.a_s)
    gc = math.sqrt(2.0) * params.g_wp * abs(op_point.c_s)
    dc1 = params.delta_c + params.g_op * op_point.p_s
    dw1 = params.delta_w - params.g_wp * op_point.x_s
    return _drift(params.delta_eg, params.gamma_p, ga, params.kappa_c, dc1, gc, params.kappa_w, dw1)


def _baths(params: OeParams) -> list[tuple]:
    """The photodetector, optical and microwave baths (:func:`~qradar.converter._bath_rows`)."""
    return _bath_rows(params.temperature, params.omega_eg, params.gamma_p,
                      params.omega_c, params.kappa_c, params.omega_w, params.kappa_w)


def _arrays(params: OeParams) -> tuple[np.ndarray, np.ndarray]:
    """The drift at the operating point and the bath diffusion: the arrays of
    :func:`build_model`, and of each point of a detuning grid."""
    return drift_matrix(params, operating_point(params)), diffusion_from_baths(_baths(params))


def build_model(params: OeParams) -> LinearLangevinModel:
    return LinearLangevinModel(*_arrays(params))


def _oc_mc_blocks(params: OeParams) -> BipartiteBlocks:
    """Steady-state two-mode (OC, MC) reduced blocks."""
    return BipartiteBlocks.from_covariance(steady_state(build_model(params))[_OC_MC])


def _backscatter(channel_spec: GaussianChannel, target_spec: GaussianChannel) -> GaussianChannel:
    """The (OC, MC) register's channel: MC sent out through ``channel_spec``,
    scattered by ``target_spec`` and returned through the same medium."""
    return round_trip(channel_spec, target_spec, channel_spec).expand(mode=1, n_modes=2)


def direct_report(params: OeParams) -> CriteriaReport:
    """Criteria between the intracavity OC and MC modes."""
    return gaussian_discord(_oc_mc_blocks(params))


@dataclass(frozen=True)
class DetuningPoint:
    delta_eg: float
    two_eta: float | None
    stable: bool


@dataclass(frozen=True)
class DetuningSweep:
    points: list[DetuningPoint]
    argmin_delta_eg: float | None
    min_two_eta: float | None


def entanglement_vs_detuning(params: OeParams, delta_eg_grid) -> DetuningSweep:
    """2eta(OC-MC) versus photodetector detuning, with instability markers.

    The grid values are held once to delta_eg's rule; the grid's steady
    states come from one stacked :func:`~qradar.sweeps.run_grid` step, which
    checks each once, and the stable points' OC-MC pairs are scored as one
    unchecked stack.
    """
    grid = _grid_values(OeParams, "delta_eg", delta_eg_grid)
    covs = run_grid(lambda v: _arrays(dataclasses.replace(params, delta_eg=v)), grid)
    index = [i for i, cov in enumerate(covs) if cov is not None]
    stable = np.array([covs[i][_OC_MC] for i in index]).reshape(-1, 4, 4)
    values = iter((2.0 * _pt_nu_min(stable, _at_grid_points(grid, index))).tolist())
    points = [
        DetuningPoint(v, None, False) if cov is None else DetuningPoint(v, next(values), True)
        for v, cov in zip(grid, covs)
    ]
    stable_pts = [p for p in points if p.stable]
    if stable_pts:
        best = min(stable_pts, key=lambda p: p.two_eta)
        return DetuningSweep(points, best.delta_eg, best.two_eta)
    return DetuningSweep(points, None, None)


def end_to_end_report(
    params: OeParams,
    channel_spec: GaussianChannel,
    target_spec: GaussianChannel,
) -> CriteriaReport:
    """Criteria between the retained OC mode and the returned mode c_b.

    The MC mode of the steady-state (OC, MC) covariance is sent out through
    ``channel_spec``, scattered by ``target_spec``, and returned through the
    same medium.
    """
    returned = apply_channel(_oc_mc_blocks(params).state, _backscatter(channel_spec, target_spec))
    return gaussian_discord(BipartiteBlocks.from_covariance(returned.cov))


def end_to_end_vs_temperature(
    params: OeParams,
    channel_spec: GaussianChannel,
    target_spec: GaussianChannel,
    temperature_grid,
) -> tuple[np.ndarray, np.ndarray]:
    """2eta of the direct (OC, MC) pair and of the backscattered (OC, c_b)
    pair at each temperature, both from one steady state.

    The grid values are held once to temperature's rule.  The steady states
    are one stack, held to the residual rule, from one Lyapunov basis that
    decides physicality for every temperature
    (:func:`~qradar.converter._thermal_steady_state`), and raise where the
    converter has none, as its thresholds do.  The round-trip channel is
    built once.  Both stacks are scored unchecked, as one stack in one call:
    the direct pairs are slices of physical states, and the returned pairs
    X V X^T + Y are their images under a completely positive channel,
    symmetrised.  An error names its temperature.
    """
    grid = _grid_values(OeParams, "temperature", temperature_grid)
    backscatter = _backscatter(channel_spec, target_spec)
    cov_at = _thermal_steady_state(drift_matrix(params, operating_point(params)), _baths(params))
    pairs = cov_at(grid)[_OC_MC]
    both = np.concatenate((pairs, _symmetric_part(backscatter.act(pairs))))
    return tuple(np.split(2.0 * _pt_nu_min(both, _at_temperatures(grid * 2)), 2))


def threshold_temperature(
    params: OeParams,
    resolution: float = 1e-3,
    channel_spec: GaussianChannel | None = None,
    target_spec: GaussianChannel | None = None,
) -> float | None:
    """Temperature where 2eta(OC-MC) crosses 1, to ``resolution``/2.

    With a channel/target pair the threshold of the backscattered mode c_b is
    located instead; giving only one of the two is a :class:`ValidationError`.
    The operating point, the Lyapunov basis and the round-trip channel are
    built once (the basis decides physicality for every temperature, and a
    channel is completely positive from when it is made); each evaluation
    forms the steady state at its temperature, held to the residual rule
    only, and scores 2eta only, with no state or blocks built: on the
    (OC, MC) pair sliced from it, or on the returned pair, its symmetrised
    image under the channel, as :func:`end_to_end_vs_temperature` scores it.
    The bracket starts at [1e-4, 8] K and expands as
    :func:`~qradar.sweeps.bisect_threshold` does.
    """
    if (channel_spec is None) != (target_spec is None):
        raise ValidationError("channel_spec and target_spec must be given together")
    cov_at = _thermal_steady_state(drift_matrix(params, operating_point(params)), _baths(params))
    backscatter = None if channel_spec is None else _backscatter(channel_spec, target_spec)

    def crossing(temperature: float) -> float:
        at = [temperature]
        pairs = cov_at(at)[_OC_MC]
        if backscatter is not None:
            pairs = _symmetric_part(backscatter.act(pairs))
        return float(2.0 * _pt_nu_min(pairs, _at_temperatures(at))[0]) - 1.0

    return bisect_threshold(crossing, lo=1e-4, hi=8.0, resolution=resolution)
