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
from scipy import constants

from .channels import GaussianChannel, round_trip
from .converter import OperatingPoint, _gated_point, _require_finite, _response_roots
from .converter import _thermal_steady_state, steady_state
from .criteria import BipartiteBlocks, CriteriaReport, gaussian_discord, two_eta, two_eta_values
from .errors import ConvergenceError, ValidationError
from .gaussian import apply_channel
from .langevin import BathSpec, LinearLangevinModel, diffusion_from_baths
from .sweeps import bisect_threshold, run_grid

__all__ = [
    "OeParams",
    "PdMaterialSpec",
    "DetuningSweep",
    "DetuningPoint",
    "coupling_gop",
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


@dataclass(frozen=True)
class OeParams:
    """Converter parameters (rates rad/s, temperature kelvin).

    ``mu_c`` is the dimensionless capacitance sensitivity; ``g_wp`` is the
    microwave/photodetector coupling it generates (see :func:`gwp_from_mu_c`).
    The absolute frequencies are needed for the bath occupations.
    """

    delta_c: float
    delta_w: float
    delta_eg: float
    kappa_c: float
    kappa_w: float
    gamma_p: float
    g_op: float
    g_wp: float
    mu_c: float
    temperature: float
    e_c: float
    e_w: float
    omega_c: float = 2.332e15          # 808 nm
    omega_w: float = 2 * math.pi * 10e9
    omega_eg: float = 2.332e15

    def __post_init__(self):
        _require_finite(self)
        for name in ("kappa_c", "kappa_w", "gamma_p", "g_op", "g_wp", "mu_c", "e_c", "e_w"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        for name in ("omega_c", "omega_w", "omega_eg"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.temperature < 0:
            raise ValidationError("temperature must be non-negative")


@dataclass(frozen=True)
class PdMaterialSpec:
    """Photodetector material constants for the perturbative coupling rate."""

    dipole_moment: float        # C m
    density_of_states: float    # 1/(J m^3), evaluated at hbar omega_eg
    lorentzian_width: float     # rad/s (half width)
    mode_volume: float          # m^3

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) <= 0:
                raise ValidationError(f"{f.name} must be positive")


def coupling_gop(spec: PdMaterialSpec, omega_c: float, omega_eg: float) -> float:
    """First-order perturbative optical/photodetector coupling rate.

    g_op = (pi omega_c / eps0 V_m) mu^2 g_J(hbar omega_eg) L(omega_eg), with
    the Lorentzian line shape evaluated on resonance, L = 1/(pi width).
    """
    if omega_c <= 0 or omega_eg <= 0:
        raise ValidationError("frequencies must be positive")
    lorentzian_peak = 1.0 / (math.pi * spec.lorentzian_width)
    return (
        math.pi
        * omega_c
        / (constants.epsilon_0 * spec.mode_volume)
        * spec.dipole_moment**2
        * spec.density_of_states
        * lorentzian_peak
    )


def gwp_from_mu_c(
    mu_c: float,
    omega_w: float = 2 * math.pi * 10e9,
    depletion_width: float = 1e-6,
    m_eff: float = 0.067 * constants.m_e,
    omega_eg: float = 2.332e15,
) -> float:
    """Microwave/photodetector coupling from the capacitance sensitivity,
    g_wp = (mu_c omega_w / 2 d) sqrt(hbar / (omega_eg m_eff))."""
    if mu_c < 0:
        raise ValidationError("mu_c must be non-negative")
    return mu_c * omega_w / (2.0 * depletion_width) * math.sqrt(
        constants.hbar / (omega_eg * m_eff)
    )


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
    a_s = abs(op_point.a_s)
    c_s = abs(op_point.c_s)
    ga = math.sqrt(2.0) * params.g_op * a_s
    gc = math.sqrt(2.0) * params.g_wp * c_s
    dc1 = params.delta_c + params.g_op * op_point.p_s
    dw1 = params.delta_w - params.g_wp * op_point.x_s
    deg = params.delta_eg
    return np.array([
        [0.0, deg, ga, 0.0, 0.0, 0.0],
        [-deg, -params.gamma_p, 0.0, 0.0, gc, 0.0],
        [0.0, 0.0, -params.kappa_c, dc1, 0.0, 0.0],
        [0.0, -ga, -dc1, -params.kappa_c, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -params.kappa_w, dw1],
        [gc, 0.0, 0.0, 0.0, -dw1, -params.kappa_w],
    ])


def _baths(params: OeParams) -> list[BathSpec]:
    """The photodetector, optical and microwave baths, in mode order."""
    return [
        BathSpec(params.omega_eg, params.gamma_p, params.temperature, "mechanical"),
        BathSpec(params.omega_c, params.kappa_c, params.temperature, "cavity"),
        BathSpec(params.omega_w, params.kappa_w, params.temperature, "cavity"),
    ]


def build_model(params: OeParams) -> LinearLangevinModel:
    op = operating_point(params)
    return LinearLangevinModel(
        drift_matrix(params, op), diffusion_from_baths(_baths(params)), ("pd", "oc", "mc")
    )


_OC_MC = np.s_[2:6, 2:6]  # the (OC, MC) rows and columns of the steady state


def _oc_mc_blocks(params: OeParams) -> BipartiteBlocks:
    """Steady-state two-mode (OC, MC) reduced blocks."""
    return BipartiteBlocks.from_covariance(steady_state(build_model(params))[_OC_MC])


def _backscatter(channel_spec: GaussianChannel, target_spec: GaussianChannel) -> GaussianChannel:
    """The (OC, MC) register's channel: MC sent out through ``channel_spec``,
    scattered by ``target_spec`` and returned through the same medium."""
    return round_trip(channel_spec, target_spec, channel_spec).expand(mode=1, n_modes=2)


def _returned_blocks(blocks: BipartiteBlocks, backscatter: GaussianChannel) -> BipartiteBlocks:
    """(OC, c_b) blocks: ``blocks`` after the :func:`_backscatter` channel."""
    return BipartiteBlocks.from_covariance(apply_channel(blocks.state, backscatter).cov)


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

    The grid's steady states come from one stacked
    :func:`~qradar.sweeps.run_grid` step, and the stable points' OC-MC pairs
    are scored in one :func:`~qradar.criteria.two_eta_values` call.
    """
    grid = [float(v) for v in delta_eg_grid]
    if not all(math.isfinite(v) for v in grid):
        raise ValidationError("detuning grid must be finite")
    covs = run_grid(lambda v: build_model(dataclasses.replace(params, delta_eg=v)), grid)
    stable = np.array([cov[_OC_MC] for cov in covs if cov is not None]).reshape(-1, 4, 4)
    values = iter(two_eta_values(stable).tolist())
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
    returned = _returned_blocks(_oc_mc_blocks(params), _backscatter(channel_spec, target_spec))
    return gaussian_discord(returned)


def end_to_end_vs_temperature(
    params: OeParams,
    channel_spec: GaussianChannel,
    target_spec: GaussianChannel,
    temperature_grid,
) -> list[tuple[float, float] | None]:
    """2eta of the direct (OC, MC) pair and of the backscattered (OC, c_b)
    pair at each temperature, both from one steady state; None where the
    converter has no steady state there.

    The grid's steady states come from one stacked
    :func:`~qradar.sweeps.run_grid` step; the round-trip channel is built once.
    """
    backscatter = _backscatter(channel_spec, target_spec)
    covs = run_grid(
        lambda t: build_model(dataclasses.replace(params, temperature=t)), temperature_grid
    )

    def pair(cov: np.ndarray) -> tuple[float, float]:
        blocks = BipartiteBlocks.from_covariance(cov[_OC_MC])
        return two_eta(blocks), two_eta(_returned_blocks(blocks, backscatter))

    return [None if cov is None else pair(cov) for cov in covs]


def threshold_temperature(
    params: OeParams,
    resolution: float = 1e-3,
    t_max: float = 8.0,
    channel_spec: GaussianChannel | None = None,
    target_spec: GaussianChannel | None = None,
) -> float | None:
    """Temperature where 2eta(OC-MC) crosses 1, to ``resolution``/2.

    With a channel/target pair the threshold of the backscattered mode c_b is
    located instead; giving only one of the two is a :class:`ValidationError`.
    The operating point, the Lyapunov basis and the round-trip channel are
    built once; each evaluation forms the gated steady state at its
    temperature and scores 2eta only.
    """
    if (channel_spec is None) != (target_spec is None):
        raise ValidationError("channel_spec and target_spec must be given together")
    cov_at = _thermal_steady_state(build_model(params), _baths(params))
    backscatter = None if channel_spec is None else _backscatter(channel_spec, target_spec)

    def crossing(temperature: float) -> float:
        blocks = BipartiteBlocks.from_covariance(cov_at(temperature)[_OC_MC])
        if backscatter is not None:
            blocks = _returned_blocks(blocks, backscatter)
        return two_eta(blocks) - 1.0

    return bisect_threshold(crossing, lo=1e-4, hi=t_max, resolution=resolution)
