"""Single-junction parametric amplifier: derived circuit parameters,
displaced-frame pump strength, input-output scattering and gain, two-mode
squeezed thermal output covariance, and squeezing sweeps.

Energies are handled in angular-frequency units (rad/s); ``derived_params``
accepts the Josephson energy either way and documents the conversion.  This
module uses the sqrt(kappa) input-noise convention of its own input-output
relation a_out = sqrt(kappa) a - a_in, so a lone cavity has drift -kappa/2
and diffusion kappa (N + 1/2) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import constants

from .converter import _response_roots
from .criteria import BipartiteBlocks
from .errors import ThresholdError, ValidationError
from .gaussian import GaussianState, wigner
from .langevin import LinearLangevinModel, steady_state_cov

__all__ = [
    "JpaParams",
    "ClassicalField",
    "SqueezedField",
    "derived_params",
    "classical_field",
    "build_params",
    "scattering_matrix",
    "signal_power_gain",
    "idler_power_gain",
    "output_two_mode_cm",
    "intracavity_cov",
    "wigner_sweep",
]


def derived_params(e_j: float, capacitance: float) -> tuple[float, float, float]:
    """Charging energy, bare resonator frequency, and Kerr coefficient.

    ``e_j`` is the Josephson energy in rad/s (divide joules by hbar first);
    ``capacitance`` in farads.  Returns (E_c, omega_0, Lambda) in rad/s with
    E_c = e^2/(2 C hbar), omega_0 = sqrt(8 E_c E_J), Lambda = -E_c/2.
    """
    if e_j <= 0 or capacitance <= 0:
        raise ValidationError("Josephson energy and capacitance must be positive")
    e_c = constants.e**2 / (2.0 * capacitance * constants.hbar)
    omega0 = math.sqrt(8.0 * e_c * e_j)
    return e_c, omega0, -0.5 * e_c


@dataclass(frozen=True)
class ClassicalField:
    """Low-amplitude branch of the classical pump steady state."""

    alpha: complex
    branch_count: int
    residual: float


def classical_field(
    omega0: float,
    kerr: float,
    kappa: float,
    omega_p: float,
    epsilon: complex,
    self_consistent: bool = True,
) -> ClassicalField:
    """Solve alpha (j(omega0 - omega_p + 4 Lambda |alpha|^2) + kappa/2) = -j eps.

    The modulus condition is a cubic in |alpha|^2 whose real roots are all
    positive; the smallest (the branch continuously connected to zero drive)
    is returned, with the number of coexisting branches reported.
    ``self_consistent=False`` drops the Kerr shift from the solve (documented
    linear option).
    """
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    eps = complex(epsilon)
    if eps == 0:
        return ClassicalField(0.0 + 0.0j, 1, 0.0)
    delta = omega0 - omega_p
    kerr_eff = 4.0 * kerr if self_consistent else 0.0
    # |alpha|^2 [(delta + 4 Lambda |alpha|^2)^2 + kappa^2/4] = |eps|^2
    roots = _response_roots(0.5 * kappa, delta, -kerr_eff, abs(eps) ** 2)
    intensity = roots[0]
    if not intensity > 0.0:
        raise ValidationError("no positive intensity root (cubic solve failed)")
    alpha = -1j * eps / (1j * (delta + kerr_eff * intensity) + 0.5 * kappa)
    residual = abs(
        alpha * (1j * (delta + kerr_eff * abs(alpha) ** 2) + 0.5 * kappa) + 1j * eps
    ) / abs(eps)
    return ClassicalField(alpha, len(roots), residual)


@dataclass(frozen=True)
class JpaParams:
    """Derived operating point of a pumped single-junction amplifier.

    All energies/rates in rad/s.  ``delta0`` is the Kerr-shifted detuning
    omega_0 + 4 |alpha|^2 Lambda - omega_p and ``lambda1 = 2 alpha^2 Lambda``
    the effective parametric pump strength.
    """

    e_j: float
    e_c: float
    omega0: float
    kerr: float
    kappa: float
    omega_p: float
    epsilon: complex
    alpha: complex
    delta0: float
    lambda1: complex
    branch_count: int

    @property
    def below_threshold(self) -> bool:
        return abs(self.lambda1) < 0.5 * self.kappa


def build_params(
    e_j: float,
    capacitance: float,
    kappa: float,
    omega_p: float,
    epsilon: complex,
) -> JpaParams:
    """Assemble the operating point from circuit values and the pump."""
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    e_c, omega0, kerr = derived_params(e_j, capacitance)
    field = classical_field(omega0, kerr, kappa, omega_p, epsilon)
    alpha = field.alpha
    return JpaParams(
        e_j=e_j,
        e_c=e_c,
        omega0=omega0,
        kerr=kerr,
        kappa=kappa,
        omega_p=omega_p,
        epsilon=complex(epsilon),
        alpha=alpha,
        delta0=omega0 + 4.0 * abs(alpha) ** 2 * kerr - omega_p,
        lambda1=2.0 * alpha**2 * kerr,
        branch_count=field.branch_count,
    )


def _system_matrix(params: JpaParams, omega: float) -> np.ndarray:
    half_k = 0.5 * params.kappa
    return np.array([
        [-1j * (omega + params.delta0) + half_k, 1j * params.lambda1],
        [-1j * np.conj(params.lambda1), 1j * (omega - params.delta0) + half_k],
    ])


def scattering_matrix(params: JpaParams, omega: float) -> np.ndarray:
    """S(omega) = kappa M(omega)^-1 - I in the (signal, idler) basis.

    Element (0, 0) is the signal amplitude gain, (0, 1) the idler gain.
    Raises :class:`ThresholdError` at or above pump threshold |lambda1| =
    kappa/2, where no steady state exists.
    """
    if not params.below_threshold:
        ratio = abs(params.lambda1) / (0.5 * params.kappa)
        raise ThresholdError(
            f"pump at or above threshold: |lambda1|/(kappa/2) = {ratio:.6f}"
        )
    m = _system_matrix(params, omega)
    return params.kappa * np.linalg.inv(m) - np.eye(2)


def signal_power_gain(params: JpaParams, omega: float = 0.0) -> float:
    return float(abs(scattering_matrix(params, omega)[0, 0]) ** 2)


def idler_power_gain(params: JpaParams, omega: float = 0.0) -> float:
    return float(abs(scattering_matrix(params, omega)[0, 1]) ** 2)


def output_two_mode_cm(
    n1: float,
    n2: float,
    d12: float,
    kappa1: float,
    kappa2: float,
    n_in1: float = 0.0,
    n_in2: float = 0.0,
) -> BipartiteBlocks:
    """Two-mode squeezed thermal output blocks from intracavity moments.

    n_o = 2 kappa n + n_in per oscillator and d_o12 = 2 sqrt(kappa1 kappa2)
    d12; the blocks are a = (n_o1 + 1/2) I, b = (n_o2 + 1/2) I and
    d_o12 diag(1, -1), already in the global vacuum-1/2 units.
    """
    if n1 < 0 or n2 < 0 or kappa1 < 0 or kappa2 < 0 or n_in1 < 0 or n_in2 < 0:
        raise ValidationError("moments, damping rates and input occupations must be >= 0")
    bound = n1 * n2 + min(n1, n2)
    if d12**2 > bound * (1.0 + 1e-12) + 1e-12:
        raise ValidationError(
            f"cross-correlation violates physicality: d12^2 = {d12**2:.6e} > "
            f"n1 n2 + min(n1, n2) = {bound:.6e}"
        )
    n_o1 = 2.0 * kappa1 * n1 + n_in1
    n_o2 = 2.0 * kappa2 * n2 + n_in2
    d_o12 = 2.0 * math.sqrt(kappa1 * kappa2) * d12
    blocks = BipartiteBlocks(
        (n_o1 + 0.5) * np.eye(2),
        (n_o2 + 0.5) * np.eye(2),
        d_o12 * np.diag([1.0, -1.0]),
    )
    return blocks.validate_physical()


def intracavity_cov(g: float) -> np.ndarray:
    """Steady-state intracavity covariance at pump fraction g = |lambda1|/kappa,
    vacuum input.

    Solved through the Langevin machinery with the sqrt(kappa) noise
    convention; the squeezed/anti-squeezed variances are 1/(2(1 +- 2g)) on
    axes rotated 45 degrees, independent of kappa.
    """
    if not 0.0 <= g < 0.5:
        raise ThresholdError(f"pump fraction g = {g} outside [0, 0.5)")
    kappa = 1.0
    lam = g * kappa
    drift = np.array([[-0.5 * kappa, -lam], [-lam, -0.5 * kappa]])
    diffusion = 0.5 * kappa * np.eye(2)
    model = LinearLangevinModel(drift, diffusion, ("jpa",))
    return steady_state_cov(model)


@dataclass(frozen=True, eq=False)
class SqueezedField:
    """One squeezing-sweep sample: pump fraction, covariance, Wigner values."""

    g: float
    cov: np.ndarray
    w: np.ndarray


def wigner_sweep(g_values, q, p) -> list[SqueezedField]:
    """Steady-state Wigner fields for pump fractions g in [0, 0.5)."""
    fields = []
    for g in g_values:
        cov = intracavity_cov(float(g))
        state = GaussianState(1, np.zeros(2), cov)
        fields.append(SqueezedField(float(g), cov, wigner(state, q, p)))
    return fields
