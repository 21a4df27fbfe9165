"""Single-junction parametric amplifier: derived circuit parameters,
displaced-frame pump strength, input-output scattering and gain, and the
steady-state intracavity covariance, written in closed form, whose Wigner
fields the ``jpa_wigner`` scenario writes.

Energies are handled in angular-frequency units (rad/s); ``derived_params``
accepts the Josephson energy either way and documents the conversion.  This
module uses the sqrt(kappa) input-noise convention of its own input-output
relation a_out = sqrt(kappa) a - a_in, which fixes the scattering matrix
kappa M^-1 - I; a lone cavity has drift -kappa/2 and diffusion
kappa (N + 1/2) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .converter import _response_roots
from .errors import ThresholdError, ValidationError, _valid
from .langevin import E_CHARGE, HBAR

__all__ = [
    "JpaParams",
    "ClassicalField",
    "derived_params",
    "classical_field",
    "build_params",
    "scattering_matrix",
    "signal_power_gain",
    "intracavity_cov",
]


def derived_params(e_j: float, capacitance: float) -> tuple[float, float, float]:
    """Charging energy, bare resonator frequency, and Kerr coefficient.

    ``e_j`` is the Josephson energy in rad/s (divide joules by hbar first);
    ``capacitance`` in farads.  Returns (E_c, omega_0, Lambda) in rad/s with
    E_c = e^2/(2 C hbar), omega_0 = sqrt(8 E_c E_J), Lambda = -E_c/2.
    """
    _valid("e_j", "positive", e_j)
    _valid("capacitance", "positive", capacitance)
    scale = 2.0 * capacitance * HBAR
    if scale == 0.0:  # C below about 1e-290 F underflows it
        raise ValidationError(
            f"charging energy e^2/(2 C hbar) is beyond float range (capacitance = {capacitance!r} F)"
        )
    e_c = E_CHARGE**2 / scale
    omega0 = _valid("omega0 = sqrt(8 E_c E_J)", None, math.sqrt(8.0 * e_c * e_j))
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
) -> ClassicalField:
    """Solve alpha (j(omega0 - omega_p + 4 Lambda |alpha|^2) + kappa/2) = -j eps.

    The field is always Kerr-shifted.  The modulus condition is a cubic in
    |alpha|^2 whose real roots are all positive; the smallest (the branch
    continuously connected to zero drive) is returned, with the number of
    coexisting branches reported.  At ``kerr`` = 0 it is the linear response
    alpha = -j eps / (j (omega0 - omega_p) + kappa/2), one branch.  A drive
    whose |eps|^2 or intensity root is beyond float range is a
    :class:`ValidationError`.
    """
    _valid("omega0", None, omega0)
    _valid("kerr", None, kerr)
    _valid("kappa", "positive", kappa)
    _valid("omega_p", None, omega_p)
    _valid("epsilon", None, abs(epsilon))
    eps = complex(epsilon)
    if eps == 0:
        return ClassicalField(0.0 + 0.0j, 1, 0.0)
    delta = omega0 - omega_p
    kerr_eff = 4.0 * kerr
    # |alpha|^2 [(delta + 4 Lambda |alpha|^2)^2 + kappa^2/4] = |eps|^2
    try:
        drive = abs(eps) ** 2
    except OverflowError:
        raise ValidationError(f"|epsilon|^2 is beyond float range (epsilon = {eps})") from None
    roots = _response_roots(0.5 * kappa, delta, -kerr_eff, drive)
    intensity = roots[0]
    if not 0.0 < intensity < math.inf:
        raise ValidationError("no finite positive intensity root (cubic solve failed)")
    alpha = -1j * eps / (1j * (delta + kerr_eff * intensity) + 0.5 * kappa)
    residual = abs(
        alpha * (1j * (delta + kerr_eff * abs(alpha) ** 2) + 0.5 * kappa) + 1j * eps
    ) / abs(eps)
    return ClassicalField(alpha, len(roots), residual)


@dataclass(frozen=True)
class JpaParams:
    """Operating point of a pumped single-junction amplifier: the fields a
    run reads.

    All energies/rates in rad/s.  ``e_c`` and ``omega0`` are the charging
    energy and bare resonance of :func:`derived_params`; ``delta0`` is the
    Kerr-shifted detuning omega_0 + 4 |alpha|^2 Lambda - omega_p and
    ``lambda1 = 2 alpha^2 Lambda`` the effective parametric pump strength,
    with alpha the low-amplitude :func:`classical_field` branch, one of
    ``branch_count`` coexisting branches.
    """

    e_c: float
    omega0: float
    kappa: float
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
    omega_p: float | None,
    epsilon: complex,
) -> JpaParams:
    """Assemble the operating point from circuit values and the pump.

    The circuit is solved once by :func:`derived_params`; ``omega_p`` None
    pumps at its bare resonance omega_0.
    """
    e_c, omega0, kerr = derived_params(e_j, capacitance)
    omega_p = omega0 if omega_p is None else omega_p
    field = classical_field(omega0, kerr, kappa, omega_p, epsilon)
    alpha = field.alpha
    return JpaParams(
        e_c=e_c, omega0=omega0, kappa=kappa, branch_count=field.branch_count,
        delta0=omega0 + 4.0 * abs(alpha) ** 2 * kerr - omega_p, lambda1=2.0 * alpha**2 * kerr,
    )


def scattering_matrix(params: JpaParams, omega: float) -> np.ndarray:
    """S(omega) = kappa M(omega)^-1 - I in the (signal, idler) basis.

    Element (0, 0) is the signal amplitude gain, (0, 1) the idler gain.
    Raises :class:`ThresholdError` at or above pump threshold |lambda1| =
    kappa/2, where no steady state exists.
    """
    if not params.below_threshold:
        ratio = 2.0 * abs(params.lambda1) / params.kappa  # 0.5 * kappa underflows to 0 at 5e-324
        raise ThresholdError(
            f"pump at or above threshold: |lambda1|/(kappa/2) = {ratio:.6f}"
        )
    half_k = 0.5 * params.kappa
    m = np.array([
        [-1j * (omega + params.delta0) + half_k, 1j * params.lambda1],
        [-1j * np.conj(params.lambda1), 1j * (omega - params.delta0) + half_k],
    ])
    return params.kappa * np.linalg.inv(m) - np.eye(2)


def signal_power_gain(params: JpaParams) -> float:
    """Signal power gain |S_11|^2 on resonance (omega = 0)."""
    return float(abs(scattering_matrix(params, 0.0)[0, 0]) ** 2)


def intracavity_cov(g: float) -> np.ndarray:
    """Steady-state intracavity covariance at pump fraction g = |lambda1|/kappa,
    vacuum input, in closed form.

    In the sqrt(kappa) convention the cavity's Langevin model has drift
    -kappa (I/2 + g sigma_x) and diffusion kappa I/2, so the solution of
    A V + V A^T + D = 0 is diagonal on the axes rotated 45 degrees, with
    variances v_+- = 1/(2(1 +- 2g)), independent of kappa: squeezed on
    (x + p)/sqrt(2), down to the 3 dB intracavity limit 1/4 at threshold
    (Collett & Gardiner, PRA 30, 1386, 1984).  Rotated back,
    V = [[v_+ + v_-, v_+ - v_-], [v_+ - v_-, v_+ + v_-]] / 2.
    """
    if not 0.0 <= g < 0.5:
        raise ThresholdError(f"pump fraction g = {g} outside [0, 0.5)")
    v_plus, v_minus = 0.5 / (1.0 + 2.0 * g), 0.5 / (1.0 - 2.0 * g)
    var, cov = 0.5 * (v_plus + v_minus), 0.5 * (v_plus - v_minus)
    return np.array([[var, cov], [cov, var]])
