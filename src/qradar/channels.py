"""Gaussian channels: attenuation, target scattering, amplifiers, and
effective thermal occupation of lossy lines with a temperature profile.

A channel acts on covariances as V -> X V X^T + Y and on means as m -> X m.
All constructors here return single-mode channels; ``expand`` embeds one into
a larger register, and ``then`` composes channels left to right.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UndefinedQuantityError, ValidationError
from .gaussian import _asymmetric

__all__ = [
    "GaussianChannel",
    "ThermalProfile",
    "identity_channel",
    "attenuation_channel",
    "target_channel",
    "amplifier_channel",
    "thermal_background_channel",
    "round_trip",
    "n_eff_closed",
    "n_eff_general",
]


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Affine covariance map (scaling matrix X, additive noise matrix Y)."""

    X: np.ndarray
    Y: np.ndarray
    description: str = ""

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if x.shape != y.shape or x.shape[0] != x.shape[1] or x.shape[0] % 2:
            raise ValidationError(
                f"channel matrices must be square 2N x 2N and equal shape, got {x.shape} and {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("channel matrices must be finite")
        if _asymmetric(y):
            raise ValidationError("channel noise matrix Y must be symmetric")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", 0.5 * (y + y.T))

    @property
    def n_modes(self) -> int:
        return self.X.shape[0] // 2

    def then(self, other: "GaussianChannel") -> "GaussianChannel":
        """Composite channel equivalent to applying ``self`` first, then ``other``."""
        if other.X.shape != self.X.shape:
            raise ValidationError(
                f"cannot compose channels of shape {self.X.shape} and {other.X.shape}"
            )
        x = other.X @ self.X
        y = other.X @ self.Y @ other.X.T + other.Y
        desc = " -> ".join(d for d in (self.description, other.description) if d)
        return GaussianChannel(x, y, desc)

    def expand(self, mode: int, n_modes: int) -> "GaussianChannel":
        """Embed a single-mode channel on ``mode`` of an ``n_modes`` register."""
        if self.n_modes != 1:
            raise ValidationError("expand only applies to single-mode channels")
        if not 0 <= mode < n_modes:
            raise ValidationError(f"mode index {mode} out of range for {n_modes} modes")
        x = np.eye(2 * n_modes)
        y = np.zeros((2 * n_modes, 2 * n_modes))
        s = slice(2 * mode, 2 * mode + 2)
        x[s, s] = self.X
        y[s, s] = self.Y
        return GaussianChannel(x, y, self.description)


def identity_channel(n_modes: int = 1) -> GaussianChannel:
    dim = 2 * n_modes
    return GaussianChannel(np.eye(dim), np.zeros((dim, dim)), "identity")


def attenuation_channel(kappa_atm: float, distance: float, n_env: float = 0.0) -> GaussianChannel:
    """Atmospheric attenuation over ``distance`` metres.

    The cascaded beam-splitter model gives an amplitude factor e^{-kappa R},
    hence power transmissivity tau = e^{-2 kappa R}, with thermal injection
    (1 - tau)(n_env + 1/2) per quadrature.
    """
    if kappa_atm < 0 or distance < 0 or n_env < 0:
        raise ValidationError("attenuation parameters must be non-negative")
    tau = math.exp(-2.0 * kappa_atm * distance)
    x = math.sqrt(tau) * np.eye(2)
    y = (1.0 - tau) * (n_env + 0.5) * np.eye(2)
    return GaussianChannel(x, y, f"attenuation(kappa={kappa_atm:g}/m, R={distance:g} m)")


def target_channel(kappa_t: float, dz_t: float, n_t: float = 0.0) -> GaussianChannel:
    """Target scattering with effective amplitude reflectivity e^{-kappa_t dz_t}."""
    if kappa_t < 0 or dz_t <= 0 or n_t < 0:
        raise ValidationError("target parameters must be positive (kappa_t >= 0, dz_t > 0, n_t >= 0)")
    r_eff = math.exp(-kappa_t * dz_t)
    x = r_eff * np.eye(2)
    y = (1.0 - r_eff**2) * (n_t + 0.5) * np.eye(2)
    return GaussianChannel(x, y, f"target(kappa_t={kappa_t:g}/m, dz={dz_t:g} m)")


def amplifier_channel(gain_db: float, added_noise: float = 0.0) -> GaussianChannel:
    """Phase-insensitive amplifier; quantum limited at added_noise = 0."""
    if gain_db < 0:
        raise ValidationError("gain below unity: use attenuation_channel instead")
    if added_noise < 0:
        raise ValidationError("added_noise must be non-negative")
    g = 10.0 ** (gain_db / 10.0)
    x = math.sqrt(g) * np.eye(2)
    y = (g - 1.0) * (added_noise + 0.5) * np.eye(2)
    return GaussianChannel(x, y, f"amplifier({gain_db:g} dB)")


def thermal_background_channel(n_occupation: float) -> GaussianChannel:
    """Replace the input with a thermal state of the given occupation."""
    if n_occupation < 0:
        raise ValidationError("occupation must be non-negative")
    return GaussianChannel(
        np.zeros((2, 2)),
        (n_occupation + 0.5) * np.eye(2),
        f"thermal_background(n={n_occupation:g})",
    )


def round_trip(
    out_channel: GaussianChannel,
    target: GaussianChannel,
    back_channel: GaussianChannel,
) -> GaussianChannel:
    """Out through the medium, scatter off the target, back through the medium."""
    for ch in (out_channel, target, back_channel):
        if ch.n_modes != 1:
            raise ValidationError("round_trip expects single-mode channels")
    return out_channel.then(target).then(back_channel)


@dataclass(frozen=True)
class ThermalProfile:
    """Step temperature/absorption profile of a transmission line.

    The line runs from 0 to ``length``; the first ``l0`` metres sit at the
    cryogenic occupation ``n_in`` with absorption ``mu_in``, the remainder at
    ``n_out`` / ``mu_out``.
    """

    n_in: float
    n_out: float
    mu_in: float
    mu_out: float
    l0: float
    length: float

    def __post_init__(self):
        if self.n_in < 0 or self.n_out < 0:
            raise ValidationError("thermal occupations must be non-negative")
        if self.mu_in < 0 or self.mu_out < 0:
            raise ValidationError("absorption coefficients must be non-negative")
        if not (0.0 <= self.l0 <= self.length) or self.length <= 0:
            raise ValidationError("profile lengths must satisfy 0 <= l0 <= length, length > 0")

    def occupation_at(self, x: float) -> float:
        return self.n_in if x < self.l0 else self.n_out

    def absorption_at(self, x: float) -> float:
        return self.mu_in if x < self.l0 else self.mu_out


def n_eff_closed(profile: ThermalProfile) -> float:
    """Effective thermal photon number of a step-profile lossy line."""
    a = profile.mu_in * profile.l0
    b = profile.mu_out * (profile.length - profile.l0)
    denom = 1.0 - math.exp(-a) * math.exp(-b)
    if denom < 1e-300:
        raise UndefinedQuantityError(
            "n_eff is 0/0 for a lossless line (both absorption exponents vanish)"
        )
    w_in = math.exp(-b) * (1.0 - math.exp(-a)) / denom
    w_out = (1.0 - math.exp(-b)) / denom
    return profile.n_in * w_in + profile.n_out * w_out


def n_eff_general(
    mu_fn, n_fn, length: float, quadrature_points: int = 64, breakpoints=()
) -> float:
    """Effective thermal photon number for arbitrary mu(x), n(x) profiles.

    Noise injected at depth x is attenuated over its remaining path to the
    line output, so n_eff = int_0^L mu n e^{-int_x^L mu} dx divided by
    (1 - e^{-int_0^L mu}).  (This orientation is the one the step-profile
    closed form specializes; it agrees with :func:`n_eff_closed` to better
    than 1e-8.)  The quadrature is adaptive on ``quadrature_points`` panels;
    pass profile discontinuities through ``breakpoints`` so they land on
    panel edges, where adaptive rules cannot miss them.
    """
    if length <= 0:
        raise ValidationError("length must be positive")
    if quadrature_points < 1:
        raise ValidationError("quadrature_points must be >= 1")

    edges = np.linspace(0.0, length, quadrature_points + 1)
    inside = [float(b) for b in breakpoints if 0.0 < b < length]
    if inside:
        edges = np.unique(np.concatenate([edges, inside]))
    quadrature_points = len(edges) - 1
    from scipy import integrate  # loaded on first use: only this profile path needs it

    cum = np.zeros(quadrature_points + 1)
    err_budget = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for i in range(quadrature_points):
            val, err = integrate.quad(
                mu_fn, edges[i], edges[i + 1], limit=200, epsabs=1e-13, epsrel=1e-12
            )
            cum[i + 1] = cum[i] + val
            err_budget += err
        total_absorption = cum[-1]

        def absorbed(x: float) -> float:
            i = min(int(np.searchsorted(edges, x, side="right")) - 1, quadrature_points - 1)
            tail, _ = integrate.quad(
                mu_fn, edges[i], x, limit=200, epsabs=1e-13, epsrel=1e-12
            )
            return cum[i] + tail

        def integrand(x: float) -> float:
            return mu_fn(x) * n_fn(x) * math.exp(-(total_absorption - absorbed(x)))

        numerator = 0.0
        for i in range(quadrature_points):
            val, err = integrate.quad(
                integrand, edges[i], edges[i + 1], limit=200, epsabs=1e-12, epsrel=1e-11
            )
            numerator += val
            err_budget += err

    denom = 1.0 - math.exp(-total_absorption)
    if denom < 1e-300:
        raise UndefinedQuantityError("n_eff is 0/0: total absorption vanishes")
    result = numerator / denom
    if err_budget / max(denom, 1e-300) > 1e-6 * max(1.0, abs(result)):
        raise ConvergenceError(
            f"n_eff quadrature error estimate {err_budget:.3e} exceeds tolerance",
            residual=err_budget,
        )
    return result
