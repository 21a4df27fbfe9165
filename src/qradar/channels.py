"""Gaussian channels: attenuation, target scattering, amplifiers, and
effective thermal occupation of lossy lines with a temperature profile.

A channel acts on covariances as V -> X V X^T + Y and on means as m -> X m.
All constructors here return single-mode channels; ``expand`` embeds one into
a larger register, and ``then`` composes channels left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UndefinedQuantityError, UnphysicalChannelError, ValidationError
from .errors import _param, _require_valid, _valid
from .gaussian import _asymmetric, _eigvalsh_rounding, _symmetric_part, symplectic_form

__all__ = [
    "GaussianChannel",
    "ThermalProfile",
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
    """Affine covariance map (scaling matrix X, additive noise matrix Y), read-only, completely positive."""

    X: np.ndarray
    Y: np.ndarray
    description: str = ""

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.X, dtype=float))
        y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if x.shape != y.shape or x.shape[0] != x.shape[1] or x.shape[0] % 2 or not x.size:
            raise ValidationError(
                f"channel matrices must be square 2N x 2N, N >= 1, equal shape; got {x.shape} and {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("channel matrices must be finite")
        if _asymmetric(y):
            raise ValidationError("channel noise matrix Y must be symmetric")
        y = _symmetric_part(y)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)
        omega = symplectic_form(self.n_modes)
        with np.errstate(over="ignore", invalid="ignore"):  # X Omega X^T beyond float range fails below
            m = y + 0.5j * (omega - x @ omega @ x.T)
        rounding = _eigvalsh_rounding(m)
        finite = np.isfinite(rounding)
        defect = float(np.linalg.eigvalsh(m).min()) if finite else -math.inf
        # CP is M = Y + (i/2)(Omega - X Omega X^T) >= 0, less eigvalsh's rounding.
        if not finite or defect < -max(1e-9, rounding):
            raise UnphysicalChannelError(
                f"channel violates complete positivity (defect {defect:.3e}): {self.description!r}"
            )

    @property
    def n_modes(self) -> int:
        return self.X.shape[0] // 2

    def act(self, covs: np.ndarray) -> np.ndarray:
        """The action on a covariance V, or on each member of an (n, d, d)
        stack: X V X^T + Y, unchecked."""
        return self.X @ covs @ self.X.T + self.Y

    def then(self, other: "GaussianChannel") -> "GaussianChannel":
        """Composite channel equivalent to applying ``self`` first, then ``other``."""
        if other.X.shape != self.X.shape:
            raise ValidationError(
                f"cannot compose channels of shape {self.X.shape} and {other.X.shape}"
            )
        desc = " -> ".join(d for d in (self.description, other.description) if d)
        return GaussianChannel(other.X @ self.X, other.act(self.Y), desc)

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


def attenuation_channel(kappa_atm: float, distance: float, n_env: float = 0.0) -> GaussianChannel:
    """Atmospheric attenuation over ``distance`` metres.

    The cascaded beam-splitter model gives an amplitude factor e^{-kappa R},
    hence power transmissivity tau = e^{-2 kappa R}, with thermal injection
    (1 - tau)(n_env + 1/2) per quadrature.
    """
    _valid("kappa_atm", "non-negative", kappa_atm)
    _valid("distance", "non-negative", distance)
    _valid("n_env", "non-negative", n_env)
    tau = math.exp(-2.0 * kappa_atm * distance)
    x = math.sqrt(tau) * np.eye(2)
    y = (1.0 - tau) * (n_env + 0.5) * np.eye(2)
    return GaussianChannel(x, y, f"attenuation(kappa={kappa_atm:g}/m, R={distance:g} m)")


def target_channel(kappa_t: float, dz_t: float, n_t: float = 0.0) -> GaussianChannel:
    """Target scattering with effective amplitude reflectivity e^{-kappa_t dz_t}."""
    _valid("kappa_t", "non-negative", kappa_t)
    _valid("dz_t", "positive", dz_t)
    _valid("n_t", "non-negative", n_t)
    r_eff = math.exp(-kappa_t * dz_t)
    x = r_eff * np.eye(2)
    y = (1.0 - r_eff**2) * (n_t + 0.5) * np.eye(2)
    return GaussianChannel(x, y, f"target(kappa_t={kappa_t:g}/m, dz={dz_t:g} m)")


def amplifier_channel(gain_db: float, added_noise: float = 0.0) -> GaussianChannel:
    """Phase-insensitive amplifier; quantum limited at added_noise = 0."""
    if _valid("gain_db", None, gain_db) < 0:
        raise ValidationError("gain below unity: use attenuation_channel instead")
    _valid("added_noise", "non-negative", added_noise)
    try:
        g = 10.0 ** (gain_db / 10.0)
    except OverflowError:  # G beyond float range: so is the noise, which fails below
        g = math.inf
    noise = _valid("amplifier noise (G - 1)(added_noise + 1/2)", None, (g - 1.0) * (added_noise + 0.5))
    return GaussianChannel(math.sqrt(g) * np.eye(2), noise * np.eye(2), f"amplifier({gain_db:g} dB)")


def thermal_background_channel(n_occupation: float) -> GaussianChannel:
    """Replace the input with a thermal state of the given occupation."""
    _valid("n_occupation", "non-negative", n_occupation)
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

    n_in: float = _param(sign="non-negative")
    n_out: float = _param(sign="non-negative")
    mu_in: float = _param(sign="non-negative")
    mu_out: float = _param(sign="non-negative")
    l0: float = _param(sign="non-negative")
    length: float = _param(sign="positive")

    def __post_init__(self):
        _require_valid(self)
        if self.l0 > self.length:
            raise ValidationError("l0 must not exceed length")

    def occupation_at(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < self.l0, self.n_in, self.n_out)

    def absorption_at(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < self.l0, self.mu_in, self.mu_out)


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
    than 1e-8.)  ``mu_fn`` and ``n_fn`` take an array of depths and return
    the profile at each (finite and non-negative), or one uniform scalar.

    The integrals are fixed-order composite Gauss-Legendre on
    ``quadrature_points`` equal panels, split further at ``breakpoints``;
    the result at 16 points per panel is returned once it agrees with the
    result at 8 to 1e-6 max(1, |n_eff|), else :class:`ConvergenceError`.
    A fixed rule sees a profile only at its nodes, so a discontinuity must
    be passed in ``breakpoints`` to land on a panel edge; one left inside a
    panel fails that check (or, if small, costs accuracy unnoticed).
    """
    _valid("length", "positive", length)
    if quadrature_points < 1:
        raise ValidationError("quadrature_points must be >= 1")

    edges = np.linspace(0.0, length, quadrature_points + 1)
    inside = [float(b) for b in breakpoints if 0.0 < b < length]
    if inside:
        edges = np.unique(np.concatenate([edges, inside]))
    coarse, fine = (_n_eff_gauss_legendre(mu_fn, n_fn, edges, *rule) for rule in _RULES)
    diff = abs(fine - coarse)
    if not diff <= 1e-6 * max(1.0, abs(fine)):
        raise ConvergenceError(
            f"n_eff changes by {diff:.3e} between the 8- and 16-point rules", residual=diff
        )
    return fine


# Gauss-Legendre nodes and weights on [-1, 1] at 8 and 16 points per panel.
_RULES = tuple(np.polynomial.legendre.leggauss(m) for m in (8, 16))


def _n_eff_gauss_legendre(mu_fn, n_fn, edges: np.ndarray, t: np.ndarray, w: np.ndarray) -> float:
    """n_eff by the Gauss-Legendre rule (nodes ``t``, weights ``w``) on each
    panel between ``edges``.  The absorption up to a node is the sum over
    earlier panels plus the same rule mapped onto [panel edge, node]; the
    weighted integrand is summed exactly rounded (``math.fsum``).  Either
    integral beyond float range is an :class:`UndefinedQuantityError`."""
    left = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    x = left + half * (t + 1.0)
    span = 0.5 * (x - left)  # half the width of [panel edge, node]
    nested = left[..., None] + span[..., None] * (t + 1.0)
    mu, mu_nested, n = mu_fn(x), mu_fn(nested), n_fn(x)
    for name, values in (("mu", mu), ("mu", mu_nested), ("n", n)):
        if not np.all((values >= 0.0) & (values < math.inf)):
            raise ValidationError(f"{name} must be finite and non-negative at every node")
    with np.errstate(over="ignore", invalid="ignore"):  # an integral beyond float range fails below
        before = np.concatenate(([0.0], np.cumsum((half * w * mu).sum(axis=1))))
        absorbed = before[:-1, None] + span * (mu_nested * w).sum(axis=-1)
        total = before[-1]
        weighted = (half * w * mu * n * np.exp(absorbed - total)).ravel()
    if not (total < math.inf and np.isfinite(absorbed).all()):
        raise UndefinedQuantityError("n_eff is undefined: the absorption integral is beyond float range")
    denom = 1.0 - math.exp(-total)
    if denom < 1e-300:
        raise UndefinedQuantityError("n_eff is 0/0: total absorption vanishes")
    try:
        n_eff = math.fsum(weighted) / denom
    except OverflowError:  # fsum's partial sums left float range
        n_eff = math.inf
    if not n_eff < math.inf:
        raise UndefinedQuantityError("n_eff is undefined: the noise integral is beyond float range")
    return n_eff
