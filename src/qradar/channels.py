"""Gaussian channels: attenuation, target scattering, amplifiers, and
effective thermal occupation of lossy lines with a temperature profile.

A channel acts on covariances as V -> X V X^T + Y and on means as m -> X m.
All constructors here return single-mode channels; ``expand`` embeds one into
a larger register, and ``then`` composes channels left to right.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UndefinedQuantityError, UnphysicalChannelError, ValidationError
from .errors import _param, _require_valid, _valid
from .gaussian import _eigvalsh_rounding, _square, _symmetrised, symplectic_form

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
        x = _square(self.X, "channel matrix X")
        y = _symmetrised(self.Y, "channel noise matrix Y", len(x))
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)
        # expand's and then's memos; no fields, so out of repr.  A composite
        # is kept only while the other channel lives too.
        object.__setattr__(self, "_embeddings", {})
        object.__setattr__(self, "_composites", weakref.WeakKeyDictionary())
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
        stack: X V X^T + Y, unchecked.  An image beyond float range comes back
        non-finite, with no warning, for the caller's finiteness check."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.X @ covs @ self.X.T + self.Y

    def then(self, other: "GaussianChannel") -> "GaussianChannel":
        """Composite channel equivalent to applying ``self`` first, then ``other``.

        Both channels are frozen with read-only X and Y, so each composite is
        built, and decided completely positive, once: later calls with the
        same ``other`` object return the same channel, for as long as both
        channels live.
        """
        if other.X.shape != self.X.shape:
            raise ValidationError(
                f"cannot compose channels of shape {self.X.shape} and {other.X.shape}"
            )
        if other not in self._composites:
            desc = " -> ".join(d for d in (self.description, other.description) if d)
            with np.errstate(over="ignore", invalid="ignore"):  # a product beyond float range fails below
                x = other.X @ self.X
            self._composites[other] = GaussianChannel(x, other.act(self.Y), desc)
        return self._composites[other]

    def expand(self, mode: int, n_modes: int) -> "GaussianChannel":
        """Embed a single-mode channel on ``mode`` of an ``n_modes`` register.

        The channel is frozen and its X and Y are read-only, so each embedding
        is built, and decided completely positive, once: later calls with the
        same ``mode`` and ``n_modes`` return the same channel.
        """
        if self.n_modes != 1:
            raise ValidationError("expand only applies to single-mode channels")
        try:  # 0.0 would find the embedding made for 0
            key = (operator.index(mode), operator.index(n_modes))
        except TypeError:
            raise ValidationError(
                f"mode index {mode!r} and mode count {n_modes!r} must be integers"
            ) from None
        if not 0 <= mode < n_modes:
            raise ValidationError(f"mode index {mode} out of range for {n_modes} modes")
        if key not in self._embeddings:
            x = np.eye(2 * n_modes)
            y = np.zeros((2 * n_modes, 2 * n_modes))
            s = slice(2 * mode, 2 * mode + 2)
            x[s, s] = self.X
            y[s, s] = self.Y
            self._embeddings[key] = GaussianChannel(x, y, self.description)
        return self._embeddings[key]


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


# The most panels n_eff_general takes: its nested node array holds panels x 16
# x 16 floats at the 16-point rule, 8 MiB at this cap.
_MAX_QUADRATURE_POINTS = 4096


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
    ``quadrature_points`` (an integer from 1 to 4096) equal panels, split
    further at ``breakpoints``; the result at 16 points per panel is returned once it agrees with the
    result at 8 to 1e-6 max(1, |n_eff|), else :class:`ConvergenceError`.
    A fixed rule sees a profile only at its nodes, so a discontinuity must
    be passed in ``breakpoints`` to land on a panel edge; one left inside a
    panel fails that check (or, if small, costs accuracy unnoticed).

    A panel too opaque for the rule is a :class:`ConvergenceError` too (after
    the float-range checks), since both rules can agree there and be wrong.
    Its optical depth tau (the integral of mu over it) is held to at most
    25: where mu is uniform on a panel, the rule integrates
    g(t) = K e^{tau (1 + t)/2} on t in [-1, 1], with 16-point Gauss-Legendre
    error c (tau/2)^32 g(xi), c = 2^33 (16!)^4 / (33 (32!)^3) = 2.74e-45;
    relative to the panel's integral 2K (e^tau - 1)/tau that is at most
    c (tau/2)^33 / (1 - e^{-tau}), which reaches 1e-8 at tau = 25.6.  Each
    panel's share of n_eff is non-negative, so n_eff keeps that bound.
    """
    _valid("length", "positive", length)
    try:
        panels = operator.index(quadrature_points)
    except TypeError:
        panels = 0
    if panels < 1:
        raise ValidationError(f"quadrature_points must be an integer >= 1, got {quadrature_points!r}")
    if panels > _MAX_QUADRATURE_POINTS:
        raise ValidationError(f"quadrature_points must be <= {_MAX_QUADRATURE_POINTS}, got {panels!r}")

    edges = np.linspace(0.0, length, panels + 1)
    inside = [float(b) for b in breakpoints if 0.0 < b < length]
    if inside:
        edges = np.unique(np.concatenate([edges, inside]))
    (coarse, _), (fine, depth) = (_n_eff_gauss_legendre(mu_fn, n_fn, edges, *rule) for rule in _RULES)
    if depth > _MAX_PANEL_DEPTH:
        raise ConvergenceError(
            f"a panel's optical depth {depth:.3e} exceeds {_MAX_PANEL_DEPTH}, where the 16-point "
            "rule's error may pass 1e-8: use more quadrature_points"
        )
    diff = abs(fine - coarse)
    if not diff <= 1e-6 * max(1.0, abs(fine)):
        raise ConvergenceError(
            f"n_eff changes by {diff:.3e} between the 8- and 16-point rules", residual=diff
        )
    return fine


# Gauss-Legendre nodes and weights on [-1, 1] at 8 and 16 points per panel,
# and the largest optical depth of a panel n_eff_general integrates.
_RULES = tuple(np.polynomial.legendre.leggauss(m) for m in (8, 16))
_MAX_PANEL_DEPTH = 25.0


def _n_eff_gauss_legendre(mu_fn, n_fn, edges: np.ndarray, t: np.ndarray, w: np.ndarray):
    """(n_eff, the largest panel's optical depth) by the Gauss-Legendre rule
    (nodes ``t``, weights ``w``) on each panel between ``edges``.  The
    absorption up to a node is the sum over earlier panels plus the same
    rule mapped onto [panel edge, node]; the weighted integrand is summed
    exactly rounded (``math.fsum``).  Either integral beyond float range is
    an :class:`UndefinedQuantityError`."""
    left = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    x = left + half * (t + 1.0)
    span = 0.5 * (x - left)  # half the width of [panel edge, node]
    nested = left[..., None] + span[..., None] * (t + 1.0)
    mu, mu_nested, n = mu_fn(x), mu_fn(nested), n_fn(x)
    for name, values in (("mu", mu), ("mu", mu_nested), ("n", n)):
        if not np.all((values >= 0.0) & (values < math.inf)):
            raise ValidationError(f"{name} must be finite and non-negative at every node")
    # Occupations all below 1/2 are scaled up by an exact power of two, so a
    # subnormal one keeps its significant bits in the products below; the
    # result is scaled back.  Larger ones are not scaled down: mu n beyond
    # float range is how a profile too stiff for the nodes fails.
    exponent = min(0, int(np.frexp(np.max(n))[1]))
    n = np.ldexp(n, -exponent)
    with np.errstate(over="ignore", invalid="ignore"):  # an integral beyond float range fails below
        depths = (half * w * mu).sum(axis=1)
        before = np.concatenate(([0.0], np.cumsum(depths)))
        absorbed = before[:-1, None] + span * (mu_nested * w).sum(axis=-1)
        total = before[-1]
        weighted = (half * w * mu * n * np.exp(absorbed - total)).ravel()
    if not (total < math.inf and np.isfinite(absorbed).all()):
        raise UndefinedQuantityError("n_eff is undefined: the absorption integral is beyond float range")
    denom = 1.0 - math.exp(-total)
    if denom < 1e-300:
        raise UndefinedQuantityError("n_eff is 0/0: total absorption vanishes")
    try:
        n_eff = math.ldexp(math.fsum(weighted) / denom, exponent)
    except OverflowError:  # fsum's partial sums left float range
        n_eff = math.inf
    if not n_eff < math.inf:
        raise UndefinedQuantityError("n_eff is undefined: the noise integral is beyond float range")
    return n_eff, float(depths.max())
