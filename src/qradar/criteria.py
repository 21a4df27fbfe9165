"""Non-classicality measures for two-mode Gaussian states.

Three criteria are provided: the Simon-Peres-Horodecki scalar (negative iff
entangled), twice the smallest PPT symplectic eigenvalue (below 1 iff
entangled), and Gaussian quantum discord with its classical-correlation and
mutual-information companions.  All quantities use the global vacuum-1/2
convention and log base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonStandardFormError,
    NumericalDegeneracyError,
    ValidationError,
)
from .gaussian import GaussianState, entropy_term, symplectic_eigenvalues

__all__ = [
    "BipartiteBlocks",
    "StandardFormParams",
    "CriteriaReport",
    "lambda_sph",
    "two_eta",
    "standard_form",
    "gaussian_discord",
]

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class BipartiteBlocks:
    """2x2 blocks (A, B, C) of a two-mode covariance matrix [A, C; C^T, B].

    The blocks are assembled once into ``state``, a validated zero-mean
    :class:`GaussianState`; ``A``, ``B`` and ``C`` are read-only views of its
    covariance.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    state: GaussianState = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        c = np.asarray(self.C, dtype=float)
        for name, m in (("A", a), ("B", b), ("C", c)):
            if m.shape != (2, 2):
                raise ValidationError(f"block {name} must be 2x2, got {m.shape}")
        state = GaussianState(2, np.zeros(4), np.block([[a, c], [c.T, b]]))
        state.cov.setflags(write=False)  # validated once, so it must not change
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "A", state.cov[:2, :2])
        object.__setattr__(self, "B", state.cov[2:, 2:])
        object.__setattr__(self, "C", state.cov[:2, 2:])

    @classmethod
    def from_covariance(cls, cov: np.ndarray) -> "BipartiteBlocks":
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValidationError(f"expected a 4x4 two-mode covariance, got {cov.shape}")
        return cls(cov[:2, :2], cov[2:, 2:], cov[:2, 2:])

    def to_covariance(self) -> np.ndarray:
        return self.state.cov.copy()

    def validate_physical(self, tol: float = 1e-9) -> "BipartiteBlocks":
        self.state.validate_physical(tol)
        return self


@dataclass(frozen=True)
class StandardFormParams:
    """Two-mode squeezed thermal standard-form parameters.

    ``tau`` and ``eta_param`` follow the printed parametrisation
    tau = d^2/(b^2 - 1), eta_param = a - b d^2/(b^2 - 1); ``eta_param`` is
    named to avoid clashing with the symplectic-eigenvalue measure 2eta.
    """

    a: float
    b: float
    tau: float
    eta_param: float


@dataclass(frozen=True)
class CriteriaReport:
    """All three criteria evaluated on one mode pair (bits for the entropic ones)."""

    lambda_sph: float
    two_eta: float
    discord: float
    classical_corr: float
    mutual_info: float
    entangled_by_sph: bool
    entangled_by_ppt: bool


def _invariants(blocks: BipartiteBlocks):
    det_a = float(np.linalg.det(blocks.A))
    det_b = float(np.linalg.det(blocks.B))
    det_c = float(np.linalg.det(blocks.C))
    det_v = float(np.linalg.det(blocks.state.cov))
    return det_a, det_b, det_c, det_v


def lambda_sph(blocks: BipartiteBlocks) -> float:
    """Simon-Peres-Horodecki value; negative iff the state is entangled.

    Written as (det A - 1/4)(det B - 1/4) + det C^2 - |det C|/2 - tr(AJCJBJC^TJ),
    which is exactly 0 on a product state.  Each local det - 1/4 is clamped at
    the vacuum bound 0, which a validated state undershoots only by rounding.
    """
    blocks.validate_physical()
    det_a, det_b, det_c, _ = _invariants(blocks)
    a, b, c = blocks.A, blocks.B, blocks.C
    trace_term = float(np.trace(a @ _J @ c @ _J @ b @ _J @ c.T @ _J))
    return (
        max(det_a - 0.25, 0.0) * max(det_b - 0.25, 0.0)
        + det_c**2
        - 0.5 * abs(det_c)
        - trace_term
    )


def _pt_nu_min(blocks: BipartiteBlocks) -> float:
    det_a, det_b, det_c, det_v = _invariants(blocks)
    delta_t = det_a + det_b - 2.0 * det_c
    disc = delta_t**2 - 4.0 * det_v
    if disc < -1e-10 * max(1.0, delta_t**2):
        raise NumericalDegeneracyError(
            f"PPT discriminant negative beyond tolerance ({disc:.3e})"
        )
    nu2 = 0.5 * (delta_t - math.sqrt(max(disc, 0.0)))
    return math.sqrt(max(nu2, 0.0))


def two_eta(blocks: BipartiteBlocks) -> float:
    """Twice the smallest PPT symplectic eigenvalue; >= 1 iff separable."""
    blocks.validate_physical()
    return 2.0 * _pt_nu_min(blocks)


def _nu_pair(blocks: BipartiteBlocks):
    """Symplectic eigenvalues (nu-, nu+) of the (non-transposed) covariance.

    These are the roots nu_pm^2 = (Delta +- sqrt(Delta^2 - 4 det V))/2 with
    Delta = det A + det B + 2 det C, evaluated through the eigensolver: the
    quadratic formula cancels catastrophically for near-pure states.
    """
    nus = symplectic_eigenvalues(blocks.state)
    return float(nus[0]), float(nus[1])


def _single_mode_normalizer(m: np.ndarray) -> np.ndarray:
    """Symplectic S with S m S^T = sqrt(det m) * I for a 2x2 PD matrix."""
    lam, rot = np.linalg.eigh(m)
    if np.linalg.det(rot) < 0:
        rot = rot[:, ::-1]
        lam = lam[::-1]
    if lam[0] <= 0:
        raise ValidationError("local covariance block is not positive definite")
    squeeze = np.diag([(lam[1] / lam[0]) ** 0.25, (lam[0] / lam[1]) ** 0.25])
    return squeeze @ rot.T


def _local_normal_form(blocks: BipartiteBlocks):
    """Reduce (A, B, C) to (a I, b I, C_n) by local symplectics."""
    s_a = _single_mode_normalizer(blocks.A)
    s_b = _single_mode_normalizer(blocks.B)
    a = math.sqrt(max(float(np.linalg.det(blocks.A)), 0.0))
    b = math.sqrt(max(float(np.linalg.det(blocks.B)), 0.0))
    c_n = s_a @ blocks.C @ s_b.T
    return a, b, c_n


def _signed_cross_diagonal(c_n: np.ndarray):
    """Rotate C_n to diag(c_plus, c_minus) with c_plus >= |c_minus|."""
    u, s, vt = np.linalg.svd(c_n)
    sign = float(np.sign(np.linalg.det(u) * np.linalg.det(vt)))
    if sign == 0.0:
        sign = 1.0
    return float(s[0]), float(sign * s[1])


def standard_form(blocks: BipartiteBlocks) -> StandardFormParams:
    """Reduce to the two-mode squeezed thermal standard form (a I, b I, d sigma_z).

    Raises :class:`NonStandardFormError` when the cross block is not
    (reducible to) proportional to diag(1, -1) within 1e-8.
    """
    blocks.validate_physical()
    a, b, c_n = _local_normal_form(blocks)
    c_plus, c_minus = _signed_cross_diagonal(c_n)
    residual = abs(c_plus + c_minus)
    if residual > 1e-8 * max(1.0, c_plus):
        raise NonStandardFormError(
            "blocks are not in two-mode squeezed thermal standard form: "
            f"diagonalised cross block is ({c_plus:.6e}, {c_minus:.6e}), "
            f"symmetry residual {residual:.3e}",
            residuals={"cross_symmetry": residual},
        )
    d = 0.5 * (c_plus - c_minus)
    if b <= 0.5 + 1e-12:
        return StandardFormParams(a=a, b=b, tau=0.0, eta_param=a)
    denom = b * b - 1.0
    if abs(denom) < 1e-12 and d > 1e-12:
        raise NonStandardFormError(
            "printed tau = d^2/(b^2 - 1) is singular at b = 1 with d != 0",
            residuals={"b_squared_minus_one": denom},
        )
    tau = 0.0 if d <= 1e-300 else d * d / denom
    return StandardFormParams(a=a, b=b, tau=tau, eta_param=a - b * tau)


def _heterodyne_conditional_nu(a: float, b: float, c_n: np.ndarray) -> float:
    """Symplectic eigenvalue of mode A after heterodyne detection of mode B."""
    cond = a * np.eye(2) - (c_n @ c_n.T) / (b + 0.5)
    det = float(np.linalg.det(cond))
    return math.sqrt(max(det, 0.0))


def gaussian_discord(blocks: BipartiteBlocks) -> CriteriaReport:
    """Evaluate all criteria, including Gaussian discord, on one mode pair.

    Discord uses the heterodyne Gaussian POVM on the second mode evaluated at
    the definition level, D = S(B) - S(AB) + S(A|het); for two-mode squeezed
    thermal states this equals the compact standard-form expression.
    """
    blocks.validate_physical()
    lam = lambda_sph(blocks)
    eta2 = two_eta(blocks)
    nu_minus, nu_plus = _nu_pair(blocks)
    a, b, c_n = _local_normal_form(blocks)
    nu_cond = _heterodyne_conditional_nu(a, b, c_n)
    joint = entropy_term(nu_minus) + entropy_term(nu_plus)
    discord = max(entropy_term(b) - joint + entropy_term(nu_cond), 0.0)
    classical = max(entropy_term(a) - entropy_term(nu_cond), 0.0)
    mutual = max(entropy_term(a) + entropy_term(b) - joint, 0.0)
    return CriteriaReport(
        lambda_sph=lam,
        two_eta=eta2,
        discord=discord,
        classical_corr=classical,
        mutual_info=mutual,
        entangled_by_sph=lam < 0.0,
        entangled_by_ppt=eta2 < 1.0,
    )
