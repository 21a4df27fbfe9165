"""Non-classicality measures for two-mode Gaussian states.

Three criteria are provided: the Simon-Peres-Horodecki scalar (negative iff
entangled), twice the smallest PPT symplectic eigenvalue (below 1 iff
entangled), and Gaussian quantum discord with its classical-correlation and
mutual-information companions.  All quantities use the global vacuum-1/2
convention and log base 2.

Each formula is written once, as a kernel over a stack of two-mode
covariances: the single-pair functions score a stack of one, and
:func:`discord_reports` / :func:`two_eta_values` score a whole sweep grid's
pairs in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonStandardFormError,
    NumericalDegeneracyError,
    ValidationError,
)
from .gaussian import GaussianState, _member, _symplectic_spectra, _validated_stack, entropy_term

__all__ = [
    "BipartiteBlocks",
    "StandardFormParams",
    "CriteriaReport",
    "lambda_sph",
    "two_eta",
    "standard_form",
    "gaussian_discord",
    "discord_reports",
    "two_eta_values",
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


# The kernels below work on stacks of two-mode covariances, shape (n, 4, 4),
# and are the only copy of each formula: the single-pair functions run them
# on a stack of one.  np.float_power stands where the formulas square or take
# roots of scalars: it keeps C pow's rounding, which ``**`` on arrays does not.


def _blocks(covs: np.ndarray):
    return covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]


def _t(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2)


def _grid(covs: np.ndarray) -> np.ndarray:
    """(n, 2, 2, 2, 2) view whose [:, i, j] is 2x2 block (i, j) of each
    member: A = [:, 0, 0], B = [:, 1, 1], C = [:, 0, 1]."""
    return covs.reshape(-1, 2, 2, 2, 2).swapaxes(2, 3)


def _local_dets(covs: np.ndarray):
    """(det A, det B, det C) of each member, from one det call (det C^T unused)."""
    dets = np.linalg.det(_grid(covs))
    return dets[:, 0, 0], dets[:, 1, 1], dets[:, 0, 1]


def _lambda_sph(covs: np.ndarray) -> np.ndarray:
    det_a, det_b, det_c = _local_dets(covs)
    a, b, c = _blocks(covs)
    m = a @ _J @ c @ _J @ b @ _J @ _t(c) @ _J
    trace_term = m[:, 0, 0] + m[:, 1, 1]
    return (
        np.maximum(det_a - 0.25, 0.0) * np.maximum(det_b - 0.25, 0.0)
        + np.float_power(det_c, 2)
        - 0.5 * np.abs(det_c)
        - trace_term
    )


def lambda_sph(blocks: BipartiteBlocks) -> float:
    """Simon-Peres-Horodecki value; negative iff the state is entangled.

    Written as (det A - 1/4)(det B - 1/4) + det C^2 - |det C|/2 - tr(AJCJBJC^TJ),
    which is exactly 0 on a product state.  Each local det - 1/4 is clamped at
    the vacuum bound 0, which a validated state undershoots only by rounding.
    """
    blocks.validate_physical()
    return float(_lambda_sph(blocks.state.cov[None])[0])


def _pt_nu_min(covs: np.ndarray) -> np.ndarray:
    det_a, det_b, det_c = _local_dets(covs)
    det_v = np.linalg.det(covs)
    delta_t = det_a + det_b - 2.0 * det_c
    delta_t2 = np.float_power(delta_t, 2)
    disc = delta_t2 - 4.0 * det_v
    degenerate = disc < -1e-10 * np.maximum(1.0, delta_t2)
    if degenerate.any():
        i = int(degenerate.argmax())
        raise NumericalDegeneracyError(
            f"{_member(covs, i)}PPT discriminant negative beyond tolerance ({disc[i]:.3e})"
        )
    nu2 = 0.5 * (delta_t - np.sqrt(np.maximum(disc, 0.0)))
    return np.sqrt(np.maximum(nu2, 0.0))


def two_eta(blocks: BipartiteBlocks) -> float:
    """Twice the smallest PPT symplectic eigenvalue; >= 1 iff separable."""
    blocks.validate_physical()
    return float(2.0 * _pt_nu_min(blocks.state.cov[None])[0])


def _single_mode_normalizer(m: np.ndarray) -> np.ndarray:
    """Symplectic S with S m S^T = sqrt(det m) * I for each 2x2 matrix of
    ``m``, shape (n, k, 2, 2): diagonal blocks of validated covariances, which
    are positive definite because the covariances are."""
    lam, rot = np.linalg.eigh(m)
    flip = np.linalg.det(rot) < 0
    rot = np.where(flip[..., None, None], rot[..., ::-1], rot)
    lam = np.where(flip[..., None], lam[..., ::-1], lam)
    squeeze = np.float_power(lam[..., ::-1] / lam, 0.25)[..., None] * np.eye(2)
    return squeeze @ _t(rot)


def _local_normal_form(covs: np.ndarray):
    """Reduce (A, B, C) to (a I, b I, C_n) by local symplectics."""
    grid = _grid(covs)
    det_a, det_b, _ = _local_dets(covs)
    s = _single_mode_normalizer(grid[:, [0, 1], [0, 1]])  # S_A and S_B
    a = np.sqrt(np.maximum(det_a, 0.0))
    b = np.sqrt(np.maximum(det_b, 0.0))
    return a, b, s[:, 0] @ grid[:, 0, 1] @ _t(s[:, 1])


def _signed_cross_diagonal(c_n: np.ndarray):
    """Rotate C_n to diag(c_plus, c_minus) with c_plus >= |c_minus|."""
    u, s, vt = np.linalg.svd(c_n)
    sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    return s[:, 0], np.where(sign == 0.0, 1.0, sign) * s[:, 1]


def standard_form(blocks: BipartiteBlocks) -> StandardFormParams:
    """Reduce to the two-mode squeezed thermal standard form (a I, b I, d sigma_z).

    Raises :class:`NonStandardFormError` when the cross block is not
    (reducible to) proportional to diag(1, -1) within 1e-8.
    """
    blocks.validate_physical()
    a, b, c_n = _local_normal_form(blocks.state.cov[None])
    c_plus, c_minus = _signed_cross_diagonal(c_n)
    a, b, c_plus, c_minus = float(a[0]), float(b[0]), float(c_plus[0]), float(c_minus[0])
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


def _heterodyne_conditional_nu(a: np.ndarray, b: np.ndarray, c_n: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalue of mode A after heterodyne detection of mode B."""
    cond = a[:, None, None] * np.eye(2) - (c_n @ _t(c_n)) / (b + 0.5)[:, None, None]
    return np.sqrt(np.maximum(np.linalg.det(cond), 0.0))


def _entropic(covs: np.ndarray, nus: np.ndarray):
    """(discord, classical correlation, mutual information) in bits, from the
    stack and its symplectic spectra."""
    a, b, c_n = _local_normal_form(covs)
    nu_cond = _heterodyne_conditional_nu(a, b, c_n)
    h_a, h_b, h_cond, h_minus, h_plus = entropy_term(
        np.stack((a, b, nu_cond, nus[:, 0], nus[:, 1]))
    )
    joint = h_minus + h_plus
    return (
        np.maximum(h_b - joint + h_cond, 0.0),
        np.maximum(h_a - h_cond, 0.0),
        np.maximum(h_a + h_b - joint, 0.0),
    )


def _report(lam: float, eta2: float, discord: float, classical: float, mutual: float):
    return CriteriaReport(
        lambda_sph=lam,
        two_eta=eta2,
        discord=discord,
        classical_corr=classical,
        mutual_info=mutual,
        entangled_by_sph=lam < 0.0,
        entangled_by_ppt=eta2 < 1.0,
    )


def gaussian_discord(blocks: BipartiteBlocks) -> CriteriaReport:
    """Evaluate all criteria, including Gaussian discord, on one mode pair.

    Discord uses the heterodyne Gaussian POVM on the second mode evaluated at
    the definition level, D = S(B) - S(AB) + S(A|het); for two-mode squeezed
    thermal states this equals the compact standard-form expression.
    """
    blocks.validate_physical()
    lam = lambda_sph(blocks)
    eta2 = two_eta(blocks)
    covs = blocks.state.cov[None]
    discord, classical, mutual = _entropic(covs, _symplectic_spectra(covs))
    return _report(lam, eta2, float(discord[0]), float(classical[0]), float(mutual[0]))


def discord_reports(covs) -> list[CriteriaReport]:
    """:func:`gaussian_discord` of each member of a stack of two-mode
    covariances, shape (n, 4, 4), in stack order.

    The stack is checked once, as a :class:`BipartiteBlocks` is (finite,
    symmetric, positive definite, nu_min >= 1/2 - 1e-9); an error about a
    stack of several names the offending member.
    """
    covs, nus = _validated_stack(covs, 2)
    columns = (_lambda_sph(covs), 2.0 * _pt_nu_min(covs), *_entropic(covs, nus))
    return [_report(*row) for row in zip(*(col.tolist() for col in columns))]


def two_eta_values(covs) -> np.ndarray:
    """:func:`two_eta` of each member of a stack of two-mode covariances,
    shape (n, 4, 4), checked once as :func:`discord_reports` checks it."""
    covs, _ = _validated_stack(covs, 2)
    return 2.0 * _pt_nu_min(covs)
