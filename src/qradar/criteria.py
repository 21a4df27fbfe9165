"""Non-classicality measures for two-mode Gaussian states.

Three criteria are provided: the Simon-Peres-Horodecki scalar (negative iff
entangled), twice the smallest PPT symplectic eigenvalue (below 1 iff
entangled), and Gaussian quantum discord with its classical-correlation and
mutual-information companions.  All quantities use the global vacuum-1/2
convention and log base 2.

Each formula is written once, as a kernel over a stack of two-mode
covariances: the single-pair functions score a stack of one; pairs sliced
from checked converter steady states, or sent through a channel, which is
completely positive, are scored unchecked (:func:`_reports`,
:func:`_pt_nu_min`).  No criterion runs an eigensolver: each is formed from
determinants and matrix products, and discord's joint entropy from the
symplectic spectrum read off one Cholesky factor per stack
(:func:`~qradar.gaussian._two_mode_spectra`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalDegeneracyError, UndefinedQuantityError
from .gaussian import GaussianState, _member, _square, _two_mode_spectra, entropy_term

__all__ = [
    "BipartiteBlocks",
    "CriteriaReport",
    "lambda_sph",
    "two_eta",
    "gaussian_discord",
]

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class BipartiteBlocks:
    """2x2 blocks (A, B, C) of a two-mode covariance matrix [A, C; C^T, B].

    The blocks are assembled once into ``state``, a zero-mean
    :class:`GaussianState` whose covariance is held to the structural rule of
    every state, and ``A``, ``B`` and ``C`` are read-only views of it.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    state: GaussianState = field(init=False, repr=False)

    def __post_init__(self):
        a, b, c = (_square(m, f"block {n}", 2) for n, m in zip("ABC", (self.A, self.B, self.C)))
        self._hold(np.block([[a, c], [c.T, b]]))

    def _hold(self, cov) -> None:
        """Holds the zero-mean state of the 4x4 ``cov`` and its blocks as views."""
        state = GaussianState(2, np.zeros(4), cov)
        state.cov.setflags(write=False)  # validated once, so it must not change
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "A", state.cov[:2, :2])
        object.__setattr__(self, "B", state.cov[2:, 2:])
        object.__setattr__(self, "C", state.cov[:2, 2:])

    @classmethod
    def from_covariance(cls, cov: np.ndarray) -> "BipartiteBlocks":
        """The blocks of a 4x4 two-mode covariance, held whole, once, to the
        structural rule of a state (its lower-left block must be C^T); made
        without ``__init__``, which would check the blocks again."""
        blocks = cls.__new__(cls)
        blocks._hold(cov)
        return blocks

    def validate_physical(self) -> "BipartiteBlocks":
        self.state.validate_physical()
        return self


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


def _grid(covs: np.ndarray) -> np.ndarray:
    """(n, 2, 2, 2, 2) view whose [:, i, j] is 2x2 block (i, j) of each
    member: A = [:, 0, 0], B = [:, 1, 1], C = [:, 0, 1]."""
    return covs.reshape(-1, 2, 2, 2, 2).swapaxes(2, 3)


def _local_dets(covs: np.ndarray):
    """(det A, det B, det C) of each member, from one det call (det C^T unused)."""
    dets = np.linalg.det(_grid(covs))
    return dets[:, 0, 0], dets[:, 1, 1], dets[:, 0, 1]


def _in_range(covs: np.ndarray, values: np.ndarray, name: Callable[[int], str] | None) -> np.ndarray:
    """``values``, one per member of ``covs``, formed under ``np.errstate``
    from the members' determinants: a finite covariance can have determinants
    beyond float range, and then :class:`UndefinedQuantityError` names the
    first such member (by ``name``, if given) instead of a NaN or inf score."""
    finite = np.isfinite(values)
    if not all(finite.flat):
        raise UndefinedQuantityError(
            f"{_member(covs, int(np.argmin(finite)), name)}covariance invariants beyond "
            "float range; the criteria are undefined"
        )
    return values


def _trace_term(covs: np.ndarray) -> np.ndarray:
    """tr(A J C J B J C^T J) of each member."""
    a, b, c = _blocks(covs)
    m = a @ _J @ c @ _J @ b @ _J @ c.mT @ _J
    return m[:, 0, 0] + m[:, 1, 1]


def _lambda_sph(covs: np.ndarray, name: Callable[[int], str] | None = None, dets=None) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        det_a, det_b, det_c = _local_dets(covs) if dets is None else dets
        lam = (
            np.maximum(det_a - 0.25, 0.0) * np.maximum(det_b - 0.25, 0.0)
            + np.float_power(det_c, 2)
            - 0.5 * np.abs(det_c)
            - _trace_term(covs)
        )
    return _in_range(covs, lam, name)


def lambda_sph(blocks: BipartiteBlocks) -> float:
    """Simon-Peres-Horodecki value; negative iff the state is entangled.

    Written as (det A - 1/4)(det B - 1/4) + det C^2 - |det C|/2 - tr(AJCJBJC^TJ),
    which is exactly 0 on a product state.  Each local det - 1/4 is clamped at
    the vacuum bound 0, which a validated state undershoots only by rounding.
    """
    blocks.validate_physical()
    return float(_lambda_sph(blocks.state.cov[None])[0])


# The discriminant cut of _pt_nu_min.  Delta~^2 - 4 det V carries a rounding
# error delta ~ k eps Delta~^2 (k small: det V by LU, at most Delta~^2 / 4 on a
# physical state), which its square root turns into delta / (2 sqrt(disc))
# where disc >> delta, but into sqrt(delta) ~ sqrt(eps) Delta~ where disc ~
# delta.  At disc >= c Delta~^2 the first bound is k eps Delta~ / (2 sqrt c),
# 500 k eps Delta~ at c = 1e-6.  Below the cut the discriminant is formed again
# from the blocks (_block_discriminant), which loses no digits there but more
# than the 4x4 form at large squeezing; so only those members pay for it.
_DISC_CUT = 1e-6


def _block_discriminant(covs: np.ndarray, det_a, det_b, det_c) -> np.ndarray:
    """Delta~^2 - 4 det V of each member from its blocks, as (det A - det B)^2
    - 4 det C (det A + det B) + 4 tr(A J C J B J C^T J), with no difference of
    terms of the scale Delta~^2: on a product state (C = 0) it is
    (det A - det B)^2 to its own rounding, and 0 when det A = det B."""
    return (
        np.float_power(det_a - det_b, 2) - 4.0 * det_c * (det_a + det_b) + 4.0 * _trace_term(covs)
    )


def _pt_nu_min(covs: np.ndarray, name: Callable[[int], str] | None = None, dets=None) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        det_a, det_b, det_c = _local_dets(covs) if dets is None else dets
        det_v = np.linalg.det(covs)
        delta_t = det_a + det_b - 2.0 * det_c
        delta_t2 = np.float_power(delta_t, 2)
        disc = delta_t2 - 4.0 * det_v
        near = disc < _DISC_CUT * delta_t2
        if near.any():
            disc[near] = _block_discriminant(covs[near], det_a[near], det_b[near], det_c[near])
        disc = _in_range(covs, disc, name)
    degenerate = disc < -1e-10 * np.maximum(1.0, delta_t2)
    if degenerate.any():
        i = int(degenerate.argmax())
        raise NumericalDegeneracyError(
            f"{_member(covs, i, name)}PPT discriminant negative beyond tolerance ({disc[i]:.3e})"
        )
    nu2 = 0.5 * (delta_t - np.sqrt(np.maximum(disc, 0.0)))
    return np.sqrt(np.maximum(nu2, 0.0))


def two_eta(blocks: BipartiteBlocks) -> float:
    """Twice the smallest PPT symplectic eigenvalue; >= 1 iff separable."""
    blocks.validate_physical()
    return float(2.0 * _pt_nu_min(blocks.state.cov[None])[0])


def _entropic(covs: np.ndarray, name: Callable[[int], str] | None, dets):
    """(discord, classical correlation, mutual information) in bits of the
    stack, whose :func:`_local_dets` are ``dets``; run after
    :func:`_lambda_sph` and :func:`_pt_nu_min`, whose range checks cover the
    products it forms but the heterodyne quotient, which is held to the
    range rule itself (det B can lose every digit to rounding, and b = 0
    then divides by zero).  The joint entropy S(AB) = h(nu_-) + h(nu_+)
    takes the spectrum from :func:`~qradar.gaussian._two_mode_spectra`, one
    Cholesky factor for the whole stack; the squares it sums are at most
    (nu_+ + nu_-)^2 <= 2 (det A + det B + 2 det C), in range once those
    checks pass.

    Mode B is measured by heterodyne in its normal frame, where B = b I with
    b = sqrt(det B): mode A is left with the covariance
    A - C adj(B) C^T / (b (b + 1/2)), adj(B) = J B J^T, whatever local
    symplectic brings B to that frame.
    """
    det_a, det_b, _ = dets
    a_blk, b_blk, c_blk = _blocks(covs)
    a = np.sqrt(np.maximum(det_a, 0.0))
    b = np.sqrt(np.maximum(det_b, 0.0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = a_blk - c_blk @ _J @ b_blk @ _J.T @ c_blk.mT / (b * (b + 0.5))[:, None, None]
        det_cond = _in_range(covs, np.linalg.det(cond), name)
    nu_cond = np.sqrt(np.maximum(det_cond, 0.0))
    h_a, h_b, h_cond, h_minus, h_plus = entropy_term(
        np.stack((a, b, nu_cond, *_two_mode_spectra(covs)))
    )
    joint = h_minus + h_plus
    return (
        np.maximum(h_b - joint + h_cond, 0.0),
        np.maximum(h_a - h_cond, 0.0),
        np.maximum(h_a + h_b - joint, 0.0),
    )


def _report(lam: float, eta2: float, discord: float, classical: float, mutual: float):
    return CriteriaReport(lam, eta2, discord, classical, mutual, lam < 0.0, eta2 < 1.0)


def gaussian_discord(blocks: BipartiteBlocks) -> CriteriaReport:
    """Evaluate all criteria, including Gaussian discord, on one mode pair.

    Discord uses the heterodyne Gaussian POVM on the second mode, taken in its
    normal frame (B = b I), evaluated at the definition level,
    D = S(B) - S(AB) + S(A|het), where A|het has the closed-form covariance
    A - C J B J^T C^T / (b (b + 1/2)) with b = sqrt(det B); for two-mode
    squeezed thermal states this equals the compact standard-form expression.
    """
    blocks.validate_physical()
    lam = lambda_sph(blocks)
    eta2 = two_eta(blocks)
    cov = blocks.state.cov[None]
    discord, classical, mutual = _entropic(cov, None, _local_dets(cov))
    return _report(lam, eta2, float(discord[0]), float(classical[0]), float(mutual[0]))


def _reports(covs: np.ndarray, name: Callable[[int], str] | None = None) -> list[CriteriaReport]:
    """:func:`gaussian_discord` of each member of a stack of two-mode
    covariances, shape (n, 4, 4), in stack order, unchecked: the caller
    holds the stack, or the states it is sliced from, to the physical rule.
    The local determinants are computed once, for all three criteria; a
    grid's pairs come as one stack (:func:`~qradar.eom.sweep`), whose members
    stacked det, eigvals and matmul score bit for bit as they would alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        dets = _local_dets(covs)
    columns = (
        _lambda_sph(covs, name, dets), 2.0 * _pt_nu_min(covs, name, dets), *_entropic(covs, name, dets)
    )
    return [_report(*row) for row in zip(*(col.tolist() for col in columns))]

