"""The exact reference (``exact``) against closed forms: the Lyapunov solve
on a thermal cavity and on a two-mode squeezed state it was built from, the
physical rule on either side of the vacuum bound, and the two-mode
symplectic spectrum of product, passively mixed, pure and locally squeezed
states."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import lyapunov_exact, physical_exact, two_mode_spectrum_exact

# A two-mode squeezed vacuum with cosh 2r = 5/4, sinh 2r = 3/4: its entries
# are exact binary fractions and cosh^2 - sinh^2 = 1 exactly, so it is pure,
# every symplectic eigenvalue exactly 1/2.
_C2, _S2 = 1.25, 0.75
_TMSV = 0.5 * np.array([
    [_C2, 0.0, _S2, 0.0],
    [0.0, _C2, 0.0, -_S2],
    [_S2, 0.0, _C2, 0.0],
    [0.0, -_S2, 0.0, _C2],
])


def _fractions(m):
    return [[Fraction(float(x)) for x in row] for row in m]


class TestLyapunovExact:
    def test_thermal_cavity(self):
        # A = -kappa I, D = kappa (2N + 1) I relaxes to (N + 1/2) I; every
        # number here is an exact binary fraction.
        kappa, n = 3.0, 1.75
        v = lyapunov_exact(-kappa * np.eye(2), kappa * (2 * n + 1) * np.eye(2))
        assert v == _fractions((n + 0.5) * np.eye(2))

    def test_tmsv_is_the_solution_it_was_built_from(self):
        # A drift with every kind of coupling, in binary fractions, and
        # D = -(A V + V A^T) formed exactly in floats: the solution is V.
        drift = np.array([
            [-1.0, 0.5, 0.25, 0.0],
            [-0.5, -1.0, 0.0, 0.125],
            [0.0, -0.25, -2.0, 0.5],
            [0.375, 0.0, -0.5, -1.5],
        ])
        diffusion = -(drift @ _TMSV + _TMSV @ drift.T)
        assert (diffusion == diffusion.T).all()
        assert lyapunov_exact(drift, diffusion) == _fractions(_TMSV)

    def test_one_solution_per_diffusion(self):
        v1, v2 = lyapunov_exact(-np.eye(2), 2.0 * np.eye(2), np.diag([4.0, 0.0]))
        assert v1 == _fractions(np.eye(2)) and v2 == _fractions(np.diag([2.0, 0.0]))

    def test_singular_system_is_refused(self):
        # Eigenvalues +-1 of A pair to a zero eigenvalue of the system.
        with pytest.raises(ZeroDivisionError):
            lyapunov_exact(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


class TestPhysicalExact:
    @pytest.mark.parametrize("n, tol, physical", [
        (0.0, 0.0, False),  # the vacuum is on the bound: V + (i/2) Omega is singular
        (0.0, 1e-9, True),
        (2.0**-40, 0.0, True),
        (-(2.0**-40), 1e-9, True),
        (-(2.0**-20), 1e-9, False),
    ])
    def test_thermal_state(self, n, tol, physical):
        assert physical_exact((n + 0.5) * np.eye(2), tol) is physical

    def test_tmsv_is_on_the_bound(self):
        assert not physical_exact(_TMSV)
        assert physical_exact(_TMSV, 1e-9)

    def test_squeezed_below_the_bound_is_refused(self):
        # Variances 1/4 and 1/2: nu = sqrt(1/8) < 1/2, though both are positive.
        assert not physical_exact(np.diag([0.25, 0.5]), 1e-9)


class TestTwoModeSpectrumExact:
    # Every entry below is an exact binary fraction, and so is each nu.
    @pytest.mark.parametrize("cov, nus", [
        (np.diag([0.5, 0.5, 1.75, 1.75]), (0.5, 1.75)),  # a product of thermal states
        (np.diag([3.0, 3.0, 0.75, 0.75]), (0.75, 3.0)),  # nu_- need not be mode 1's
        (1.5 * np.eye(4), (1.5, 1.5)),  # a degenerate spectrum
        # Thermal nu = 1 and 3 mixed by a 45 degree beam splitter: V is
        # [[2, 1], [1, 2]] (x) I, and nu are the eigenvalues of [[2, 1], [1, 2]].
        (np.kron(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2)), (1.0, 3.0)),
        (_TMSV, (0.5, 0.5)),
        (np.diag([2.0, 0.125, 4.0, 0.0625]), (0.5, 0.5)),  # locally squeezed vacua
        (np.diag([6.0, 0.375, 0.5, 0.5]), (0.5, 1.5)),  # a squeezed thermal state
    ])
    def test_closed_forms(self, cov, nus):
        assert two_mode_spectrum_exact(cov) == tuple(Decimal(nu) for nu in nus)

    def test_fractions_are_taken_as_given_and_rounded_at_50_digits(self):
        # (1/3) I, no float: nu = 1/3 twice, to 50 digits.
        third = Fraction(1, 3)
        cov = [[third if i == j else Fraction(0) for j in range(4)] for i in range(4)]
        assert two_mode_spectrum_exact(cov) == (Decimal("0." + "3" * 50),) * 2

    @pytest.mark.parametrize("cov", [
        np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros((4, 4)), np.triu(np.ones((4, 4))),
    ])
    def test_not_symmetric_positive_definite_is_refused(self, cov):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            two_mode_spectrum_exact(cov)
