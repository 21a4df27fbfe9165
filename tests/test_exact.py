"""The exact rational reference (``exact``) against closed forms: the
Lyapunov solve on a thermal cavity and on a two-mode squeezed state it was
built from, and the physical rule on either side of the vacuum bound."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import lyapunov_exact, physical_exact

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
