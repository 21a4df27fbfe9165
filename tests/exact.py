"""An exact reference for the Lyapunov steady state, the physical rule and
the two-mode symplectic spectrum, in rational arithmetic (Python integers
and ``fractions.Fraction``) up to the spectrum's square roots, which are
taken in ``decimal`` at 50 digits.

A float is an exact rational, so a float drift and diffusion define one exact
steady state, and the sign of an exact quantity decides a verdict that
rounding can only blur.  Written apart from ``src/``: the system is set up
entry by entry from its definition, and nothing here calls numpy's algebra.
The Lyapunov solve and the physical rule eliminate fraction-free (Bareiss,
Math. Comp. 22, 565, 1968): on integer rows every division is exact, so no
step needs a gcd.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction


def _integer_rows(rows):
    """Each row of rationals times the least common denominator of its
    entries: integers, and an equation so scaled keeps its solution."""
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _solve(system, columns):
    """The exact solution columns of the square integer ``system`` against
    the integer right-hand sides ``columns`` (one list per right-hand side),
    by fraction-free Gauss-Jordan elimination: at the end every diagonal
    entry is det (up to sign), and column j holds det * x_j.
    ``ZeroDivisionError`` if the system is singular."""
    n = len(system)
    rows = [system[r] + [col[r] for col in columns] for r in range(n)]
    previous = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p = rows[k][k]
        for r in range(n):
            if r != k:
                a = rows[r][k]
                rows[r] = [(p * x - a * y) // previous for x, y in zip(rows[r], rows[k])]
        previous = p
    return [[Fraction(rows[r][n + j], rows[r][r]) for r in range(n)] for j in range(len(columns))]


def lyapunov_exact(drift, *diffusions):
    """The exact V with A V + V A^T + D = 0, as a d x d list of Fractions,
    for the float ``drift`` A and each float ``diffusion`` D (one V per D,
    a list when several are given).

    The unknowns are V's upper triangle; equation (i, j), i <= j, is
    sum_m A_im V_mj + V_im A_jm = -D_ij, with V_ab read as V_ba below the
    diagonal."""
    a = [[Fraction(float(x)) for x in row] for row in drift]
    d = len(a)
    unknowns = [(i, j) for i in range(d) for j in range(i, d)]
    index = {pair: n for n, pair in enumerate(unknowns)}

    def slot(p, q):
        return index[(min(p, q), max(p, q))]

    equations = []
    for i, j in unknowns:
        row = [Fraction(0)] * len(unknowns)
        for m in range(d):
            row[slot(m, j)] += a[i][m]
            row[slot(i, m)] += a[j][m]
        equations.append(row + [-Fraction(float(diffusion[i][j])) for diffusion in diffusions])
    scaled = _integer_rows(equations)
    n = len(unknowns)
    columns = [[row[n + k] for row in scaled] for k in range(len(diffusions))]
    solutions = []
    for x in _solve([row[:n] for row in scaled], columns):
        v = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), value in zip(unknowns, x):
            v[i][j] = v[j][i] = value
        solutions.append(v)
    return solutions[0] if len(solutions) == 1 else solutions


def _positive_definite(m):
    """Whether the symmetric integer matrix ``m`` is positive definite: every
    leading principal minor positive (Sylvester), the minors being the
    pivots of fraction-free elimination without row exchanges.  The k-th
    LDL^T pivot is the k-th minor over the (k-1)-th, so the signs agree."""
    rows = [list(row) for row in m]
    previous = 1
    for k in range(len(rows)):
        p = rows[k][k]
        if p <= 0:
            return False
        for r in range(k + 1, len(rows)):
            a = rows[r][k]
            rows[r] = [(p * x - a * y) // previous for x, y in zip(rows[r], rows[k])]
        previous = p
    return True


def physical_exact(v, tol=0):
    """Whether the covariance ``v`` (floats or Fractions) passes the physical
    rule exactly: V + i(1/2 - tol) Omega positive definite, that is every
    symplectic eigenvalue above 1/2 - tol.  Decided on its real embedding
    [[V, -c Omega], [c Omega, V]], c = 1/2 - tol, a real symmetric matrix of
    twice the size that is positive definite iff the Hermitian one is,
    scaled by one positive integer to integers; ``tol`` is taken as the
    exact rational of its float."""
    v = [[Fraction(x) if isinstance(x, Fraction) else Fraction(float(x)) for x in row] for row in v]
    d = len(v)
    c = Fraction(1, 2) - Fraction(float(tol))
    omega = [[Fraction(0)] * d for _ in range(d)]
    for k in range(0, d, 2):
        omega[k][k + 1], omega[k + 1][k] = Fraction(1), Fraction(-1)
    embedding = [v[i] + [-c * omega[i][j] for j in range(d)] for i in range(d)]
    embedding += [[c * omega[i][j] for j in range(d)] + v[i] for i in range(d)]
    scale = math.lcm(*(x.denominator for row in embedding for x in row))
    return _positive_definite([[int(x * scale) for x in row] for row in embedding])


def _det2(m, rows, cols):
    (i, j), (k, l) = rows, cols
    return m[i][k] * m[j][l] - m[i][l] * m[j][k]


def two_mode_spectrum_exact(cov):
    """(nu_-, nu_+) of the symmetric positive definite 4x4 covariance
    ``cov`` (floats or Fractions), as Decimals to 50 digits.

    The invariants Delta = det A + det B + 2 det C and det V (Serafini,
    Illuminati & De Siena, J. Phys. B 37, L21, 2004) are exact rationals,
    det V by Laplace expansion along the first two rows, and so is
    Delta^2 - 4 det V = (nu_+^2 - nu_-^2)^2.  Only the square roots round:
    nu_+^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2, and nu_- = sqrt(det V) /
    nu_+, so no step subtracts.  ``ValueError`` unless ``cov`` is symmetric
    positive definite."""
    v = [[Fraction(x) if isinstance(x, Fraction) else Fraction(float(x)) for x in row] for row in cov]
    scale = math.lcm(*(x.denominator for row in v for x in row))
    if any(v[i][j] != v[j][i] for i in range(4) for j in range(i)) or \
            not _positive_definite([[int(x * scale) for x in row] for row in v]):
        raise ValueError("not a symmetric positive definite 4x4 matrix")
    delta = _det2(v, (0, 1), (0, 1)) + _det2(v, (2, 3), (2, 3)) + 2 * _det2(v, (0, 1), (2, 3))
    det_v = Fraction(0)
    for cols in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        rest = tuple(c for c in range(4) if c not in cols)
        det_v += (-1) ** (1 + sum(cols)) * _det2(v, (0, 1), cols) * _det2(v, (2, 3), rest)
    with localcontext() as ctx:
        ctx.prec = 50

        def decimal(x):
            return Decimal(x.numerator) / Decimal(x.denominator)

        nu_plus = ((decimal(delta) + decimal(delta * delta - 4 * det_v).sqrt()) / 2).sqrt()
        return decimal(det_v).sqrt() / nu_plus, nu_plus
