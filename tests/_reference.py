"""Routines used only by the tests: exact determinant, characteristic
polynomial and rank."""

from fractions import Fraction

from mixsym.zlattice import hnf, identity_matrix, mat_mul


def mat_rank(a):
    h, _ = hnf(a)
    return sum(1 for row in h if any(row))


def charpoly(a):
    """Characteristic polynomial of a square rational matrix.

    Returns coefficients [c_0, ..., c_n] of det(x*I - a), leading coefficient
    last, computed by the Faddeev-LeVerrier recurrence.
    """
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = identity_matrix(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        # start from Fraction(0): an entry of mat_mul with no non-zero term is int 0
        c = -sum((m[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def det_rational(a):
    """Exact determinant of a square rational matrix."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out
