"""Classical modular symbols {alpha, beta} over the companion presentation.

This route works purely with cusp pairs in P^1(Q) and continued-fraction
convergents, never touching the mixed presentation's reduction machinery; it
exists as an independent cross-check for the projection map and the Hecke
action.
"""

from fractions import Fraction

from .sl2 import MAT_ID, complete, lift_bottom_row, mmul

INFINITY = None


def act_point(m, x):
    """Fractional linear action of an integer matrix on P^1(Q)."""
    a, b, c, d = m
    if x is INFINITY:
        num, den = a, c
    else:
        num = a * x.numerator + b * x.denominator
        den = c * x.numerator + d * x.denominator
    return INFINITY if den == 0 else Fraction(num, den)


def matrix_to_cusp(x):
    """A unimodular matrix sending oo to the given point of P^1(Q)."""
    if x is INFINITY:
        return MAT_ID
    p, q = x.numerator, x.denominator
    b, d = complete(p, q)
    return (p, b, q, d)  # determinant 1, and it sends oo to p/q


def cusp_class_of_point(space, x):
    """Cusp-class index of a point of P^1(Q)."""
    i = space.cosets.coset_of(matrix_to_cusp(x))
    return space.cusps.cusp_of[i]


def symbol(space, alpha, beta):
    """Coordinates of {alpha, beta} in the classical presentation basis."""
    out = [0] * space.classical.rank
    for x, sign in ((beta, 1), (alpha, -1)):
        for row in _from_infinity(space, x):
            for j, y in row:
                out[j] += sign * y
    return out


def _from_infinity(space, x):
    """Sparse rows for {oo, x} as a telescoping sum of Manin symbols over convergents."""
    if x is INFINITY:
        return []
    p, q = x.numerator, x.denominator
    quotients = []
    while q:
        a, r = divmod(p, q)
        quotients.append(a)
        p, q = q, r
    rows = []
    pk_prev, qk_prev = 1, 0
    pk, qk = quotients[0], 1
    rows.append(_manin_row(space, (pk, -pk_prev, qk, -qk_prev)))
    for k in range(1, len(quotients)):
        pk_prev, pk = pk, quotients[k] * pk + pk_prev
        qk_prev, qk = qk, quotients[k] * qk + qk_prev
        eps = 1 if k % 2 else -1
        rows.append(_manin_row(space, (pk, eps * pk_prev, qk, eps * qk_prev)))
    return rows


def _manin_row(space, g):
    return space.classical.project[space.cosets.coset_of(g)]


def boundary_matrix(space):
    """Boundary of the classical presentation, basis x cusp classes."""
    rows = []
    for lift_row in space.classical.lift:
        out = [0] * space.cusps.count
        for i, coeff in lift_row:
            rep = space.cosets.reps[i]
            out[cusp_class_of_point(space, act_point(rep, INFINITY))] += coeff
            out[cusp_class_of_point(space, act_point(rep, Fraction(0)))] -= coeff
        rows.append(out)
    return rows


def _apply_mats(space, mats):
    """Matrix of x -> sum over m in mats of {m*alpha, m*beta} on the basis."""
    n_cl = space.classical.rank
    rows = []
    for lift_row in space.classical.lift:
        out = [0] * n_cl
        for i, coeff in lift_row:
            g = space.cosets.reps[i]
            alpha, beta = act_point(g, Fraction(0)), act_point(g, INFINITY)
            for m in mats:
                contrib = symbol(space, act_point(m, alpha), act_point(m, beta))
                out = [a + coeff * b for a, b in zip(out, contrib)]
        rows.append(out)
    return rows


def hecke_matrix(space, q):
    """Classical T_q / U_q on the companion presentation via cusp pairs."""
    n = space.spec.level
    mats = [(1, i, 0, q) for i in range(q)]
    if n % q:
        # diag(q, 1) carries the diamond twist <q>, trivial when q is in +-H
        last = (q, 0, 0, 1)
        if q % n not in space.spec.units:
            last = mmul(lift_bottom_row(n, 0, q), last)
        mats.append(last)
    return _apply_mats(space, mats)
