"""Classical modular symbols {alpha, beta} over the companion presentation.

This route works purely with cusp pairs in P^1(Q) and continued-fraction
convergents, never touching the mixed presentation's reduction machinery; it
exists as an independent cross-check for the projection map and the Hecke
action.  Points of P^1(Q) are the integer pairs of ``sl2``, oo = (1, 0).
"""

from .sl2 import complete, lift_bottom_row, mmul
from .mms import InvalidInputError
from .zlattice import factor


def matrix_to_cusp(x):
    """A unimodular matrix with first column x, a primitive pair; it sends oo to x."""
    p, q = x
    b, d = complete(p, q)
    return (p, b, q, d)


def cusp_class_of_point(space, x):
    """Cusp-class index of a point of P^1(Q), given as a primitive pair."""
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
    """Sparse rows for {oo, x} as a telescoping sum of Manin symbols over convergents.

    Euclid runs on x = (p, q) as given, with q >= 0: a common factor of p and
    q leaves the quotients unchanged.
    """
    p, q = x
    if q < 0:
        p, q = -p, -q
    if q == 0:
        if p == 0:
            raise InvalidInputError("(0, 0) is not a point of P^1(Q)")
        return []
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
            a, b, c, d = space.cosets.reps[i]
            out[cusp_class_of_point(space, (a, c))] += coeff
            out[cusp_class_of_point(space, (b, d))] -= coeff
        rows.append(out)
    return rows


def _apply_mats(space, mats):
    """Matrix of {g*0, g*oo} -> sum over m in mats of {m*g*0, m*g*oo} on the
    basis, the columns (b, d) and (a, c) of m*g."""
    n_cl = space.classical.rank
    rows = []
    for lift_row in space.classical.lift:
        out = [0] * n_cl
        for i, coeff in lift_row:
            g = space.cosets.reps[i]
            for m in mats:
                a, b, c, d = mmul(m, g)
                contrib = symbol(space, (b, d), (a, c))
                out = [x + coeff * y for x, y in zip(out, contrib)]
        rows.append(out)
    return rows


def hecke_matrix(space, q):
    """Classical T_q / U_q for a prime q on the companion presentation via cusp pairs."""
    if factor(q) != {q: 1}:
        raise InvalidInputError(f"T_q needs a prime q, got {q}")
    n = space.spec.level
    mats = [(1, i, 0, q) for i in range(q)]
    if n % q:
        # diag(q, 1) carries the diamond twist <q>, trivial when q is in +-H
        last = (q, 0, 0, 1)
        if q % n not in space.spec.units:
            last = mmul(lift_bottom_row(n, 0, q), last)
        mats.append(last)
    return _apply_mats(space, mats)
