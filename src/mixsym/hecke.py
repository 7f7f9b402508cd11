"""Hecke, diamond, Atkin-Lehner, and conjugation operators on a SymbolSpace.

Operators are exact matrices over the space's basis, acting on row vectors
by right multiplication.  Each is assembled on the free generators: row j is
the image of basis vector j, which ``lift`` writes as an integer combination
of ambient generators, so only the generators occurring in ``lift`` are
evaluated.  For a prime q not dividing 2N the Hecke operator is an int
matrix, assembled from the coset decomposition of
SL2(Z)*diag(1,q)*SL2(Z): writing g_i*g = t_i(g)*g_{sigma(i)} with t_i(g)
unimodular,

  T_q {g,g'} = <q>{t_oo(g), t_oo(g')} + sum over i of {t_i(g), t_i(g')},

where i runs over -(q-1)/2 .. (q-1)/2, g_i = ((1,i),(0,q)) and
g_oo = ((q,0),(0,1)).  For q dividing 2N the same double-coset expansion is
evaluated through rational symbols, whose denominators divide q: each
image is summed in ints as q times its coordinates (``reduce_pair_scaled``).
W_N is assembled the same way with N in place of q.

Every operator is stored as an int matrix ``num`` over one positive int
``den`` (q for T_2 and U_q, N for W_N, 1 otherwise).  Products and checks
run on ``num`` and ``den`` in ints; ``mat`` divides on read, giving Fraction
entries only when ``den`` is not 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .sl2 import MAT_S, MAT_T, conj_entries, gamma0_with_lower_right, gcdex, mmul
from .mms import InvalidInputError, reduce_pair, reduce_pair_scaled
from .zlattice import factor, identity_matrix, mat_mul, vec_mat


@dataclass
class OperatorMatrix:
    """Named exact operator on the symbol-space basis: the int matrix num / den."""

    name: str
    num: list
    den: int = 1

    @property
    def mat(self):
        """The matrix itself: ``num`` when ``den`` is 1, else Fraction entries."""
        if self.den == 1:
            return self.num
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    @property
    def denominator(self):
        """The least common denominator of the entries of ``mat``."""
        return self.den // gcd(self.den, *(x for row in self.num for x in row))

    def is_integral(self):
        return self.denominator == 1

    def __eq__(self, other):
        return self.mat == (other.mat if isinstance(other, OperatorMatrix) else other)


def identity_operator(space, name="id"):
    return OperatorMatrix(name, identity_matrix(space.rank))


def compose(a, b, name=None):
    """Operator applying a first, then b (row-vector convention)."""
    return OperatorMatrix(name or f"{a.name}*{b.name}", mat_mul(a.num, b.num),
                          a.den * b.den)


def generator_pairs(space):
    """The defining symbol pair (g, g') of each ambient generator.

    Manin generators are {rep, rep*S}; the cusp generator of class c is
    {h, h*T} for h the representative of the first coset in c's T-orbit.
    """
    pairs = []
    for rep in space.cosets.reps:
        pairs.append((rep, mmul(rep, MAT_S)))
    for orbit in space.cusps.orbits:
        h = space.cosets.reps[orbit[0]]
        pairs.append((h, mmul(h, MAT_T)))
    return pairs


def operator_from_pair_map(space, fn, name, denominator=1):
    """Assemble the operator {g,g'} -> fn(g,g') / denominator.

    fn gives basis coordinates times ``denominator``.  Row j combines the
    images of the ambient generators with the integer coefficients of row j
    of ``lift``; fn runs once per generator that occurs.  The sums are kept
    as ``num`` over ``den = denominator``; nothing is divided.
    """
    pairs = generator_pairs(space)
    images = {}
    rows = []
    for lift_row in space.quotient.lift:
        row = [0] * space.rank
        for k, c in enumerate(lift_row):
            if c:
                if k not in images:
                    images[k] = fn(*pairs[k])
                row = [x + c * y for x, y in zip(row, images[k])]
        rows.append(row)
    return OperatorMatrix(name, rows, denominator)


def complex_conjugation(space):
    """The involution {g,g'} -> {gbar, g'bar} (off-diagonal signs flipped)."""
    return operator_from_pair_map(
        space,
        lambda g, gp: reduce_pair(space, conj_entries(g), conj_entries(gp)),
        "conj")


def diamond(space, d):
    """The diamond operator <d>; the identity for Gamma0 and level 1."""
    n = space.spec.level
    if gcdex(d, n)[2] != 1:
        raise InvalidInputError("diamond requires gcd(d, level) = 1")
    if space.spec.family != "gamma1" or n == 1:
        return identity_operator(space, f"diamond({d})")
    gamma = gamma0_with_lower_right(n, d)
    return operator_from_pair_map(
        space,
        lambda g, gp: reduce_pair(space, mmul(gamma, g), mmul(gamma, gp)),
        f"diamond({d})")


def _coset_matrices(q):
    lower = [(1, i, 0, q) for i in range(-(q - 1) // 2, (q - 1) // 2 + 1)]
    return lower, (q, 0, 0, 1)


def _translate(h, q):
    """Split an integer matrix h of determinant q as t * g_j.

    Returns (t, j) with t unimodular and g_j one of the standard coset
    matrices; j is None for g_oo = diag(q, 1).
    """
    h11, h12, h21, h22 = h
    if h11 % q == 0 and h21 % q == 0:
        return (h11 // q, h12, h21 // q, h22), None
    for j in range(-(q - 1) // 2, (q - 1) // 2 + 1):
        if (h12 - h11 * j) % q == 0 and (h22 - h21 * j) % q == 0:
            return (h11, (h12 - h11 * j) // q, h21, (h22 - h21 * j) // q), j
    raise AssertionError("no coset translate found; determinant not prime?")


def hecke_operator(space, q):
    """T_q (or U_q when q divides the level) as an exact operator matrix."""
    n = space.spec.level
    name = f"U{q}" if n % q == 0 else f"T{q}"
    if space.rank == 0:
        return OperatorMatrix(name, [])
    if q % 2 == 1 and (2 * n) % q != 0:
        return _hecke_integral(space, q, name)
    return _hecke_rational(space, q, name)


def _hecke_integral(space, q, name):
    dia = diamond(space, q)
    lower, upper = _coset_matrices(q)

    def image(gi, g, gp):
        t, _ = _translate(mmul(gi, g), q)
        tp, _ = _translate(mmul(gi, gp), q)
        return reduce_pair(space, t, tp)

    def fn(g, gp):
        total = vec_mat(image(upper, g, gp), dia.num)
        for gi in lower:
            total = [x + y for x, y in zip(total, image(gi, g, gp))]
        return total

    return operator_from_pair_map(space, fn, name)


def _hecke_rational(space, q, name):
    n = space.spec.level
    if n % q == 0:
        mats = [((1, i, 0, q), False) for i in range(q)]
    else:
        lower, upper = _coset_matrices(q) if q % 2 else (
            [(1, 0, 0, 2), (1, 1, 0, 2)], (2, 0, 0, 1))
        mats = [(m, False) for m in lower] + [(upper, True)]
    dia = diamond(space, q) if n % q else None

    # every m * g below is primitive of determinant q, so q clears its denominator
    def fn(g, gp):
        total = [0] * space.rank
        for m, twist in mats:
            v = reduce_pair_scaled(space, mmul(m, g), mmul(m, gp), q)
            if twist:
                v = vec_mat(v, dia.num)
            total = [x + y for x, y in zip(total, v)]
        return total

    return operator_from_pair_map(space, fn, name, q)


def hecke_rational_route(space, q):
    """T_q evaluated through rational symbols; a cross-check for q not dividing 2N."""
    if space.rank == 0:
        return OperatorMatrix(f"T{q}", [])
    return _hecke_rational(space, q, f"T{q}")


def atkin_lehner(space):
    """The Atkin-Lehner involution W_N via w = ((0,-1),(N,0))."""
    n = space.spec.level
    if space.rank == 0:
        return OperatorMatrix(f"W{n}", [])
    w = (0, -1, n, 0)
    # w * g is primitive of determinant N, so N clears its denominator
    return operator_from_pair_map(
        space,
        lambda g, gp: reduce_pair_scaled(space, mmul(w, g), mmul(w, gp), n),
        f"W{n}", n)


def hecke_composite(space, m):
    """T_m for a composite index via the standard recurrences.

    Named U{m} when every prime of m divides the level, else T{m}.
    """
    if m < 1:
        raise InvalidInputError("index must be positive")
    if m == 1:
        return identity_operator(space, "T1")
    n = space.spec.level
    fac = factor(m)
    num, den = None, 1
    for q, k in fac.items():
        num_q, den_q = _prime_power_hecke(space, q, k, n)
        num = num_q if num is None else mat_mul(num, num_q)
        den *= den_q
    name = f"U{m}" if all(n % q == 0 for q in fac) else f"T{m}"
    return OperatorMatrix(name, num, den)


def _prime_power_hecke(space, q, k, n):
    """T_{q^k} (U_q^k when q divides the level) as (int matrix, denominator).

    With T_q = t / d, U_q^k is t^k over d^k.  Otherwise C_j = d^j * T_{q^j}
    satisfies C_{j+1} = C_j * t - q * d^2 * C_{j-1} * <q>, the recurrence
    T_{q^(j+1)} = T_{q^j} * T_q - q * T_{q^(j-1)} * <q> scaled by d^(j+1),
    and T_{q^k} is C_k over d^k.
    """
    tq = hecke_operator(space, q)
    t, d = tq.num, tq.den
    if n % q == 0:
        out = t
        for _ in range(k - 1):
            out = mat_mul(out, t)
        return out, d ** k
    dia = diamond(space, q).num
    prev, cur = identity_matrix(space.rank), t
    for _ in range(k - 1):
        correction = mat_mul(prev, dia)
        nxt = [[a - q * d * d * b for a, b in zip(ra, rb)]
               for ra, rb in zip(mat_mul(cur, t), correction)]
        prev, cur = cur, nxt
    return cur, d ** k


def operators_commute(a, b):
    return mat_mul(a.num, b.num) == mat_mul(b.num, a.num)
