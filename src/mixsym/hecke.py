"""Hecke, diamond, Atkin-Lehner, and conjugation operators on a SymbolSpace.

Operators are exact matrices over the space's basis, acting on row vectors
by right multiplication.  Each is assembled on the free generators: row j is
the image of basis vector j, which ``lift`` writes as an integer combination
of ambient generators, so only the generators occurring in ``lift`` are
evaluated.  For a prime q the Hecke operator is one double-coset sum over
the right cosets of Gamma in Gamma*diag(1,q)*Gamma (Diamond-Shurman, A
First Course in Modular Forms, Prop. 5.2.1):

  T_q {g,g'} = sum over m of {m*g, m*g'},

over q + 1 representatives m (q of them for U_q, where q divides N):

  m = ((1,i),(0,q)), i in -(q-1)/2 .. (q-1)/2 for odd q not dividing N
                     and in 0 .. q-1 otherwise;
  m = diag(q,1) when q does not divide N and q mod N lies in +-H (every
      such q on Gamma0), and gamma*diag(q,1) for the other q not dividing
      N, gamma in Gamma0(N) with lower-right entry q mod N.

The last representative carries the diamond twist <q>, so no <q> matrix
is built; when q lies in +-H the twist is trivial.  Each m*g is split by
one helper, ``mms._upper_split``, as t*((a,b),(0,d)) with t unimodular and
b centred.  For odd q not dividing N that form is ((1,j),(0,q)) or
diag(q,1), so the image is the integral symbol {t, t'} and T_q is an int
matrix.  Otherwise each image is evaluated through rational symbols, whose
denominators divide q: it is summed in ints as q times its coordinates.
W_N is evaluated the same way, with w = ((0,-1),(N,0)) and N in place of q.

Images are summed on the ambient generators, as {generator: coefficient}
dicts, and each row is projected to the basis once.

Every operator is stored as an int matrix ``num`` over one positive int
``den`` (q for T_2 and U_q, N for W_N, 1 otherwise).  Products and checks
run on ``num`` and ``den`` in ints; ``mat`` divides on read, giving Fraction
entries only when ``den`` is not 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .sl2 import MAT_S, MAT_T, conj_entries, lift_bottom_row, mmul
from .mms import InvalidInputError, _add_pair, _add_scaled, _combine, _upper_split
from .zlattice import factor, identity_matrix, mat_mul


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


def generator_pair(space, k):
    """The defining symbol pair (g, g') of ambient generator k.

    Manin generators are {rep, rep*S}; the cusp generator of class c is
    {h, h*T} for h the representative of the first coset in c's T-orbit.
    """
    if k < space.n_manin:
        rep = space.cosets.reps[k]
        return rep, mmul(rep, MAT_S)
    h = space.cosets.reps[space.cusps.orbits[k - space.n_manin][0]]
    return h, mmul(h, MAT_T)


def operator_from_pair_map(space, fn, name, denominator=1):
    """Assemble the operator whose image of {g,g'} is fn's, over ``denominator``.

    ``fn(amb, g, g')`` adds ``denominator`` times the image of {g,g'} into
    amb, a {ambient generator index: int coefficient} dict.  Row j combines
    the images of the ambient generators with the integer coefficients of
    row j of ``lift`` and projects the sum to the basis once; fn runs once
    per term of ``lift``.  The rows are kept as ``num`` over
    ``den = denominator``; nothing is divided.
    """
    rows = []
    for lift_row in space.quotient.lift:
        amb = {}
        for k, c in lift_row:
            image = {}
            fn(image, *generator_pair(space, k))
            for i, x in image.items():
                amb[i] = amb.get(i, 0) + c * x
        rows.append(_combine(space, amb))
    return OperatorMatrix(name, rows, denominator)


def complex_conjugation(space):
    """The involution {g,g'} -> {gbar, g'bar} (off-diagonal signs flipped)."""
    return operator_from_pair_map(
        space,
        lambda amb, g, gp: _add_pair(space, amb, conj_entries(g), conj_entries(gp)),
        "conj")


def diamond(space, d):
    """The diamond operator <d>; the identity when d mod N lies in +-H."""
    n = space.spec.level
    if gcd(d, n) != 1:
        raise InvalidInputError("diamond requires gcd(d, level) = 1")
    if d % n in space.spec.units:
        return identity_operator(space, f"diamond({d})")
    gamma = lift_bottom_row(n, 0, d)
    return operator_from_pair_map(
        space,
        lambda amb, g, gp: _add_pair(space, amb, mmul(gamma, g), mmul(gamma, gp)),
        f"diamond({d})")


def _coset_reps(space, q):
    """The right coset representatives m of T_q or U_q, q prime (module docstring)."""
    n = space.spec.level
    low = -(q - 1) // 2 if q % 2 and n % q else 0
    reps = [(1, i, 0, q) for i in range(low, low + q)]
    if n % q == 0:
        return reps
    last = (q, 0, 0, 1)
    if q % n not in space.spec.units:
        last = mmul(lift_bottom_row(n, 0, q), last)
    return reps + [last]


def hecke_operator(space, q):
    """T_q (or U_q when q divides the level) for a prime q, as an exact operator
    matrix; composite indices are ``hecke_composite``'s."""
    n = space.spec.level
    if factor(q) != {q: 1}:
        raise InvalidInputError(f"T_q needs a prime q, got {q}")
    name = f"U{q}" if n % q == 0 else f"T{q}"
    reps = _coset_reps(space, q)
    if q % 2 and n % q:
        def add_image(amb, h, hp):
            _add_pair(space, amb, _upper_split(h)[0], _upper_split(hp)[0])
        den = 1
    else:
        # every m * g is primitive of determinant q, so q clears its denominator
        def add_image(amb, h, hp):
            _add_scaled(space, amb, h, hp, q)
        den = q

    def fn(amb, g, gp):
        for m in reps:
            add_image(amb, mmul(m, g), mmul(m, gp))

    return operator_from_pair_map(space, fn, name, den)


def atkin_lehner(space):
    """The Atkin-Lehner involution W_N via w = ((0,-1),(N,0))."""
    n = space.spec.level
    w = (0, -1, n, 0)
    # w * g is primitive of determinant N, so N clears its denominator
    return operator_from_pair_map(
        space,
        lambda amb, g, gp: _add_scaled(space, amb, mmul(w, g), mmul(w, gp), n),
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
