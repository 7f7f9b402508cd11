"""Hecke, diamond, Atkin-Lehner, and conjugation operators on a SymbolSpace.

Operators are exact matrices over the space's basis, acting on row vectors
by right multiplication.  Each is assembled on the free generators: row j is
the image of basis vector j, which ``lift`` writes as an integer combination
of ambient generators.  The pair map fn(amb, g, g', c) adds each
generator's image in place, at its lift coefficient c, into one
{generator: coefficient} dict per row, and the row is projected once.

T_m, U_m, W_N and <d> are double cosets, all built by one sum over right
coset representatives r (Diamond-Shurman, A First Course in Modular Forms,
Prop. 5.2.1 and Sec. 5.3): {g,g'} -> sum over r of {r*g, r*g'}.  For T_m
(U_m when every prime of m divides N) they are the Hermite matrices

  r = ((a,b),(0,d)), a*d = m, a prime to N, 0 <= b < d,

in increasing a, then b, each taken as gamma*r when a mod N is not in +-H,
gamma in Gamma0(N) with lower-right entry a mod N (never on Gamma0).  For a
prime q they are ((1,i),(0,q)) for i in 0 .. q-1, alone when q divides N,
then diag(q,1) or gamma*diag(q,1).

The twist gamma carries the diamond <a>, so no diamond matrix is built.
W_N sums over w = ((0,-1),(N,0)) alone, and <d> over one unimodular matrix
with lower-right entry d mod N.  Each r*g is split by ``mms._upper_split``
as t*((a,b),(0,d)), t unimodular and b centred.  For m odd and prime to N
the image is the integral symbol {t, t'}, so T_m is an int matrix; so is
<d>, whose split is r*g itself.  Otherwise each image is evaluated through
rational symbols whose denominators divide m (N for W_N): it is summed in
ints as m times its coordinates.  Any element gamma*r of Gamma*r, such as
T^k*r for another lift of b, gives the same image: the split is
left-equivariant, and the walk of ``_add_pair`` on {gamma*t, gamma*t'}
reads only t^-1*t' and the coset of gamma*t, which is t's.  Complex
conjugation is not a left product and has its own pair map.

Every operator is stored as an int matrix ``num`` over one positive int
``den`` (m for T_m unless m is odd and prime to N, N for W_N, 1 otherwise).
Products and checks run on ``num`` and ``den`` in ints; ``mat`` divides on
read, giving Fraction entries only when ``den`` is not 1.
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

    ``fn(amb, g, g', c)`` adds c * ``denominator`` times the image of {g,g'}
    into amb, a {ambient generator index: int coefficient} dict.  Row j
    calls fn once per term (k, c) of row j of ``lift``, adding in place, and
    projects the sum to the basis once.  The rows are kept as ``num`` over
    ``den = denominator``; nothing is divided.
    """
    rows = []
    for lift_row in space.quotient.lift:
        amb = {}
        for k, c in lift_row:
            fn(amb, *generator_pair(space, k), c)
        rows.append(_combine(space, amb))
    return OperatorMatrix(name, rows, denominator)


def _coset_sum(space, mats, name, den):
    """The operator {g,g'} -> sum over m in mats of {m*g, m*g'}, over den.

    With den = 1 each image is the integral symbol {t, t'} of the splits
    m*g = t*((a,b),(0,d)); otherwise ``_add_scaled`` adds den times it.
    """
    if den == 1:
        def fn(amb, g, gp, c):
            for m in mats:
                _add_pair(space, amb, _upper_split(mmul(m, g))[0],
                          _upper_split(mmul(m, gp))[0], c)
    else:
        def fn(amb, g, gp, c):
            for m in mats:
                _add_scaled(space, amb, mmul(m, g), mmul(m, gp), c * den)
    return operator_from_pair_map(space, fn, name, den)


def complex_conjugation(space):
    """The involution {g,g'} -> {gbar, g'bar} (off-diagonal signs flipped)."""
    return operator_from_pair_map(
        space,
        lambda amb, g, gp, c: _add_pair(space, amb, conj_entries(g), conj_entries(gp), c),
        "conj")


def diamond(space, d):
    """The diamond operator <d>; the identity when d mod N lies in +-H."""
    n = space.spec.level
    if gcd(d, n) != 1:
        raise InvalidInputError("diamond requires gcd(d, level) = 1")
    if d % n in space.spec.units:
        return identity_operator(space, f"diamond({d})")
    return _coset_sum(space, [lift_bottom_row(n, 0, d)], f"diamond({d})", 1)


def _coset_reps(space, m):
    """The right coset representatives of T_m or U_m, m >= 1 (module docstring)."""
    n = space.spec.level
    # the divisors a of m prime to N are the products of m's primes not dividing N
    divisors = [1]
    for q, k in factor(m).items():
        if n % q:
            divisors = [a * q ** i for a in divisors for i in range(k + 1)]
    reps = []
    for a in sorted(divisors):
        d = m // a
        upper = [(a, b, 0, d) for b in range(d)]
        if a % n not in space.spec.units:
            twist = lift_bottom_row(n, 0, a)
            upper = [mmul(twist, r) for r in upper]
        reps += upper
    return reps


def hecke_operator(space, q):
    """T_q (or U_q when q divides the level) for a prime q, as an exact operator
    matrix; composite indices are ``hecke_composite``'s."""
    if factor(q) != {q: 1}:
        raise InvalidInputError(f"T_q needs a prime q, got {q}")
    return hecke_composite(space, q)


def atkin_lehner(space):
    """The Atkin-Lehner involution W_N via w = ((0,-1),(N,0))."""
    n = space.spec.level
    # w * g is primitive of determinant N, so N clears its denominator
    return _coset_sum(space, [(0, -1, n, 0)], f"W{n}", n)


def hecke_composite(space, m):
    """T_m for any index m >= 1, one sum over ``_coset_reps(space, m)``.

    Named U{m} when m > 1 and every prime of m divides the level, else T{m}.
    """
    if m < 1:
        raise InvalidInputError("index must be positive")
    n = space.spec.level
    reps = _coset_reps(space, m)
    # a = 1 alone is prime to N, giving m representatives, exactly when
    # every prime of m divides N
    name = f"U{m}" if m > 1 and len(reps) == m else f"T{m}"
    # each r * g has determinant m, so m clears its denominator
    return _coset_sum(space, reps, name, 1 if m % 2 and gcd(m, n) == 1 else m)


def operators_commute(a, b):
    return mat_mul(a.num, b.num) == mat_mul(b.num, a.num)
