"""Coset and cusp combinatorics for Gamma0(N) and Gamma1(N) inside SL2(Z).

Matrices are 4-tuples (a, b, c, d) of integers with determinant 1.  All coset
bookkeeping is done in PSL2(Z): a group element and its negative label the
same coset, which is harmless here because every symbol considered later is
invariant under sign changes of its entries.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

MAT_ID = (1, 0, 0, 1)
MAT_S = (0, -1, 1, 0)
MAT_T = (1, 1, 0, 1)
MAT_U = (1, -1, 1, 0)          # T * S, order 3 in PSL2
MAT_TAU = (0, -1, 1, 1)        # S * T, order 3 in PSL2


# The P^1(Z/N) table of enumerate_cosets has N^2 entries; past this many
# (N > 10 000) a level is rejected before anything is allocated.
MAX_COSET_TABLE = 10**8


class InvalidSpecError(Exception):
    """Raised for congruence-group descriptions that make no sense."""


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def mmul(m, *ms):
    """The product m * ms[0] * ms[1] * ... of 2x2 matrices, as a tuple."""
    a, b, c, d = m
    for p, q, r, s in ms:
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def minv(m):
    """Inverse of a determinant-1 matrix."""
    a, b, c, d = m
    return (d, -b, -c, a)


def mneg(m):
    return (-m[0], -m[1], -m[2], -m[3])


def conj_entries(m):
    """Negate the off-diagonal entries; the effect of conjugating z -> -zbar."""
    a, b, c, d = m
    return (a, -b, -c, d)


def complete(a, c):
    """(b, d) with a*d - b*c = 1, for coprime a and c.

    d is the inverse of a mod |c| in -|c|/2 < d <= |c|/2, as extended Euclid
    gives it; c = 0 gives (0, a) for a = +-1.  Else pow raises a ValueError.
    """
    if c == 0 and a in (1, -1):
        return 0, a
    d = pow(a, -1, abs(c))
    if 2 * d > abs(c):
        d -= abs(c)
    return (a * d - 1) // c, d


@dataclass(frozen=True)
class GroupSpec:
    """A congruence group: Gamma0(N), Gamma1(N), or all of SL2(Z).

    Cosets, membership and the diamond twist read only the level N and
    ``units``.
    """

    family: str  # "gamma0" | "gamma1" | "full"
    level: int = 1

    def __post_init__(self):
        if self.family not in ("gamma0", "gamma1", "full"):
            raise InvalidSpecError(f"unknown family {self.family!r}")
        if self.level < 1:
            raise InvalidSpecError("level must be a positive integer")
        if self.family == "full" and self.level != 1:
            raise InvalidSpecError("the full group has level 1")

    @cached_property
    def units(self):
        """+-H: the lower-right entries mod N of the group's matrices, up to sign.

        Every unit mod N for gamma0 and full, and {1, -1 mod N} for gamma1.
        """
        n = self.level
        if self.family == "gamma1":
            return frozenset((1 % n, -1 % n))
        return frozenset(u % n for u in range(1, n + 1) if gcd(u, n) == 1)

    def contains(self, m):
        """Membership of a matrix, up to sign: det 1, c = 0 and d in +-H mod N.

        The upper-left entry needs no test: a*d = 1 mod N when c = 0 mod N.
        """
        n = self.level
        return det(m) == 1 and m[2] % n == 0 and m[3] % n in self.units

    def label(self):
        if self.family == "full":
            return "SL2(Z)"
        name = "Gamma0" if self.family == "gamma0" else "Gamma1"
        return f"{name}({self.level})"


def lift_bottom_row(n, c, d):
    """A matrix in SL2(Z) whose bottom row is congruent to (c, d) mod n.

    The row must be primitive mod n, gcd(c, d, n) = 1; a ValueError is
    raised otherwise.  ``complete`` gives the top row (x, b), x nearest 0; for
    c = 0 and a unit d != 1 mod n, (x, b, n, d % n) is a matrix of Gamma0(n).
    """
    if gcd(gcd(c, d), n) != 1:
        raise ValueError(f"bottom row ({c}, {d}) is not primitive mod {n}")
    if n == 1:
        return MAT_ID
    c %= n
    d %= n
    if c == 0 and d == 1:
        return MAT_ID
    cc = c if c else n
    dd = d
    while gcd(cc, dd) != 1:
        dd += n
    b, x = complete(dd, cc)
    m = (x, b, cc, dd)
    assert det(m) == 1
    return m


@dataclass
class CosetTable:
    """Right cosets Gamma\\SL2(Z) with a fixed list of representatives.

    ``index_of[(c % N) * N + d % N]`` is the index of the coset of the
    matrices with bottom row (c, d), and None when (c, d) is not primitive
    mod N.  It is the one coset lookup: ``coset_of`` reads it, and so does
    the walk of ``mms._add_pair``.  ``action["S"][i]`` and ``action["T"][i]``
    are the indices of the cosets of reps[i] * S and reps[i] * T.  S and T
    generate SL2(Z), so they carry the whole right action; U = T * S sends
    coset i to ``action["S"][action["T"][i]]``.
    """

    spec: GroupSpec
    reps: list
    index_of: list
    action: dict = field(default_factory=dict)  # "S" | "T" -> list of coset indices

    @property
    def index(self):
        return len(self.reps)

    def coset_of(self, g):
        """The index i with g in +-Gamma * reps[i]."""
        if det(g) != 1:
            raise InvalidSpecError("matrix must have determinant 1")
        n = self.spec.level
        return self.index_of[g[2] % n * n + g[3] % n]


def enumerate_cosets(spec):
    """Deterministic coset table for Gamma\\SL2(Z), sorted by coset label.

    A coset is labelled by the lexicographically least element of the orbit
    of its bottom row (c, d) mod N under ``spec.units``, the group +-H of
    lower-right entries of Gamma up to sign.  Walking the pairs in
    lexicographic order meets each orbit first at its label, so one pass
    numbers the cosets in label order and fills ``index_of`` on the whole
    orbit (the P^1(Z/N) table of Cremona, Algorithms for Modular Elliptic
    Curves, section 2.2).
    Raises InvalidSpecError when N^2 exceeds ``MAX_COSET_TABLE``.
    """
    n = spec.level
    if n * n > MAX_COSET_TABLE:
        raise InvalidSpecError(f"level {n}: the coset table needs N^2 = {n * n} "
                               f"entries, more than the limit of {MAX_COSET_TABLE}")
    units = spec.units
    index_of = [None] * (n * n)
    reps = []
    for c in range(n):
        for d in range(n):
            if index_of[c * n + d] is None and gcd(gcd(c, d), n) == 1:
                k = len(reps)  # one int object shared by the whole orbit
                for u in units:
                    index_of[u * c % n * n + u * d % n] = k
                reps.append(lift_bottom_row(n, c, d))
    table = CosetTable(spec, reps, index_of)
    for name, m in (("S", MAT_S), ("T", MAT_T)):
        moved = [mmul(rep, m) for rep in reps]
        table.action[name] = [table.coset_of(g) for g in moved]
        assert all(spec.contains(mmul(g, minv(reps[j])))
                   for g, j in zip(moved, table.action[name]))
    return table


@dataclass
class CuspTable:
    """Cusps of Gamma as orbits of the right T-translation on cosets.

    ``orbits[k]`` lists the coset indices of cusp class k in T-order;
    ``widths[k]`` is the ramification index of that cusp; ``cusp_of[i]`` maps
    a coset index to its cusp class; ``points[k]`` is the representative in
    P^1(Q), either a Fraction or None for the cusp at infinity.
    """

    orbits: list
    widths: list
    cusp_of: list
    points: list

    @property
    def count(self):
        return len(self.orbits)

    @property
    def gcd_of_widths(self):
        g = 0
        for w in self.widths:
            g = gcd(g, w)
        return g


def _cusp_point(rep):
    a, c = rep[0], rep[2]
    if c == 0:
        return None
    return Fraction(a, c)


def cusp_table(table):
    """Group the cosets into cusp classes and pick canonical representatives."""
    act_t = table.action["T"]
    seen = [False] * table.index
    raw = []
    for start in range(table.index):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = act_t[i]
        assert i == start
        pts = [_cusp_point(table.reps[j]) for j in orbit]
        best = None
        for j, p in zip(orbit, pts):
            key = (0, 0, 0) if p is None else (1, p.denominator, p.numerator)
            if best is None or key < best[0]:
                best = (key, j, p)
        raw.append((best[0], best[2], orbit))
    raw.sort(key=lambda t: t[0])
    orbits = [orbit for _, _, orbit in raw]
    points = [p for _, p, _ in raw]
    widths = [len(orbit) for orbit in orbits]
    cusp_of = [0] * table.index
    for k, orbit in enumerate(orbits):
        for i in orbit:
            cusp_of[i] = k
    return CuspTable(orbits, widths, cusp_of, points)


def genus(table, cusps):
    """Genus of the modular curve for Gamma, from the coset table."""
    mu = table.index
    act_s, act_t = table.action["S"], table.action["T"]
    e2 = sum(1 for i in range(mu) if act_s[i] == i)
    e3 = sum(1 for i in range(mu) if act_s[act_t[i]] == i)  # U = T * S
    twelve_g = 12 + mu - 3 * e2 - 4 * e3 - 6 * cusps.count
    assert twelve_g % 12 == 0, "inconsistent coset table"
    return twelve_g // 12


def minus_id_in_group(spec):
    """Whether -Id lies in Gamma as a subgroup of SL2(Z).

    Strict membership, unlike ``GroupSpec.contains`` which identifies a matrix
    with its negative; -Id is missing exactly from Gamma1(N) with N > 2.
    """
    return spec.family != "gamma1" or spec.level <= 2
