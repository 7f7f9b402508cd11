"""Floating-point verification layer for the Eisenstein period identities.

Provides Dirichlet characters of odd prime-power modulus, Gauss sums, L(chi,1)
by the digamma series, the log-cyclotomic matrices

  M'  = (-log|1 - e^(2*pi*i*x^-1*y/p^n)|)            x, y in (Z/p^n)^x / +-1
  M'' = (M' entries + log|1 - e^(2*pi*i*x^-1/p^n)|)  x, y != +-1

together with the determinant identities

  det(M')  = -(1/2)*log(p) * prod over even chi != 1 of (f_chi/(2*tau(chi))) * L(chi,1)
  det(M'') =                 prod over even chi != 1 of (f_chi/(2*tau(chi))) * L(chi,1)

(tau and L taken at the primitive character attached to chi), the cusp-value
cocycle components of the weight-2 Eisenstein series phi_(a,b), and the
closed-form Eisenstein constants on Gamma0(p).  The matrices are lists of
float rows, and their determinants come from Gaussian elimination with
partial pivoting in plain floats (``_det``).

Nonvanishing of both determinants is the numerical witness that the period
map of the symbol lattice becomes an isomorphism over R at prime-power level.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath
from mpmath.libmp import (from_int, from_man_exp, mpc_div_mpf, mpc_neg,
                          mpc_to_complex, round_nearest)

from .zlattice import factor


class UnsupportedModulusError(Exception):
    """Raised for moduli outside the odd-prime-power range."""


class CharacterError(Exception):
    """Raised when a character violates an operation's preconditions."""


DEFAULT_TOL = 1e-8


def _odd_prime_power(m):
    """Return (p, n) with m = p^n, p an odd prime; raise otherwise."""
    fac = factor(m) if m >= 3 and m % 2 else {}
    if len(fac) != 1:
        raise UnsupportedModulusError(f"{m} is not an odd prime power")
    return next(iter(fac.items()))


def _primitive_root(m):
    """A generator of the cyclic unit group modulo an odd prime power."""
    p, _ = _odd_prime_power(m)
    phi = m // p * (p - 1)
    prime_factors = factor(phi)
    for g in range(2, m):
        if gcd(g, m) != 1:
            continue
        if all(pow(g, phi // q, m) != 1 for q in prime_factors):
            return g
    raise AssertionError("no primitive root found")


@dataclass
class DirichletCharacter:
    """A Dirichlet character of odd prime-power modulus (or modulus 1).

    ``values`` maps each unit residue to a complex root of unity; ``index``
    is the exponent j with chi(g) = e^(2*pi*i*j/phi) for the stored
    generator g of the unit group.
    """

    modulus: int
    index: int
    values: dict
    conductor: int
    is_even: bool

    def __call__(self, a):
        a %= self.modulus
        return self.values.get(a, 0j)

    @property
    def is_trivial(self):
        return self.index == 0 or self.modulus == 1


def _unit_logs(m):
    """(p, n, phi, dlog) for m = p^n: dlog maps each unit g^k to k, in the
    order k = 0 .. phi - 1, for the primitive root g of ``_primitive_root``."""
    p, n = _odd_prime_power(m)
    g = _primitive_root(m)
    phi = m // p * (p - 1)
    dlog = {}
    x = 1
    for k in range(phi):
        dlog[x] = k
        x = x * g % m
    return p, n, phi, dlog


def gauss_sum(chi):
    """tau(chi) = sum of chi(a)*e^(2*pi*i*a/f) for a primitive character."""
    if chi.conductor != chi.modulus:
        raise CharacterError("gauss_sum requires a primitive character")
    if chi.modulus == 1:
        return 1 + 0j
    return sum(chi.values[a] * z for a, z in _additive_characters(chi.modulus))


@functools.lru_cache(maxsize=None)
def _additive_characters(f):
    """(a, e^(2*pi*i*a/f)) for each unit a modulo f, in increasing order of a."""
    return tuple((a, cmath.exp(2j * cmath.pi * a / f))
                 for a in range(1, f) if gcd(a, f) == 1)


def l_even_char_at_1(chi):
    """L(chi, 1) for a primitive even nontrivial character, as a complex double.

    The Dirichlet series is evaluated through the digamma closed form
    -(1/f) * sum of chi(a)*psi(a/f).

    The series sum runs in an integer kernel (``_series_totals``) on
    mantissa-exponent pairs at 103 bits, the precision of
    ``mpmath.workdps(30)``.  Each product chi(a)*psi(a/f) and each partial
    sum is rounded to nearest with ties to even, one real and one imaginary
    part at a time, exactly where an mpc loop at 30 digits rounds.  A
    correctly rounded result is unique, so every intermediate value, and the
    returned complex, is bit-identical to that loop's.  The negation, the
    division by f and the conversion to complex are the libmp calls that
    mpc arithmetic at 30 digits makes, so no mpc object is built.
    """
    if chi.is_trivial or not chi.is_even:
        raise CharacterError("requires a nontrivial even character")
    if chi.conductor != chi.modulus:
        raise CharacterError("requires a primitive character")
    f = chi.modulus
    re, im = _series_totals(chi, _digamma_table(f))
    total = (from_man_exp(*re), from_man_exp(*im))
    val = mpc_div_mpf(mpc_neg(total, _PREC, round_nearest), from_int(f),
                      _PREC, round_nearest)
    return mpc_to_complex(val, rnd=round_nearest)


@functools.lru_cache(maxsize=None)
def _digamma_table(f):
    """psi(a/f) at 30 digits for each unit a modulo f, in increasing order of a.

    Entries are triples (a, man, exp) with psi(a/f) = man * 2**exp exactly,
    man a signed int of at most 103 bits, read off the mpf.  The values
    depend on the conductor alone, so all characters of conductor f share
    one table.
    """
    table = []
    with mpmath.workdps(30):
        for a in range(1, f):
            if gcd(a, f) == 1:
                sign, man, exp, _ = mpmath.digamma(mpmath.mpf(a) / f)._mpf_
                table.append((a, -man if sign else man, exp))
    return table


# mpmath.workdps(30) computes at this many bits, rounding to nearest with
# ties to even.
_PREC = 103


def _series_totals(chi, table):
    """sum over the table of chi(a) * psi(a/f), as (real pair, imaginary pair).

    A pair (man, exp) stands for man * 2**exp, man a signed int and 0 for
    zero.  Term by term this is mpmath's ``total += mpc(chi(a)) * psi``; the
    real and imaginary accumulations are independent, so each part is summed
    by its own loop (``_part_total``).
    """
    zs = [chi.values[a] for a, _, _ in table]
    return (_part_total([z.real for z in zs], table),
            _part_total([z.imag for z in zs], table))


def _part_total(xs, table):
    """sum of x * psi over xs and the table, as mpf_mul and mpf_add at 103 bits.

    Each double x is read exactly as a 53-bit mantissa off ``math.frexp``;
    its product with psi = pm * 2**pe and each running sum are formed
    exactly and rounded once to ``_PREC`` bits, to nearest with ties to even.
    A zero part adds nothing.  The sum is mpf_add's whenever neither operand
    has more than 103 bits, as here: on wider operands mpf_add may stand in
    for a far smaller addend with one unit 107 bits below the larger
    operand's last bit, which can round the other way.
    """
    frexp = math.frexp
    sm = se = 0
    for x, (_, pm, pe) in zip(xs, table):
        if not x:
            continue
        m, e = frexp(x)
        man = int(m * 9007199254740992.0) * pm
        exp = e - 53 + pe
        n = man.bit_length() - _PREC
        if n > 0:
            half = 1 << (n - 1)
            q = (man + half) >> n
            if q & 1 and man & (2 * half - 1) == half:
                q -= 1
            man = q
            exp += n
        if sm:
            d = se - exp
            if d >= 0:
                man += sm << d
            else:
                man = sm + (man << -d)
                exp = se
            n = man.bit_length() - _PREC
            if n > 0:
                half = 1 << (n - 1)
                q = (man + half) >> n
                if q & 1 and man & (2 * half - 1) == half:
                    q -= 1
                man = q
                exp += n
        sm, se = man, exp
    return sm, se


@dataclass
class NumericReport:
    """A two-sided floating-point identity check."""

    identity: str
    pn: int
    lhs: complex
    rhs: complex
    rel_error: float
    tolerance: float

    @property
    def passed(self):
        return self.rel_error <= self.tolerance


def _half_units(m):
    """Representatives of (Z/m)^x / +-1, taken in (0, m/2)."""
    return [x for x in range(1, (m + 1) // 2) if gcd(x, m) == 1]


def _log_entry(m, e):
    return -math.log(abs(1 - cmath.exp(2j * cmath.pi * e / m)))


def log_cyclotomic_matrices(pn):
    """The matrices M' and M'' over (Z/p^n)^x / +-1 as lists of float rows.

    Each log entry is evaluated once per unit residue and then indexed.
    """
    reps = _half_units(pn)
    inv = {x: pow(x, -1, pn) for x in reps}
    logs = {e: _log_entry(pn, e) for e in range(1, pn) if gcd(e, pn) == 1}
    mprime = [[logs[inv[x] * y % pn] for y in reps] for x in reps]
    # reps[0] == 1, so column 0 of M' holds the row shift -log|1 - e(x^-1/p^n)|
    msec = [[v - row[0] for v in row[1:]] for row in mprime[1:]]
    return mprime, msec


def _det(a):
    """det(a) of a square list of float rows, by Gaussian elimination.

    The pivot is the first entry of largest absolute value in the leading
    column; each row swap flips the sign, and only the columns to the right
    of the pivot are updated.  The empty matrix has determinant 1.0.
    """
    det = 1.0
    a = list(a)
    while a:
        p = max(range(len(a)), key=lambda i: abs(a[i][0]))
        if p:
            a[0], a[p] = a[p], a[0]
            det = -det
        top = a[0]
        pivot = top[0]
        if not pivot:
            return 0.0
        det *= pivot
        tail = top[1:]
        a = [[x - f * y for x, y in zip(row[1:], tail)]
             for row in a[1:] for f in (row[0] / pivot,)]
    return det


def _even_nontrivial_primitive_parts(pn):
    """The primitive parts of the even non-trivial characters mod pn.

    The character of index j takes the value e^(2*pi*i*j*k/phi) at the unit
    g^k, for the even indices j = 2, 4, ... < phi.  Its conductor is
    p^(n - v_p(j)), and an imprimitive one is evaluated only at the units
    below the conductor: such a character is constant on the units with a
    common reduction modulo the conductor, and a unit b modulo p^e is itself
    a unit modulo pn.  No odd character and no table modulo pn of an
    imprimitive one is built.
    """
    p, n, phi, dlog = _unit_logs(pn)
    out = []
    for j in range(2, phi, 2):
        f = p ** (n - factor(j).get(p, 0))
        units = dlog if f == pn else [b for b in range(1, f) if b % p]
        c = 2j * cmath.pi * j
        vals = {u: cmath.exp(c * dlog[u] / phi) for u in units}
        out.append(DirichletCharacter(f, j * f // pn, vals, f, True))
    return out


def _even_nontrivial_product(pn):
    """prod over even chi != 1 mod pn of (f_chi/(2*tau(chi))) * L(chi,1)."""
    out = 1 + 0j
    for prim in _even_nontrivial_primitive_parts(pn):
        out *= prim.modulus / (2 * gauss_sum(prim)) * l_even_char_at_1(prim)
    return out


def logdet_identity(pn, tol=DEFAULT_TOL):
    """Check both determinant identities; returns (report for M', report for M'').

    The left sides are determinants of the explicitly assembled matrices,
    by elimination in plain floats (``_det``), not by the factorisation of
    the group determinant over characters; the right sides are products of
    normalized L-values evaluated through the digamma series route, so the
    two sides share no code path.

    ``rel_error`` is bounded below by the rounding of the right side, not
    by ``_det``: the product of L-values keeps an imaginary residue of
    1.3e-14 relative at p^n = 25 and 9.3e-13 at 169, about the reported
    ``rel_error`` there.
    """
    p, _ = _odd_prime_power(pn)
    mprime, msec = log_cyclotomic_matrices(pn)
    lhs1 = _det(mprime)
    lhs2 = _det(msec)
    prod = _even_nontrivial_product(pn)
    rhs1 = (-math.log(p) / 2) * prod
    rhs2 = prod
    r1 = NumericReport("det(M')", pn, lhs1, rhs1,
                       abs(lhs1 - rhs1) / max(abs(rhs1), 1e-300), tol)
    r2 = NumericReport("det(M'')", pn, lhs2, rhs2,
                       abs(lhs2 - rhs2) / max(abs(rhs2), 1e-300), tol)
    return r1, r2


def bernoulli2(x):
    """The periodic second Bernoulli polynomial (x-floor(x))^2 - (x-floor(x)) + 1/6."""
    t = Fraction(x)
    t -= t.numerator // t.denominator
    return t * t - t + Fraction(1, 6)


def eis_component(pn, g, gprime, a, b):
    """Cusp-value component of the Eisenstein symbol {g, g'} against phi_(a,b).

    Returns (realPart, residuePart): the real part is
    F((a,b)*g') - F((a,b)*g) with F(a,b) = -delta_a * log|1 - e^(2*pi*i*b/p^n)|,
    and the residue part is the exact rational difference of (1/2)*B2 at the
    first coordinates of (a,b)*g' and (a,b)*g.
    """
    p, _ = _odd_prime_power(pn)
    if gcd(gcd(a, b), p) % p == 0:
        raise CharacterError("(a, b) must be nonzero modulo p")

    def row_act(m):
        return ((a * m[0] + b * m[2]) % pn, (a * m[1] + b * m[3]) % pn)

    def f_value(ab):
        x, y = ab
        return _log_entry(pn, y) if x % pn == 0 else 0.0

    left, right = row_act(g), row_act(gprime)
    real_part = f_value(right) - f_value(left)
    residue = (bernoulli2(Fraction(right[0], pn))
               - bernoulli2(Fraction(left[0], pn))) / 2
    return real_part, residue


def gamma0p_constants(p):
    """Closed-form data of the Eisenstein series E on Gamma0(p).

    d = gcd(p-1, 12); n = (p-1)/d; the q-expansion is
    a_0 = (p-1)/d and a_k = (24/d) * sum of divisors of k prime to p, listed
    up to a_50; the L-value is the exact closed form -(12/d)*log(p).
    """
    if p < 3 or factor(p) != {p: 1}:
        raise UnsupportedModulusError("p must be an odd prime")
    d = gcd(p - 1, 12)
    n = (p - 1) // d
    coeffs = [Fraction(p - 1, d)]
    for k in range(1, 51):
        s = sum(m for m in range(1, k + 1) if k % m == 0 and m % p != 0)
        coeffs.append(Fraction(24 * s, d))
    return {
        "p": p,
        "d": d,
        "n": n,
        "coefficients": coeffs,
        "L_value": -12 / d * math.log(p),
        "L_value_symbolic": (Fraction(-12, d), p),
        "period_vector": (-12 / d * math.log(p), 2 * math.pi * (p - 1) / d),
    }
