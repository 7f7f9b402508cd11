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

L(chi,1) = -(1/f) * sum of chi(a)*psi(a/f) needs no library beyond the
standard one: psi(a/f) comes from Gauss's digamma theorem, evaluated in
integer fixed point and kept per conductor as psi(a/f) * 2**160 rounded to
an int (``_digamma_table``), and each part of the sum is one exact integer
dot product with chi's parts scaled by 2**128, rounded to a double once.

Nonvanishing of both determinants is the numerical witness that the period
map of the symbol lattice becomes an isomorphism over R at prime-power level.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

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

    Each part of chi(a), real and imaginary, is scaled by 2**128 and read
    as an int: exactly for every |x| >= 2**-76, and less than 2**-128 off
    below that.  Its dot product with the table's psi(a/f) * 2**160 is then
    an exact integer, and each part of L(chi, 1) is that sum divided by
    -f * 2**288 in one correctly rounded int/int division, the only
    rounding after the table's.
    """
    if chi.is_trivial or not chi.is_even:
        raise CharacterError("requires a nontrivial even character")
    if chi.conductor != chi.modulus:
        raise CharacterError("requires a primitive character")
    f = chi.modulus
    table = _digamma_table(f)
    psis = [psi for _, psi in table]
    zs = [chi.values[a] for a, _ in table]
    re = sum(map(mul, [int(z.real * 2.0**128) for z in zs], psis))
    im = sum(map(mul, [int(z.imag * 2.0**128) for z in zs], psis))
    d = f << 288
    return complex(-re / d, -im / d)


# Fixed point for the digamma table: an int x stands for x * 2**-_W.  pi,
# Euler's gamma and ln 2 are rounded to the nearest int at this scale.
_W = 224
_PI = 0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa99
_GAMMA = 0x93c467e37db0c7a4d1be3f810152cb56a1cecc3af65cc0190c03df34
_LN2 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175c


def _cos_sin_pi_over(f):
    """Lists of cos(pi*m/f) and sin(pi*m/f) for m < 2f, at scale 2**_W.

    cos and sin of pi/f come from their Taylor series, and each further
    angle from the one before by a rotation through pi/f.
    """
    one = 1 << _W
    x = _PI // f
    c1 = s1 = 0
    term, n = one, 0
    while term:  # term = x**n / n!
        if n % 2:
            s1 += -term if n % 4 == 3 else term
        else:
            c1 += -term if n % 4 == 2 else term
        n += 1
        term = (term * x >> _W) // n
    cos, sin = [one], [0]
    for _ in range(2 * f - 1):
        c, s = cos[-1], sin[-1]
        cos.append((c * c1 - s * s1) >> _W)
        sin.append((s * c1 + c * s1) >> _W)
    return cos, sin


def _ln(x):
    """ln(x * 2**-_W) at scale 2**_W, for an int x > 0.

    x = 2**e * y with y * 2**-_W in [sqrt(1/2), sqrt(2)), and
    ln(y) = 2*atanh(t) = 2*(t + t**3/3 + t**5/5 + ...) with t = (y-1)/(y+1),
    so |t| < 0.172 and each term gains more than 5 bits.  The series runs
    on |t|, since atanh is odd.
    """
    one = 1 << _W
    e = x.bit_length() - 1 - _W
    y = x >> e if e >= 0 else x << -e
    if y * y > 2 << 2 * _W:
        y >>= 1
        e += 1
    t = (abs(y - one) << _W) // (y + one)
    t2 = t * t >> _W
    total, power, j = 0, t, 1
    while power:
        total += power // j
        power = power * t2 >> _W
        j += 2
    return (2 * total if y > one else -2 * total) + e * _LN2


@functools.lru_cache(maxsize=None)
def _digamma_table(f):
    """(a, psi(a/f) * 2**160) for each unit a modulo f, in increasing order of a.

    Each psi(a/f) * 2**160 is rounded to an int.  It comes from Gauss's
    digamma theorem (DLMF 5.4.19): for 0 < a < f,

      psi(a/f) = -gamma - ln(2f) - (pi/2)*cot(pi*a/f)
                 + 2 * sum over 1 <= k <= (f-1)/2 of cos(2*pi*k*a/f) * ln sin(pi*k/f),

    evaluated in integer fixed point at scale 2**_W, the cosine sum as one
    exact dot product.  That sum is the same at a and f - a and the cot
    term changes sign, so each pair shares one sum.  The values depend on
    the conductor alone, so all characters of conductor f share one table.
    """
    cos, sin = _cos_sin_pi_over(f)
    cos2 = cos[::2]  # cos(2*pi*m/f) for m < f
    ks = range(1, (f + 1) // 2)
    lns = [_ln(sin[k]) for k in ks]
    base = -_GAMMA - _ln(2 * f << _W)
    psi = {}
    for a in range(1, (f + 1) // 2):
        if gcd(a, f) == 1:
            dot = sum(map(mul, [cos2[k * a % f] for k in ks], lns))
            rest = base + (dot >> (_W - 1))
            half_cot = _PI * ((cos[a] << _W) // sin[a]) >> (_W + 1)
            psi[a] = rest - half_cot
            psi[f - a] = rest + half_cot
    half = 1 << (_W - 161)
    return tuple((a, (psi[a] + half) >> (_W - 160)) for a in sorted(psi))


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
    up to a_50; the L-value is the exact closed form -(12/d)*log(p).  d
    divides p-1, 12 and 24, so a_0, every a_k and -12/d are ints.
    """
    if p < 3 or factor(p) != {p: 1}:
        raise UnsupportedModulusError("p must be an odd prime")
    d = gcd(p - 1, 12)
    n = (p - 1) // d
    coeffs = [n]
    for k in range(1, 51):
        s = sum(m for m in range(1, k + 1) if k % m == 0 and m % p != 0)
        coeffs.append(24 // d * s)
    return {
        "p": p,
        "d": d,
        "n": n,
        "coefficients": coeffs,
        "L_value": -12 / d * math.log(p),
        "L_value_symbolic": (-12 // d, p),
        "period_vector": (-12 / d * math.log(p), 2 * math.pi * (p - 1) / d),
    }
