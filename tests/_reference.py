"""Routines used only by the tests: exact determinant, characteristic
polynomial and rank, the dense Smith normal form, the dense relation
matrix of the presentation with U read by matrix product, a Gamma0(N)
matrix from an inverse mod N, membership by family,
T^n and the S/T word of a matrix with the two walks over it for
reduce_pair, the coset translate found by search, the extended Euclidean
algorithm and the upper-triangular split by it, the pairing's radical,
its dense product, the Gauss-Jordan inverse and the pairing's
perfectness over Z[1/n] read off the Gram matrix, the projection to the
classical presentation, the T_q representatives with the twisted last one,
the Fraction routes for the rational and composite Hecke operators, the
mpc loop and finish for the digamma series, all Dirichlet characters of an
odd prime-power modulus with their primitive parts, L(chi, 1) by the
log-cyclotomic closed form and by accelerated partial sums, the homology
rows from the Schreier generators, and the lattice index as a ratio of Smith
invariants."""

import cmath
import math
from fractions import Fraction
from math import gcd, inf, prod

import mpmath

from mixsym.eis import DirichletCharacter, _unit_logs, gauss_sum
from mixsym.hecke import diamond, generator_pair, hecke_operator
from mixsym.mms import InvalidInputError, _primitive_integral, reduce_pair
from mixsym.sl2 import (MAT_ID, MAT_S, MAT_T, MAT_U, InvalidSpecError, det,
                        minv, mmul, mneg)
from mixsym.zlattice import (SmithDecomposition, dense_rows, factor, hnf,
                             identity_matrix, kernel_basis, mat_copy, mat_mul,
                             mat_transpose, smith_invariants, vec_mat)


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


def snf_dense(a):
    """``zlattice.snf`` as it was on dense lists: the oracle for the sparse one.

    Same pivot rule, so the same (u, d, v, vinv) byte for byte.
    """
    d = mat_copy(a)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    vinv = identity_matrix(cols)

    # Row ops on d are compensated in u (a = u*d*v is preserved);
    # column ops on d are compensated in v and vinv.
    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def row_add(i, j, k):
        # row j += k * row i
        d[j] = [x + k * y for x, y in zip(d[j], d[i])]
        for row in u:
            row[i] -= k * row[j]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]
        for row in vinv:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, k):
        # col j += k * col i
        for row in d:
            row[j] += k * row[i]
        v[i] = [x - k * y for x, y in zip(v[i], v[j])]
        for row in vinv:
            row[j] += k * row[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        for row in u:
            row[i] = -row[i]

    def find_pivot(t):
        # first entry of least absolute value in the trailing block, in
        # row-major order; a unit is that entry as soon as it is met
        piv, best = None, 0
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (piv is None or x < best):
                    piv, best = (i, j), x
                    if x == 1:
                        return piv
        return piv

    n = min(rows, cols)
    t = 0
    while t < n:
        piv = find_pivot(t)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_add(t, i, -q)
                    if d[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_add(t, j, -q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # enforce divisibility of the trailing block by the pivot (a unit divides all)
        p = d[t][t]
        bad = None if p in (1, -1) else next(
            (i for i in range(t + 1, rows) if any(x % p for x in d[i][t + 1:])), None)
        if bad is not None:
            row_add(bad, t, 1)
            continue
        if p < 0:
            row_negate(t)
        t += 1
    return SmithDecomposition(u=u, d=d, v=v, vinv=vinv)


def assemble_relations_dense(cosets, cusps):
    """The rows of (R1), (R2) and (R3) as one dense matrix over the generators.

    The U move of (R2) is read from the matrix reps[i] * U, not from the S
    and T actions.
    """
    n_manin = cosets.index
    n_cusp = cusps.count
    n = n_manin + n_cusp
    rows = []
    for i in range(n_manin):
        row = [0] * n
        row[i] += 1
        row[cosets.action["S"][i]] += 1
        rows.append(row)
    for i in range(n_manin):
        row = [0] * n
        j = coset_times_u(cosets, i)
        k = coset_times_u(cosets, j)
        for m in (i, j, k):
            row[m] += 1
            row[n_manin + cusps.cusp_of[m]] -= 1
        rows.append(row)
    d = cusps.gcd_of_widths
    row = [0] * n
    for c, w in enumerate(cusps.widths):
        row[n_manin + c] = w // d
    rows.append(row)
    return rows


def coset_times_u(cosets, i):
    """The coset of reps[i] * U, by matrix product and ``coset_of``."""
    return cosets.coset_of(mmul(cosets.reps[i], MAT_U))


def gamma0_with_lower_right(n, d):
    """A matrix (x, y, n, d) of Gamma0(n), for d prime to n, from d^-1 mod n."""
    x = pow(d, -1, n)
    return (x, (x * d - 1) // n, n, d)


def contains_by_family(spec, m):
    """``GroupSpec.contains`` by one rule per family, up to sign for gamma1.

    Every determinant-1 matrix lies in the full group and at level 1; Gamma0(N)
    asks c = 0 mod N; Gamma1(N) asks that as well as a = d = 1 or
    a = d = -1 mod N.
    """
    if det(m) != 1:
        return False
    if spec.family == "full" or spec.level == 1:
        return True
    a, b, c, d = m
    n = spec.level
    if c % n != 0:
        return False
    if spec.family == "gamma0":
        return True
    return (a % n == 1 and d % n == 1) or (a % n == n - 1 and d % n == n - 1)


def mpow_t(n):
    """T^n."""
    return (1, n, 0, 1)


def stword_decompose(g):
    """Write g as sign * T^(a_0) S T^(a_1) S ... with S, T the standard generators.

    Returns (word, sign) where word is a list of ("T", k) and ("S",) tokens and
    multiplying them out (with sign) reproduces g exactly.
    """
    if det(g) != 1:
        raise InvalidSpecError("matrix must have determinant 1")
    word = []
    m = g
    # peel generators off the left (m = T^q * S * m') while the bottom-left
    # entry is nonzero, running the Euclidean algorithm on the first column
    while m[2] != 0:
        a, b, c, d = m
        q = a // c
        if q:
            word.append(("T", q))
            a, b = a - q * c, b - q * d
        word.append(("S",))
        # S^-1 * (a,b,c,d) = (c, d, -a, -b)
        m = (c, d, -a, -b)
    sign = 1 if m[0] == 1 else -1
    k = sign * m[1]
    if k:
        word.append(("T", k))
    return word, sign


def word_to_matrix(word, sign):
    m = MAT_ID
    for tok in word:
        m = mmul(m, mpow_t(tok[1])) if tok[0] == "T" else mmul(m, MAT_S)
    return m if sign == 1 else mneg(m)


def reduce_to_ambient_by_word(space, g, gprime):
    """{g, g'} as {ambient generator index: coefficient}, zeros included, by
    the token walk over ``stword_decompose(g^-1 * g')``.

    One token at a time, in word order: the coset of the bottom row (c, d)
    of the prefix is read from ``index_of``, then T^k sends the row to
    (c, c*k + d) and S to (d, -c).
    """
    n, index_of = space.spec.level, space.cosets.index_of
    cusp_of = space.cusps.cusp_of
    word, _ = stword_decompose(mmul(minv(g), gprime))
    c, d = g[2], g[3]
    amb = {}
    for tok in word:
        i = index_of[c % n * n + d % n]
        if tok[0] == "T":
            k = space.n_manin + cusp_of[i]
            amb[k] = amb.get(k, 0) + tok[1]
            d += c * tok[1]
        else:
            amb[i] = amb.get(i, 0) + 1
            c, d = d, -c
    return amb


def reduce_pair_matrix_walk(space, g, gprime):
    """{g, g'} by multiplying out every prefix of the S/T word of g^-1 * g'.

    The coset of each whole prefix matrix is read with ``coset_of``; the
    ambient coordinates are then multiplied by the dense ``project`` matrix.
    """
    amb = [0] * (space.n_manin + space.n_cusp)
    word, _ = stword_decompose(mmul(minv(g), gprime))
    prefix = g
    for tok in word:
        i = space.cosets.coset_of(prefix)
        if tok[0] == "T":
            amb[space.n_manin + space.cusps.cusp_of[i]] += tok[1]
            prefix = mmul(prefix, mpow_t(tok[1]))
        else:
            amb[i] += 1
            prefix = mmul(prefix, MAT_S)
    return vec_mat(amb, dense_rows(space.quotient.project, space.rank))


def homology_rows_schreier(space):
    """``mms.homology_sublattice`` as it was: the Schreier generators
    reps[i] * gen * reps[j]^-1 of Gamma, for gen in {S, T} and j the coset of
    reps[i] * gen, fed through reduce_pair(1, gamma); zero rows dropped."""
    reps = space.cosets.reps
    rows = []
    for i in range(space.n_manin):
        for name, gen in (("S", MAT_S), ("T", MAT_T)):
            gamma = mmul(reps[i], gen, minv(reps[space.cosets.action[name][i]]))
            row = reduce_pair(space, MAT_ID, gamma)
            if any(row):
                rows.append(row)
    return rows


def translate_by_search(h, q):
    """The unimodular t with h = t * g, for h of odd prime determinant q and g
    one of the T_q coset matrices diag(q, 1) or ((1,j),(0,q)), found by
    trying every j in -(q-1)/2 .. (q-1)/2."""
    h11, h12, h21, h22 = h
    if h11 % q == 0 and h21 % q == 0:
        return (h11 // q, h12, h21 // q, h22)
    for j in range(-(q - 1) // 2, (q - 1) // 2 + 1):
        if (h12 - h11 * j) % q == 0 and (h22 - h21 * j) % q == 0:
            return (h11, (h12 - h11 * j) // q, h21, (h22 - h21 * j) // q)
    raise AssertionError("no coset translate found; determinant not prime?")


def inverse_rational(a):
    """Inverse of a square rational matrix by Gauss-Jordan, or None when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def _primes_divide(d, n):
    """Whether every prime factor of the positive integer d divides n."""
    g = gcd(d, n)
    while g > 1:
        d //= g
        g = gcd(d, n)
    return d == 1


def is_perfect_over(pairing, inverted):
    """Whether the Gram matrix P = six_mat / 6 lies in GL_k(Z[1/inverted]).

    Decided on P itself, not on its Smith invariants: P is invertible, and
    every entry of P and of its Gauss-Jordan inverse has a denominator whose
    primes divide ``inverted``.
    """
    gram = [[Fraction(x, 6) for x in row] for row in pairing.six_mat]
    inv = inverse_rational(gram)
    return inv is not None and all(_primes_divide(x.denominator, inverted)
                                   for m in (gram, inv) for row in m for x in row)


def pi_classical(space, x):
    """Projection of a lattice vector to the classical presentation."""
    return vec_mat(x, space.pi_basis)


def coset_reps_twisted(space, q):
    """The T_q / U_q representatives with gamma*diag(q,1) last for every q
    not dividing N, gamma = gamma0_with_lower_right(N, q), also when q lies
    in +-H."""
    n = space.spec.level
    reps = [(1, i, 0, q) for i in range(q)]
    if n % q == 0:
        return reps
    return reps + [mmul(gamma0_with_lower_right(n, q), (q, 0, 0, 1))]


def pairing_kernel(pairing):
    """Basis of the rational radical {phi : phi * P = 0} of the pairing."""
    if not pairing.six_mat:
        return []
    return kernel_basis(pairing.six_mat)


def six_mat_dense(space):
    """``dualpair.pairing_matrix``'s six_mat as one dense integer product.

    K = A^T B - 4 C^T D over the dense corner rows stacked by coset:
    A = M_i, B = M_iT, C = C_c(i), D = M_i; six_mat = K - K^T.
    """
    n = space.n_manin
    manin = dense_rows(space.quotient.project[:n], space.rank)
    left = manin + [space.cusp_gen(c) for c in space.cusps.cusp_of]
    right = [manin[j] for j in space.cosets.action["T"]]
    right += [[-4 * x for x in row] for row in manin]
    k = mat_mul(mat_transpose(left), right)
    return [[x - y for x, y in zip(row, col)] for row, col in zip(k, zip(*k))]


def gcdex(a, b):
    """Return (x, y, g) with a*x + b*y == g == gcd(a, b) and g >= 0."""
    if b == 0:
        return (1, 0, a) if a >= 0 else (-1, 0, -a)
    q, r = divmod(a, b)
    x, y, g = gcdex(b, r)
    return y, x - y * q, g


def factor_upper(m):
    """Write an integer matrix with positive determinant as alpha * upper,
    by the extended Euclidean algorithm.

    Returns (alpha, (A, B, D)) with alpha unimodular and
    alpha^-1 * m = ((A, B), (0, D)), D > 0; B is whatever gcdex gives.
    """
    m11, m12, m21, m22 = m
    r, s, g = -m21, m11, gcd(m11, m21)
    r //= g
    s //= g
    p, q, _ = gcdex(s, -r)  # p*s - q*r = 1
    alpha_inv = (p, q, r, s)
    a, b, c, d = mmul(alpha_inv, m)
    assert c == 0
    if d < 0:
        alpha_inv = mneg(alpha_inv)
        a, b, d = -a, -b, -d
    return minv(alpha_inv), (a, b, d)


def reduce_pair_rational_fractions(space, m, mprime):
    """{m, m'} for rational matrices of positive determinant, added up in Fractions.

    With m = alpha * ((a, b), (0, d)) and m' likewise up to positive scalars,
    the integral symbol {alpha, alpha'}, minus (b/d) times the cusp generator
    at alpha's coset, plus (b'/d') times the one at the coset of alpha'.
    """
    for x in (m, mprime):
        a, b, c, d = (Fraction(t) for t in x)
        if a * d - b * c <= 0:
            raise InvalidInputError("matrices must have positive determinant")
    alpha, (_, b, d) = factor_upper(_primitive_integral(m))
    alpha2, (_, b2, d2) = factor_upper(_primitive_integral(mprime))
    out = [Fraction(x) for x in reduce_pair(space, alpha, alpha2)]
    if b:
        i = space.cosets.coset_of(alpha)
        cg = space.cusp_gen(space.cusps.cusp_of[i])
        out = [x - Fraction(b, d) * y for x, y in zip(out, cg)]
    if b2:
        i = space.cosets.coset_of(alpha2)
        cg = space.cusp_gen(space.cusps.cusp_of[i])
        out = [x + Fraction(b2, d2) * y for x, y in zip(out, cg)]
    return out


def _fraction_operator(space, fn):
    """lift * (fn of each ambient generator): the operator matrix in Fractions.

    fn runs only on the generators that ``lift`` uses; the others are zero.
    """
    n = space.n_manin + space.n_cusp
    lift = dense_rows(space.quotient.lift, n)
    used = {k for row in lift for k, c in enumerate(row) if c}
    zero = [Fraction(0)] * space.rank
    return mat_mul(lift, [fn(*generator_pair(space, k)) if k in used else zero
                          for k in range(n)])


def hecke_rational_fractions(space, q):
    """T_q or U_q by the double-coset expansion, each image summed in Fractions.

    The representatives are ((1,i),(0,q)) for i in 0 .. q-1 and, when q does
    not divide the level, diag(q,1), whose image is twisted by the <q> matrix.
    """
    n = space.spec.level
    mats = [((1, i, 0, q), False) for i in range(q)]
    if n % q:
        mats.append(((q, 0, 0, 1), True))
        dia = diamond(space, q).mat

    def fn(g, gp):
        total = [Fraction(0)] * space.rank
        for m, twist in mats:
            v = reduce_pair_rational_fractions(space, mmul(m, g), mmul(m, gp))
            if twist:
                v = vec_mat(v, dia)
            total = [x + y for x, y in zip(total, v)]
        return total

    return _fraction_operator(space, fn)


def atkin_lehner_fractions(space):
    """W_N via w = ((0,-1),(N,0)), each image in Fractions."""
    n = space.spec.level
    w = (0, -1, n, 0)
    return _fraction_operator(
        space,
        lambda g, gp: reduce_pair_rational_fractions(space, mmul(w, g), mmul(w, gp)))


def hecke_composite_fractions(space, m):
    """The matrix of T_m by the recurrences run on the divided Fraction matrices.

    U_q^k for q dividing the level, else T_{q^(k+1)} = T_{q^k} * T_q
    - q * T_{q^(k-1)} * <q>; the prime powers of m are multiplied in turn
    onto the identity, which is T_1.
    """
    n = space.spec.level
    out = identity_matrix(space.rank)
    for q, k in factor(m).items():
        tq = hecke_operator(space, q).mat
        if n % q == 0:
            cur = tq
            for _ in range(k - 1):
                cur = mat_mul(cur, tq)
        else:
            dia = diamond(space, q).mat
            prev, cur = identity_matrix(space.rank), tq
            for _ in range(k - 1):
                correction = mat_mul(prev, dia)
                nxt = [[a - q * b for a, b in zip(ra, rb)]
                       for ra, rb in zip(mat_mul(cur, tq), correction)]
                prev, cur = cur, nxt
        out = mat_mul(out, cur)
    return out


def digamma_mpf(f, dps=30):
    """psi(a/f) as an mpf at ``dps`` digits for each unit a modulo f."""
    with mpmath.workdps(dps):
        return {a: mpmath.digamma(mpmath.mpf(a) / f)
                for a in range(1, f) if gcd(a, f) == 1}


def series_total_mpc(chi, psi, dps=30):
    """sum of chi(a) * psi[a] added up term by term in mpc at ``dps`` digits."""
    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for a, psi_a in psi.items():
            total += mpmath.mpc(chi(a)) * psi_a
    return total


def series_finish_mpc(re, im, f):
    """-(re + i*im) / f as a complex, by mpc arithmetic at 30 digits."""
    with mpmath.workdps(30):
        val = -mpmath.mpc(re, im) / f
    return complex(val)


def characters_mod(m):
    """All phi(m) Dirichlet characters of odd prime-power modulus m.

    Character j maps the unit g^k to e^(2*pi*i*j*k/phi), for the primitive
    root g of ``eis._unit_logs``; ``eis._even_nontrivial_primitive_parts``
    builds the primitive parts of the even non-trivial ones directly.
    """
    if m == 1:
        return [DirichletCharacter(1, 0, {0: 1 + 0j}, 1, True)]
    p, n, phi, dlog = _unit_logs(m)
    out = []
    for j in range(phi):
        vals = {u: cmath.exp(2j * cmath.pi * j * k / phi)
                for u, k in dlog.items()}
        # the units congruent to 1 mod p^e (e >= 1) are the powers of
        # g^(phi / p^(n-e)), so chi_j is trivial on them exactly when p^(n-e)
        # divides j
        conductor = p ** (n - factor(j).get(p, 0)) if j else 1
        # -1 = g^(phi/2), so chi_j(-1) = e^(pi*i*j) is 1 exactly for even j
        out.append(DirichletCharacter(m, j, vals, conductor, j % 2 == 0))
    return out


def primitive_part(chi):
    """The primitive character of modulus ``chi.conductor`` inducing chi.

    A character of prime-power modulus is constant on unit residues with
    a common reduction modulo its conductor.  A unit b modulo f = p^e is
    prime to p, so it is itself a unit modulo the modulus, and the
    induced table is read off at b.
    """
    f = chi.conductor
    if f == chi.modulus:
        return chi
    if f == 1:
        return DirichletCharacter(1, 0, {0: 1 + 0j}, 1, True)
    vals = {b: chi.values[b] for b in range(1, f) if gcd(b, f) == 1}
    return DirichletCharacter(f, chi.index * f // chi.modulus, vals, f, chi.is_even)


def l_value_log(chi):
    """L(chi, 1) of a primitive even nontrivial character by the
    log-cyclotomic closed form -(tau(chi)/f) * sum of
    conj(chi)(a)*log|1-e^(2*pi*i*a/f)|."""
    f = chi.modulus
    s = sum(chi(a).conjugate() * math.log(abs(1 - cmath.exp(2j * cmath.pi * a / f)))
            for a in range(1, f) if gcd(a, f) == 1)
    return -gauss_sum(chi) / f * s


def l_value_partial(chi, budget=1_000_000):
    """L(chi, 1) as the sum of chi(n)/n over period blocks, Richardson-extrapolated.

    Partial sums over K full periods have an asymptotic error expansion in
    powers of 1/K, so iterated Richardson extrapolation on a geometric ladder
    of truncation points converges far faster than the raw series.  At most
    ``budget`` terms are added up: the ladder drops its top rungs to fit.
    """
    f = chi.modulus
    levels = 5
    base = 64
    while base * (2 ** (levels - 1)) * f > budget and levels > 1:
        levels -= 1

    def partial(blocks):
        total = 0j
        for n in range(1, blocks * f + 1):
            total += chi(n) / n
        return total

    s = [partial(base * (2 ** i)) for i in range(levels)]
    for step in range(1, levels):
        factor = 2 ** step
        s = [(factor * s[i + 1] - s[i]) / (factor - 1)
             for i in range(len(s) - 1)]
    return s[0]


def sublattice_index_smith(gens_a, gens_b):
    """``zlattice.sublattice_index`` as a ratio of torsion orders: the product
    of the Smith invariants of B over that of A, ``inf`` when B has fewer.

    The route before the pivot products; it assumes B lies in A and tests
    nothing.
    """
    invs_b, invs_a = smith_invariants(gens_b), smith_invariants(gens_a)
    if len(invs_b) < len(invs_a):
        return inf
    return prod(invs_b) // prod(invs_a)
