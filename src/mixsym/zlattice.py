"""Exact linear algebra over Z and Q.

Matrices are lists of rows; entries are Python ints (or ``fractions.Fraction``
where rational arithmetic is explicitly allowed).  Vectors are rows, and all
maps act on row vectors by right multiplication: the image of ``x`` under the
map with matrix ``M`` is ``x * M``.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, inf, lcm, prod


class LatticeError(Exception):
    """Raised when a lattice operation receives inconsistent input."""


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a):
    return [list(row) for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """Product of two matrices (entries int or Fraction)."""
    return [vec_mat(row, b) for row in a]


def vec_mat(v, m):
    """Row vector times matrix; only the non-zero entries of ``v`` cost work."""
    assert len(v) == len(m), "incompatible shapes"
    out = [0] * (len(m[0]) if m else 0)
    for x, row in zip(v, m):
        if x:
            out = [s + x * y for s, y in zip(out, row)]
    return out


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def sparse_rows(a):
    """Each row of ``a`` as a tuple of its non-zero (column, value) pairs, in column order."""
    return [tuple((j, row[j]) for j in compress(range(len(row)), row)) for row in a]


def dense_rows(vecs, n):
    """The list-of-rows matrix whose rows are the sparse vectors ``vecs`` of
    length ``n``, each an iterable of (index, value) pairs."""
    out = [[0] * n for _ in vecs]
    for row, vec in zip(out, vecs):
        for j, x in vec:
            row[j] = x
    return out


def vec_mat_sparse(terms, rows, n):
    """Sum of x * rows[k] over the (k, x) in ``terms``, as a dense row of length n.

    ``rows`` are sparse rows of (column, value) pairs, so each term costs
    the non-zero entries of its row.
    """
    out = [0] * n
    for k, x in terms:
        if x:
            for j, y in rows[k]:
                out[j] += x * y
    return out


def _row_hnf(h, cols):
    """Reduce the rows of ``h`` in place to row HNF, pivoting in the first ``cols`` columns.

    Entries past ``cols`` ride along with every row operation, so rows
    augmented by the identity carry the transform.
    """
    rows = len(h)
    r = 0
    for j in range(cols):
        # gcd elimination in column j below row r
        while True:
            piv = None
            for i in range(r, rows):
                if h[i][j] != 0 and (piv is None or abs(h[i][j]) < abs(h[piv][j])):
                    piv = i
            if piv is None:
                break
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][j] != 0:
                    q = h[i][j] // h[r][j]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][j] != 0:
                        done = False
            if done:
                break
        if r < rows and h[r][j] != 0:
            if h[r][j] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r):
                q = h[i][j] // h[r][j]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
    return h


def hnf(a):
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``h = u * a``, ``u`` unimodular, ``h`` in row
    echelon form with positive pivots, zero rows last, and entries above each
    pivot reduced into ``[0, pivot)``.
    """
    cols = len(a[0]) if a else 0
    hu = _row_hnf([list(row) + e for row, e in zip(a, identity_matrix(len(a)))], cols)
    return [row[:cols] for row in hu], [row[cols:] for row in hu]


@dataclass
class SmithDecomposition:
    """A = u * d * v with u, v unimodular and d in Smith normal form.

    ``vinv`` is the inverse of ``v``; ``invariants`` lists the nonzero
    diagonal entries of ``d``.
    """

    u: list
    d: list
    v: list
    vinv: list

    @property
    def invariants(self):
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))
                if self.d[i][i] != 0]


def _add_multiple(dst, src, k):
    """dst += k * src on sparse {index: value} vectors, for k != 0; zeros are dropped."""
    for c, x in src.items():
        y = dst.get(c, 0) + k * x
        if y:
            dst[c] = y
        else:
            del dst[c]


def snf(a):
    """Smith normal form with transforms; returns a SmithDecomposition.

    The dense form of ``_snf_sparse``, which states the pivot rule.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, d, v, vinv = ([x.items() for x in m] for m in _snf_sparse(sparse_rows(a), cols))
    return SmithDecomposition(u=mat_transpose(dense_rows(u, rows)),
                              d=dense_rows(d, cols), v=dense_rows(v, cols),
                              vinv=mat_transpose(dense_rows(vinv, cols)))


def _snf_sparse(a, cols):
    """Smith normal form a = u * d * v as sparse (u, d, v, vinv).

    ``a`` is given by its sparse rows, each an iterable of (column, value)
    pairs, and has ``cols`` columns.

    The pivot rule is the contract, and the pinned digests of the
    transforms hold it: at step t the pivot of the trailing block is its
    first unit in row-major order (the least unit column of the first row
    that has one), and without a unit the least (|x|, i, j).  Row t and
    column t are then cleared by floor-division steps, swapping in a
    non-zero remainder; a non-unit pivot that does not divide some row of
    the trailing block has that row added to row t, and step t starts over.

    The elimination is sparse: ``d`` is held as {column: value} rows,
    ``u`` and ``vinv`` by columns and ``v`` by rows, the sides that the row
    and column operations touch.  Rows above t are finished (their only
    entry is on the diagonal), so a column operation visits the rows from
    t on, and a column add only those with an entry in column t.  The four
    matrices are returned in those sparse forms, as lists of dicts.
    """
    rows = len(a)
    d = [dict(row) for row in a]
    u = [{i: 1} for i in range(rows)]  # columns of u
    v = [{i: 1} for i in range(cols)]  # rows of v
    vinv = [{i: 1} for i in range(cols)]  # columns of vinv

    # Row ops on d are compensated in u (a = u*d*v is preserved);
    # column ops on d are compensated in v and vinv.
    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i, j, k):
        # row j += k * row i
        _add_multiple(d[j], d[i], k)
        _add_multiple(u[i], u[j], -k)

    def col_swap(t, j):
        # swap columns t < j; returns the rows that then have an entry in column t
        rows_t = []
        for i in range(t, rows):
            row = d[i]
            if t in row or j in row:
                x, y = row.pop(t, 0), row.pop(j, 0)
                if y:
                    row[t] = y
                    rows_t.append(i)
                if x:
                    row[j] = x
        v[t], v[j] = v[j], v[t]
        vinv[t], vinv[j] = vinv[j], vinv[t]
        return rows_t

    def col_add(t, j, k, rows_t):
        # col j += k * col t; ``rows_t`` lists the rows with an entry in column t
        for i in rows_t:
            row = d[i]
            y = row.get(j, 0) + k * row[t]
            if y:
                row[j] = y
            else:
                del row[j]
        _add_multiple(v[t], v[j], -k)
        _add_multiple(vinv[j], vinv[t], k)

    def row_negate(i):
        d[i] = {j: -x for j, x in d[i].items()}
        u[i] = {j: -x for j, x in u[i].items()}

    def find_pivot(t):
        # the first unit in row-major order, else the least (|x|, i, j)
        best = None
        for i in range(t, rows):
            if d[i]:
                x, j = min((abs(x), j) for j, x in d[i].items())
                if x == 1:
                    return i, j
                if best is None or x < best[0]:
                    best = x, i, j
        return best and best[1:]

    n = min(rows, cols)
    t = 0
    while t < n:
        piv = find_pivot(t)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            rows_t = col_swap(t, piv[1])
        else:
            rows_t = [i for i in range(t, rows) if t in d[i]]
        # clear row and column t; a zero quotient leaves the line as it is
        dirty = True
        while dirty:
            dirty = False
            below, rows_t = rows_t[1:], [t]
            for i in below:
                q = d[i][t] // d[t][t]
                if q:
                    row_add(t, i, -q)
                if t in d[i]:
                    row_swap(t, i)
                    rows_t.append(i)
                    dirty = True
            for j in sorted(j for j in d[t] if j > t):
                q = d[t][j] // d[t][t]
                if q:
                    col_add(t, j, -q, rows_t)
                if j in d[t]:
                    rows_t = col_swap(t, j)
                    dirty = True
        # enforce divisibility of the trailing block by the pivot (a unit divides all)
        p = d[t][t]
        bad = None if p in (1, -1) else next(
            (i for i in range(t + 1, rows) if any(x % p for x in d[i].values())), None)
        if bad is not None:
            row_add(bad, t, 1)
            continue
        if p < 0:
            row_negate(t)
        t += 1
    return u, d, v, vinv


def _hnf_rows(a):
    """The non-zero rows of the reduced row HNF of ``a``, built without a transform."""
    return [row for row in _row_hnf(mat_copy(a), len(a[0]) if a else 0) if any(row)]


def smith_invariants(a):
    """Non-zero invariant factors of an integer matrix, each dividing the next.

    Row HNFs of the matrix and of its transpose alternate until it is
    diagonal (Kannan-Bachem); only the reduced forms are carried from one
    step to the next, never a transform.  Pairwise gcd/lcm then puts the
    diagonal in divisibility order.
    """
    d = _hnf_rows(a)
    while any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        d = _hnf_rows(mat_transpose(d))
    invs = [row[i] for i, row in enumerate(d)]
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            g = gcd(invs[i], invs[j])
            invs[i], invs[j] = g, invs[i] * invs[j] // g
    return invs


@dataclass
class QuotientLattice:
    """Largest torsion-free quotient of Z^n by the span of a list of relations.

    ``project`` (n x rank) sends an ambient row vector to its coordinates in
    the quotient basis, and ``lift`` (rank x n) is a section, so
    ``lift * project = identity`` and the relations map to 0 under
    ``project``.  Both are stored as sparse rows, each a tuple of the
    non-zero (column, value) pairs in column order (``dense_rows`` gives the
    matrix).  ``torsion`` lists the invariant factors > 1 of the full quotient
    (the part discarded when passing to the torsion-free quotient).
    """

    rank: int
    project: list
    lift: list
    torsion: list = field(default_factory=list)


def quotient_by_rows(relations, ambient_rank):
    """Torsion-free quotient of Z^ambient_rank by the span of ``relations``.

    Each relation is a sparse row, an iterable of (column, value) pairs with
    columns in ``range(ambient_rank)``; a column outside it raises
    LatticeError.  With relations = u * d * v in Smith form and r non-zero
    invariants, ``project`` is the last n - r columns of v^-1 and ``lift``
    the last n - r rows of v, both read off the sparse elimination.
    """
    if any(not 0 <= j < ambient_rank for row in relations for j, _ in row):
        raise LatticeError("relation columns must lie in range(ambient_rank)")
    _, d, v, vinv = _snf_sparse(relations, ambient_rank)
    invariants = [d[i][i] for i in range(min(len(d), ambient_rank)) if d[i].get(i)]
    r = len(invariants)
    rank = ambient_rank - r
    project = [[] for _ in range(ambient_rank)]
    for j in range(r, ambient_rank):
        for i, x in vinv[j].items():
            project[i].append((j - r, x))
    project = [tuple(row) for row in project]
    lift = [tuple(sorted(v[j].items())) for j in range(r, ambient_rank)]
    torsion = [x for x in invariants if x not in (1, -1)]
    assert [vec_mat_sparse(row, project, rank) for row in lift] == identity_matrix(rank)
    assert not any(any(vec_mat_sparse(row, project, rank)) for row in relations)
    return QuotientLattice(rank, project, lift, torsion)


def kernel_basis(a):
    """Basis (rows) of the saturated integer kernel {x : x * a = 0}."""
    h, u = hnf(a)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def solve_rational(a, b):
    """Solve x * a = b over Q; returns a row of Fractions or None.

    Deterministic: pivots are chosen left to right, free variables are zero.
    Here ``a`` is m x n, ``b`` has length n, and ``x`` has length m.
    """
    m = len(a)
    if m == 0:
        return [] if all(x == 0 for x in b) else None
    n = len(a[0])
    if len(b) != n:
        raise LatticeError("dimension mismatch")
    # Work with the transposed system a^T x^T = b^T via augmented elimination.
    aug = [[Fraction(a[i][j]) for i in range(m)] + [Fraction(b[j])] for j in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][m] != 0 for i in range(r, n)):
        return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = aug[i][m]
    return x


def sublattice_index(gens_a, gens_b):
    """Index of the lattice spanned by ``gens_b`` inside the one spanned by ``gens_a``.

    Returns ``math.inf`` when the ranks differ; raises LatticeError when the
    rows of A and B do not all have one length, or when some generator of B
    does not lie in the lattice A.  B lies in A exactly when
    A and A + B have the same reduced HNF.  Then A and B span one rational
    space, so their HNFs share their pivot columns, on which each is upper
    triangular: the index is the product of the pivots of B over that of A
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.3).
    """
    if len({len(row) for gens in (gens_a, gens_b) for row in gens}) > 1:
        raise LatticeError("dimension mismatch")
    basis, hb = _hnf_rows(gens_a), _hnf_rows(gens_b)
    if _hnf_rows(basis + hb) != basis:
        for row in gens_b:
            h = _hnf_rows(basis + [row])
            if h != basis:
                where = "span of" if len(h) > len(basis) else "lattice"
                raise LatticeError(f"generator outside the {where} A")
    pivots_b, pivots_a = ([next(filter(None, row)) for row in h] for h in (hb, basis))
    return inf if len(hb) < len(basis) else prod(pivots_b) // prod(pivots_a)


def common_denominator(*mats):
    """Least positive d such that d times each given matrix is integral."""
    return lcm(*(x.denominator for m in mats for row in m for x in row))


def factor(n):
    """Prime factorisation of |n| by trial division, as {prime: exponent}.

    Returns an empty dict for n in (-1, 0, 1).
    """
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
