"""Exact integer/rational linear algebra."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, inf

import pytest

from mixsym import dualpair, sl2
from mixsym.mms import _assemble_relations, build_space
from mixsym.zlattice import (LatticeError, dense_rows, hnf, identity_matrix,
                             kernel_basis, mat_mul, mat_transpose,
                             quotient_by_rows, smith_invariants, snf,
                             solve_rational, sparse_rows, sublattice_index,
                             vec_mat)

from _reference import charpoly, det_rational, mat_rank, snf_dense
from test_dualpair import PERFECTNESS_LEVELS


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def is_unimodular(u):
    return abs(det_rational(u)) == 1


class TestHNF:
    def test_transform_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            h, u = hnf(a)
            assert mat_mul(u, a) == h
            assert is_unimodular(u)

    def test_echelon_shape(self):
        rng = random.Random(2)
        for _ in range(50):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            h, _ = hnf(a)
            pivots = []
            for row in h:
                nz = next((j for j, x in enumerate(row) if x), None)
                if nz is None:
                    continue
                assert row[nz] > 0
                pivots.append(nz)
            assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
            # entries above each pivot reduced into [0, pivot)
            for r, row in enumerate(h):
                nz = next((j for j, x in enumerate(row) if x), None)
                if nz is None:
                    continue
                for i in range(r):
                    assert 0 <= h[i][nz] < row[nz]

    def test_known_example(self):
        h, u = hnf([[2, 4], [1, 3]])
        assert mat_mul(u, [[2, 4], [1, 3]]) == h
        assert h == [[1, 1], [0, 2]]

    def test_rank(self):
        assert mat_rank([[1, 2], [2, 4]]) == 1
        assert mat_rank(identity_matrix(4)) == 4


class TestSNF:
    def test_decomposition(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            dec = snf(a)
            assert mat_mul(dec.u, mat_mul(dec.d, dec.v)) == a
            assert is_unimodular(dec.u) and is_unimodular(dec.v)
            assert mat_mul(dec.v, dec.vinv) == identity_matrix(len(dec.v))
            invs = dec.invariants
            for x, y in zip(invs, invs[1:]):
                assert y % x == 0
            # off-diagonal zero
            for i, row in enumerate(dec.d):
                for j, x in enumerate(row):
                    if i != j:
                        assert x == 0

    def test_known_invariants(self):
        assert snf([[2, 0], [0, 3]]).invariants == [1, 6]
        assert snf([[2, 0], [0, 2]]).invariants == [2, 2]

    # The pivot sequence, and so every transform, is pinned byte for byte:
    # exports are read off ``v`` and ``vinv``.  Both digests were recorded
    # before the unit-pivot fast path was added.
    def test_transforms_pinned_on_random_matrices(self):
        rng = random.Random(31)
        decs = []
        for k in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            # even k: small entries with at least one unit; odd k: no unit,
            # so the non-unit pivots and the divisibility scan run
            pool = [-3, -2, -1, 0, 1, 2, 3] if k % 2 == 0 else [0, 2, -2, 3, -3, 6, -6]
            a = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
            if k % 2 == 0:
                a[rng.randrange(rows)][rng.randrange(cols)] = rng.choice([-1, 1])
            decs.append(snf(a))
        assert _snf_digest(decs) == \
            "88e7ac70f5afb545e1a06294a3bb3ba41510582ab41a9c33cca448faf46c9b07"

    def test_transforms_pinned_on_relation_matrices(self):
        decs = []
        for family, level in [("gamma0", 36), ("gamma0", 60), ("gamma0", 101),
                              ("gamma1", 17)]:
            cosets = sl2.enumerate_cosets(sl2.GroupSpec(family, level))
            decs.append(snf(_relation_matrix(cosets)))
        assert _snf_digest(decs) == \
            "07683e54df9f672d1ecdb4d1e33c545e0507c15d4eab6ea66b1ac1f940a46824"


    # The sparse elimination against the dense one it replaced: the same
    # pivot sequence, so the same four matrices byte for byte.
    def test_matches_dense_oracle_on_random_matrices(self):
        rng = random.Random(15)
        for k in range(2000):
            # even k: a unit pool up to 7 x 7; odd k: no unit, up to 5 x 5,
            # where 2 and 3 below a pivot of 3 or 6 give zero quotients (on
            # larger unit-free matrices the pivot rule makes the entries of
            # both eliminations explode)
            if k % 2 == 0:
                pool, size = [-3, -2, -1, 0, 1, 2, 3], 7
            else:
                pool, size = [0, 0, 2, -2, 3, -3, 4, 6, -6], 5
            rows, cols = rng.randint(1, size), rng.randint(1, size)
            a = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
            if k % 3 == 0:
                a.insert(rng.randint(0, rows), [0] * cols)
            if k % 5 == 0:
                j = rng.randint(0, cols)
                a = [row[:j] + [0] + row[j:] for row in a]
            _assert_same_snf(a)

    @pytest.mark.parametrize("family,levels", [
        ("gamma0", list(range(1, 61)) + [101]), ("gamma1", range(2, 17))])
    def test_matches_dense_oracle_on_relation_matrices(self, family, levels):
        for level in levels:
            cosets = sl2.enumerate_cosets(sl2.GroupSpec(family, level))
            relations = _relation_matrix(cosets)
            mu = cosets.index
            _assert_same_snf(relations)
            _assert_same_snf([row[:mu] for row in relations[:2 * mu]])

    def test_matches_dense_oracle_on_gram_matrices(self):
        # non-unit pivots and the divisibility fix-up run here
        for family, level in PERFECTNESS_LEVELS:
            space = build_space(sl2.GroupSpec(family, level))
            _assert_same_snf(dualpair.pairing_matrix(space).six_mat)


def _relation_matrix(cosets):
    """The dense matrix of (R1)-(R3) for a coset table."""
    cusps = sl2.cusp_table(cosets)
    return dense_rows(_assemble_relations(cosets, cusps), cosets.index + cusps.count)


def _assert_section_matches_snf(rel, n):
    q, dec = quotient_by_rows(sparse_rows(rel), n), snf(rel)
    r = len(dec.invariants)
    # project and lift rows are tuples of the non-zero (column, value) pairs
    # in column order
    assert q.project == sparse_rows(dense_rows(q.project, q.rank)), rel
    assert q.lift == sparse_rows(dense_rows(q.lift, n)), rel
    assert dense_rows(q.project, q.rank) == [row[r:] for row in dec.vinv], rel
    assert dense_rows(q.lift, n) == dec.v[r:], rel
    assert q.torsion == [x for x in dec.invariants if x != 1], rel


def _assert_same_snf(a):
    got, want = snf(a), snf_dense(a)
    assert (got.u, got.d, got.v, got.vinv) == (want.u, want.d, want.v, want.vinv), a


def _snf_digest(decs):
    h = hashlib.sha256()
    for dec in decs:
        h.update(repr((dec.u, dec.d, dec.v, dec.vinv)).encode())
    return h.hexdigest()


def _product_by_definition(a, b):
    """(a * b)[i][j] as the sum over k of a[i][k] * b[k][j]."""
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for row in a]


def _sparse_entry(rng, fractions):
    if rng.random() < 0.6:
        return 0
    if fractions:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randint(-9, 9)


class TestMatMul:
    def test_against_definition(self):
        rng = random.Random(41)
        for k in range(300):
            n, m, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = [[_sparse_entry(rng, k % 3 == 1) for _ in range(m)] for _ in range(n)]
            b = [[_sparse_entry(rng, k % 3 != 0) for _ in range(p)] for _ in range(m)]
            a[rng.randrange(n)] = [0] * m
            b[rng.randrange(m)] = [0] * p
            j = rng.randrange(p)
            for row in b:
                row[j] = 0
            expected = _product_by_definition(a, b)
            assert mat_mul(a, b) == expected
            assert [vec_mat(row, b) for row in a] == expected

    def test_empty_shapes(self):
        assert mat_mul([], [[1, 2]]) == []
        assert mat_mul([[]], []) == [[]]
        assert mat_mul([[], []], []) == [[], []]
        assert mat_mul([[1, 2]], [[], []]) == [[]]
        assert vec_mat([], []) == []
        assert vec_mat([3, 0], [[], []]) == []

    def test_shape_mismatch_raises(self):
        for a, b in [([[1]], []), ([[1, 2]], [[1]]), ([[1]], [[1], [2]])]:
            with pytest.raises(AssertionError):
                mat_mul(a, b)
        with pytest.raises(AssertionError):
            vec_mat([1], [[1], [2]])


def _minor_gcd(a, k):
    """The k-th determinantal divisor: the gcd of all k x k minors of ``a``."""
    cols = len(a[0]) if a else 0
    out = 0
    for rs in combinations(range(len(a)), k):
        for cs in combinations(range(cols), k):
            out = gcd(out, int(det_rational([[a[i][j] for j in cs] for i in rs])))
    return out


def _determinantal_invariants(a):
    """Invariant factors d_k / d_(k-1) from the determinantal divisors d_k."""
    invs, prev = [], 1
    for k in range(1, min(len(a), len(a[0]) if a else 0) + 1):
        d = _minor_gcd(a, k)
        if d == 0:
            break
        invs.append(d // prev)
        prev = d
    return invs


# entries below 80, yet snf's entries pass 240 000 bits on it
SNF_BLOWUP = [[-34, -19, 20, 19, 11], [-39, -25, 11, 11, 24],
              [-77, -24, 26, -2, 41], [-39, -2, 45, 32, -10],
              [-14, -6, -17, -30, 28], [-40, 2, 17, 2, 16]]


class TestSmithInvariants:
    def test_known_values(self):
        assert smith_invariants([]) == []
        assert smith_invariants([[]]) == []
        assert smith_invariants([[0, 0], [0, 0]]) == []
        assert smith_invariants([[4, 6]]) == [2]
        assert smith_invariants([[4], [-6]]) == [2]
        assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
        assert smith_invariants([[2, 0], [0, 2]]) == [2, 2]
        assert smith_invariants([[0, 6], [-6, 0]]) == [6, 6]

    def test_snf_blowup_matrix(self):
        assert smith_invariants(SNF_BLOWUP) == [1, 1, 1, 1, 4]
        assert _determinantal_invariants(SNF_BLOWUP) == [1, 1, 1, 1, 4]

    def test_against_determinantal_divisors(self):
        rng = random.Random(21)
        for _ in range(300):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, -100, 100)
            shape = rng.randrange(4)
            if shape == 1:
                a[rng.randrange(rows)] = [0] * cols
            elif shape == 2 and rows > 1:
                # rank-deficient: one row a combination of the others
                i = rng.randrange(rows)
                v = [rng.randint(-3, 3) for _ in range(rows)]
                v[i] = 0
                a[i] = vec_mat(v, a)
            elif shape == 3:
                # small common factors in one row and one column
                f, g = rng.choice([2, 3, 6]), rng.choice([2, 4, 5])
                i, j = rng.randrange(rows), rng.randrange(cols)
                a[i] = [f * x for x in a[i]]
                for row in a:
                    row[j] *= g
            assert smith_invariants(a) == _determinantal_invariants(a), a


class TestQuotient:
    def test_section_properties(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 5)
            rel = random_matrix(rng, rng.randint(0, 4), n)
            q = quotient_by_rows(sparse_rows(rel), n)
            project = dense_rows(q.project, q.rank)
            if rel:
                assert all(x == 0 for row in mat_mul(rel, project) for x in row)
            assert mat_mul(dense_rows(q.lift, n), project) == identity_matrix(q.rank)

    # project and lift are read off the sparse elimination: they must be the
    # columns of vinv and the rows of v that the dense snf gives
    def test_section_matches_snf_on_random_matrices(self):
        # even k: the shapes of test_section_properties; odd k: entries in
        # -3..3 up to 6 x 6, the sizes of the pinned snf transforms
        rng = random.Random(16)
        for k in range(400):
            if k % 2 == 0:
                n = rng.randint(1, 5)
                rel = random_matrix(rng, rng.randint(1, 4), n)
            else:
                n = rng.randint(1, 6)
                rel = random_matrix(rng, rng.randint(1, 6), n, -3, 3)
            _assert_section_matches_snf(rel, n)

    @pytest.mark.parametrize("family,levels", [
        ("gamma0", list(range(1, 61)) + [101]), ("gamma1", range(2, 21))])
    def test_section_matches_snf_on_relation_matrices(self, family, levels):
        for level in levels:
            cosets = sl2.enumerate_cosets(sl2.GroupSpec(family, level))
            relations = _relation_matrix(cosets)
            mu = cosets.index
            _assert_section_matches_snf(relations, len(relations[0]))
            _assert_section_matches_snf([row[:mu] for row in relations[:2 * mu]], mu)

    def test_torsion(self):
        q = quotient_by_rows([((0, 2),)], 2)
        assert q.rank == 1 and q.torsion == [2]

    # a relation is a sparse row, so the ambient rank bounds its columns
    def test_dimension_error(self):
        for relations in ([((2, 3),)], [((0, 1), (-1, 3))]):
            with pytest.raises(LatticeError):
                quotient_by_rows(relations, 2)


class TestKernelSolve:
    def test_kernel(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            for row in kernel_basis(a):
                assert all(x == 0 for x in vec_mat(row, a))
            assert len(kernel_basis(a)) == len(a) - mat_rank(a)

    def test_solve_deterministic_free_variable(self):
        assert solve_rational([[1], [1]], [2]) == [Fraction(2), Fraction(0)]

    def test_solve_consistency(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x = [rng.randint(-5, 5) for _ in range(len(a))]
            b = vec_mat(x, a)
            sol = solve_rational(a, b)
            assert sol is not None
            assert vec_mat(sol, a) == [Fraction(v) for v in b]

    def test_solve_no_solution(self):
        assert solve_rational([[1, 0]], [0, 1]) is None


def _index_reference(gens_a, gens_b):
    """sublattice_index by one rational solve per generator of B."""
    ha, _ = hnf(gens_a)
    basis = [row for row in ha if any(row)]
    coords = []
    for row in gens_b:
        x = solve_rational(basis, row)
        if x is None:
            raise LatticeError("generator outside the span of A")
        if any(c.denominator != 1 for c in x):
            raise LatticeError("generator outside the lattice A")
        coords.append([int(c) for c in x])
    invs = snf(coords).invariants
    if len(invs) < len(basis):
        return inf
    idx = 1
    for x in invs:
        idx *= abs(x)
    return idx


def _outcome(fn, a, b):
    try:
        return fn(a, b)
    except LatticeError as e:
        return str(e)


def _random_lattice(rng, rank, cols):
    """Generators of a rank-``rank`` lattice in Z^cols, with duplicate rows,
    rows that are combinations of others, and negative entries."""
    base = random_matrix(rng, rank, cols)
    while mat_rank(base) < rank:
        base = random_matrix(rng, rank, cols)
    gens = [list(r) for r in base]
    for _ in range(rng.randint(0, 3)):
        v = [rng.randint(-3, 3) for _ in range(rank)]
        gens.append(vec_mat(v, base))
    gens.append(list(rng.choice(base)))
    rng.shuffle(gens)
    return base, gens


class TestSublatticeIndexAgainstReference:
    def test_random_pairs(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(400):
            cols = rng.randint(1, 5)
            _, a = _random_lattice(rng, rng.randint(1, cols), cols)
            b = random_matrix(rng, rng.randint(0, 4), cols, -4, 4)
            got = _outcome(sublattice_index, a, b)
            assert got == _outcome(_index_reference, a, b)
            seen.add(got if isinstance(got, str) else type(got))
        assert seen >= {"generator outside the span of A",
                        "generator outside the lattice A", int}

    def test_integer_combinations(self):
        rng = random.Random(12)
        for _ in range(200):
            cols = rng.randint(1, 5)
            rank = rng.randint(1, cols)
            base, a = _random_lattice(rng, rank, cols)
            x = random_matrix(rng, rank, rank, -4, 4)
            b = mat_mul(x, base)
            got = sublattice_index(a, b)
            assert got == _index_reference(a, b)
            assert got == (abs(det_rational(x)) or inf)
        # taller x: the index is the gcd of the maximal minors of x (the
        # reference route ends in snf, whose entries blow up on such x)
        for extra in (1, 2):
            for _ in range(200):
                cols = rng.randint(1, 5)
                rank = rng.randint(1, cols)
                base, a = _random_lattice(rng, rank, cols)
                x = random_matrix(rng, rank + extra, rank, -4, 4)
                b = mat_mul(x, base)
                assert sublattice_index(a, b) == (_minor_gcd(x, rank) or inf)

    def test_fewer_independent_rows_is_infinite(self):
        rng = random.Random(13)
        for _ in range(100):
            cols = rng.randint(2, 5)
            rank = rng.randint(2, cols)
            base, a = _random_lattice(rng, rank, cols)
            x = random_matrix(rng, rank - 1, rank, -4, 4)
            b = mat_mul(x, base) + [[0] * cols]
            assert sublattice_index(a, b) == inf == _index_reference(a, b)

    def test_in_rational_span_but_not_in_lattice(self):
        rng = random.Random(14)
        for _ in range(100):
            cols = rng.randint(1, 5)
            rank = rng.randint(1, cols)
            base, a = _random_lattice(rng, rank, cols)
            doubled = [[2 * x for x in row] for row in a]
            v = [rng.randint(-3, 3) for _ in range(rank)]
            v[rng.randrange(rank)] = 2 * rng.randint(-3, 3) + 1
            b = [vec_mat(v, base)]
            for fn in (sublattice_index, _index_reference):
                with pytest.raises(LatticeError, match="outside the lattice A"):
                    fn(doubled, b)

    def test_outside_span(self):
        rng = random.Random(15)
        for _ in range(100):
            cols = rng.randint(2, 5)
            rank = rng.randint(1, cols - 1)
            base, a = _random_lattice(rng, rank, cols)
            row = [rng.randint(-4, 4) for _ in range(cols)]
            if solve_rational(base, row) is not None:
                continue
            b = mat_mul(random_matrix(rng, 2, rank), base) + [row]
            for fn in (sublattice_index, _index_reference):
                with pytest.raises(LatticeError, match="outside the span of A"):
                    fn(a, b)


class TestIndexDetCharpoly:
    def test_index_diag(self):
        assert sublattice_index(identity_matrix(2), [[2, 0], [0, 3]]) == 6

    def test_index_rank_drop(self):
        assert sublattice_index(identity_matrix(2), [[1, 0]]) == inf

    def test_index_outside(self):
        with pytest.raises(LatticeError):
            sublattice_index([[2, 0], [0, 2]], [[1, 0], [0, 1]])

    def test_index_dimension_mismatch(self):
        with pytest.raises(LatticeError, match="dimension mismatch"):
            sublattice_index(identity_matrix(2), [[1, 0, 0]])

    @pytest.mark.parametrize("a, b", [([[0, 0]], [[0, 0], [0]]),
                                      ([], [[0], [0, 0]]),
                                      ([[0, 0], [0]], []),
                                      ([[1], [1, 0]], [[1]])],
                             ids=["zero-a", "empty-a", "ragged-a", "ragged-nonzero-a"])
    def test_index_ragged_rows(self, a, b):
        """Zero rows of unequal length, and an empty A, are still a mismatch."""
        with pytest.raises(LatticeError, match="dimension mismatch"):
            sublattice_index(a, b)

    def test_det(self):
        assert det_rational([[1, 2], [3, 4]]) == -2
        assert det_rational([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)

    def test_charpoly_matches_det_and_trace(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n)
            c = charpoly(a)
            assert c[-1] == 1
            assert c[0] == (-1) ** n * det_rational(a)
            assert -c[n - 1] == sum(a[i][i] for i in range(n))

    def test_transpose_roundtrip(self):
        a = [[1, 2, 3], [4, 5, 6]]
        assert mat_transpose(mat_transpose(a)) == a
