"""The mixed-symbol lattice: presentation, reduction, and structural maps."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from mixsym import dualpair, mms
from mixsym.mms import (InvalidInputError, _add_pair, _assemble_relations, _upper_split,
                        boundary, build_space, cusp_cokernel_invariants,
                        expected_homology_index, expected_manin_index,
                        homology_index_in_kernel, homology_sublattice,
                        kernel_of_boundary, kernel_pi_invariants, manin_image_rows,
                        manin_index, reduce_pair, reduce_pair_rational,
                        reduce_pair_scaled, space_from_dict, space_to_dict)
from mixsym.sl2 import GroupSpec, MAT_ID, MAT_S, MAT_T, det, mmul
from mixsym.zlattice import (dense_rows, identity_matrix, quotient_by_rows, sparse_rows,
                             sublattice_index)

from _reference import (assemble_relations_dense, coset_times_u, factor_upper,
                        homology_rows_schreier, mpow_t, pi_classical,
                        reduce_pair_matrix_walk, reduce_to_ambient_by_word,
                        sublattice_index_smith)

# rank must equal 2*genus + 2*(cusps - 1)
RANK_TABLE = {("gamma0", 5): 2, ("gamma0", 7): 2, ("gamma0", 9): 6,
              ("gamma0", 11): 4, ("gamma0", 13): 2, ("gamma0", 23): 6,
              ("gamma0", 25): 10, ("gamma1", 5): 6, ("gamma1", 7): 10,
              ("gamma1", 11): 20, ("gamma1", 13): 26, ("full", 1): 0}


def _space(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = build_space(GroupSpec(family, level))
    return _cache[(family, level)]


class TestBuild:
    @pytest.mark.parametrize("family,level", sorted(RANK_TABLE))
    def test_rank(self, family, level):
        sp = _space(family, level)
        assert sp.rank == RANK_TABLE[(family, level)]
        assert sp.rank == 2 * sp.genus + 2 * (sp.n_cusp - 1)

    def test_generators_integral(self):
        sp = _space("gamma0", 11)
        for i in range(sp.n_manin):
            assert all(isinstance(x, int) for x in sp.manin_gen(i))
        for c in range(sp.n_cusp):
            assert any(sp.cusp_gen(c))


class TestRelations:
    @pytest.mark.parametrize("family,levels", [("gamma0", range(1, 61)),
                                               ("gamma1", range(1, 21))])
    def test_match_dense_assembly(self, family, levels):
        """The sparse relations are the dense matrix's rows, in canonical form:
        columns strictly increasing, no zero value, and at most six entries
        in each (R1) and (R2) row."""
        for level in levels:
            sp = _space(family, level)
            relations = _assemble_relations(sp.cosets, sp.cusps)
            assert dense_rows(relations, sp.n_manin + sp.n_cusp) == \
                assemble_relations_dense(sp.cosets, sp.cusps), level
            for row in relations:
                columns = [j for j, _ in row]
                assert columns == sorted(set(columns)), (level, row)
                assert all(x for _, x in row), (level, row)
            assert all(len(row) <= 6 for row in relations[:2 * sp.n_manin]), level


def _classical_relations(cosets):
    """x + xS and x + xU + xU^2 on the coset generators, assembled directly,
    with U read from the matrix reps[i] * U."""
    n = cosets.index
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] += 1
        row[cosets.action["S"][i]] += 1
        rows.append(row)
    for i in range(n):
        row = [0] * n
        j = coset_times_u(cosets, i)
        k = coset_times_u(cosets, j)
        for m in (i, j, k):
            row[m] += 1
        rows.append(row)
    return rows


class TestClassicalPresentation:
    @pytest.mark.parametrize("family,levels", [("gamma0", range(1, 61)),
                                               ("gamma1", range(1, 21))])
    def test_matches_direct_relations(self, family, levels):
        for level in levels:
            sp = _space(family, level)
            relations = sparse_rows(_classical_relations(sp.cosets))
            ref = quotient_by_rows(relations, sp.n_manin)
            got = sp.classical
            assert (got.rank, got.project, got.lift, got.torsion) == \
                (ref.rank, ref.project, ref.lift, ref.torsion), level


def _random_word_matrix(rng):
    """A product of 8..24 random letters S, T, T^-1 (perfbench's letter rule)."""
    m = MAT_ID
    for _ in range(rng.randint(8, 24)):
        a, b, c, d = m
        letter = rng.randrange(3)
        if letter == 0:
            m = (b, -a, d, -c)
        else:
            k = 1 if letter == 1 else -1
            m = (a, a * k + b, c, c * k + d)
    return m


def _long_t_word_matrix(rng, bound):
    """A product of 2..8 factors S * T^k with |k| <= bound."""
    m = MAT_ID
    for _ in range(rng.randint(2, 8)):
        m = mmul(m, MAT_S, mpow_t(rng.randint(-bound, bound)))
    return m


class TestReduce:
    def test_t_power_is_cusp_generator_multiple(self):
        sp = _space("gamma0", 5)
        # {1, T^5} telescopes to five copies of the infinity cusp generator
        assert reduce_pair(sp, MAT_ID, mpow_t(5)) == \
            [5 * x for x in sp.cusp_gen(0)]

    def test_s_is_manin_generator(self):
        sp = _space("gamma0", 5)
        assert reduce_pair(sp, MAT_ID, MAT_S) == sp.manin_gen(0)

    def test_cocycle_law(self):
        sp = _space("gamma0", 11)
        rng = random.Random(20)

        def rnd():
            m = MAT_ID
            for _ in range(8):
                m = mmul(m, MAT_S if rng.random() < 0.5
                         else (1, rng.randint(-3, 3), 0, 1))
            return m

        for _ in range(25):
            g, gp, gpp = rnd(), rnd(), rnd()
            lhs = [a + b for a, b in zip(reduce_pair(sp, g, gp),
                                         reduce_pair(sp, gp, gpp))]
            assert lhs == reduce_pair(sp, g, gpp)
            # group invariance: {gamma*g, gamma*g'} = {g, g'}
            gamma = (1, 0, 11, 1)
            assert reduce_pair(sp, mmul(gamma, g), mmul(gamma, gp)) == \
                reduce_pair(sp, g, gp)

    def test_antisymmetry(self):
        sp = _space("gamma0", 7)
        g, gp = (1, 2, 0, 1), MAT_S
        assert reduce_pair(sp, g, gp) == [-x for x in reduce_pair(sp, gp, g)]

    def test_invalid_input(self):
        sp = _space("gamma0", 5)
        with pytest.raises(InvalidInputError):
            reduce_pair(sp, (2, 0, 0, 1), MAT_ID)

    @pytest.mark.parametrize("family,levels", [("gamma0", range(1, 61)),
                                               ("gamma1", range(2, 21))])
    def test_matches_matrix_prefix_walk(self, family, levels):
        """The bottom-row walk against the walk over whole prefix matrices,
        on short words and on words with T-exponents up to 10 * N."""
        for level in levels:
            sp = _space(family, level)
            rng = random.Random(level)
            for _ in range(10):
                for g, gp in ((_random_word_matrix(rng), _random_word_matrix(rng)),
                              (_long_t_word_matrix(rng, 10 * level),
                               _long_t_word_matrix(rng, 10 * level))):
                    assert reduce_pair(sp, g, gp) == \
                        reduce_pair_matrix_walk(sp, g, gp), (level, g, gp)

    @pytest.mark.parametrize("family,levels", [("gamma0", range(1, 61)),
                                               ("gamma1", range(2, 21))])
    def test_fused_walk_matches_token_walk(self, family, levels):
        """The one-loop walk adds the same {generator: coefficient} dict as
        the token walk over the S/T word, zeros included, on short words and
        on words with T-exponents up to 10 * N; adding it again scaled by -1
        leaves every coefficient 0."""
        for level in levels:
            sp = _space(family, level)
            rng = random.Random(level)
            for _ in range(10):
                for g, gp in ((_random_word_matrix(rng), _random_word_matrix(rng)),
                              (_long_t_word_matrix(rng, 10 * level),
                               _long_t_word_matrix(rng, 10 * level))):
                    amb = {}
                    _add_pair(sp, amb, g, gp)
                    assert amb == reduce_to_ambient_by_word(sp, g, gp), (level, g, gp)
                    _add_pair(sp, amb, g, gp, -1)
                    assert not any(amb.values()), (level, g, gp)


# SHA-256 of the reductions in test_reductions_pinned, recorded from the
# matrix-prefix walk before the bottom-row walk replaced it
REDUCTIONS_DIGEST = "a64e44fc1b3381f44a94ea84c1955ec4b5a478acf01d6f42b98e40e5be8499fe"


class TestReductionsPinned:
    def test_reductions_pinned(self):
        """reduce_pair, reduce_pair_scaled and the six-times G cycle, byte for byte."""
        h = hashlib.sha256()
        spaces = ([("full", 1)] + [("gamma0", n) for n in range(2, 61)]
                  + [("gamma1", n) for n in range(2, 21)])
        for fam, n in spaces:
            sp = _space(fam, n)
            rng = random.Random(7 * n + (fam == "gamma1"))
            for _ in range(40):
                g, gp = _random_word_matrix(rng), _random_word_matrix(rng)
                h.update(repr(reduce_pair(sp, g, gp)).encode())
                for q in (2, 3):
                    r = rng.randrange(q)
                    h.update(repr(reduce_pair_scaled(
                        sp, mmul(g, (1, r, 0, q)), mmul(gp, (q, 0, 0, 1)), q)).encode())
            for phi in dualpair.dual_cuspless_basis(sp):
                lam = dualpair.lambda_from_dual(sp, phi)
                h.update(repr(dualpair._six_times_cycle(sp, lam)).encode())
        assert h.hexdigest() == REDUCTIONS_DIGEST


class TestRationalReduce:
    def test_half_translation(self):
        sp = _space("gamma0", 5)
        m = (1, Fraction(1, 2), 0, 1)
        assert reduce_pair_rational(sp, MAT_ID, m) == \
            [Fraction(x, 2) for x in sp.cusp_gen(0)]

    def test_agrees_with_integral_route(self):
        sp = _space("gamma0", 11)
        for g, gp in (((1, 2, 0, 1), MAT_S), (MAT_S, mmul(MAT_S, MAT_T))):
            assert reduce_pair_rational(sp, g, gp) == \
                [Fraction(x) for x in reduce_pair(sp, g, gp)]

    def test_scaling_invariance(self):
        sp = _space("gamma0", 5)
        m = (Fraction(3), Fraction(3, 2), 0, Fraction(3))
        assert reduce_pair_rational(sp, MAT_ID, m) == \
            reduce_pair_rational(sp, MAT_ID, (1, Fraction(1, 2), 0, 1))

    def test_nonpositive_determinant_rejected(self):
        sp = _space("gamma0", 5)
        with pytest.raises(InvalidInputError):
            reduce_pair_rational(sp, MAT_ID, (1, 0, 0, -1))
        with pytest.raises(InvalidInputError):
            reduce_pair_scaled(sp, MAT_ID, (0, 0, 0, 0), 1)


def _positive(entries):
    m = tuple(entries)
    return m if m[0] * m[3] - m[1] * m[2] > 0 else None


_INT_MATRICES = st.tuples(*[st.integers(-12, 12)] * 4).map(_positive)
_FRACTION_MATRICES = st.tuples(
    *[st.fractions(-6, 6, max_denominator=4)] * 4).map(_positive)
_MATRICES = st.one_of(_INT_MATRICES, _FRACTION_MATRICES).filter(bool)
_SCALED_LEVELS = [("gamma0", 11), ("gamma0", 36), ("gamma1", 7)]


def _triangular_denominator(m):
    """d in m = c * alpha * ((a, b), (0, d)): c > 0 rational, alpha unimodular, d > 0.

    Scaled to primitive integers, a = gcd of the first column and d = det / a.
    """
    entries = [Fraction(x) for x in m]
    mult = 1
    for x in entries:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in entries]
    content = gcd(*ints)
    a, b, c, d = (x // content for x in ints)
    return (a * d - b * c) // gcd(a, c)


class TestScaledReduce:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_SCALED_LEVELS), _MATRICES, _MATRICES,
           st.integers(1, 5))
    def test_scaled_is_scale_times_rational(self, level, m, mp, k):
        sp = _space(*level)
        s = k * _triangular_denominator(m) * _triangular_denominator(mp)
        out = reduce_pair_scaled(sp, m, mp, s)
        assert out == [s * x for x in reduce_pair_rational(sp, m, mp)]
        assert all(type(x) is int for x in out)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_SCALED_LEVELS), _MATRICES, _MATRICES,
           st.integers(1, 500))
    def test_scale_not_clearing_a_denominator_raises(self, level, m, mp, s):
        d, dp = _triangular_denominator(m), _triangular_denominator(mp)
        assume(s % d or s % dp)
        with pytest.raises(InvalidInputError):
            reduce_pair_scaled(_space(*level), m, mp, s)

    def test_half_translation_scaled(self):
        sp = _space("gamma0", 5)
        m = (1, Fraction(1, 2), 0, 1)
        assert reduce_pair_scaled(sp, MAT_ID, m, 4) == \
            [2 * x for x in sp.cusp_gen(0)]
        with pytest.raises(InvalidInputError):
            reduce_pair_scaled(sp, MAT_ID, m, 3)


def _primitive_of_det(rng, det_):
    """A seeded primitive integer matrix gamma * ((a, b), (0, d)) * gamma' with
    a * d = det_, gamma and gamma' words in S and T."""
    while True:
        a = rng.choice([x for x in range(1, det_ + 1) if det_ % x == 0])
        d, b = det_ // a, rng.randint(-2 * det_, 2 * det_)
        if gcd(a, b, d) == 1:
            break
    return mmul(_long_t_word_matrix(rng, 6), (a, b, 0, d), _long_t_word_matrix(rng, 6))


def _split_cases():
    """Seeded primitive matrices: determinants 2, 3, 6, 12 and 35, w * g for
    W_N at N = 8, 27, 36 and 101, and upper triangular ones, h21 = 0, with
    negative entries."""
    rng = random.Random(2024)
    cases = [_primitive_of_det(rng, det_) for det_ in (2, 3, 6, 12, 35) for _ in range(200)]
    cases += [mmul((0, -1, n, 0), _long_t_word_matrix(rng, 6))
              for n in (8, 27, 36, 101) for _ in range(100)]
    for det_ in (2, 3, 6, 12, 35):
        for a in (x for x in range(1, det_ + 1) if det_ % x == 0):
            d = det_ // a
            cases += [(sign * a, b, 0, sign * d) for sign in (1, -1)
                      for b in range(-det_, det_ + 1) if gcd(a, b, d) == 1]
    return cases


class TestUpperSplit:
    def test_centred_hermite_form(self):
        """h = t * ((a, b), (0, d)) with t unimodular, a = gcd of the first
        column, a * d = det h and b centred in -((d-1)//2) .. d//2."""
        cases = _split_cases()
        assert any(h[0] < 0 for h in cases) and any(h[2] == 0 for h in cases)
        for h in cases:
            t, a, b, d = _upper_split(h)
            assert det(t) == 1, h
            assert mmul(t, (a, b, 0, d)) == h, h
            assert a == gcd(h[0], h[2]) and a * d == det(h), h
            assert -((d - 1) // 2) <= b <= d // 2, h

    def test_translate_of_euclidean_split(self):
        """The extended-Euclid split alpha * ((a, B), (0, d)) of the oracle has
        the same a and d, and t = alpha * T^((B - b)/d)."""
        for h in _split_cases():
            t, a, b, d = _upper_split(h)
            alpha, (a2, b2, d2) = factor_upper(h)
            assert (a2, d2) == (a, d), h
            assert (b2 - b) % d == 0 and mmul(alpha, mpow_t((b2 - b) // d)) == t, h


class TestSplitRepresentative:
    @pytest.mark.parametrize("level", [("gamma0", 36), ("gamma1", 12)],
                             ids=["gamma0-36", "gamma1-12"])
    def test_any_translate_of_the_split(self, level):
        """s * {alpha*T^k, alpha'*T^k'} - (s*(b - k*d)/d) * cusp(alpha*T^k)
        + (s*(b' - k'*d')/d') * cusp(alpha'*T^k') is reduce_pair_scaled's
        value for every seeded k, k' in -3..3: the sum does not depend on
        which split of m and m' is taken."""
        sp = _space(*level)
        rng = random.Random(level[1])

        def cusp(beta):
            return sp.cusp_gen(sp.cusps.cusp_of[sp.cosets.coset_of(beta)])

        seen_b = 0
        for _ in range(40):
            m, mp = (_primitive_of_det(rng, rng.choice((2, 3, 4, 6, 12))) for _ in range(2))
            (alpha, a, b, d), (alpha2, a2, b2, d2) = _upper_split(m), _upper_split(mp)
            s = d * d2 * rng.randint(1, 3)
            want = reduce_pair_scaled(sp, m, mp, s)
            seen_b += bool(b or b2)
            for _ in range(4):
                k, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
                beta, beta2 = mmul(alpha, mpow_t(k)), mmul(alpha2, mpow_t(k2))
                c, c2 = b - k * d, b2 - k2 * d2
                assert mmul(beta, (a, c, 0, d)) == m and mmul(beta2, (a2, c2, 0, d2)) == mp
                got = [s * x - s * c // d * y + s * c2 // d2 * z
                       for x, y, z in zip(reduce_pair(sp, beta, beta2),
                                          cusp(beta), cusp(beta2))]
                assert got == want, (m, mp, k, k2)
        assert seen_b


class TestStructureMaps:
    def test_boundary_of_manin_generator(self):
        sp = _space("gamma0", 11)
        # {g, gS} has boundary [gS*oo] - [g*oo]
        for i in range(sp.n_manin):
            div = boundary(sp, sp.manin_gen(i))
            assert sum(div) == 0

    def test_boundary_of_cusp_generator_vanishes(self):
        sp = _space("gamma0", 11)
        for c in range(sp.n_cusp):
            assert not any(boundary(sp, sp.cusp_gen(c)))

    def test_pi_kills_cusp_generators(self):
        for fam, lvl in (("gamma0", 11), ("gamma1", 5)):
            sp = _space(fam, lvl)
            for c in range(sp.n_cusp):
                assert not any(pi_classical(sp, sp.cusp_gen(c)))

    def test_kernel_pi_matches_cusp_cokernel(self):
        for fam, lvl in (("gamma0", 5), ("gamma0", 9), ("gamma0", 11),
                         ("gamma0", 25), ("gamma1", 5), ("gamma1", 7)):
            sp = _space(fam, lvl)
            assert kernel_pi_invariants(sp) == cusp_cokernel_invariants(sp)

    def test_kernel_pi_is_z_for_prime_level(self):
        for p in (5, 7, 11, 13):
            assert kernel_pi_invariants(_space("gamma0", p)) == (1, [])


MANIN_TABLE = {("gamma0", 5): 3, ("gamma0", 7): 1, ("gamma0", 11): 3,
               ("gamma0", 13): 1, ("gamma0", 25): 3, ("gamma0", 49): 1,
               ("gamma1", 5): 3, ("gamma1", 7): 3, ("full", 1): 1}


# SHA-256 of the Schreier-generator rows of the reference route over the
# levels of test_homology_rows_pinned, recorded from a known-good build
HOMOLOGY_ROWS_DIGEST = "61a18a9f1715cae47f26fca2b4f09ed526dffd7cca7d8000496f0803b7ba9fdf"
# the same over the spanning-tree cycle rows of homology_sublattice
HOMOLOGY_TREE_ROWS_DIGEST = "517a16cd76d210f505cf274ab8286669f749e25f630693b82b6b60040946fbac"
HOMOLOGY_PINNED_LEVELS = (("gamma0", 36), ("gamma0", 60), ("gamma0", 101),
                          ("gamma1", 13), ("gamma1", 15))


def _rows_digest(route):
    h = hashlib.sha256()
    for fam, lvl in HOMOLOGY_PINNED_LEVELS:
        h.update(json.dumps([fam, lvl, route(_space(fam, lvl))]).encode())
    return h.hexdigest()


class TestIndices:
    @pytest.mark.parametrize("family,level", sorted(MANIN_TABLE))
    def test_manin_index(self, family, level):
        sp = _space(family, level)
        assert manin_index(sp) == MANIN_TABLE[(family, level)]
        assert manin_index(sp) == expected_manin_index(sp)

    def test_homology_index(self):
        for fam, lvl in (("gamma0", 5), ("gamma0", 7), ("gamma0", 11),
                         ("gamma0", 13), ("gamma0", 9), ("gamma1", 5)):
            sp = _space(fam, lvl)
            assert homology_index_in_kernel(sp) == expected_homology_index(sp)

    def test_homology_index_prime_value(self):
        for p in (5, 7, 11, 13):
            assert homology_index_in_kernel(_space("gamma0", p)) == p

    def test_homology_rows_pinned(self):
        """The Schreier-generator rows of the reference route, not only their index."""
        assert _rows_digest(homology_rows_schreier) == HOMOLOGY_ROWS_DIGEST

    def test_homology_tree_rows_pinned(self):
        assert _rows_digest(homology_sublattice) == HOMOLOGY_TREE_ROWS_DIGEST

    @pytest.mark.parametrize("family,levels", [("gamma0", range(1, 121)),
                                               ("gamma1", range(1, 22))],
                             ids=["gamma0-1-120", "gamma1-1-21"])
    def test_homology_spans_the_schreier_lattice(self, family, levels):
        """The cycle rows and the Schreier rows span one lattice, of the
        predicted index in ker(boundary)."""
        for lvl in levels:
            sp = build_space(GroupSpec(family, lvl))
            tree, schreier = homology_sublattice(sp), homology_rows_schreier(sp)
            if sp.rank == 0:
                assert tree == schreier == [], lvl
                continue
            assert sublattice_index(tree, schreier) == 1, lvl
            assert sublattice_index(schreier, tree) == 1, lvl
            assert homology_index_in_kernel(sp) == expected_homology_index(sp), lvl

    @pytest.mark.parametrize("family,levels", [("gamma0", range(1, 101)),
                                               ("gamma1", range(1, 21))],
                             ids=["gamma0-1-100", "gamma1-1-20"])
    def test_pivot_index_matches_the_smith_ratio(self, family, levels):
        """The HNF pivot products give the Smith-invariant ratio on the
        homology and Manin pairs."""
        for lvl in levels:
            sp = build_space(GroupSpec(family, lvl))
            for a, b in ((kernel_of_boundary(sp), homology_sublattice(sp)),
                         (identity_matrix(sp.rank), manin_image_rows(sp))):
                assert sublattice_index(a, b) == sublattice_index_smith(a, b), lvl

    @pytest.mark.parametrize("family,level", [("gamma0", 37), ("gamma1", 13)])
    def test_homology_reads_only_the_permutations(self, monkeypatch, family, level):
        """No coset representative is read and no pair is reduced."""
        sp = _space(family, level)

        def refuse(*_):
            raise AssertionError("a representative read or a pair reduced")

        class Refuse:
            __getattr__ = __getitem__ = __iter__ = __len__ = refuse

        monkeypatch.setattr(sp.cosets, "reps", Refuse())
        monkeypatch.setattr(mms, "reduce_pair", refuse)
        monkeypatch.setattr(mms, "_add_pair", refuse)
        assert homology_index_in_kernel(sp) == expected_homology_index(sp)


class TestSerialization:
    def test_round_trip(self):
        sp = _space("gamma0", 11)
        doc = space_to_dict(sp)
        sp2 = space_from_dict(doc)
        assert space_to_dict(sp2) == doc

    def test_tampered_document_rejected(self):
        doc = space_to_dict(_space("gamma0", 5))
        doc["basis_rank"] = "99"
        with pytest.raises(InvalidInputError):
            space_from_dict(doc)

    def test_strings_only(self):
        doc = space_to_dict(_space("gamma1", 5))
        assert all(isinstance(x, str) for row in doc["project"] for x in row)
        assert len(doc["cusps"]) == 4
