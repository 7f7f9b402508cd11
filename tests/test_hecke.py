"""Hecke, diamond, Atkin-Lehner, and conjugation operators."""

from dataclasses import replace
from fractions import Fraction

import hashlib
import random
from math import gcd

import pytest

from mixsym import classical, dualpair, hecke
from mixsym.mms import (InvalidInputError, _assemble_relations, _sparse_row, _upper_split,
                        build_space, expected_homology_index, expected_manin_index,
                        homology_index_in_kernel, kernel_of_boundary, manin_index,
                        space_to_dict)
from mixsym.sl2 import MAT_ID, MAT_S, GroupSpec, det, lift_bottom_row, mmul
from mixsym.zlattice import (dense_rows, identity_matrix, kernel_basis, mat_mul,
                             smith_invariants, solve_rational, vec_mat)

from _reference import (charpoly, coset_reps_twisted, hecke_rational_fractions, mpow_t,
                        translate_by_search)


def _space(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = build_space(GroupSpec(family, level))
    return _cache[(family, level)]


def _frac(m):
    return [[Fraction(x) for x in row] for row in m]


class TestLastRepresentative:
    """diag(q, 1) is the last representative of T_q when q lies in +-H."""

    @pytest.mark.parametrize("family, levels",
                             [("gamma0", range(1, 61)), ("gamma1", range(2, 21))],
                             ids=["gamma0", "gamma1"])
    def test_matches_twisted_representative(self, family, levels, monkeypatch):
        seen = 0
        for n in levels:
            sp = _space(family, n)
            for q in (2, 3, 5, 7, 11, 13):
                if n % q == 0 or q % n not in sp.spec.units:
                    continue
                seen += 1
                twisted = coset_reps_twisted(sp, q)
                assert hecke._coset_reps(sp, q) == twisted[:-1] + [(q, 0, 0, 1)]
                op = hecke.hecke_operator(sp, q)
                with monkeypatch.context() as m:
                    m.setattr(hecke, "_coset_reps", coset_reps_twisted)
                    ref = hecke.hecke_operator(sp, q)
                assert (op.num, op.den) == (ref.num, ref.den), (family, n, q)
                assert classical.hecke_matrix(sp, q) == \
                    classical._apply_mats(sp, twisted), (family, n, q)
        assert seen


class TestIntegrality:
    def test_good_odd_primes_integral(self):
        for fam, lvl in (("gamma0", 11), ("gamma0", 5), ("gamma1", 5)):
            sp = _space(fam, lvl)
            for q in (3, 7):
                if lvl % q == 0:
                    continue
                op = hecke.hecke_operator(sp, q)
                assert op.is_integral(), (fam, lvl, q)

    def test_t2_denominator_divides_two(self):
        for fam, lvl in (("gamma0", 11), ("gamma0", 5), ("gamma1", 5)):
            op = hecke.hecke_operator(_space(fam, lvl), 2)
            assert 2 % op.denominator == 0

    def test_up_denominator_divides_p(self):
        for fam, lvl in (("gamma0", 11), ("gamma0", 5)):
            op = hecke.hecke_operator(_space(fam, lvl), lvl)
            assert op.name == f"U{lvl}"
            assert lvl % op.denominator == 0

    def test_integral_route_matches_rational_route(self):
        """T_q for odd q prime to 2N equals the Fraction route twisted by <q>.

        The reference sums diag(q,1)'s image times the diamond matrix; the
        library sums gamma*diag(q,1)'s image, so on Gamma1 this checks that
        representative by a second route.
        """
        for family, levels in (("gamma0", range(2, 41)), ("gamma1", range(2, 17))):
            for level in levels:
                sp = _space(family, level)
                for q in (3, 5, 7):
                    if level % q == 0:
                        continue
                    op = hecke.hecke_operator(sp, q)
                    assert op.den == 1, (family, level, q)
                    assert op.mat == hecke_rational_fractions(sp, q), (family, level, q)

    def test_hecke_operator_builds_no_diamond(self, monkeypatch):
        calls = []
        real = hecke.diamond

        def counted(space, d):
            calls.append(d)
            return real(space, d)

        monkeypatch.setattr(hecke, "diamond", counted)
        sp = _space("gamma1", 13)
        for q in (2, 3, 5, 7, 11):
            hecke.hecke_operator(sp, q)
        assert calls == []
        hecke.hecke_composite(sp, 4)  # the twisted representatives carry <2>
        assert calls == []


class TestAlgebra:
    def test_commutation(self):
        for fam, lvl in (("gamma0", 11), ("gamma1", 5)):
            sp = _space(fam, lvl)
            ops = [hecke.hecke_operator(sp, q) for q in (2, 3, 5, 7)
                   ] + [hecke.complex_conjugation(sp), hecke.atkin_lehner(sp)]
            hecke_ops = ops[:4]
            conj = ops[4]
            for i, a in enumerate(hecke_ops):
                for b in hecke_ops[i + 1:]:
                    assert hecke.operators_commute(a, b)
                assert hecke.operators_commute(conj, a)

    def test_involutions(self):
        for fam, lvl in (("gamma0", 11), ("gamma0", 5), ("gamma1", 5)):
            sp = _space(fam, lvl)
            one = hecke.identity_operator(sp)
            conj = hecke.complex_conjugation(sp)
            w = hecke.atkin_lehner(sp)
            assert hecke.compose(conj, conj) == one
            assert hecke.compose(w, w) == one

    def test_conjugation_negates_infinity_cusp_generator(self):
        sp = _space("gamma0", 11)
        conj = hecke.complex_conjugation(sp)
        cg = sp.cusp_gen(0)
        assert vec_mat(cg, conj.mat) == [Fraction(-x) for x in cg]

    def test_diamond_trivial_for_gamma0(self):
        sp = _space("gamma0", 11)
        assert hecke.diamond(sp, 2) == hecke.identity_operator(sp)

    def test_diamond_nontrivial_and_multiplicative_for_gamma1(self):
        sp = _space("gamma1", 5)
        d2, d3 = hecke.diamond(sp, 2), hecke.diamond(sp, 3)
        one = hecke.identity_operator(sp)
        assert d2 != one
        # 2 * 3 = 6 = 1 mod 5
        assert hecke.compose(d2, d3) == one
        assert hecke.diamond(sp, 4) == hecke.compose(d2, d2)

    def test_diamond_requires_unit(self):
        with pytest.raises(InvalidInputError):
            hecke.diamond(_space("gamma1", 5), 5)

    def test_composite_recurrences(self):
        sp = _space("gamma0", 11)
        t2 = hecke.hecke_operator(sp, 2)
        t3 = hecke.hecke_operator(sp, 3)
        assert hecke.hecke_composite(sp, 6) == hecke.compose(t2, t3)
        # T_4 = T_2^2 - 2<2>
        t4 = hecke.hecke_composite(sp, 4)
        lhs = mat_mul(t2.mat, t2.mat)
        dia = hecke.diamond(sp, 2).mat
        rhs = [[a + 2 * b for a, b in zip(ra, rb)]
               for ra, rb in zip(t4.mat, dia)]
        assert lhs == rhs
        with pytest.raises(InvalidInputError):
            hecke.hecke_composite(sp, 0)

    @pytest.mark.parametrize("q", [-3, 0, 1, 4, 9])
    def test_hecke_operator_needs_a_prime(self, q):
        """T_4 and T_9 are hecke_composite's; hecke_operator computes no
        operator under another name."""
        for fam, lvl in (("gamma0", 11), ("gamma0", 13), ("gamma1", 7)):
            with pytest.raises(InvalidInputError):
                hecke.hecke_operator(_space(fam, lvl), q)

    @pytest.mark.parametrize("level,names", [
        (25, {5: "U5", 25: "U25", 125: "U125", 2: "T2", 10: "T10"}),
        (36, {2: "U2", 3: "U3", 4: "U4", 6: "U6", 12: "U12", 5: "T5",
              10: "T10"}),
    ])
    def test_composite_named_u_when_every_prime_divides_level(self, level, names):
        sp = _space("gamma0", level)
        for m, name in names.items():
            assert hecke.hecke_composite(sp, m).name == name, m

    def test_composite_of_u_is_power_of_u(self):
        sp = _space("gamma0", 36)
        u2, u3 = hecke.hecke_operator(sp, 2), hecke.hecke_operator(sp, 3)
        assert hecke.hecke_composite(sp, 6) == hecke.compose(u2, u3)
        assert hecke.hecke_composite(sp, 12) == \
            hecke.compose(hecke.compose(u2, u2), u3)

    def test_composite_leaves_prime_operator_name(self):
        sp = _space("gamma0", 25)
        for q, name in ((5, "U5"), (2, "T2")):
            op, prime = hecke.hecke_composite(sp, q), hecke.hecke_operator(sp, q)
            assert op.name == prime.name == name
            assert (op.num, op.den) == (prime.num, prime.den), name


class TestAgainstClassicalRoute:
    def test_pi_equivariance(self):
        for fam, lvl in (("gamma0", 11), ("gamma0", 13), ("gamma1", 5)):
            sp = _space(fam, lvl)
            pi = _frac(sp.pi_basis)
            for q in (2, 3):
                op = hecke.hecke_operator(sp, q)
                cl = _frac(classical.hecke_matrix(sp, q))
                assert mat_mul(op.mat, pi) == mat_mul(pi, cl)

    def test_t2_spectrum_on_level_eleven(self):
        sp = _space("gamma0", 11)
        t2 = hecke.hecke_operator(sp, 2)
        # (x+2)^2 (x-3)^2: cusp coefficient -2 twice, Eisenstein 3 twice
        assert charpoly(t2.mat) == \
            [Fraction(c) for c in (36, 12, -11, -2, 1)]

    def test_classical_cuspidal_block(self):
        sp = _space("gamma0", 11)
        cl2 = _frac(classical.hecke_matrix(sp, 2))
        cusp = _frac(kernel_basis(classical.boundary_matrix(sp)))
        img = mat_mul(cusp, cl2)
        restricted = [solve_rational(cusp, row) for row in img]
        assert charpoly(restricted) == [Fraction(4), Fraction(4), Fraction(1)]

    def test_eisenstein_action_on_cusp_span(self):
        for p in (5, 11):
            sp = _space("gamma0", p)
            cs = _frac(sp.cusp_sublattice())
            for q in (2, 3):
                op = hecke.hecke_operator(sp, q)
                scale = 1 if p == q else q + 1
                assert mat_mul(cs, op.mat) == \
                    [[scale * x for x in row] for row in cs]


class TestGamma0IsGamma1WhereTheUnitsAreSigns:
    """(Z/N)^x = {+-1} for N in 1, 2, 3, 4, 6, so Gamma0(N) and Gamma1(N) are
    one group in PSL2(Z) and every family-free output must agree."""

    LEVELS = (1, 2, 3, 4, 6)

    def test_documents_agree_but_for_the_family(self):
        for level in self.LEVELS:
            docs = [space_to_dict(_space(family, level)) for family in ("gamma0", "gamma1")]
            for doc in docs:
                del doc["family"]
            assert docs[0] == docs[1]

    def test_hecke_matrices_agree(self):
        for level in self.LEVELS:
            g0, g1 = _space("gamma0", level), _space("gamma1", level)
            for q in (2, 3, 5, 7):
                a, b = hecke.hecke_operator(g0, q), hecke.hecke_operator(g1, q)
                assert (a.name, a.num, a.den) == (b.name, b.num, b.den)
                assert classical.hecke_matrix(g0, q) == classical.hecke_matrix(g1, q)


# Cremona's models [a1, a2, a3, a4, a6] of an optimal curve at each level
CURVES = {"11a1": (11, (0, -1, 1, -10, -20)), "37a1": (37, (0, 0, 1, -1, 0)),
          "43a1": (43, (0, 1, 1, 0, 0)), "53a1": (53, (1, -1, 1, 0, 0)),
          "36a1": (36, (0, 0, 0, 0, 1)), "49a1": (49, (1, -1, 0, -2, -1))}
PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _trace_of_frobenius(coeffs, p):
    """a_p = p + 1 - #E(F_p), the affine points counted over all of F_p^2."""
    a1, a2, a3, a4, a6 = coeffs
    affine = sum(1 for x in range(p) for y in range(p)
                 if (y * y + a1 * x * y + a3 * y
                     - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0)
    return p - affine


class TestEichlerShimura:
    @pytest.mark.parametrize("label", sorted(CURVES))
    def test_point_counts_are_eigenvalues_on_kernel_of_boundary(self, label):
        """a_p from counting points on E is an eigenvalue of T_p on ker(boundary).

        The point counts come from outside the package; the operators are
        the mixed ones, restricted to the cuspidal lattice.
        """
        level, coeffs = CURVES[label]
        sp = _space("gamma0", level)
        kernel = kernel_of_boundary(sp)
        for p in (p for p in PRIMES_BELOW_50 if level % p):
            ap = _trace_of_frobenius(coeffs, p)
            assert ap * ap <= 4 * p, (label, p, ap)
            op = hecke.hecke_operator(sp, p)
            shifted = [[x - (ap * op.den if i == j else 0) for j, x in enumerate(row)]
                       for i, row in enumerate(op.num)]
            assert len(smith_invariants(mat_mul(kernel, shifted))) < len(kernel), \
                (label, p, ap)


def _random_unimodular(rng):
    """A product of 1..6 factors S * T^k with |k| <= 20."""
    m = MAT_ID
    for _ in range(rng.randint(1, 6)):
        m = mmul(m, MAT_S, mpow_t(rng.randint(-20, 20)))
    return m


class TestTranslate:
    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_matches_search_over_j(self, q):
        """The unimodular factor of the centred Hermite split equals the
        translate found by trying every j, on seeded matrices
        gamma * diag(1, q) * gamma' of determinant q."""
        rng = random.Random(q)
        for _ in range(300):
            h = mmul(_random_unimodular(rng), (1, 0, 0, q), _random_unimodular(rng))
            assert det(h) == q
            assert _upper_split(h)[0] == translate_by_search(h, q), h


class TestRankZero:
    """Level 1 has rank 0: every quantity is the empty case of its formula."""

    def test_level_one_operators_empty(self):
        sp = _space("full", 1)
        assert hecke.hecke_operator(sp, 3).mat == []
        assert hecke.atkin_lehner(sp).mat == []

    @pytest.mark.parametrize("family", ["gamma0", "gamma1", "full"])
    def test_level_one_is_the_empty_case(self, family):
        sp = _space(family, 1)
        assert sp.rank == 0
        t2 = hecke.hecke_operator(sp, 2)
        assert t2.mat == [] and t2.denominator == 1 and t2.is_integral()
        assert manin_index(sp) == expected_manin_index(sp) == 1
        assert homology_index_in_kernel(sp) == expected_homology_index(sp) == 1
        assert dualpair.dual_cuspless_basis(sp) == []
        info = dualpair.perfectness_report(sp)
        assert info["inverted"] == 2
        assert info["expected_abs_det"] == 1
        assert info["det"] == 1
        assert info["nondegenerate"] is True


def _relation_sum_section(sp, rng):
    """``lift`` with seeded integer combinations of the relations added to each
    row: another section of ``project``, whose rows share generators."""
    relations = _assemble_relations(sp.cosets, sp.cusps)
    lift = []
    for row in sp.quotient.lift:
        terms = list(row)
        for rel in rng.sample(relations, 3):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms += [(j, c * x) for j, x in rel]
        lift.append(_sparse_row(terms))
    return lift


class TestSectionIndependence:
    """Every operator sends the relations to 0, so it does not depend on the
    section ``lift`` it is assembled on."""

    @pytest.mark.parametrize("family,level,units", [
        ("gamma0", 11, (2, 3)), ("gamma0", 25, (2, 3)), ("gamma0", 36, (5, 7)),
        ("gamma0", 101, (2, 3)), ("gamma1", 12, (5, 7)), ("gamma1", 13, (2, 3))])
    def test_operators_independent_of_section(self, family, level, units):
        sp = _space(family, level)
        n = sp.n_manin + sp.n_cusp
        lift = _relation_sum_section(sp, random.Random(level))
        assert lift != sp.quotient.lift
        terms = [k for row in lift for k, _ in row]
        assert len(set(terms)) < len(terms)  # generators shared between rows
        assert mat_mul(dense_rows(lift, n), dense_rows(sp.quotient.project, sp.rank)) \
            == identity_matrix(sp.rank)
        other = replace(sp, quotient=replace(sp.quotient, lift=lift))
        builds = [lambda s, q=q: hecke.hecke_operator(s, q) for q in (2, 3, 5, 7)]
        builds += [hecke.atkin_lehner, hecke.complex_conjugation]
        builds += [lambda s, d=d: hecke.diamond(s, d) for d in units]
        for build in builds:
            a, b = build(sp), build(other)
            assert (b.name, b.num, b.den) == (a.name, a.num, a.den), a.name


class TestCosetChoice:
    """T_q, U_q, W_N and <d> sum over right cosets Gamma*m, so any element
    gamma*m of each coset gives the same operator."""

    @pytest.mark.parametrize("family, levels",
                             [("gamma0", range(2, 41)), ("gamma1", range(2, 17))],
                             ids=["gamma0", "gamma1"])
    def test_any_element_of_each_coset(self, family, levels):
        """Each m becomes gamma*m, gamma = T^k * <u> * ((1, 0), (N*j, 1)) for
        seeded k, j and u in +-H, with <u> = lift_bottom_row(N, 0, u)."""
        seen_diamond = 0
        for n in levels:
            sp = _space(family, n)
            rng = random.Random(n)
            units = sorted(sp.spec.units)
            cases = [(hecke.hecke_operator(sp, q), hecke._coset_reps(sp, q))
                     for q in (2, 3, 5, 7)]
            cases.append((hecke.atkin_lehner(sp), [(0, -1, n, 0)]))
            for d in range(2, n):
                if gcd(d, n) == 1 and d not in units:
                    cases.append((hecke.diamond(sp, d), [lift_bottom_row(n, 0, d)]))
                    seen_diamond += 1
            for op, mats in cases:
                moved = [mmul(mpow_t(rng.randint(-9, 9)),
                              lift_bottom_row(n, 0, rng.choice(units)),
                              (1, 0, n * rng.randint(-3, 3), 1), m) for m in mats]
                got = hecke._coset_sum(sp, moved, op.name, op.den)
                assert (got.num, got.den) == (op.num, op.den), (family, n, op.name)
        assert seen_diamond or family == "gamma0"


# SHA-256 of the operators in TestOperatorsPinned, recorded before the
# symbols were reduced by one walk summed on the ambient generators
HECKE_DIGEST = "53c0601e630e74684dbfbd763bae4fb449a4d37499a3a0219c2637dfc6a6d12b"
INVOLUTIONS_DIGEST = "555a8e3181a9e74305ac288f52ae70de1235ff52aedee1ad6142f00ab7efc792"
# SHA-256 of classical.hecke_matrix, recorded while the diamond twist of its
# last coset representative still branched on the family
CLASSICAL_HECKE_DIGEST = "831c0eb2ea8926b6f7dfdf0700b7cbc743b1cbd3c90fb1fe47b60ccd85b7de58"


class TestOperatorsPinned:
    def test_hecke_operators_pinned(self):
        """T_q and U_q for q in 2, 3, 5, 7 on Gamma0(2..40) and Gamma1(2..16)."""
        h = hashlib.sha256()
        for family, levels in (("gamma0", range(2, 41)), ("gamma1", range(2, 17))):
            for level in levels:
                sp = _space(family, level)
                for q in (2, 3, 5, 7):
                    op = hecke.hecke_operator(sp, q)
                    h.update(repr((family, level, q, op.name, op.num, op.den)).encode())
        assert h.hexdigest() == HECKE_DIGEST

    def test_involutions_and_diamonds_pinned(self):
        """W_N, conjugation and <d> for every unit d in 1..N on Gamma0(2..60)
        and Gamma1(2..20)."""
        h = hashlib.sha256()
        for family, levels in (("gamma0", range(2, 61)), ("gamma1", range(2, 21))):
            for level in levels:
                sp = _space(family, level)
                ops = [hecke.atkin_lehner(sp), hecke.complex_conjugation(sp)]
                ops += [hecke.diamond(sp, d) for d in range(1, level + 1)
                        if gcd(d, level) == 1]
                for op in ops:
                    h.update(repr((family, level, op.name, op.num, op.den)).encode())
        assert h.hexdigest() == INVOLUTIONS_DIGEST

    def test_classical_hecke_pinned(self):
        """Classical T_q and U_q for q in 2, 3, 5, 7 on Gamma0(1..60) and
        Gamma1(1..20)."""
        h = hashlib.sha256()
        for family, levels in (("gamma0", range(1, 61)), ("gamma1", range(1, 21))):
            for level in levels:
                sp = _space(family, level)
                for q in (2, 3, 5, 7):
                    h.update(repr((family, level, q,
                                   classical.hecke_matrix(sp, q))).encode())
        assert h.hexdigest() == CLASSICAL_HECKE_DIGEST
