"""The duality pairing, its perfectness data, and the closed-form G map."""

from fractions import Fraction

import pytest

from mixsym import dualpair, hecke
from mixsym.mms import InvalidInputError, build_space
from mixsym.sl2 import GroupSpec
from mixsym.zlattice import common_denominator, factor, smith_invariants, snf

from _reference import det_rational, is_perfect_over, pairing_kernel


def _space(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = build_space(GroupSpec(family, level))
    return _cache[(family, level)]


def _pairing(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = dualpair.pairing_matrix(
            _space(family, level))
    return _cache[(family, level)]


LEVELS = [("gamma0", 5), ("gamma0", 7), ("gamma0", 11), ("gamma0", 13),
          ("gamma1", 5), ("gamma1", 7)]


class TestGramMatrix:
    @pytest.mark.parametrize("family,level", LEVELS)
    def test_antisymmetric_and_six_integral(self, family, level):
        pm = _pairing(family, level)
        assert pm.is_antisymmetric()
        assert pm.six_times_integral()

    @pytest.mark.parametrize("family,level", LEVELS)
    def test_pfaffian_equals_width_product(self, family, level):
        sp = _space(family, level)
        info = dualpair.perfectness_report(sp, _pairing(family, level))
        assert info["nondegenerate"]
        assert info["abs_pfaffian"] == info["expected_abs_det"]
        assert info["abs_det"] == info["expected_abs_det"] ** 2

    def test_known_pfaffian_values(self):
        assert dualpair.perfectness_report(
            _space("gamma0", 11))["abs_pfaffian"] == 11
        assert dualpair.perfectness_report(
            _space("gamma1", 5))["abs_pfaffian"] == 25
        assert dualpair.perfectness_report(
            _space("gamma1", 7))["abs_pfaffian"] == 343

    @pytest.mark.parametrize("family,level", LEVELS)
    def test_perfect_after_inverting_twice_widths(self, family, level):
        sp = _space(family, level)
        info = dualpair.perfectness_report(sp, _pairing(family, level))
        assert info["perfect_after_inverting"]
        primes = set()
        for f in info["invariants"]:
            primes |= set(factor(f.numerator)) | set(factor(f.denominator))
        assert primes <= set(factor(info["inverted"]))

    def test_kernel_empty(self):
        assert pairing_kernel(_pairing("gamma0", 11)) == []

    def test_abs_pfaffian_helper(self):
        assert dualpair.abs_pfaffian(Fraction(121)) == 11
        assert dualpair.abs_pfaffian(Fraction(9, 4)) == Fraction(3, 2)
        assert dualpair.abs_pfaffian(2) is None

    def test_value_matches_matrix(self):
        pm = _pairing("gamma0", 11)
        r = len(pm.mat)
        e = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(r):
                assert pm.value(e[i], e[j]) == pm.mat[i][j]


PERFECTNESS_LEVELS = ([("gamma0", n) for n in range(1, 28)]
                      + [("gamma1", n) for n in range(4, 14)])


class TestPerfectnessReport:
    @pytest.mark.parametrize("family,level", PERFECTNESS_LEVELS)
    def test_det_and_invariants_match_rational_routes(self, family, level):
        sp = _space(family, level)
        pm = dualpair.pairing_matrix(sp)
        info = dualpair.perfectness_report(sp, pm)
        assert info["det"] == det_rational(pm.mat)
        d = common_denominator(pm.mat)
        scaled = [[int(d * x) for x in row] for row in pm.mat]
        ref = [Fraction(abs(s), d) for s in snf(scaled).invariants]
        assert info["invariants"] == ref
        assert dualpair.fractional_invariants(pm) == ref
        assert smith_invariants(pm.six_mat) == snf(pm.six_mat).invariants
        assert info["perfect_after_inverting"] == is_perfect_over(pm, info["inverted"])

    def test_denominators_decide_perfectness(self):
        """Invariants 1/3, 1/3 are units over Z[1/6] but not over Z[1/2]."""
        pm = dualpair.PairingMatrix(six_mat=[[0, 2], [-2, 0]])
        assert dualpair.fractional_invariants(pm) == [Fraction(1, 3), Fraction(1, 3)]
        assert is_perfect_over(pm, 6)
        assert not is_perfect_over(pm, 2)
        info = dualpair.perfectness_report(_space("gamma0", 2), pm)  # rank 2
        assert info["inverted"] == 4
        assert not info["perfect_after_inverting"]

    def test_degenerate_pairing_is_not_perfect(self):
        pm = dualpair.PairingMatrix(six_mat=[[0, 6, 0, 0], [-6, 0, 0, 0],
                                             [0, 0, 0, 0], [0, 0, 0, 0]])
        assert dualpair.fractional_invariants(pm) == [1, 1]
        assert not is_perfect_over(pm, 6)
        info = dualpair.perfectness_report(_space("gamma0", 11), pm)  # rank 4
        assert info["det"] == det_rational(pm.mat) == 0
        assert not info["nondegenerate"]
        assert not info["perfect_after_inverting"]
        assert is_perfect_over(
            dualpair.PairingMatrix(six_mat=[[0, 6], [-6, 0]]), 1)


class TestEquivariance:
    @pytest.mark.parametrize("family,level", LEVELS)
    def test_conjugation_anti_invariance(self, family, level):
        sp = _space(family, level)
        conj = hecke.complex_conjugation(sp)
        assert dualpair.conj_anti_invariance(sp, _pairing(family, level), conj)

    @pytest.mark.parametrize("family,level", LEVELS)
    def test_hecke_adjoint_is_atkin_lehner_conjugate(self, family, level):
        sp = _space(family, level)
        w = hecke.atkin_lehner(sp)
        q = next(q for q in (3, 5, 7, 11) if (2 * level) % q != 0)
        t = hecke.hecke_operator(sp, q)
        assert dualpair.adjointness_check(sp, _pairing(family, level), t, w)


class TestGMap:
    @pytest.mark.parametrize("family,level", LEVELS + [("full", 1)])
    def test_closed_form_matches_gram_matrix(self, family, level):
        sp = _space(family, level)
        n = dualpair.verify_G_identity(sp, _pairing(family, level)
                                       if level > 1 else None)
        # the cusp-vanishing dual block has rank 2*genus + (cusps - 1)
        assert n == 2 * sp.genus + max(sp.n_cusp - 1, 0) + (0 if sp.rank else 0)
        assert n == len(dualpair.dual_cuspless_basis(sp))

    @pytest.mark.parametrize("family,level,caught,pairs", [
        ("gamma0", 11, 6, 6), ("gamma0", 36, 221, 276)])
    def test_identity_rejects_perturbed_pairing(self, family, level, caught, pairs):
        """Adding 1 at (i, j) and -1 at (j, i) keeps six_mat antisymmetric;
        verify_G_identity must reject every such pairing but those where
        coordinates i and j vanish on all cusp-vanishing functionals (C(11, 2)
        = 55 pairs at Gamma0(36)), which the identity cannot see."""
        sp = _space(family, level)
        six = _pairing(family, level).six_mat
        r = len(six)
        raised = 0
        for i in range(r):
            for j in range(i + 1, r):
                bad = [list(row) for row in six]
                bad[i][j] += 1
                bad[j][i] -= 1
                try:
                    dualpair.verify_G_identity(sp, dualpair.PairingMatrix(bad))
                except InvalidInputError:
                    raised += 1
        assert (raised, r * (r - 1) // 2) == (caught, pairs)

    def test_lambda_round_trip(self):
        sp = _space("gamma0", 11)
        pm = _pairing("gamma0", 11)
        for phi in dualpair.dual_cuspless_basis(sp):
            lam = dualpair.lambda_from_dual(sp, phi)
            assert dualpair.lambda_to_mms(sp, lam) == \
                [Fraction(x) for x in dualpair.G_map(pm, phi)]

    def test_lambda_requires_cusp_vanishing(self):
        sp = _space("gamma0", 11)
        bad = [0] * sp.rank
        bad[-1] = 1  # hits the cusp block of the basis
        if all(sum(x * y for x, y in zip(sp.cusp_gen(c), bad)) == 0
               for c in range(sp.n_cusp)):
            pytest.skip("basis vector happens to kill the cusp span")
        with pytest.raises(InvalidInputError):
            dualpair.lambda_from_dual(sp, bad)

    def test_cycle_conditions_enforced(self):
        sp = _space("gamma0", 11)
        with pytest.raises(InvalidInputError):
            dualpair.lambda_to_mms(sp, [1] * sp.n_manin)

    def test_intersection_form(self):
        assert dualpair.intersection_value([1, 2], [3, -1]) == 1
        with pytest.raises(InvalidInputError):
            dualpair.intersection_value([1], [1, 2])
