"""Dirichlet characters, L-values, and the log-cyclotomic determinant identities."""

import cmath
import math
import struct
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import (from_float, from_man_exp, fzero, mpf_add, mpf_mul,
                          mpf_pos)

from mixsym import eis

from mixsym.eis import (CharacterError, UnsupportedModulusError, bernoulli2,
                        eis_component, gamma0p_constants, gauss_sum,
                        l_even_char_at_1, log_cyclotomic_matrices, logdet_identity)
from mixsym.sl2 import MAT_ID, MAT_S, MAT_T, mmul
from mixsym.zlattice import factor

from _reference import (characters_mod, digamma_mpf, l_value_log, l_value_partial,
                        primitive_part, series_finish_mpc, series_total_mpc)


class TestCharacters:
    @pytest.mark.parametrize("m,phi", [(1, 1), (5, 4), (7, 6), (9, 6), (25, 20)])
    def test_count(self, m, phi):
        chars = characters_mod(m)
        assert len(chars) == phi
        assert sum(1 for c in chars if c.is_trivial) == 1

    def test_multiplicative(self):
        for chi in characters_mod(7):
            for a in range(1, 7):
                for b in range(1, 7):
                    assert abs(chi(a) * chi(b) - chi(a * b)) < 1e-12
        assert characters_mod(7)[0](7) == 0

    def test_conductors(self):
        conds = sorted(c.conductor for c in characters_mod(25))
        # 4 characters factor through modulus 5 (conductor 1 or 5)
        assert conds == [1, 5, 5, 5] + [25] * 16
        for chi in characters_mod(25):
            prim = primitive_part(chi)
            assert prim.modulus == chi.conductor
            for a in range(1, 25):
                if math.gcd(a, 25) == 1:
                    assert abs(chi(a) - prim(a)) < 1e-12

    def test_even_odd_split(self):
        chars = characters_mod(9)
        assert sum(1 for c in chars if c.is_even) == 3

    def test_unsupported_modulus(self):
        for m in (8, 12, 15):
            with pytest.raises(UnsupportedModulusError):
                characters_mod(m)
            with pytest.raises(UnsupportedModulusError):
                logdet_identity(m)

    def test_even_primitive_parts_built_directly(self):
        """The direct primitive parts equal the reference primitive parts of
        the even non-trivial characters of the reference characters_mod,
        field for field (value dicts by ==, so bit for bit), at every odd
        prime power up to 400."""
        moduli = [m for m in range(3, 401, 2) if len(factor(m)) == 1]
        assert len(moduli) == 89
        for m in moduli:
            chars = characters_mod(m)
            direct = eis._even_nontrivial_primitive_parts(m)
            assert direct == [primitive_part(c) for c in chars
                              if c.is_even and not c.is_trivial], m
            assert len(direct) == len(chars) // 2 - 1


class TestGaussAndL:
    @pytest.mark.parametrize("m", [5, 7, 9, 25, 49])
    def test_gauss_magnitude(self, m):
        for chi in characters_mod(m):
            if chi.conductor == chi.modulus and not chi.is_trivial:
                assert abs(abs(gauss_sum(chi)) - math.sqrt(m)) < 1e-10

    def test_gauss_requires_primitive(self):
        imprimitive = next(c for c in characters_mod(25) if c.conductor == 5)
        with pytest.raises(CharacterError):
            gauss_sum(imprimitive)

    @pytest.mark.parametrize("m", [5, 7, 9, 13])
    def test_l_value_routes_agree(self, m):
        for chi in characters_mod(m):
            if chi.is_trivial or not chi.is_even or chi.conductor != m:
                continue
            v_log = l_value_log(chi)
            v_ser = l_even_char_at_1(chi)
            v_par = l_value_partial(chi)
            assert abs(v_log) > 1e-3  # nonvanishing at s = 1
            assert abs(v_log - v_ser) < 1e-8 * abs(v_ser)
            assert abs(v_par - v_ser) < 1e-8 * abs(v_ser)

    def test_l_value_domain_errors(self):
        chars = characters_mod(5)
        trivial = next(c for c in chars if c.is_trivial)
        odd = next(c for c in chars if not c.is_even)
        with pytest.raises(CharacterError):
            l_even_char_at_1(trivial)
        with pytest.raises(CharacterError):
            l_even_char_at_1(odd)
        imprimitive = next(c for c in characters_mod(25)
                           if c.is_even and c.conductor == 5)
        with pytest.raises(CharacterError):
            l_even_char_at_1(imprimitive)

    def test_partial_route_respects_term_budget(self):
        chi = next(c for c in characters_mod(5)
                   if c.is_even and not c.is_trivial)
        v = l_value_partial(chi, budget=2000)
        ref = l_even_char_at_1(chi)
        assert abs(v - ref) < 1e-4 * abs(ref)


def _series_reference(chi):
    """L(chi, 1) by the digamma series with one digamma call per term."""
    f = chi.modulus
    with mpmath.workdps(30):
        total = mpmath.mpc(0)
        for a in range(1, f):
            if math.gcd(a, f) == 1:
                total += mpmath.mpc(chi(a)) * mpmath.digamma(mpmath.mpf(a) / f)
        val = -total / f
    return complex(val)


def _primitive_even(m):
    return [c for c in characters_mod(m) if c.is_even and not c.is_trivial
            and c.conductor == m]


class TestDigammaTable:
    @pytest.mark.parametrize("m", [25, 27, 49, 125])
    def test_series_bit_identical_to_per_term_digamma(self, m):
        chars = _primitive_even(m)
        assert chars
        for chi in chars:
            assert l_even_char_at_1(chi) == _series_reference(chi)

    def test_cache_hit_across_moduli(self):
        eis._digamma_table.cache_clear()
        alone = [l_even_char_at_1(c) for c in _primitive_even(13)]
        eis._digamma_table.cache_clear()
        for chi in characters_mod(169):
            if chi.is_even and not chi.is_trivial:
                l_even_char_at_1(primitive_part(chi))
        assert eis._digamma_table.cache_info().currsize == 2
        after = [l_even_char_at_1(c) for c in _primitive_even(13)]
        assert after == alone
        assert alone == [_series_reference(c) for c in _primitive_even(13)]


def _mpf(pair):
    """The mpf of a kernel pair (man, exp), normalised without rounding."""
    return from_man_exp(*pair)


def _kernel(terms):
    """The kernel's total of x * psi over terms (x, (man, exp)), as an mpf."""
    table = [(a, man, exp) for a, (_, (man, exp)) in enumerate(terms, 1)]
    return _mpf(eis._part_total([x for x, _ in terms], table))


def _product(x, psi):
    """x * psi by mpmath at 103 bits, rounding 'n'."""
    return mpf_mul(from_float(x), _mpf(psi), 103, "n")


_WIDE = st.integers(-(2**200 - 1), 2**200 - 1)
_NARROW = st.integers(-(2**103 - 1), 2**103 - 1)
_EXP = st.integers(-300, 300)
_GAP = st.integers(-400, 400)
_KEPT = st.integers(2**101, 2**102 - 1)  # 102 bits; 2*k + parity has 103
_SHIFT = st.integers(1, 300)
_THIRD = st.integers(2**103 // 6 + 1, 2**102 - 1)  # 3 * (2*t + 1) has 104 bits
# every finite double, and the range of a character's parts
_DOUBLE = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1, 1)


class TestRoundingKernel:
    """The fused kernel ``_part_total`` against mpmath's mul and add at 103
    bits, rounding 'n': a one-term table rounds one product, a two-term
    table one product, one more product and their sum."""

    @settings(max_examples=300, deadline=None)
    @given(_DOUBLE, _WIDE | st.just(0), _EXP)
    def test_mul_matches_mpf_mul(self, x, pm, pe):
        assert _kernel([(x, (pm, pe))]) == _product(x, (pm, pe))

    @settings(max_examples=300, deadline=None)
    @given(_DOUBLE, _NARROW | st.just(0), _EXP, _DOUBLE, _NARROW | st.just(0), _GAP)
    def test_add_matches_mpf_add(self, x, pm, pe, y, qm, gap):
        # table mantissas of at most 103 bits, as psi's are
        a, b = (pm, pe), (qm, pe + gap)
        assert _kernel([(x, a), (y, b)]) == \
            mpf_add(_product(x, a), _product(y, b), 103, "n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_DOUBLE, _WIDE | st.just(0), _EXP), max_size=6))
    def test_add_is_the_exact_sum_rounded(self, terms):
        # any mantissa width: each running sum is formed exactly, then
        # rounded once by mpmath's rounding
        total = fzero
        for x, pm, pe in terms:
            if x:
                exact = mpf_add(total, _product(x, (pm, pe)))
                total = mpf_pos(exact, 103, "n")
        assert _kernel([(x, (pm, pe)) for x, pm, pe in terms]) == total

    @settings(max_examples=200, deadline=None)
    @given(_KEPT, st.sampled_from([0, 1]), st.sampled_from([1, -1]), _SHIFT, _EXP,
           _THIRD)
    def test_exact_ties(self, k, parity, sign, n, e, t):
        kept = 2 * k + parity  # 103 bits, last kept bit = parity
        rounded = _mpf((sign * (kept + parity), e + n))  # the even neighbour
        # the tie as a product: 1.0 times a mantissa with n dropped bits
        man = sign * ((kept << n) + (1 << (n - 1)))
        assert _kernel([(1.0, (man, e))]) == rounded == _product(1.0, (man, e))
        # 3.0 times an odd 103-bit mantissa: 104 bits, the dropped one a 1
        odd = 2 * t + 1
        low = 3 * odd >> 1
        even = _mpf((sign * (low + low % 2), e + 1))
        assert _kernel([(3.0, (sign * odd, e))]) == even == \
            _product(3.0, (sign * odd, e))
        # as a sum of two exact 103-bit products
        a, b = (sign * kept, e + n), (sign, e + n - 1)
        assert _kernel([(1.0, a), (1.0, b)]) == rounded == \
            mpf_add(_mpf(a), _mpf(b), 103, "n")

    def test_exact_zeros(self):
        one, five = (1, 0), (5, -3)
        # a zero part is skipped, whatever its psi
        assert _kernel([(0.0, five), (-0.0, (7, 900))]) == fzero
        assert _kernel([(0.0, (3, 9)), (1.0, one), (-0.0, (1, -900))]) == \
            _mpf(one)
        # a zero psi, and a sum that cancels, leave nothing behind
        assert _kernel([(1.0, (0, 5)), (2.0, one)]) == _mpf((2, 0))
        assert _kernel([(1.0, five), (-1.0, five)]) == fzero
        assert _kernel([(1.0, five), (-1.0, five), (0.5, (3, 600))]) == \
            _mpf((3, 599))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_is_exact(self, x):
        man, exp = eis._part_total([x], [(1, 1, 0)])
        assert abs(man).bit_length() <= 53
        assert _mpf((man, exp)) == from_float(x)


class TestSeriesTotals:
    @pytest.mark.parametrize(
        "m", [5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169, 97])
    def test_totals_equal_mpc_loop(self, m):
        """The 103-bit totals, not only the final doubles, equal the mpc loop's."""
        psi = digamma_mpf(m)
        table = eis._digamma_table(m)
        assert [(a, _mpf((man, exp))) for a, man, exp in table] == \
            [(a, v._mpf_) for a, v in psi.items()]
        chars = _primitive_even(m)
        assert chars
        for chi in chars:
            re, im = eis._series_totals(chi, table)
            assert (_mpf(re), _mpf(im)) == series_total_mpc(chi, psi)._mpc_

    @pytest.mark.parametrize(
        "m", [5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169, 97])
    def test_finish_equals_mpc_finish(self, m):
        """-total / f by libmp equals the mpc arithmetic at 30 digits, bit for bit."""
        table = eis._digamma_table(m)
        for chi in _primitive_even(m):
            re, im = eis._series_totals(chi, table)
            want = series_finish_mpc(_mpf(re), _mpf(im), m)
            got = l_even_char_at_1(chi)
            assert struct.pack("<dd", got.real, got.imag) == \
                struct.pack("<dd", want.real, want.imag)


def _matrices_reference(pn):
    """M' and M'' with every entry of M'' evaluated on its own."""
    reps = [x for x in range(1, (pn + 1) // 2) if math.gcd(x, pn) == 1]
    inv = {x: pow(x, -1, pn) for x in reps}

    def entry(e):
        return -math.log(abs(1 - cmath.exp(2j * cmath.pi * e / pn)))

    mprime = [[entry(inv[x] * y % pn) for y in reps] for x in reps]
    sub = [x for x in reps if x != 1]
    msec = [[entry(inv[x] * y % pn) - entry(inv[x] % pn) for y in sub]
            for x in sub]
    return mprime, msec


class TestLogDeterminants:
    @pytest.mark.parametrize("pn", [3, 5, 7, 9, 13, 25, 27, 49, 121])
    def test_matrices_equal_entrywise_assembly(self, pn):
        mprime, msec = log_cyclotomic_matrices(pn)
        ref_prime, ref_sec = _matrices_reference(pn)
        assert mprime == ref_prime
        if ref_sec:
            assert msec == ref_sec
        else:
            assert len(msec) == 0

    def test_matrix_shapes(self):
        mprime, msec = log_cyclotomic_matrices(25)
        assert [len(row) for row in mprime] == [10] * 10
        assert [len(row) for row in msec] == [9] * 9

    @pytest.mark.parametrize("pn", [5, 7, 9, 11, 13, 25, 27, 49, 81, 125])
    def test_det_accuracy_against_mpmath(self, pn):
        """_det is within 2e-15 of mpmath.det at 30 digits, for M' and M''.

        The LAPACK determinant used before was 1.5e-14 off at 125, so this
        bound is tighter than that route could meet.
        """
        for mat in log_cyclotomic_matrices(pn):
            with mpmath.workdps(30):
                ref = mpmath.det(mpmath.matrix(mat))
                err = abs((mpmath.mpf(eis._det(mat)) - ref) / ref)
            assert err <= 2e-15, (pn, len(mat), float(err))

    def test_det_elimination(self):
        # 4 is the pivot: one swap, then 1 - (2/4)*3 = -1/2 on the right
        assert eis._det([[2.0, 1.0], [4.0, 3.0]]) == 2.0
        assert eis._det([[0.0, 1.0], [1.0, 0.0]]) == -1.0
        assert eis._det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
        assert eis._det([[0.0, 1.0], [0.0, 2.0]]) == 0.0
        assert eis._det([[-3.0]]) == -3.0
        assert eis._det([]) == 1.0
        rows = [[1.0, 2.0], [3.0, 4.0]]
        assert eis._det(rows) == -2.0
        assert rows == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("pn", [5, 7, 9, 25])
    def test_identities(self, pn):
        r1, r2 = logdet_identity(pn, tol=1e-8)
        assert r1.passed and r2.passed
        assert abs(complex(r1.lhs)) > 0 and abs(complex(r2.lhs)) > 0
        assert (r1.identity, r2.identity) == ("det(M')", "det(M'')")
        assert (r1.pn, r2.pn, r1.tolerance) == (pn, pn, 1e-8)

    def test_trivial_factor_is_half_log_p(self):
        r1, r2 = logdet_identity(7)
        ratio = complex(r1.lhs) / complex(r2.lhs)
        assert abs(ratio - (-math.log(7) / 2)) < 1e-8


class TestEisComponent:
    def test_bernoulli2(self):
        assert bernoulli2(0) == Fraction(1, 6)
        assert bernoulli2(Fraction(1, 2)) == Fraction(-1, 12)
        assert bernoulli2(Fraction(7, 2)) == Fraction(-1, 12)  # periodic

    def test_hand_example(self):
        real, res = eis_component(5, MAT_ID, MAT_S, 1, 0)
        assert res == Fraction(2, 25)
        expected = -math.log(abs(1 - cmath.exp(2j * math.pi * 4 / 5)))
        assert abs(real - expected) < 1e-12

    def test_path_additivity(self):
        g, gp, gpp = MAT_ID, MAT_S, mmul(MAT_S, MAT_T)
        for a, b in ((1, 0), (0, 1), (2, 3)):
            r1, s1 = eis_component(7, g, gp, a, b)
            r2, s2 = eis_component(7, gp, gpp, a, b)
            r3, s3 = eis_component(7, g, gpp, a, b)
            assert s1 + s2 == s3
            assert abs(r1 + r2 - r3) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(CharacterError):
            eis_component(5, MAT_ID, MAT_S, 5, 10)


class TestGamma0pConstants:
    def test_level_eleven(self):
        data = gamma0p_constants(11)
        assert data["d"] == 2 and data["n"] == 5
        assert data["coefficients"][0] == 5
        assert data["coefficients"][1] == 12
        # a_6 = 12 * sigma(6) = 12 * 12
        assert data["coefficients"][6] == 144
        assert abs(data["L_value"] + 6 * math.log(11)) < 1e-12
        assert data["L_value_symbolic"] == (Fraction(-6), 11)
        assert data["period_vector"][1] == pytest.approx(10 * math.pi)

    def test_p_dividing_coefficient_dropped(self):
        data = gamma0p_constants(5)
        # a_5 omits the divisor 5: 24/4 * 1 = 6
        assert data["d"] == 4
        assert data["coefficients"][5] == 6

    def test_requires_odd_prime(self):
        for p in (4, 9, 1):
            with pytest.raises(UnsupportedModulusError):
                gamma0p_constants(p)
