"""Dirichlet characters, L-values, and the log-cyclotomic determinant identities."""

import cmath
import functools
import math
import struct
from fractions import Fraction

import mpmath
import pytest

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


_digamma_30 = functools.lru_cache(maxsize=None)(digamma_mpf)


def _series_reference(chi):
    """L(chi, 1) by the digamma series: -(1/f) * sum of chi(a)*psi(a/f),
    added up term by term in mpc at 30 digits, psi by mpmath.digamma."""
    f = chi.modulus
    total = series_total_mpc(chi, _digamma_30(f))
    return series_finish_mpc(total.real, total.imag, f)


def _primitive_even(m):
    return [c for c in characters_mod(m) if c.is_even and not c.is_trivial
            and c.conductor == m]


# every odd prime power up to 200, so every conductor of those moduli; 729,
# the largest p^n whose determinants stay in range; and 997, the largest
# conductor --pn accepts
_TABLE_MODULI = [m for m in range(3, 201, 2) if len(factor(m)) == 1] + [729, 997]


class TestDigammaTable:
    def test_constants_against_mpmath(self):
        """pi, Euler's gamma and ln 2 are the nearest ints at scale 2**_W."""
        assert eis._W >= 200
        with mpmath.workdps(120):
            for const, x in ((eis._PI, mpmath.pi), (eis._GAMMA, mpmath.euler),
                             (eis._LN2, mpmath.ln2)):
                assert abs(const - x * 2**eis._W) <= 0.5

    @pytest.mark.parametrize("f", _TABLE_MODULI)
    def test_table_against_mpmath_digamma(self, f):
        """Every entry is psi(a/f) * 2**160 within 2**-140, against
        mpmath.digamma at 60 digits, at every unit a modulo f."""
        table = eis._digamma_table(f)
        assert [a for a, _ in table] == [a for a in range(1, f) if math.gcd(a, f) == 1]
        with mpmath.workdps(60):
            bound = mpmath.mpf(2) ** -140
            for a, psi in table:
                err = mpmath.mpf(psi) / 2**160 - mpmath.digamma(mpmath.mpf(a) / f)
                assert abs(err) < bound, (f, a, float(err))

    @pytest.mark.parametrize(
        "m", [5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169, 97])
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


def _integer_totals(chi):
    """The exact sums of int(x * 2**128) * psi over the table, x each part of
    chi(a): the two integers that l_even_char_at_1 divides by -f * 2**288."""
    table = eis._digamma_table(chi.modulus)
    re = sum(int(chi.values[a].real * 2.0**128) * psi for a, psi in table)
    im = sum(int(chi.values[a].imag * 2.0**128) * psi for a, psi in table)
    return re, im


class TestSeriesTotals:
    @pytest.mark.parametrize(
        "m", [5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169, 97])
    def test_totals_equal_mpc_loop(self, m):
        """The integer totals, scaled by 2**-288, are within 2**-100 of the
        mpc loop at 60 digits: the scaling of chi(a) by 2**128 loses less
        than 2**-128 * |psi| per term, and the table less than 2**-140."""
        psi = digamma_mpf(m, dps=60)
        chars = _primitive_even(m)
        assert chars
        for chi in chars:
            re, im = _integer_totals(chi)
            want = series_total_mpc(chi, psi, dps=60)
            with mpmath.workdps(60):
                got = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)) / 2**288
                assert abs(got - want) < mpmath.mpf(2) ** -100, (m, chi.index)

    @pytest.mark.parametrize(
        "m", [5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169, 97])
    def test_finish_equals_mpc_finish(self, m):
        """-total / (f * 2**288) by Python's int/int division equals libmp's
        correctly rounded 53-bit division of the same exact totals, bit for bit."""
        for chi in _primitive_even(m):
            want = [mpmath.libmp.to_float(mpmath.libmp.mpf_div(
                        mpmath.libmp.from_man_exp(-t, -288),
                        mpmath.libmp.from_int(m), 53, mpmath.libmp.round_nearest))
                    for t in _integer_totals(chi)]
            got = l_even_char_at_1(chi)
            assert struct.pack("<dd", got.real, got.imag) == struct.pack("<dd", *want)


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

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 37, 101])
    def test_constants_are_ints(self, p):
        """d = gcd(p-1, 12) divides p-1 and 24, so nothing needs a Fraction."""
        data = gamma0p_constants(p)
        assert all(type(a) is int for a in data["coefficients"])
        assert data["coefficients"] == [Fraction(p - 1, data["d"])] + [
            Fraction(24 * sum(m for m in range(1, k + 1) if k % m == 0 and m % p), data["d"])
            for k in range(1, 51)]
        assert type(data["L_value_symbolic"][0]) is int
        assert data["L_value_symbolic"] == (Fraction(-12, data["d"]), p)

    def test_p_dividing_coefficient_dropped(self):
        data = gamma0p_constants(5)
        # a_5 omits the divisor 5: 24/4 * 1 = 6
        assert data["d"] == 4
        assert data["coefficients"][5] == 6

    def test_requires_odd_prime(self):
        for p in (4, 9, 1):
            with pytest.raises(UnsupportedModulusError):
                gamma0p_constants(p)
