"""Acceptance gate: one pass/fail line per top-level guarantee.

Each test prints exactly one line of the form "PASS criterion N: ..." or
"FAIL criterion N: ..." (visible with pytest -s, and in captured output on
failure) and asserts the same condition.
"""

import math
from fractions import Fraction

import pytest

from mixsym import classical, dualpair, eis, hecke
from mixsym.mms import (build_space, cusp_cokernel_invariants,
                        expected_homology_index, expected_manin_index,
                        homology_index_in_kernel, kernel_pi_invariants,
                        manin_index)
from mixsym.sl2 import GroupSpec
from mixsym.zlattice import kernel_basis, mat_mul, solve_rational

from _reference import charpoly, is_perfect_over

GAMMA0_LEVELS = [1, 5, 7, 9, 11, 13, 23, 25]
GAMMA1_LEVELS = [5, 7, 11, 13]

_CACHE = {}


def _space(family, level):
    if (family, level) not in _CACHE:
        spec = GroupSpec("full", 1) if level == 1 else GroupSpec(family, level)
        _CACHE[(family, level)] = build_space(spec)
    return _CACHE[(family, level)]


def _all_spaces():
    for lvl in GAMMA0_LEVELS:
        yield "gamma0", lvl, _space("gamma0", lvl)
    for lvl in GAMMA1_LEVELS:
        yield "gamma1", lvl, _space("gamma1", lvl)


def _line(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}")
    assert ok, f"criterion {num}: {name}"


def test_criterion_1_rank_identity():
    ok = all(sp.rank == 2 * sp.genus + 2 * (sp.n_cusp - 1)
             for _, _, sp in _all_spaces())
    _line(1, "rank equals 2*genus + 2*(cusps - 1) on all configured levels", ok)


def test_criterion_2_exact_sequence():
    ok = all(kernel_pi_invariants(sp) == cusp_cokernel_invariants(sp)
             for _, _, sp in _all_spaces())
    ok = ok and all(kernel_pi_invariants(_space("gamma0", p)) == (1, [])
                    for p in (5, 7, 11, 13))
    _line(2, "ker(pi) matches the cusp-relation cokernel (free of rank 1 "
             "at prime level)", ok)


def test_criterion_3_homology_index():
    ok = all(homology_index_in_kernel(_space("gamma0", p)) == p
             and expected_homology_index(_space("gamma0", p)) == p
             for p in (5, 7, 11, 13))
    _line(3, "index of curve homology in ker(boundary) equals the width "
             "product (= p at prime level)", ok)


def test_criterion_4_manin_index():
    # computed index checked against the independent structural oracle
    # (U-fixed coset or width sum coprime to 3); for these levels the values
    # are 3, 1, 3, 1, 3, 1 over p^n = 5, 7, 11, 13, 25, 49
    expected_values = {5: 3, 7: 1, 11: 3, 13: 1, 25: 3, 49: 1}
    ok = True
    for lvl, want in expected_values.items():
        sp = _space("gamma0", lvl)
        ok = ok and manin_index(sp) == want == expected_manin_index(sp)
    for lvl in GAMMA1_LEVELS:
        sp = _space("gamma1", lvl)
        ok = ok and manin_index(sp) == 3 == expected_manin_index(sp)
    _line(4, "Manin index matches the structural criterion on all "
             "prime-power levels up to 49", ok)


def test_criterion_5_hecke_laws():
    ok = True
    for family, lvl, sp in _all_spaces():
        if sp.rank == 0:
            continue
        ops = [hecke.hecke_operator(sp, q) for q in (2, 3, 5, 7)]
        for q, op in zip((2, 3, 5, 7), ops):
            if q % 2 and (2 * lvl) % q:
                ok = ok and op.is_integral()
            elif lvl % q == 0:
                ok = ok and q % op.denominator == 0
            else:
                ok = ok and 2 % op.denominator == 0
        ok = ok and all(hecke.operators_commute(a, b)
                        for i, a in enumerate(ops) for b in ops[i + 1:])
        conj = hecke.complex_conjugation(sp)
        ok = ok and all(hecke.operators_commute(conj, op) for op in ops)
        pi = [[Fraction(x) for x in r] for r in sp.pi_basis]
        for q, op in zip((2, 3), ops):
            cl = [[Fraction(x) for x in r] for r in classical.hecke_matrix(sp, q)]
            ok = ok and mat_mul(op.mat, pi) == mat_mul(pi, cl)
        if family == "gamma0" and lvl in (5, 7, 11, 13, 23):
            cs = [[Fraction(x) for x in r] for r in sp.cusp_sublattice()]
            for q, op in zip((2, 3, 5, 7), ops):
                scale = 1 if lvl == q else q + 1
                ok = ok and mat_mul(cs, op.mat) == \
                    [[scale * x for x in row] for row in cs]
    _line(5, "Hecke integrality, denominator bounds, commutation, "
             "pi-equivariance, and Eisenstein action", ok)


def test_criterion_6_pairing_suite():
    ok = True
    for p in (5, 7, 11, 13):
        sp = _space("gamma0", p)
        pm = dualpair.pairing_matrix(sp)
        info = dualpair.perfectness_report(sp, pm)
        ok = ok and info["antisymmetric"] and info["six_times_integral"]
        ok = ok and dualpair.conj_anti_invariance(
            sp, pm, hecke.complex_conjugation(sp))
        ok = ok and is_perfect_over(pm, 2 * p)
        w = hecke.atkin_lehner(sp)
        q = next(q for q in (3, 5, 7, 11) if (2 * p) % q != 0)
        ok = ok and dualpair.adjointness_check(
            sp, pm, hecke.hecke_operator(sp, q), w)
        # conjectural determinant value, realized as the Pfaffian magnitude
        ok = ok and info["abs_pfaffian"] == info["expected_abs_det"] == p
    _line(6, "pairing antisymmetric, 6-integral, conjugation-anti-invariant, "
             "perfect over Z[1/2p], Hecke-adjoint, |Pf| = p", ok)


def test_criterion_7_g_identity():
    ok = True
    for p in (5, 7, 11, 13, 23, 31):
        sp = _space("gamma0", p) if ("gamma0", p) in _CACHE or p in GAMMA0_LEVELS \
            else build_space(GroupSpec("gamma0", p))
        n = dualpair.verify_G_identity(sp)
        ok = ok and n == 2 * sp.genus + sp.n_cusp - 1
    _line(7, "closed-form duality map agrees exactly with the Gram matrix "
             "on the cusp-vanishing dual block", ok)


def test_criterion_8_log_determinant_identities():
    ok = True
    for pn in (5, 7, 9, 11, 13, 25):
        r1, r2 = eis.logdet_identity(pn, tol=1e-8)
        ok = ok and r1.passed and r2.passed
        ok = ok and abs(complex(r1.lhs)) > 0 and abs(complex(r2.lhs)) > 0
    _line(8, "log-cyclotomic determinants match their L-value products to "
             "relative 1e-8 and are nonzero", ok)


def test_criterion_9_gamma0p_constants():
    ok = True
    for p in (5, 7, 11, 13):
        data = eis.gamma0p_constants(p)
        d = math.gcd(p - 1, 12)
        ok = ok and data["d"] == d and data["n"] == (p - 1) // d
        for k in range(1, 51):
            divisor_sum = sum(m for m in range(1, k + 1)
                              if k % m == 0 and m % p != 0)
            ok = ok and data["coefficients"][k] == Fraction(24 * divisor_sum, d)
        ok = ok and abs(data["L_value"] + 12 / d * math.log(p)) < 1e-12
        lv, per = data["period_vector"]
        ok = ok and lv != 0 and per != 0
    _line(9, "level-p Eisenstein constants: n = (p-1)/gcd(p-1,12), divisor-sum "
             "coefficients, nonzero (L-value, period) pair", ok)


def test_criterion_10_classical_oracle_cross_check():
    sp = _space("gamma0", 11)
    # oracle: cuspidal block of the companion presentation, built from cusp
    # pairs and continued fractions only
    cl2 = [[Fraction(x) for x in r] for r in classical.hecke_matrix(sp, 2)]
    cusp = [[Fraction(x) for x in r]
            for r in kernel_basis(classical.boundary_matrix(sp))]
    restricted = [solve_rational(cusp, row) for row in mat_mul(cusp, cl2)]
    oracle_poly = charpoly(restricted)
    ok = oracle_poly == [Fraction(4), Fraction(4), Fraction(1)]  # (x+2)^2
    mixed_poly = charpoly(hecke.hecke_operator(sp, 2).mat)
    # the oracle root -2 divides the mixed characteristic polynomial
    value_at_minus_2 = sum(c * Fraction(-2) ** i
                           for i, c in enumerate(mixed_poly))
    ok = ok and value_at_minus_2 == 0
    _line(10, "classical companion reproduces the T_2 cuspidal root -2 at "
              "level 11, shared with the mixed presentation", ok)
