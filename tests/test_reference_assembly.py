"""Operator and pairing assembly against dense reduce_pair reference routes.

The library builds operators on the free generators that the sparse rows
of ``lift`` use, summing each row on the ambient generators before one
projection, and reads the pairing's corner symbols off the sparse
``project``.  The reference routes below evaluate every ambient generator,
project each image with ``project`` made dense and multiply by ``lift`` made
dense, or reduce every corner symbol with ``reduce_pair``; both must agree
exactly.  The build and the readers of both sections never make them dense.
The rational operators (T_2, U_q, W_N) sum scaled integer images over one
denominator, and ``mat`` divides each entry by it on read; the dense route
applies the same division to its product.
"""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest

from mixsym import classical, dualpair, hecke, mms, zlattice
from mixsym.mms import build_space, reduce_pair
from mixsym.sl2 import MAT_S, MAT_T, MAT_TAU, GroupSpec, mmul
from mixsym.zlattice import (common_denominator, dense_rows, mat_mul, sparse_rows,
                             vec_mat)

from _reference import (atkin_lehner_fractions, hecke_composite_fractions,
                        hecke_rational_fractions, six_mat_dense)

LEVELS = [("gamma0", 11), ("gamma0", 25), ("gamma0", 36), ("gamma1", 7),
          ("gamma1", 13)]


def _space(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = build_space(GroupSpec(family, level))
    return _cache[(family, level)]


def dense_operator(space, fn, denominator=1):
    """lift * (fn of every ambient generator, projected) / denominator.

    The pre-selection route: each generator's image is projected on its own,
    as a dense ambient row times the dense ``project``.
    """
    project = dense_rows(space.quotient.project, space.rank)
    ambient = []
    n = space.n_manin + space.n_cusp
    for k in range(n):
        amb = {}
        fn(amb, *hecke.generator_pair(space, k), 1)
        row = [0] * n
        for k, x in amb.items():
            row[k] += x
        ambient.append(vec_mat(row, project))
    mat = mat_mul(dense_rows(space.quotient.lift, n), ambient)
    if denominator != 1:
        mat = [[Fraction(x, denominator) for x in row] for row in mat]
    return mat


def _types(mat):
    return [[type(x) for x in row] for row in mat]


@pytest.fixture
def recorded(monkeypatch):
    """Record each operator_from_pair_map result with its dense reference.

    Each record is (name, matrix, dense reference); the two are compared
    entry for entry and type for type.
    """
    seen = []
    assemble = hecke.operator_from_pair_map

    def wrapper(space, fn, name, denominator=1):
        op = assemble(space, fn, name, denominator)
        ref = dense_operator(space, fn, denominator)
        assert _types(op.mat) == _types(ref), name
        seen.append((name, op.mat, ref))
        return op

    monkeypatch.setattr(hecke, "operator_from_pair_map", wrapper)
    return seen


def _diamond_unit(level):
    return next(d for d in range(2, level + 2) if gcd(d, level) == 1)


@pytest.mark.parametrize("family,level", LEVELS)
def test_operators_match_dense_route(recorded, family, level):
    sp = _space(family, level)
    d = _diamond_unit(level)
    ops = [hecke.hecke_operator(sp, q) for q in (2, 3, 5)]
    ops += [hecke.atkin_lehner(sp), hecke.complex_conjugation(sp),
            hecke.diamond(sp, d)]
    names = {name for name, _, _ in recorded}
    assert {"W" + str(level), "conj"} <= names
    if family == "gamma1":
        assert f"diamond({d})" in names
    for name, mat, ref in recorded:
        assert mat == ref, name
    for op in ops[:3]:
        assert any(op.mat == mat for _, mat, _ in recorded), op.name


@pytest.mark.parametrize("family,level", [("gamma0", 25), ("gamma1", 7)])
def test_assembly_does_not_assume_a_selection(recorded, family, level):
    """A lift whose rows mix several generators still gives the right matrix."""
    sp = _space(family, level)
    q = sp.quotient
    assert sp.rank >= 2
    # new basis: lift' = U * lift, project' = project * U^-1, U = I - 2 E_10,
    # so row 1 of lift' has a coefficient -2
    n = sp.n_manin + sp.n_cusp
    lift = dense_rows(q.lift, n)
    lift[1] = [x - 2 * y for x, y in zip(lift[1], lift[0])]
    dense = dense_rows(q.project, q.rank)
    project = [[row[0] + 2 * row[1]] + list(row[1:]) for row in dense]
    mixed = dataclasses.replace(sp, quotient=dataclasses.replace(
        q, lift=sparse_rows(lift), project=sparse_rows(project)))
    assert mat_mul(lift, project) == mat_mul(dense_rows(q.lift, n), dense)
    assert -2 in dense_rows(mixed.quotient.lift, n)[1]
    hecke.hecke_operator(mixed, 3)
    hecke.complex_conjugation(mixed)
    hecke.atkin_lehner(mixed)
    assert recorded
    for name, mat, ref in recorded:
        assert mat == ref, name


@pytest.mark.parametrize("family,level", LEVELS)
def test_integral_route_returns_plain_ints(family, level):
    sp = _space(family, level)
    for q in (3, 5, 7):
        if (2 * level) % q:
            op = hecke.hecke_operator(sp, q)
            assert all(type(x) is int for row in op.mat for x in row), q


ORACLE_LEVELS = ([("gamma0", n) for n in range(2, 41)]
                 + [("gamma1", n) for n in range(2, 17)])


@pytest.mark.parametrize("family,level", ORACLE_LEVELS)
def test_rational_operators_match_fraction_route(family, level):
    """T_2, U_q (q in 2, 3, 5, 7 dividing N) and W_N equal the Fraction route.

    Entry for entry and type for type: the scaled integer sums divided once
    give the same Fractions as images added up in Fractions.  For these, T_3
    and conjugation, ``denominator`` is the least common denominator of
    ``mat``'s entries.
    """
    sp = _space(family, level)
    triples = [(hecke.hecke_operator(sp, q), hecke_rational_fractions(sp, q),
                f"U{q}" if level % q == 0 else f"T{q}")
               for q in (2, 3, 5, 7) if q == 2 or level % q == 0]
    triples.append((hecke.atkin_lehner(sp), atkin_lehner_fractions(sp), f"W{level}"))
    for op, ref, name in triples:
        assert op.name == name
        assert op.mat == ref, op.name
        assert _types(op.mat) == _types(ref), op.name
    ops = [op for op, _, _ in triples]
    ops += [hecke.hecke_operator(sp, 3), hecke.complex_conjugation(sp)]
    for op in ops:
        assert op.denominator == common_denominator(op.mat), op.name


@pytest.mark.parametrize("family,level", [("gamma0", 11), ("gamma0", 25),
                                          ("gamma0", 36), ("gamma0", 101),
                                          ("gamma1", 12), ("gamma1", 13),
                                          ("gamma1", 15)])
def test_composite_matches_fraction_recurrence(family, level):
    """T_m summed in ints over one denominator equals the Fraction recurrences.

    On Gamma1(13) and Gamma1(15) the representatives with a not in +-H carry
    the diamond twist.  The sum is integral, den = 1, exactly when m is odd
    and prime to the level.
    """
    sp = _space(family, level)
    for m in (1, 4, 6, 8, 9, 10, 12, 15, 25, 27, 45):
        op = hecke.hecke_composite(sp, m)
        assert op.mat == hecke_composite_fractions(sp, m), m
        assert (op.den == 1) == (m % 2 == 1 and gcd(m, level) == 1), m


@pytest.mark.parametrize("family,level", [("gamma0", 36), ("gamma1", 12)])
def test_rational_operators_make_one_fraction_per_entry(monkeypatch, family, level):
    """T_2, U_q and W_N are assembled without a Fraction; reading ``mat``
    makes one per entry."""
    sp = _space(family, level)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for build in (lambda: hecke.hecke_operator(sp, 2),
                  lambda: hecke.hecke_operator(sp, 3),
                  lambda: hecke.atkin_lehner(sp)):
        del made[:]
        op = build()
        assert made == [] and op.den > 1, op.name
        mat = op.mat
        assert len(made) == len(mat) ** 2 == sp.rank ** 2, op.name


def _corner_symbols(space, i):
    """({gS,g}, {gTS,gT}, {g,gT}, {g,gS}) at coset i, each via reduce_pair."""
    g = space.cosets.reps[i]
    gt = mmul(g, MAT_T)
    return (reduce_pair(space, mmul(g, MAT_S), g),
            reduce_pair(space, mmul(gt, MAT_S), gt),
            reduce_pair(space, g, gt),
            reduce_pair(space, g, mmul(g, MAT_S)))


def pairing_reference(space):
    r = space.rank
    six = [[0] * r for _ in range(r)]
    for i in range(space.n_manin):
        a, b, c, d = _corner_symbols(space, i)
        for u in range(r):
            for v in range(r):
                six[u][v] += (a[u] * b[v] - b[u] * a[v]
                              - 4 * c[u] * d[v] + 4 * d[u] * c[v])
    return six


def _tau(space, i):
    return space.cosets.coset_of(mmul(space.cosets.reps[i], MAT_TAU))


def lambda_reference(space, phi):
    out = []
    for g in space.cosets.reps:
        row = reduce_pair(space, mmul(g, MAT_S), g)
        out.append(sum(x * y for x, y in zip(row, phi)))
    return out


def cycle_reference(space, lam):
    out = [Fraction(0)] * space.rank
    for i, g in enumerate(space.cosets.reps):
        t1 = _tau(space, i)
        g2 = space.cosets.reps[_tau(space, t1)]
        row_a = reduce_pair(space, mmul(g, MAT_S), g)
        row_b = reduce_pair(space, mmul(g2, MAT_S), g2)
        cg = reduce_pair(space, g, mmul(g, MAT_T))
        out = [x + Fraction(lam[t1], 6) * (a - b) - Fraction(2 * lam[i], 3) * c
               for x, a, b, c in zip(out, row_a, row_b, cg)]
    return out


@pytest.mark.parametrize("family,level", LEVELS)
def test_pairing_matches_corner_symbol_route(family, level):
    sp = _space(family, level)
    pm = dualpair.pairing_matrix(sp)
    ref = pairing_reference(sp)
    assert pm.six_mat == ref
    assert all(type(x) is int for row in pm.six_mat for x in row)
    assert pm.mat == [[Fraction(x, 6) for x in row] for row in ref]


@pytest.mark.parametrize("family,levels", [("gamma0", range(1, 61)),
                                           ("gamma1", range(1, 21))])
def test_pairing_matches_dense_product(family, levels):
    """The sparse per-coset outer products give the dense product's six_mat."""
    for level in levels:
        sp = _space(family, level)
        assert dualpair.pairing_matrix(sp).six_mat == six_mat_dense(sp), level


@pytest.mark.parametrize("family,level", [("gamma0", 37), ("gamma1", 13)])
def test_readers_of_project_stay_sparse(monkeypatch, family, level):
    """Reductions, operators, the pairing and the G cycle never densify a
    ``project`` row; only the export and the HNF feeders manin_gen/cusp_gen do."""
    sp = _space(family, level)
    basis = dualpair.dual_cuspless_basis(sp)

    def refuse(*_):
        raise AssertionError("dense project row built")

    for mod in (zlattice, mms):
        monkeypatch.setattr(mod, "dense_rows", refuse)
    monkeypatch.setattr(mms.SymbolSpace, "manin_gen", refuse)
    monkeypatch.setattr(mms.SymbolSpace, "cusp_gen", refuse)
    reduce_pair(sp, MAT_S, mmul(MAT_TAU, MAT_T))
    mms.reduce_pair_rational(sp, MAT_S, (1, Fraction(1, 3), 0, 1))
    mms.homology_sublattice(sp)
    for q in (2, 3, 5):
        hecke.hecke_operator(sp, q)
        classical.hecke_matrix(sp, q)
    hecke.atkin_lehner(sp)
    hecke.complex_conjugation(sp)
    hecke.diamond(sp, 2)
    dualpair.pairing_matrix(sp)
    for phi in basis:
        dualpair.lambda_to_mms(sp, dualpair.lambda_from_dual(sp, phi))


@pytest.mark.parametrize("family,level", [("gamma0", 37), ("gamma1", 13)])
def test_build_and_operators_never_densify(monkeypatch, family, level):
    """The build, every operator, classical T_q and the classical boundary
    read the sparse relations, ``project`` and ``lift`` as they are; only the
    export, manin_gen/cusp_gen and snf convert between the two forms."""
    def refuse(*_):
        raise AssertionError("sparse_rows or dense_rows called")

    for mod in (zlattice, mms, hecke, classical):
        for name in ("sparse_rows", "dense_rows"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    sp = build_space(GroupSpec(family, level))
    d = _diamond_unit(level)
    for q in (2, 3, 5, 7):
        hecke.hecke_operator(sp, q)
        classical.hecke_matrix(sp, q)
    hecke.hecke_composite(sp, 4)
    hecke.atkin_lehner(sp)
    hecke.complex_conjugation(sp)
    hecke.diamond(sp, d)
    classical.boundary_matrix(sp)


@pytest.mark.parametrize("family,level", LEVELS)
def test_lambda_and_cycle_match_corner_symbol_route(family, level):
    sp = _space(family, level)
    basis = dualpair.dual_cuspless_basis(sp)
    assert basis
    for i in range(sp.n_manin):
        assert sp.cosets.action["T"][sp.cosets.action["S"][i]] == _tau(sp, i)
    for phi in basis:
        lam = dualpair.lambda_from_dual(sp, phi)
        assert lam == lambda_reference(sp, phi)
        assert dualpair.lambda_to_mms(sp, lam) == cycle_reference(sp, lam)
