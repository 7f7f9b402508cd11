"""The classical companion on points of P^1(Q) as integer pairs (p, q).

A pair and its non-zero multiples are one point, oo is (1, 0) or any
(k, 0), and (0, 0) is no point at all.
"""

import random
from math import gcd

import pytest

from mixsym import classical
from mixsym.mms import InvalidInputError, build_space
from mixsym.sl2 import GroupSpec, det

LEVELS = [("gamma0", 11), ("gamma0", 36), ("gamma1", 13)]


def _space(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = build_space(GroupSpec(family, level))
    return _cache[(family, level)]


def _point(rng):
    """A pair, not both 0; one in eight has q = 0, and most share no factor."""
    while True:
        p = rng.randint(-60, 60)
        q = 0 if rng.randrange(8) == 0 else rng.randint(-25, 25)
        if p or q:
            return p, q


@pytest.mark.parametrize("family,level", LEVELS)
def test_symbol_is_additive(family, level):
    sp = _space(family, level)
    rng = random.Random(level)
    for _ in range(60):
        a, b, c = _point(rng), _point(rng), _point(rng)
        ab, bc = classical.symbol(sp, a, b), classical.symbol(sp, b, c)
        assert [x + y for x, y in zip(ab, bc)] == classical.symbol(sp, a, c), (a, b, c)


@pytest.mark.parametrize("family,level", LEVELS)
def test_multiples_are_one_point(family, level):
    sp = _space(family, level)
    rng = random.Random(level + 1)
    for _ in range(60):
        (p, q), y = _point(rng), _point(rng)
        k = rng.choice((2, 3, 6, -5))
        want = classical.symbol(sp, (p, q), y)
        for x in ((k * p, k * q), (-p, -q)):
            assert classical.symbol(sp, x, y) == want, ((p, q), x, y)
            assert classical.symbol(sp, y, x) == classical.symbol(sp, y, (p, q))


@pytest.mark.parametrize("family,level", LEVELS)
def test_unimodular_columns_give_the_manin_symbol(family, level):
    """{g*0, g*oo} = {(b, d), (a, c)} is the Manin symbol of g's coset."""
    sp = _space(family, level)
    for i, (a, b, c, d) in enumerate(sp.cosets.reps):
        want = [0] * sp.classical.rank
        for j, y in sp.classical.project[i]:
            want[j] += y
        assert classical.symbol(sp, (b, d), (a, c)) == want, i


def test_infinity_and_the_zero_pair():
    sp = _space("gamma0", 11)
    zero = [0] * sp.classical.rank
    for x in ((3, 7), (-2, 5), (1, 0), (0, 1)):
        assert classical.symbol(sp, (1, 0), x) == classical.symbol(sp, (-1, 0), x)
        assert classical.symbol(sp, (4, 0), x) == classical.symbol(sp, (1, 0), x)
    assert classical.symbol(sp, (1, 0), (-1, 0)) == zero
    for pair in (((0, 0), (1, 0)), ((2, 3), (0, 0))):
        with pytest.raises(InvalidInputError):
            classical.symbol(sp, *pair)


def test_matrix_to_cusp_has_the_point_as_first_column():
    rng = random.Random(5)
    points = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    while len(points) < 400:
        x = _point(rng)
        if gcd(*x) == 1:
            points.append(x)
    for x in points:
        m = classical.matrix_to_cusp(x)
        assert det(m) == 1 and (m[0], m[2]) == x, (x, m)


@pytest.mark.parametrize("family,level", [("gamma0", 11), ("gamma1", 7)])
@pytest.mark.parametrize("q", [-3, 0, 1, 4, 6, 9])
def test_hecke_matrix_needs_a_prime(family, level, q):
    with pytest.raises(InvalidInputError):
        classical.hecke_matrix(_space(family, level), q)
