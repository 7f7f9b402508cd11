"""Coset, cusp, and word combinatorics in SL2(Z)."""

import hashlib
import random
import signal
from functools import lru_cache
from math import gcd

import pytest

from mixsym.sl2 import (MAX_COSET_TABLE, GroupSpec, InvalidSpecError, MAT_ID,
                        MAT_S, MAT_T, MAT_TAU, MAT_U, complete, cusp_table, det,
                        enumerate_cosets, genus, lift_bottom_row, minus_id_in_group,
                        minv, mmul, mneg)

from _reference import (contains_by_family, gamma0_with_lower_right, gcdex, mpow_t,
                        stword_decompose, word_to_matrix)


def random_unimodular(rng, length=12):
    m = MAT_ID
    for _ in range(length):
        m = mmul(m, MAT_S if rng.random() < 0.5 else (1, rng.randint(-3, 3), 0, 1))
    return m


class TestMatrixBasics:
    def test_constants(self):
        assert det(MAT_S) == det(MAT_T) == det(MAT_U) == det(MAT_TAU) == 1
        assert mmul(MAT_T, MAT_S) == MAT_U
        assert mmul(MAT_S, MAT_T) == MAT_TAU
        # S has order 4 in SL2, 2 in PSL2; U and tau have order 3 in PSL2
        assert mmul(MAT_S, MAT_S) == mneg(MAT_ID)
        assert mmul(MAT_U, MAT_U, MAT_U) == mneg(MAT_ID)
        assert mmul(MAT_TAU, MAT_TAU, MAT_TAU) == mneg(MAT_ID)

    def test_inverse(self):
        rng = random.Random(10)
        for _ in range(50):
            m = random_unimodular(rng)
            assert mmul(m, minv(m)) == MAT_ID

    def test_gcdex(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            x, y, g = gcdex(a, b)
            assert a * x + b * y == g >= 0

    def test_complete(self):
        """((a, b), (c, d)) has determinant 1 and -|c|/2 < d <= |c|/2."""
        rng = random.Random(12)
        pairs = [(1, 0), (-1, 0), (0, 1), (0, -1), (4, 1), (-4, -1),
                 (3, 2), (-3, 2), (3, -2), (-3, -2)]
        while len(pairs) < 400:
            a, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            if gcd(a, c) == 1:
                pairs.append((a, c))
        for a, c in pairs:
            b, d = complete(a, c)
            assert a * d - b * c == 1, (a, c)
            if c:
                assert -abs(c) < 2 * d <= abs(c), (a, c, d)
            else:
                assert (b, d) == (0, a)
        for a, c in ((2, 4), (-6, 9), (0, 0), (2, 0), (3, 0)):
            with pytest.raises(ValueError):
                complete(a, c)

    def test_complete_is_extended_euclid(self):
        """d is the oracle's Bezout coefficient of a, for 0 < c <= 400 and
        |a| <= 3c + 5: the pairs lift_bottom_row and matrix_to_cusp complete."""
        for c in range(1, 401):
            for a in range(-3 * c - 5, 3 * c + 6):
                if gcd(a, c) == 1:
                    assert complete(a, c)[1] == gcdex(a, c)[0], (a, c)


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            GroupSpec("gamma2", 5)
        with pytest.raises(InvalidSpecError):
            GroupSpec("gamma0", 0)
        with pytest.raises(InvalidSpecError):
            GroupSpec("full", 5)

    def test_membership(self):
        g0 = GroupSpec("gamma0", 11)
        assert g0.contains((1, 0, 11, 1))
        assert g0.contains((2, 1, 11, 6))
        assert not g0.contains((0, -1, 1, 0))
        g1 = GroupSpec("gamma1", 5)
        assert g1.contains((1, 3, 5, 16))
        assert g1.contains((-1, 3, 5, -16))  # -Id twist allowed in PSL2
        assert not g1.contains((2, 1, 5, 3))

    def test_membership_matches_family_rule(self):
        """contains agrees with the rule per family on members and non-members."""
        rng = random.Random(14)
        specs = [GroupSpec("full")] + [GroupSpec(family, level)
                                       for family in ("gamma0", "gamma1")
                                       for level in range(1, 61)]
        members = total = 0
        for spec in specs:
            for m in _membership_candidates(rng, spec.level, 400):
                expected = contains_by_family(spec, m)
                assert spec.contains(m) == expected, (spec, m)
                members += expected
                total += 1
        assert total == 48_400 and 0.1 < members / total < 0.3

    def test_minus_id(self):
        assert minus_id_in_group(GroupSpec("gamma0", 11))
        assert minus_id_in_group(GroupSpec("gamma1", 2))
        assert not minus_id_in_group(GroupSpec("gamma1", 5))


def _membership_candidates(rng, n, count):
    """Seeded matrices for a level-n membership test.

    Two fifths are random unimodular; the rest are products
    T^a * gamma * ((1, 0), (n*b, 1)) * T^e, gamma in Gamma0(n) with
    lower-right entry +-1 or a random unit mod n, of either sign, two thirds
    of them then moved off Gamma0(n) or off determinant 1 by one entry.
    """
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    for _ in range(count):
        if rng.random() < 0.4:
            yield random_unimodular(rng)
            continue
        d = rng.choice((1, n - 1)) if rng.random() < 0.5 else rng.choice(units)
        m = mmul(mpow_t(rng.randint(-9, 9)), gamma0_with_lower_right(n, d),
                 (1, 0, n * rng.randint(-3, 3), 1), mpow_t(rng.randint(-9, 9)))
        if rng.random() < 0.5:
            m = mneg(m)
        if rng.random() < 2 / 3:
            k = rng.randrange(4)
            m = m[:k] + (m[k] + rng.choice((-1, 1)),) + m[k + 1:]
        yield m


INDEX_TABLE = {("gamma0", 5): 6, ("gamma0", 7): 8, ("gamma0", 9): 12,
               ("gamma0", 11): 12, ("gamma0", 13): 14, ("gamma0", 23): 24,
               ("gamma0", 25): 30, ("gamma1", 5): 12, ("gamma1", 7): 24,
               ("gamma1", 11): 60, ("gamma1", 13): 84, ("full", 1): 1}

GENUS_TABLE = {("gamma0", 11): 1, ("gamma0", 23): 2, ("gamma0", 25): 0,
               ("gamma1", 11): 1, ("gamma1", 13): 2, ("full", 1): 0}

CUSP_TABLE = {("gamma0", 5): 2, ("gamma0", 9): 4, ("gamma0", 11): 2,
              ("gamma0", 25): 6, ("gamma1", 5): 4, ("gamma1", 13): 12,
              ("full", 1): 1}


class TestLiftBottomRow:
    def test_lifts_every_primitive_row(self):
        for n in range(1, 31):
            for c in range(n):
                for d in range(n):
                    if gcd(gcd(c, d), n) == 1:
                        m = lift_bottom_row(n, c, d)
                        assert det(m) == 1 and (m[2] - c) % n == (m[3] - d) % n == 0

    def test_units_lift_to_gamma0(self):
        for n in range(2, 31):
            for d in _reference_units(n):
                m = lift_bottom_row(n, 0, d)
                assert GroupSpec("gamma0", n).contains(m) and (m[3] - d) % n == 0

    def test_rejects_non_primitive_row(self):
        """gcd(c, d, n) > 1 raises at once; the search over d + k*n never ends."""
        def hung(*_):
            raise AssertionError("lift_bottom_row did not return within 5 s")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            for n, c, d in ((4, 0, 2), (6, 3, 9), (5, 0, 0), (9, 6, 3)):
                with pytest.raises(ValueError, match="not primitive"):
                    lift_bottom_row(n, c, d)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCosets:
    @pytest.mark.parametrize("family,level", sorted(INDEX_TABLE))
    def test_index(self, family, level):
        table = enumerate_cosets(GroupSpec(family, level))
        assert table.index == INDEX_TABLE[(family, level)]

    @pytest.mark.parametrize("family", ["gamma0", "gamma1"])
    def test_table_past_the_limit_is_rejected(self, family):
        level = 10_001
        assert level * level > MAX_COSET_TABLE >= (level - 1) ** 2
        with pytest.raises(InvalidSpecError, match=f"{level * level} entries"):
            enumerate_cosets(GroupSpec(family, level))

    def test_coset_of_consistency(self):
        """g * reps[coset_of(g)]^-1 lies in Gamma, for random g and for
        gamma * reps[k] with gamma in Gamma reaching every bottom row."""
        rng = random.Random(12)
        for family, level in WITNESS_LEVELS:
            spec = GroupSpec(family, level)
            table = _table(family, level)
            units = (1, level - 1) if family == "gamma1" else _reference_units(level)
            for _ in range(50):
                g = random_unimodular(rng)
                assert spec.contains(mmul(g, minv(table.reps[table.coset_of(g)])))
            for u in units:
                gamma = gamma0_with_lower_right(level, u)
                for k, rep in enumerate(table.reps):
                    assert table.coset_of(mmul(gamma, rep)) == k

    def test_action_witnesses(self):
        for family, level in WITNESS_LEVELS:
            spec = GroupSpec(family, level)
            table = _table(family, level)
            s, t = table.action["S"], table.action["T"]
            assert set(table.action) == {"S", "T"}
            for gen, move in ((MAT_S, s), (MAT_T, t), (MAT_U, [s[j] for j in t])):
                for rep, j in zip(table.reps, move):
                    assert spec.contains(mmul(rep, gen, minv(table.reps[j])))


@lru_cache(maxsize=None)
def _reference_units(n):
    return [u for u in range(1, n + 1) if gcd(u, n) == 1] if n > 1 else [1]


def _reference_coset_key(spec, c, d):
    """Reference coset label, computed per call as a minimum over units.

    For gamma0 the lexicographically least unit multiple of (c, d) mod N;
    for gamma1 the least of +-(c, d) mod N.
    """
    n = spec.level
    if spec.family == "full" or n == 1:
        return (0, 0)
    c %= n
    d %= n
    if spec.family == "gamma0":
        return min(((u * c) % n, (u * d) % n) for u in _reference_units(n))
    return min((c, d), ((-c) % n, (-d) % n))


WITNESS_LEVELS = ([("gamma0", n) for n in range(1, 61)]
                  + [("gamma1", n) for n in range(1, 21)])

TABLE_LEVELS = ([("gamma0", n) for n in list(range(1, 61)) + [100, 101, 121, 128]]
                + [("gamma1", n) for n in range(1, 31)])


@lru_cache(maxsize=None)
def _table(family, level):
    return enumerate_cosets(GroupSpec(family, level))


class TestCosetTable:
    """The P^1(Z/N) orbit table against the minimum over unit multiples."""

    @pytest.mark.parametrize("family,level", TABLE_LEVELS)
    def test_reps_are_sorted_reference_keys(self, family, level):
        spec = GroupSpec(family, level)
        keys = sorted({_reference_coset_key(spec, c, d)
                       for c in range(level) for d in range(level)
                       if gcd(gcd(c, d), level) == 1})
        reps = _table(family, level).reps
        assert [(r[2] % level, r[3] % level) for r in reps] == keys

    @pytest.mark.parametrize("family,level", TABLE_LEVELS)
    def test_coset_of_matches_reference(self, family, level):
        spec = GroupSpec(family, level)
        table = _table(family, level)
        bottom = {(r[2] % level, r[3] % level): i for i, r in enumerate(table.reps)}
        rng = random.Random(level)
        for _ in range(200):
            g = random_unimodular(rng)
            assert table.coset_of(g) == bottom[_reference_coset_key(spec, g[2], g[3])]

    @pytest.mark.parametrize("family,level", TABLE_LEVELS)
    def test_labels_exactly_the_primitive_pairs(self, family, level):
        index_of = _table(family, level).index_of
        assert len(index_of) == level * level
        for c in range(level):
            for d in range(level):
                label = index_of[c * level + d]
                if gcd(gcd(c, d), level) == 1:
                    assert label is not None
                else:
                    assert label is None

    @pytest.mark.parametrize("family,level", [("gamma0", 307), ("gamma1", 23)])
    def test_an_orbit_shares_one_label_object(self, family, level):
        """Every entry of an orbit holds the same int object, so the table
        keeps one label per coset rather than one per pair; the levels have
        more than 256 cosets, past the ints that CPython caches."""
        table = _table(family, level)
        first = {}
        for label in table.index_of:
            if label is not None:
                assert first.setdefault(label, label) is label
        assert len(first) == table.index > 256


# SHA-256 of the coset tables of WITNESS_LEVELS: reps, index_of and the
# S, T, U actions, recorded while GroupSpec still branched on its family
COSET_TABLES_DIGEST = "f93c2b4f99aaa893395daee00c885d93ea4562ec2ae180626557b134c6b28a2e"


def test_coset_tables_pinned():
    h = hashlib.sha256()
    for family, level in WITNESS_LEVELS:
        t = _table(family, level)
        s = t.action["S"]
        h.update(repr((family, level, t.reps, t.index_of,
                       [s, t.action["T"], [s[j] for j in t.action["T"]]])).encode())
    assert h.hexdigest() == COSET_TABLES_DIGEST


class TestCusps:
    @pytest.mark.parametrize("family,level", sorted(CUSP_TABLE))
    def test_count(self, family, level):
        table = enumerate_cosets(GroupSpec(family, level))
        cusps = cusp_table(table)
        assert cusps.count == CUSP_TABLE[(family, level)]
        assert sum(cusps.widths) == table.index

    def test_infinity_first(self):
        for spec in (GroupSpec("gamma0", 11), GroupSpec("gamma0", 25),
                     GroupSpec("gamma1", 5)):
            cusps = cusp_table(enumerate_cosets(spec))
            assert cusps.points[0] is None  # the cusp at infinity

    def test_gamma0_p_widths(self):
        cusps = cusp_table(enumerate_cosets(GroupSpec("gamma0", 11)))
        assert sorted(cusps.widths) == [1, 11]
        assert cusps.gcd_of_widths == 1

    @pytest.mark.parametrize("family,level", sorted(GENUS_TABLE))
    def test_genus(self, family, level):
        table = enumerate_cosets(GroupSpec(family, level))
        assert genus(table, cusp_table(table)) == GENUS_TABLE[(family, level)]


class TestWords:
    def test_roundtrip(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_unimodular(rng)
            word, sign = stword_decompose(g)
            assert word_to_matrix(word, sign) == g

    def test_identity(self):
        assert stword_decompose(MAT_ID) == ([], 1)
