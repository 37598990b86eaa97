import copy
import itertools
import pickle

import pytest

from khbraid.planar import (
    Matching,
    cap_apply,
    circles,
    codim,
    cup_insert,
    enumerate_matchings,
    format_matching,
    horseshoe,
    interpolate,
    matching,
    mixed,
    parse_matching,
    plait,
)

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}


def test_enumeration_counts():
    for n, cn in CATALAN.items():
        ms = enumerate_matchings(n)
        assert len(ms) == cn
        assert len(set(ms)) == cn


def test_enumeration_order_is_lexicographic_and_deterministic():
    ms = enumerate_matchings(3)
    assert [m.pairs for m in ms] == sorted(m.pairs for m in ms)
    assert enumerate_matchings(3) == ms


def test_named_matchings():
    assert plait(2).pairs == ((1, 2), (3, 4))
    assert mixed(2).pairs == ((1, 4), (2, 3))
    assert mixed(3).pairs == ((1, 6), (2, 3), (4, 5))
    assert horseshoe(1).pairs == ((1, 2),)
    assert horseshoe(2) == mixed(2)
    assert horseshoe(3).pairs == ((1, 6), (2, 5), (3, 4))


def test_matching_validation():
    for _attempt in range(2):  # an invalid value is never interned
        with pytest.raises(ValueError):
            Matching(2, ((1, 3), (2, 4)))  # crossing
        with pytest.raises(ValueError):
            Matching(2, ((1, 2), (2, 3)))  # repeated point
        with pytest.raises(ValueError):
            Matching(2, ((2, 1), (3, 4)))  # unsorted pair
        with pytest.raises(ValueError):
            cup_insert(4, plait(1))  # positions run 1..3; a raise is not cached
        with pytest.raises(ValueError):
            cap_apply(0, plait(2))


def test_matchings_are_interned():
    w = Matching(3, ((1, 6), (2, 3), (4, 5)))
    assert Matching(3, ((4, 5), (1, 6), (2, 3))) is w
    assert Matching(3, [(1, 6), [2, 3], (4, 5)]) is w
    assert matching((6, 1), (2, 3), (5, 4)) is w
    assert mixed(3) is w
    assert parse_matching(str(w)) is w
    for n in (1, 2, 3):
        for u in enumerate_matchings(n):
            for i in range(1, 2 * n + 2):
                assert cap_apply(i, cup_insert(i, u))[0] is u
    assert repr(w) == "Matching(n=3, pairs=((1, 6), (2, 3), (4, 5)))"
    with pytest.raises(AttributeError):
        w.n = 4
    with pytest.raises(AttributeError):
        w.other = 1
    assert copy.copy(w) is w and copy.deepcopy(w) is w
    assert pickle.loads(pickle.dumps(w)) is w
    assert pickle.loads(pickle.dumps([w, plait(2)])) == [w, plait(2)]
    assert w.partner(1) == 6 and w.partner(3) == 2
    assert w == w and w != plait(3) and len({w, mixed(3), plait(3)}) == 2


def test_circles_examples():
    p2, m2 = plait(2), mixed(2)
    assert circles(p2, p2).circles == ((1, 2), (3, 4))
    assert circles(p2, m2).c == 1
    w25 = matching((1, 4), (2, 3), (5, 6))
    assert circles(plait(3), w25).c == 2


def test_circle_count_bounds_and_diagonal():
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for u in ms:
            for v in ms:
                c = circles(u, v).c
                assert 1 <= c <= n
                assert (c == n) == (u == v)
                d = circles(u, v)
                assert sum(len(circ) for circ in d.circles) == 2 * n
                assert all(len(circ) % 2 == 0 for circ in d.circles)


def test_codim_one_means_sharing_all_but_two_arcs():
    for n in (2, 3):
        ms = enumerate_matchings(n)
        for u in ms:
            for v in ms:
                shared = len(set(u.pairs) & set(v.pairs))
                assert (codim(u, v) == 1) == (shared == n - 2)


def test_every_matching_has_an_adjacent_arc():
    for n in (1, 2, 3, 4):
        for w in enumerate_matchings(n):
            assert any(b == a + 1 for a, b in w.pairs)


def test_cup_insert_examples():
    u1 = matching((1, 2))
    assert cup_insert(1, u1) == plait(2)
    assert cup_insert(2, u1) == mixed(2)
    assert cup_insert(3, plait(2)) == plait(3)


def test_cap_apply_examples():
    u1 = matching((1, 2))
    assert cap_apply(1, plait(2)) == (u1, 1)
    assert cap_apply(2, plait(2)) == (u1, 0)
    assert cap_apply(1, mixed(2)) == (u1, 0)


def test_cap_undoes_cup():
    for n in (2, 3):
        for w in enumerate_matchings(n - 1):
            for i in range(1, 2 * n):
                assert cap_apply(i, cup_insert(i, w)) == (w, 1)


def test_interpolate_examples():
    p2, m2 = plait(2), mixed(2)
    assert interpolate(p2, p2) == [p2]
    assert interpolate(p2, m2) == [p2, m2]
    seq = interpolate(plait(3), mixed(3))
    assert len(seq) == 3
    mid = seq[1]
    assert len(set(mid.pairs) & set(plait(3).pairs)) == 1
    assert len(set(mid.pairs) & set(mixed(3).pairs)) == 1


def test_interpolate_codimension_profile():
    for n in (2, 3, 4):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, ms):
            seq = interpolate(u, v)
            k = codim(u, v)
            assert len(seq) == k + 1
            for t, w in enumerate(seq):
                assert codim(u, w) == t
                assert codim(w, v) == k - t
            for a, b in zip(seq, seq[1:]):
                assert codim(a, b) == 1


def test_matching_notation_round_trip():
    for n in (1, 2, 3):
        for w in enumerate_matchings(n):
            assert parse_matching(format_matching(w)) == w
    assert parse_matching("(1 2)(3 4)") == plait(2)
