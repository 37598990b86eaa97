import json
import random

import pytest

from khbraid.arcalg import _MULT_SCHEDULE_MAXSIZE, _mult_schedule
from khbraid.homalg import BigradedGroup, Complex
from khbraid.linkinv import (
    BraidWord,
    _complement_arc_v,
    _graded_homology,
    braid_complex,
    compute,
    verify_markov,
    verify_skein,
)
from khbraid.planar import horseshoe, matching
from khbraid.tangle import twist

UNKNOT = {(0, 1): (1, ()), (0, -1): (1, ())}
RIGHT_TREFOIL = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 9): (1, ()),
    (3, 7): (0, (2,)),
}


def groups(b, coeffs="Z"):
    return compute(BraidWord.from_ints(*b) if isinstance(b, tuple) else b, coeffs).bigraded


def test_horseshoe():
    assert horseshoe(1) == matching((1, 2))
    assert horseshoe(2) == matching((1, 4), (2, 3))
    assert horseshoe(3) == matching((1, 6), (2, 5), (3, 4))


def test_braidword_parsing_and_format():
    b = BraidWord.parse("n=2 1 1 1")
    assert b.strands == 2 and b.letters == ((1, 1), (1, 1), (1, 1))
    assert b.writhe == 3 and b.positives == 3 and b.negatives == 0
    assert BraidWord.parse("1 -2", strands=3).letters == ((1, 1), (2, -1))
    assert BraidWord.parse("n=1") == BraidWord(1)
    assert b.format() == "n=2 1 1 1"
    assert BraidWord.parse(b.format()) == b
    with pytest.raises(ValueError):
        BraidWord.parse("1 1")  # no strand count
    with pytest.raises(ValueError):
        BraidWord.parse("n=2 2")  # generator out of range
    with pytest.raises(ValueError):
        BraidWord.parse("n=2 0")
    # the header may repeat the given strand count but not contradict it
    assert BraidWord.parse("n=3 1 2", strands=3) == BraidWord.parse("1 2", strands=3)
    with pytest.raises(ValueError):
        BraidWord.parse("n=2 1", strands=3)
    with pytest.raises(ValueError):
        BraidWord.parse("n=2 n=3 1 2")


def test_unknots():
    assert groups((1, [])).entries == UNKNOT
    assert groups((2, [1])).entries == UNKNOT
    assert groups((2, [-1])).entries == UNKNOT
    assert groups((3, [1, 2])).entries == UNKNOT


def test_unlink():
    assert groups((2, [])).entries == {(0, 2): (1, ()), (0, 0): (2, ()), (0, -2): (1, ())}


def test_trefoils():
    assert groups((2, [1, 1, 1])).entries == RIGHT_TREFOIL
    mirror = groups((2, [-1, -1, -1])).entries
    assert mirror == {
        (0, -1): (1, ()),
        (0, -3): (1, ()),
        (-2, -5): (1, ()),
        (-3, -9): (1, ()),
        (-2, -7): (0, (2,)),
    }


def test_mirror_symmetry_over_q():
    rng = random.Random(12)
    for _ in range(6):
        n = rng.randint(2, 3)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 5))]
        b = BraidWord.from_ints(n, word)
        H = compute(b, "Q").bigraded
        M = compute(b.mirror(), "Q").bigraded
        assert {(-i, -j): v for (i, j), v in H.entries.items()} == M.entries


def test_collapse_identity_over_q():
    for n, word in ((2, [1, 1, 1]), (3, [1, -2, 1, -2]), (2, [1, 1])):
        res = compute(BraidWord.from_ints(n, word), "Q")
        for k, (rank, _t) in res.collapsed.items():
            assert rank == sum(
                r for (i, j), (r, _tt) in res.bigraded.entries.items() if i - j == k
            )
        assert res.shifts["collapsed_nw"] == n + res.braid.writhe


def test_unknot_collapsed_degrees_are_symmetric():
    res = compute(BraidWord(1))
    assert set(res.collapsed) == {-1, 1}


def jones(b):
    return compute(b, "Q").jones_polynomial()


def test_jones_examples():
    assert jones(BraidWord(1)) == [(-1, 1), (1, 1)]
    assert jones(BraidWord(2)) == [(-2, 1), (0, 2), (2, 1)]
    assert jones(BraidWord.from_ints(2, [1, 1, 1])) == [(1, 1), (3, 1), (5, 1), (9, -1)]


def test_jones_equals_oracle_graded_euler_characteristic():
    from khbraid.oracle import braid_to_pd, cube_homology

    rng = random.Random(31)
    words = [
        BraidWord.from_ints(2, [1, 1, 1]),
        BraidWord.from_ints(3, [1, -2, 1, -2]),
    ] + [
        BraidWord.from_ints(3, [rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(1, 5))])
        for _ in range(4)
    ]
    for b in words:
        H = cube_homology(braid_to_pd(b), "Q")
        acc: dict[int, int] = {}
        for (i, j), (r, _t) in H.entries.items():
            acc[j] = acc.get(j, 0) + (-1) ** i * r
        oracle_euler = sorted((p, c) for p, c in acc.items() if c)
        assert jones(b) == oracle_euler, b.format()


def test_determinism_of_serialized_output():
    b = BraidWord.from_ints(2, [1, 1, 1])
    a = json.dumps(compute(b).to_json(), sort_keys=True)
    bb = json.dumps(compute(b).to_json(), sort_keys=True)
    assert a == bb


def test_reduced_and_unreduced_paths_agree():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randint(2, 3)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 4))]
        b = BraidWord.from_ints(n, word)
        unreduced = Complex.single(horseshoe(n))
        for i, s in b.letters:
            unreduced = twist(i, s, unreduced)
        assert compute(b).bigraded == _graded_homology(b, unreduced, "Z")


def test_markov_trefoil_and_unknot():
    assert verify_markov(BraidWord.from_ints(2, [1, 1, 1]))["ok"]
    assert verify_markov(BraidWord(1))["ok"]
    a = groups((2, [1, 1, 1]))
    assert a == groups((3, [1, 1, 1, 2])) == groups((3, [1, 1, 1, -2]))
    # unknot as empty word in Br_1 vs sigma_1^{+-1} in Br_2
    assert groups((1, [])) == groups((2, [1])) == groups((2, [-1]))


def test_markov_conjugation():
    b = BraidWord.from_ints(3, [1, -2, 1])
    assert groups(b) == groups(b.conjugate(1)) == groups(b.conjugate(2))


def test_complement_arc_v_single_crossing():
    assert _complement_arc_v(BraidWord.from_ints(2, [1]), 0) == 0
    assert _complement_arc_v(BraidWord.from_ints(2, [1, 1]), 0) == 1
    assert _complement_arc_v(BraidWord.from_ints(2, [1, 1, 1]), 1) == 2


def test_skein_unknot_and_trefoil():
    rep = verify_skein(BraidWord.from_ints(2, [1]), 0)
    assert rep["ok"] and rep["v"] == 0
    for c in range(3):
        rep = verify_skein(BraidWord.from_ints(2, [1, 1, 1]), c)
        assert rep["ok"], rep
    rep = verify_skein(BraidWord.from_ints(2, [-1, -1, -1]), 0)
    assert rep["ok"], rep


def test_braid_complex_is_valid():
    C = braid_complex(BraidWord.from_ints(2, [1, -1, 1]))
    C.validate()


def test_oracle_agreement_up_to_four_strands():
    from khbraid.oracle import braid_to_pd, cube_homology

    rng = random.Random(777)
    for _ in range(12):
        n = rng.randint(2, 4)
        L = rng.randint(1, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(L)]
        b = BraidWord.from_ints(n, word)
        assert compute(b, "Z").bigraded == cube_homology(braid_to_pd(b), "Z"), word


def test_torus_knot_tables():
    # published integral Khovanov homology of T(2,5) and T(3,4)
    H = groups((2, [1, 1, 1, 1, 1]))
    assert H.entries == {
        (0, 3): (1, ()), (0, 5): (1, ()), (2, 7): (1, ()), (3, 9): (0, (2,)),
        (3, 11): (1, ()), (4, 11): (1, ()), (5, 13): (0, (2,)), (5, 15): (1, ()),
    }
    H = groups((3, [1, 2, 1, 2, 1, 2, 1, 2]))
    assert H.entries == {
        (0, 5): (1, ()), (0, 7): (1, ()), (2, 9): (1, ()), (3, 11): (0, (2,)),
        (3, 13): (1, ()), (4, 11): (1, ()), (4, 13): (1, ()), (5, 15): (1, ()),
        (5, 17): (1, ()),
    }


def test_result_json_schema():
    res = compute(BraidWord.from_ints(2, [1]))
    rec = res.to_json()
    assert set(rec) == {"link", "n", "w", "coefficients", "shifts", "groups", "collapsed", "jones"}
    assert rec["n"] == 2 and rec["w"] == 1
    assert BigradedGroup.from_json(rec["groups"]) == res.bigraded
    assert rec["jones"] == [[-1, 1], [1, 1]]


@pytest.mark.slow
def test_seven_strand_word_through_an_evicting_schedule_cache():
    # the U7 unknot word followed by s1^2 closes to the right trefoil; on 7
    # strands its run asks for more schedule triples than the cache holds
    _mult_schedule.cache_clear()
    b = BraidWord.parse("n=7 1 2 3 4 5 6 -1 -2 -3 -4 -5 -6 1 1")
    assert compute(b, "Z").bigraded.entries == RIGHT_TREFOIL
    assert _mult_schedule.cache_info().misses > _MULT_SCHEDULE_MAXSIZE
