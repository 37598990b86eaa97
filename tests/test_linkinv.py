import json
import random
import time
from functools import lru_cache
from itertools import product
from math import comb

import pytest

from khbraid.arcalg import _MULT_SCHEDULE_MAXSIZE, _mult_schedule
from khbraid.homalg import BigradedGroup, Complex, eliminate, homology
from khbraid.linkinv import (
    BraidWord,
    _cap_plan,
    _cheapest_conjugate,
    _complement_arc_v,
    _infinity_homology,
    _offsets,
    _reduced,
    _scan_norm,
    _scanned_homology,
    _simplified,
    _twisted,
    braid_complex,
    compute,
    idempotent_truncate,
    verify_markov,
    verify_skein,
)
from khbraid.planar import enumerate_matchings, horseshoe, matching
from khbraid.tangle import cupcap_functor, twist

UNKNOT = {(0, 1): (1, ()), (0, -1): (1, ())}
RIGHT_TREFOIL = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 9): (1, ()),
    (3, 7): (0, (2,)),
}


def mirror(b):
    """The mirror word: every letter's sign flipped."""
    return BraidWord(b.strands, tuple((i, -s) for i, s in b.letters))


def positives(b):
    return sum(1 for _i, s in b.letters if s == 1)


def resolved(b, c):
    """b's letters with letter c resolved: its sign set to 0."""
    return b.letters[:c] + ((b.letters[c][0], 0),) + b.letters[c + 1 :]


def groups(b, coeffs="Z"):
    return compute(BraidWord.from_ints(*b) if isinstance(b, tuple) else b, coeffs).bigraded


def as_given(b, coeffs="Z"):
    """The groups of b's closure by the scan of exactly b's letters: unlike
    `compute`, no cancelling pair or lone end letter is dropped first."""
    b = BraidWord.from_ints(*b) if isinstance(b, tuple) else b
    return _scanned_homology(b.strands, b.letters, coeffs)


def closed_groups(b, C):
    """Khovanov homology over Z of the closure of b from its complex C,
    closed along the horseshoe of C's level: H_n when C is b's word
    twisted in H_n with no caps, H_1 when it is scanned; graded by the
    frozen rule, i = h + (positive letters) and j = j_raw + writhe."""
    level = next(iter(C.terms.values()))[0].matching.n
    raw = homology(idempotent_truncate(horseshoe(level), C), "Z")
    return raw.shifted(positives(b), b.writhe)


def unscanned_groups(b):
    """The reference that scanning replaced: b's whole word in H_n, closed
    along horseshoe(n)."""
    return closed_groups(b, braid_complex(b.strands, b.letters, None))


def test_horseshoe():
    assert horseshoe(1) == matching((1, 2))
    assert horseshoe(2) == matching((1, 4), (2, 3))
    assert horseshoe(3) == matching((1, 6), (2, 5), (3, 4))


def test_braidword_parsing_and_format():
    b = BraidWord.parse("n=2 1 1 1")
    assert b.strands == 2 and b.letters == ((1, 1), (1, 1), (1, 1))
    assert b.writhe == 3 and _offsets(b.letters) == (3, 3)
    assert _offsets(((1, 1), (2, 0), (1, -1), (2, -1))) == (1, -1)  # sign 0 counts in neither
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
    with pytest.raises(ValueError):
        BraidWord(2, ((1, 0),))  # a resolved crossing is no braid letter
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
    # compute drops those letters; scanned as given, they still give the unknot
    for b in ((2, [1]), (2, [-1]), (3, [1, 2])):
        assert as_given(b).entries == UNKNOT, b


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
        M = compute(mirror(b), "Q").bigraded
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
        assert compute(b).bigraded == closed_groups(b, unreduced)


def test_markov_trefoil_and_unknot():
    assert verify_markov(BraidWord.from_ints(2, [1, 1, 1]))["ok"]
    assert verify_markov(BraidWord(1))["ok"]
    a = groups((2, [1, 1, 1]))
    assert a == groups((3, [1, 1, 1, 2])) == groups((3, [1, 1, 1, -2]))
    # unknot as empty word in Br_1 vs sigma_1^{+-1} in Br_2
    assert groups((1, [])) == groups((2, [1])) == groups((2, [-1]))
    # compute destabilises the larger words first; scanned as given, the
    # stabilising letter and its offsets are in the run
    assert a == as_given((3, [1, 1, 1, 2])) == as_given((3, [1, 1, 1, -2]))
    assert groups((1, [])) == as_given((2, [1])) == as_given((2, [-1]))


def test_markov_conjugation():
    b = BraidWord.from_ints(3, [1, -2, 1])
    assert groups(b) == groups(b.conjugate(1)) == groups(b.conjugate(2))
    assert groups(b) == as_given(b.conjugate(1)) == as_given(b.conjugate(2))


def simplified(n, word):
    """_simplified's word as (strands, letters as signed ints)."""
    n, letters = _simplified(n, BraidWord.from_ints(n, word).letters)
    return n, [i * e for i, e in letters]


def rotations(word):
    return [word[r:] + word[:r] for r in range(len(word))] or [word]


def test_simplified_cancels_a_pair_across_commuting_letters_only():
    # sigma_3 commutes with sigma_1, so 1 3 -1 cancels to 3; the ends are
    # each crossed twice or more, so no strand goes (the sigma_1s and
    # sigma_3s may come back in another order: they commute)
    n, word = simplified(4, [1, 1, 3, 3, 1, 3, -1])
    assert n == 4 and sorted(word) == [1, 1, 3, 3, 3]
    # sigma_2 does not commute with sigma_1: 1 2 -1 stays
    n, word = simplified(4, [1, 1, 3, 3, 1, 2, -1, 2])
    assert n == 4 and word in rotations([1, 1, 3, 3, 1, 2, -1, 2])


def test_simplified_cancels_across_the_seam():
    # the last letter's next letter, read cyclically, is the first
    n, word = simplified(4, [-1, 3, 3, 2, 2, 3, 1])
    assert n == 4 and word in rotations([3, 3, 2, 2, 3])


def test_simplified_destabilises_lone_end_letters():
    assert simplified(3, [1, 1, 1, 2]) == (2, [1, 1, 1])  # top
    assert simplified(3, [2, 2, -1, 2]) == (2, [1, 1, 1])  # bottom, renumbered
    # again and again: sigma_4, then sigma_3, then sigma_1 is alone
    assert simplified(5, [2, 2, 2, 3, 4, 1]) == (2, [1, 1, 1])
    # a dropped end letter frees a pair: 1 2 -1 3 goes to 1 -1, then to nothing
    assert simplified(4, [1, 2, -1, 3]) == (2, [])
    # strands no letter touches stay, and a lone end letter of the rest goes
    assert simplified(6, [2, 2, 3, 3, 4]) == (5, [2, 2, 3, 3])


def test_simplified_reaches_the_empty_word_on_k_strands():
    assert simplified(5, [1, 3, -1, -3, 2, -2, 4, 4, -4, -4]) == (5, [])
    assert simplified(2, [1, -1]) == (2, [])
    assert simplified(1, []) == (1, [])


def simplified_resolved(n, word, c):
    """_simplified's word for the word with letter c resolved (sign 0)."""
    n, letters = _simplified(n, resolved(BraidWord.from_ints(n, word), c))
    return n, list(letters)


def test_simplified_keeps_the_resolved_letter():
    # 1 1 -1 -1 cancels away; with letter 1 resolved, it stays, never
    # cancels with letter 2 and blocks letter 0 as a sigma_1 would; letter 3
    # still meets letter 0 across the seam
    assert simplified(2, [1, 1, -1, -1]) == (2, [])
    n, word = simplified_resolved(2, [1, 1, -1, -1], 1)
    assert n == 2 and word in rotations([(1, 0), (1, -1)])
    # a lone end letter that is resolved is never destabilised
    n, word = simplified_resolved(3, [1, 1, 1, 2], 3)
    assert n == 3 and word in rotations([(1, 1), (1, 1), (1, 1), (2, 0)])
    # letter 9 is resolved; it stays through cancellation, a lone sigma_4,
    # the seam and a lone sigma_2 with the renumbering, and it blocks the
    # last pair; with every letter a twist, the word goes to nothing
    word = [4, 2, -1, 1, 2, 3, 3, -3, 2, -3, -2, -2]
    assert simplified(5, word) == (3, [])
    n, word = simplified_resolved(5, word, 9)
    assert n == 3 and word in rotations([(2, 1), (2, 0)])


def test_simplified_keeps_the_closure():
    # pairs planted across commuting letters, conjugations and
    # stabilisations; compute (which simplifies) equals the scan of the
    # word as given, with and without a resolved letter, and the scanned
    # word is never longer and never has more strands
    rng = random.Random(24)
    shorter = fewer = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 3)):
            move = rng.randrange(3)
            if move == 0:  # sigma_i^e, letters 2 or more away, sigma_i^-e
                i, e, p = rng.randint(1, n - 1), rng.choice((1, -1)), rng.randint(0, len(word))
                far = [j for j in range(1, n) if abs(j - i) >= 2]
                between = [rng.choice((1, -1)) * rng.choice(far) for _ in range(rng.randint(0, 2))] if far else []
                word = word[:p] + [e * i] + between + [-e * i] + word[p:]
            elif move == 1:  # conjugation
                g = rng.choice((1, -1)) * rng.randint(1, n - 1)
                word = [g] + word + [-g]
            elif n < 7:  # stabilisation at the top or the bottom
                e = rng.choice((1, -1))
                if rng.random() < 0.5:
                    word, n = word + [e * n], n + 1
                else:
                    word, n = [e] + [x + (1 if x > 0 else -1) for x in word], n + 1
        b = BraidWord.from_ints(n, word)
        k, s = _simplified(b.strands, b.letters)
        assert len(s) <= len(b) and k <= b.strands
        shorter += len(s) < len(b)
        fewer += k < b.strands
        assert groups(b) == as_given(b), word
        c = rng.randrange(len(b))
        r = resolved(b, c)
        k, s = _simplified(n, r)
        assert [e for _i, e in s].count(0) == 1
        assert _scanned_homology(k, s, "Z") == _scanned_homology(n, r, "Z"), (word, c)
    assert shorter and fewer


def test_resolution_does_not_depend_on_the_resolved_crossings_sign():
    # cup_i cap_i replaces letter c whatever its sign: v, found by walking
    # the arc, depends on the other letters' signs alone
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randint(2, 5)
        b = BraidWord.from_ints(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))])
        for c, (i, s) in enumerate(b.letters):
            flipped = BraidWord(n, b.letters[:c] + ((i, -s),) + b.letters[c + 1 :])
            assert _infinity_homology(flipped, c, "Z") == _infinity_homology(b, c, "Z"), (b.format(), c)


def test_simplified_runs_a_long_word_fast():
    rng = random.Random(2000)
    word = [rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(1500)]
    for _ in range(250):  # planted pairs, some across commuting letters
        i, p = rng.randint(1, 7), rng.randint(0, len(word))
        word[p:p] = [i, 5 if i < 3 else 1, -i] if rng.random() < 0.5 else [i, -i]
    b = BraidWord.from_ints(8, word[:2000])
    t0 = time.perf_counter()
    _n, s = _simplified(b.strands, b.letters)
    assert time.perf_counter() - t0 < 1.0
    assert len(s) < len(b)


def plant_handle(rng, n, word):
    """word with a handle sigma_i^e w sigma_i^-e put in at random: w mixes
    sigma_j letters, for one j = i +- 1, with letters 2 or more away from i."""
    i, e = rng.randint(1, n - 1), rng.choice((1, -1))
    j = rng.choice([g for g in (i - 1, i + 1) if 1 <= g < n])
    far = [g for g in range(1, n) if abs(g - i) >= 2]
    w = [rng.choice((1, -1)) * j] + [rng.choice((1, -1)) * rng.choice([j] + far) for _ in range(rng.randint(0, 2))]
    rng.shuffle(w)
    p = rng.randint(0, len(word))
    return word[:p] + [e * i] + w + [-e * i] + word[p:]


def test_handle_moves_keep_the_closure():
    # compute's word, after handle moves, scans to the groups of the word as
    # given, with and without a resolved letter; the resolved letter stays,
    # some words are shorter than cancellation and destabilisation alone
    # make them, and _simplified's word is its own simplification
    rng = random.Random(30)
    by_handles = 0
    for _ in range(40):
        n = rng.randint(3, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(1, 2)):
            word = plant_handle(rng, n, word)
        b = BraidWord.from_ints(n, word)
        for letters in (b.letters, resolved(b, rng.randrange(len(b)))):
            k, s = _simplified(n, letters)
            m, r = _reduced(n, letters)
            assert (len(s), k) <= (len(r), m)
            by_handles += (len(s), k) < (len(r), m)
            assert [e for _i, e in s].count(0) == [e for _i, e in letters].count(0)
            assert _simplified(k, s) == (k, s)
            assert _scanned_homology(k, s, "Z") == _scanned_homology(n, letters, "Z"), (word, letters)
    assert by_handles


def test_a_resolved_letter_blocks_every_handle_it_is_in():
    # handle moves, the first on sigma_1 sigma_2 sigma_1^-1 (letters 0-2),
    # take the word to sigma_2^-2, which cancellation alone cannot; with
    # letter 1, inside that handle, resolved, no move is kept, and with any
    # other letter resolved, some handle is still there to take
    b = BraidWord.from_ints(3, [1, 2, -1, -2, -1, -2])
    assert _reduced(3, b.letters) == (3, b.letters)
    assert simplified(3, [1, 2, -1, -2, -1, -2]) == (3, [-2, -2])
    r = resolved(b, 1)
    assert _simplified(3, r) == _reduced(3, r) == (3, r)
    for c in (0, 2, 3, 4, 5):
        assert len(_simplified(3, resolved(b, c))[1]) < len(b), c


def test_alternating_words_keep_their_letters():
    # sigma_1 only positive and sigma_2 only negative: no handle, and a
    # reduced alternating diagram has the fewest crossings (Kauffman,
    # Murasugi, Thistlethwaite), so only a lone end letter may go
    for k in range(2, 11):
        for word in product((1, -2), repeat=k):
            letters = BraidWord.from_ints(3, list(word)).letters
            n, s = _simplified(3, letters)
            assert (n, s) == _reduced(3, letters)
            if word.count(1) != 1 and word.count(-2) != 1:
                assert (n, len(s)) == (3, k), word


def test_simplified_takes_handle_moves_on_a_long_word_fast():
    rng = random.Random(2001)
    word = [rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(1500)]
    for _ in range(150):
        word = plant_handle(rng, 8, word)
    b = BraidWord.from_ints(8, word[:2000])
    t0 = time.perf_counter()
    _n, s = _simplified(b.strands, b.letters)
    assert time.perf_counter() - t0 < 1.0
    assert len(s) < len(_reduced(b.strands, b.letters)[1]) < len(b)


def test_complement_arc_v_single_crossing():
    assert _complement_arc_v(BraidWord.from_ints(2, [1]), 0) == 0
    assert _complement_arc_v(BraidWord.from_ints(2, [1, 1]), 0) == 1
    assert _complement_arc_v(BraidWord.from_ints(2, [1, 1, 1]), 1) == 2


def test_skein_unknot_and_trefoil():
    rep = verify_skein(BraidWord.from_ints(2, [1]), 0)["crossings"][0]
    assert rep["ok"] and rep["v"] == 0
    for c in range(3):
        rep = verify_skein(BraidWord.from_ints(2, [1, 1, 1]), c)["crossings"][0]
        assert rep["ok"], rep
    rep = verify_skein(BraidWord.from_ints(2, [-1, -1, -1]), 0)["crossings"][0]
    assert rep["ok"], rep


def test_skein_suite_scans_x_once_and_covers_every_crossing(monkeypatch):
    # the whole-word suite equals the single-crossing calls, crossing by
    # crossing, with one compute for X and one per crossing for Y
    from khbraid import linkinv

    real, calls = linkinv.compute, []
    monkeypatch.setattr(linkinv, "compute", lambda *a, **k: calls.append(a) or real(*a, **k))
    rng = random.Random(31)
    for _ in range(6):
        n = rng.randint(2, 5)
        b = BraidWord.from_ints(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 6))])
        m = len(b)
        calls.clear()
        rep = verify_skein(b)
        assert len(calls) == m + 1, (b.format(), len(calls))
        assert [r["crossing"] for r in rep["crossings"]] == list(range(m)), b.format()
        assert rep["crossings"] == [verify_skein(b, c)["crossings"][0] for c in range(m)], b.format()
        assert rep["ok"] and rep["word"] == b.format(), b.format()
        for bad in (m, -1):
            with pytest.raises(ValueError):
                verify_skein(b, bad)
    with pytest.raises(ValueError):
        verify_skein(BraidWord(3))


def test_skein_failure_reports_integer_euler_defects(monkeypatch):
    # a Z shifted by (0, 2) breaks the triangle; each j's sequence then
    # alternates to a nonzero integer defect, negative i included
    from khbraid import linkinv

    real = linkinv._infinity_homology

    def shifted(b, c, coefficients):
        Z, v = real(b, c, coefficients)
        return Z.shifted(0, 2), v

    monkeypatch.setattr(linkinv, "_infinity_homology", shifted)
    rep = verify_skein(BraidWord.parse("n=2 -1 -1 -1"), 0, "Q")["crossings"][0]
    assert not rep["ok"] and rep["rank_failures"]
    assert rep["euler_failures"] == [{"j": -9, "defect": -1}, {"j": -5, "defect": 1}]
    assert all(type(f["defect"]) is int for f in rep["euler_failures"])


def test_braid_complex_is_valid():
    b = BraidWord.from_ints(2, [1, -1, 1])
    for caps in (None, _cap_plan(2, b.letters)):
        braid_complex(b.strands, b.letters, caps).validate()


def test_suites_cap_a_shared_prefix_of_caps_once(monkeypatch):
    # closing one complex at every matching, as the braid-relation and
    # twist-inverse suites do, caps once per shared prefix of caps: fewer
    # caps than one closure per matching from n = 3 on, and each matching's
    # groups equal those of closing it alone
    from khbraid import linkinv

    rng = random.Random(23)
    real, calls = linkinv.cap_functor, []
    monkeypatch.setattr(linkinv, "cap_functor", lambda p, C: calls.append(p) or real(p, C))
    for n in (2, 3, 4):
        ms = enumerate_matchings(n)
        for _ in range(2):
            P = Complex.single(rng.choice(ms))
            letters = [(rng.randint(1, 2 * n - 1), rng.choice((1, -1))) for _ in range(3)]
            calls.clear()
            shared = linkinv._all_truncated_homologies(n, P, letters)
            assert len(calls) < n * len(ms) or n == 2
            C = _twisted(letters, P)
            assert shared == {a: homology(idempotent_truncate(a, C), "Z") for a in ms}


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


def torus(p, q):
    """T(p, q) = (sigma_1 ... sigma_{p-1})^q on p strands, a positive word."""
    return BraidWord.from_ints(p, list(range(1, p)) * q)


def test_torus_knots_on_swapped_strand_counts():
    # T(p, q) and T(q, p) are one knot, scanned on p and on q strands: the
    # cup∘cap's two images and the Frobenius flip of their source labels
    # run on 3-5 strands.  A positive braid knot has Kh^{i,*} = 0 for i < 0
    # (a positive diagram), Kh^{1,*} = 0 (Stosic, arXiv:math/0511529), and
    # Kh^{0,*} = Z at j = s +- 1 with s = w - n + 1 (Rasmussen, s = 2g)
    for p, q in ((3, 4), (3, 5), (4, 5)):
        pair = [torus(p, q), torus(q, p)]
        assert [_simplified(b.strands, b.letters)[0] for b in pair] == [p, q]
        H, H_swapped = (groups(b) for b in pair)
        assert H == H_swapped, (p, q)
        for b in pair:
            s = b.writhe - b.strands + 1
            assert not [k for k in H.entries if k[0] < 0 or k[0] == 1], b.format()
            assert {j: v for (i, j), v in H.entries.items() if i == 0} == {s - 1: (1, ()), s + 1: (1, ())}


def dual(H):
    """Kh over Z of the mirror, from Kh: the free parts move to (-i, -j)
    and the torsion to (1 - i, -j) (universal coefficients)."""
    free = BigradedGroup({(-i, -j): (r, ()) for (i, j), (r, _t) in H.entries.items()})
    return free + BigradedGroup({(1 - i, -j): (0, t) for (i, j), (_r, t) in H.entries.items()})


def test_mirror_is_the_dual_over_z():
    # the torus words scan units only and their mirrors counits only, on 3-4
    # strands; the alternating A_k = (sigma_1 sigma_2^-1)^k scan both
    words = [torus(3, 4), torus(3, 5), torus(4, 5)]
    words += [BraidWord.from_ints(3, [1, -2] * k) for k in (3, 4, 5)]
    torsion = 0
    for b in words:
        H = groups(b)
        assert groups(mirror(b)) == dual(H), b.format()
        torsion += sum(len(t) for _r, t in H.entries.values())
    assert torsion == 97  # torsion factors of the six words, so both moves are checked


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
    # strands its run as given, unscanned, asks for more schedule triples
    # than the cache holds (`compute` scans a conjugate, which asks for a few
    # thousand only)
    b = BraidWord.parse("n=7 1 2 3 4 5 6 -1 -2 -3 -4 -5 -6 1 1")
    assert compute(b, "Z").bigraded.entries == RIGHT_TREFOIL
    _mult_schedule.cache_clear()
    assert unscanned_groups(b).entries == RIGHT_TREFOIL
    assert _mult_schedule.cache_info().misses > _MULT_SCHEDULE_MAXSIZE


# ---------------------------------------------------------------------------
# scanning, conjugates and referees that scale


def conjugates(b):
    """The 2L conjugates that `compute` chooses from: each cyclic rotation,
    with and without sigma_i -> sigma_{n-i}."""
    for word in (b.letters, tuple((b.strands - i, s) for i, s in b.letters)):
        for r in range(len(word) or 1):
            yield BraidWord(b.strands, word[r:] + word[:r])


def test_every_conjugate_scans_to_the_same_groups():
    # each conjugate caps at other levels and in another order than the word
    # as given, which runs unscanned in H_n
    rng = random.Random(19)
    for n in (3, 4, 5, 6) * 2:
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(6, 9))]
        b = BraidWord.from_ints(n, word)
        want = unscanned_groups(b)
        assert compute(b).bigraded == want
        for v in conjugates(b):
            assert closed_groups(v, braid_complex(n, v.letters, _cap_plan(n, v.letters))) == want, (word, v)


def k0_norm(C):
    """The L1 norm of C's class sum_h (-1)^h [P_a]{q^shift} in K_0."""
    cls = {}
    for h, summands in C.terms.items():
        for p in summands:
            cls[(p.matching, p.qshift)] = cls.get((p.matching, p.qshift), 0) + (-1 if h % 2 else 1)
    return sum(map(abs, cls.values()))


def test_scan_norm_is_the_k0_norm_of_the_scanned_complexes():
    # every word of 1-4 letters on 3 strands and 1-3 on 4, signs in
    # {-1, 0, +1} with at most one 0: the norm that prices a conjugate sums,
    # over letters, the K_0 norm of the complex the scan holds after that
    # letter and its caps; a resolved letter adds E_i X with no identity term
    words = 0
    for k, most in ((3, 4), (4, 3)):
        for length in range(1, most + 1):
            for idx in product(range(1, k), repeat=length):
                for signs in product((-1, 0, 1), repeat=length):
                    if signs.count(0) > 1:
                        continue
                    letters, words = tuple(zip(idx, signs)), words + 1
                    caps = _cap_plan(k, letters)
                    C, total = Complex.single(horseshoe(k)), 0
                    for t, x in enumerate(letters):
                        C = _twisted([x], C, [caps[t]])
                        total += k0_norm(C)
                    assert _scan_norm(k, letters, caps, float("inf")) == total, (k, letters)
    assert words == 1587


def times_v(H, copies):
    """H tensor V^copies: every group moves to j + copies - 2x, C(copies, x)
    times."""
    out = {}
    for (i, j), (r, t) in H.entries.items():
        for x in range(copies + 1):
            r0, t0 = out.get((i, j + copies - 2 * x), (0, ()))
            out[(i, j + copies - 2 * x)] = (r0 + comb(copies, x) * r, t0 + t * comb(copies, x))
    return BigradedGroup(out)


def test_wide_braids():
    # U12 and U16 close to the unknot, and a word on the first three of k
    # strands closes to its three-strand link plus k - 3 unknots
    unknot = BigradedGroup(UNKNOT)
    assert times_v(unknot, 1).entries == {(0, 2): (1, ()), (0, 0): (2, ()), (0, -2): (1, ())}
    for k in (12, 16):
        assert groups((k, list(range(1, k)))).entries == UNKNOT
        # compute destabilises U_k down to one strand; as given, it scans wide
        assert as_given((k, list(range(1, k)))).entries == UNKNOT
    small = groups((3, [1, -2, 1]))
    for k in (6, 16):
        assert groups((k, [1, -2, 1])) == times_v(small, k - 3)
    assert groups((5, [])) == times_v(unknot, 4)
    # strands 4-14 lie inside the letters' range but no letter touches them
    assert groups((16, [1, -2, 1, 15])) == times_v(groups((5, [1, -2, 1, 4])), 11)
    assert as_given((16, [1, -2, 1, 15])) == times_v(as_given((5, [1, -2, 1, 4])), 11)
    # the skein triangle's three links all scan
    assert verify_skein(BraidWord.from_ints(12, list(range(1, 12))), 5)["crossings"][0]["ok"]


def unscanned_resolution(b, c):
    """The groups over Z of b's closure with letter c resolved, by the build
    that scanning replaced: the letters before c twist in H_n, cup_i cap_i
    resolves c at shift 0, the rest twist, and the closure is along
    horseshoe(n); graded by the letters other than c."""
    C = _twisted(b.letters[:c], Complex.single(horseshoe(b.strands)))
    C = _twisted(b.letters[c + 1 :], eliminate(cupcap_functor(b.letters[c][0], C, 0)))
    return closed_groups(b.without_letter(c), C)


def test_scanned_resolution_equals_the_unscanned_one_beyond_the_cube():
    # 8-12 crossings on 5-8 strands, at every crossing; the chosen conjugate
    # is the flip sigma_i -> sigma_{k-i} on some words, and its rotation
    # moves the resolved crossing on some
    rng = random.Random(21)
    flipped = moved = False
    for n in (5, 6, 7, 8):
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(8, 12))]
        b = BraidWord.from_ints(n, word)
        for c in range(len(b)):
            r = resolved(b, c)
            assert _scanned_homology(n, r, "Z") == unscanned_resolution(b, c), (word, c)
            k, v, _caps = _cheapest_conjugate(r)
            signs = [e for _i, e in v]
            assert signs.count(0) == 1
            flipped |= k == n and tuple(v) not in {r[t:] + r[:t] for t in range(len(r))}
            moved |= signs.index(0) != c
    assert flipped and moved


def _tl_jones(b):
    """The Jones polynomial of b's closure, as {power of q: coefficient},
    from the Temperley-Lieb class of the horseshoe, with matchings as
    frozensets of pairs.

    A letter at i with sign s maps X to s(q^s E_i X - X); E_i a is
    (q + 1/q) a when a holds (i, i+1), else a with the arcs through i and
    i+1 joined and (i, i+1) added.  A matching a with polynomial p pairs
    with the horseshoe to p (q + 1/q)^c, c the circles of the two.  The
    frozen offsets, written out here, then give Khovanov's bigrading: i is
    h plus the positive letters and j is the raw degree plus the writhe."""
    n = b.strands

    def partner(a, p):
        return next(y if x == p else x for x, y in a if p in (x, y))

    def cupcap(i, a):
        if (i, i + 1) in a:
            return a, True
        p, q = partner(a, i), partner(a, i + 1)
        rest = [arc for arc in a if i not in arc and i + 1 not in arc]
        return frozenset(rest + [tuple(sorted((p, q))), (i, i + 1)]), False

    hs = frozenset((k, 2 * n + 1 - k) for k in range(1, n + 1))
    state = {hs: {0: 1}}
    for i, s in b.letters:
        out = {}
        for a, poly in state.items():
            acc = out.setdefault(a, {})
            for e, v in poly.items():
                acc[e] = acc.get(e, 0) - s * v
            a2, closed = cupcap(i, a)
            acc = out.setdefault(a2, {})
            for d in (s + 1, s - 1) if closed else (s,):
                for e, v in poly.items():
                    acc[e + d] = acc.get(e + d, 0) + s * v
        state = out
    chi = {}
    for a, poly in state.items():
        seen, c = set(), 0
        for start in range(1, 2 * n + 1):
            if start not in seen:
                c += 1
                p, use_a = start, True
                while p not in seen:
                    seen.add(p)
                    p, use_a = partner(a if use_a else hs, p), not use_a
        for e, v in poly.items():
            for x in range(c + 1):  # (q + 1/q)^c
                chi[e + c - 2 * x] = chi.get(e + c - 2 * x, 0) + comb(c, x) * v
    sign = (-1) ** positives(b)
    return {e + b.writhe: sign * v for e, v in chi.items() if v}


@lru_cache(maxsize=None)
def _long_words():
    """Seeded words of 14-18 letters on 3-8 strands, two per strand count,
    with their groups over Z, F2 and F3."""
    rng = random.Random(2026)
    words = []
    for n in (3, 4, 5, 6, 7, 8) * 2:
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(14, 18))]
        b = BraidWord.from_ints(n, word)
        words.append((b, {c: compute(b, c).bigraded for c in ("Z", "F2", "F3")}))
    return words


def test_euler_characteristic_is_the_jones_polynomial():
    for b, H in _long_words():
        chi = {}
        for (i, j), (r, _t) in H["Z"].entries.items():
            chi[j] = chi.get(j, 0) + (-1) ** i * r
        assert {j: v for j, v in chi.items() if v} == _tl_jones(b), b.format()


def test_universal_coefficients():
    # cochain complexes of free groups: H^i(C; F_p) = H^i(C) (x) F_p (+)
    # Tor(H^{i+1}(C), F_p), and `homology` puts the torsion of d_h's
    # cokernel in degree h + 1; so the F_p rank at (i, j) counts the
    # p-power torsion at (i, j) and at (i + 1, j)
    torsion = 0
    for b, H in _long_words():
        for p in (2, 3):
            Fp = H[f"F{p}"]
            keys = set(Fp.entries) | {(i - d, j) for i, j in H["Z"].entries for d in (0, 1)}
            for i, j in keys:
                tors = sum(1 for q in H["Z"].torsion(i, j) + H["Z"].torsion(i + 1, j) if q % p == 0)
                assert Fp.rank(i, j) == H["Z"].rank(i, j) + tors, (b.format(), p, i, j)
                torsion += tors
    assert torsion
