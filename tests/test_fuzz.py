"""Seeded differential fuzzing of the arc pipeline.

hypothesis draws braid words on 2-4 strands of 1-7 letters, and for the
skein resolution words on 2-5 strands that may skip generators.
derandomize fixes the examples, so every run checks the same words, and no
example database is written.  Besides the cube oracle, the referees are the
link invariance of the homology: mirror, conjugation and Markov
stabilisation.  `compute` drops cancelling pairs and lone end letters
before it scans, so the cube and those two referees also check the scan of
the word as given, with every letter and its offsets.
"""

from hypothesis import example, given, settings, strategies as st

from khbraid.homalg import BigradedGroup, homology
from khbraid.linkinv import BraidWord, _infinity_homology, compute
from khbraid.oracle import braid_to_pd, cube_complex, cube_homology
from test_linkinv import as_given
from test_oracle import braid_to_pd_resolved

seeded = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@st.composite
def braid_words(draw) -> BraidWord:
    n = draw(st.integers(2, 4))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, min_size=1, max_size=7))))


@st.composite
def sparse_braid_words(draw) -> BraidWord:
    """Words on 2-5 strands of 1-6 letters from a drawn set of generators,
    so that strands inside the letters' range can stay untouched."""
    n = draw(st.integers(2, 5))
    used = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1).filter(any))
    letter = st.tuples(st.sampled_from([i for i, u in enumerate(used, 1) if u]), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, min_size=1, max_size=6))))


@seeded
@given(braid_words())
@example(BraidWord(3, ((1, 1), (2, 1), (1, -1), (2, -1))))  # sigma_2 keeps sigma_1 from its inverse
def test_arc_equals_oracle_over_z_and_f2(b):
    # compute scans about a third of the letters of such words, and none of
    # more than half of them; the scan of the word as given sees every one
    cube = cube_complex(braid_to_pd(b))
    for coeffs in ("Z", "F2"):
        H = homology(cube, coeffs)
        assert compute(b, coeffs).bigraded == H, (b.format(), coeffs)
        assert as_given(b, coeffs) == H, (b.format(), coeffs)


@seeded
@given(braid_words())
def test_mirror_negates_both_degrees_over_q(b):
    H = compute(b, "Q").bigraded
    flipped = BigradedGroup({(-i, -j): v for (i, j), v in H.entries.items()})
    assert compute(b.mirror(), "Q").bigraded == flipped, b.format()


@seeded
@given(braid_words(), st.data())
def test_conjugation_invariance_over_q(b, data):
    k = data.draw(st.integers(1, b.strands - 1))
    s = data.draw(st.sampled_from((1, -1)))
    conjugate = BraidWord(b.strands, ((k, s), *b.letters, (k, -s)))
    assert compute(conjugate, "Q").bigraded == compute(b, "Q").bigraded, (b.format(), k, s)
    assert as_given(conjugate, "Q") == compute(b, "Q").bigraded, (b.format(), k, s)


@seeded
@given(braid_words(), st.sampled_from((1, -1)))
def test_markov_stabilisation_invariance_over_q(b, s):
    n = b.strands
    stabilised = BraidWord(n + 1, (*b.letters, (n, s)))
    assert compute(stabilised, "Q").bigraded == compute(b, "Q").bigraded, (b.format(), s)
    assert as_given(stabilised, "Q") == compute(b, "Q").bigraded, (b.format(), s)


@seeded
@given(sparse_braid_words())
@example(BraidWord(5, ((4, 1), (1, -1), (4, 1), (1, 1))))  # strand 3 untouched inside the range
def test_skein_resolution_equals_the_cube_at_every_crossing(b):
    # the scanned resolution runs on a renumbered, rotated and maybe flipped
    # conjugate; the cube resolves the diagram of the word as given
    for c in range(len(b)):
        Z, v = _infinity_homology(b, c, "Z")
        diagram, cube_v = braid_to_pd_resolved(b, c)
        assert v == cube_v and Z == cube_homology(diagram, "Z"), (b.format(), c)
