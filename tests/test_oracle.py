import itertools
import random

import pytest

from khbraid.homalg import FreeComplex, homology
from khbraid.linkinv import BraidWord, _complement_arc_v, _infinity_homology
from khbraid.oracle import (
    Crossing,
    Diagram,
    _closure_edges,
    _find,
    _union,
    braid_to_pd,
    cube_complex,
    cube_homology,
    format_pd,
    parse_pd,
)
from khbraid.tqft import mask_merge, mask_qdeg, mask_split
from test_homalg import homology_without_clearing, split, total_rank

UNKNOT = {(0, 1): (1, ()), (0, -1): (1, ())}


def word(n, letters):
    return BraidWord.from_ints(n, letters)


def test_braid_to_pd_structure():
    d = braid_to_pd(word(2, [1]))
    assert len(d.crossings) == 1 and d.n_plus == 1
    labels = d.edge_labels()
    assert len(labels) == 2  # closure of one crossing has two edges
    d = braid_to_pd(word(2, [1, 1, 1]))
    assert len(d.crossings) == 3 and len(d.edge_labels()) == 6
    d = braid_to_pd(BraidWord(2))
    assert not d.crossings and d.free_loops == 2


def test_pd_validation():
    with pytest.raises(ValueError):
        Diagram((Crossing((1, 2, 3, 4), 1),)).validate()


def test_known_values():
    assert cube_homology(braid_to_pd(BraidWord(1))).entries == UNKNOT
    assert cube_homology(braid_to_pd(word(2, [1]))).entries == UNKNOT
    H = cube_homology(braid_to_pd(word(2, [1, 1, 1])))
    assert H.entries == {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 9): (1, ()),
        (3, 7): (0, (2,)),
    }
    H = cube_homology(braid_to_pd(word(2, [1, 1])))
    assert H.entries == {
        (0, 0): (1, ()),
        (0, 2): (1, ()),
        (2, 4): (1, ()),
        (2, 6): (1, ()),
    }


def test_figure_eight_is_amphichiral_over_q():
    H = cube_homology(braid_to_pd(word(3, [1, -2, 1, -2])), "Q")
    assert {(-i, -j): v for (i, j), v in H.entries.items()} == H.entries
    assert total_rank(H) == 6


def test_reidemeister_moves_on_random_words():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randint(2, 3)
        L = rng.randint(0, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(L)]
        b = word(n, letters)
        base = cube_homology(braid_to_pd(b))
        # R1: stabilization adds a kink
        for s in (1, -1):
            assert cube_homology(braid_to_pd(b.stabilize(s))) == base
        # R2: insert a cancelling pair at a random spot
        g = rng.randint(1, n - 1)
        pos = rng.randint(0, L)
        r2 = BraidWord(
            n, b.letters[:pos] + ((g, 1), (g, -1)) + b.letters[pos:]
        )
        assert cube_homology(braid_to_pd(r2)) == base
        # R3: braid relation (needs three strands)
        if n >= 3:
            r3a = BraidWord(n, ((1, 1), (2, 1), (1, 1)) + b.letters)
            r3b = BraidWord(n, ((2, 1), (1, 1), (2, 1)) + b.letters)
            assert cube_homology(braid_to_pd(r3a)) == cube_homology(braid_to_pd(r3b))


def test_pd_round_trip():
    for letters in ([1], [1, 1, 1], [1, -2, 1, -2]):
        n = max(abs(k) for k in letters) + 1
        d = braid_to_pd(word(n, letters))
        d2 = parse_pd(format_pd(d))
        assert d2.crossings == d.crossings
        assert cube_homology(d2) == cube_homology(d)


def test_pd_plain_sign_inference():
    # standard trefoil PD with consecutive edge numbering, no explicit signs
    text = "X(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6,3)\n"
    d = parse_pd(text)
    assert {x.sign for x in d.crossings} == {-1}
    H = cube_homology(d)
    assert H.entries == {
        (0, -1): (1, ()),
        (0, -3): (1, ()),
        (-2, -5): (1, ()),
        (-3, -9): (1, ()),
        (-2, -7): (0, (2,)),
    }


def test_pd_free_loops_tensor_with_v():
    # each free loop tensors with V, whose generators sit at q = +1 and -1
    trefoil = "X(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6,3)\n"
    d = parse_pd(trefoil + "O()\nO\n")
    assert d.free_loops == 2
    assert parse_pd(format_pd(d)).free_loops == 2
    want: dict = {}
    for (i, j), (r, t) in cube_homology(parse_pd(trefoil)).entries.items():
        for dj in (2, 0, 0, -2):
            r0, t0 = want.get((i, j + dj), (0, ()))
            want[(i, j + dj)] = (r0 + r, t0 + t)
    assert any(t for _r, t in want.values())
    assert cube_homology(d).entries == want
    assert cube_homology(parse_pd(format_pd(d))).entries == want


def _random_codes():
    """300 seeded random 4-valent codes of 1 to 4 crossings."""
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 4)
        ends = [e for e in range(1, 2 * k + 1) for _ in (0, 1)]
        rng.shuffle(ends)
        yield Diagram(tuple(Crossing(tuple(ends[4 * i : 4 * i + 4]), rng.choice((1, -1)))
                            for i in range(k)))


def test_random_codes_build_or_refuse():
    # a random 4-valent code is usually not planar; the cube must then refuse
    # it with ValueError, and otherwise build a complex whose d^2 check passed
    built, refused = 0, []
    for d in _random_codes():
        try:
            cube_complex(d)
        except ValueError:
            refused.append(len(d.crossings))
        else:
            built += 1
    assert built and refused and max(refused) >= 2


# the reference of cube_complex: the cube built through tqft's V, with the
# generators of each cube edge packed into one dict and circles found by a
# union-find per vertex


def reference_vertex_circles(d: Diagram, labels: list[int], vertex: int) -> dict[int, int]:
    """Circle index of each edge in the complete smoothing chosen by the bits
    of ``vertex``, numbered by the least edge."""
    parent: dict[int, int] = {}
    for t, x in enumerate(d.crossings):
        a, b, c, e = x.edges
        # the 0-smoothing joins (a, b) and (c, e), the 1-smoothing (a, e) and (b, c)
        for e1, e2 in ((a, e), (b, c)) if vertex >> t & 1 else ((a, b), (c, e)):
            _union(parent, e1, e2)
    roots: dict[int, int] = {}
    return {e: roots.setdefault(_find(parent, e), len(roots)) for e in labels}


def reference_cube(d: Diagram) -> FreeComplex:
    """cube_complex with every edge map run by tqft.mask_merge / mask_split,
    built in the global layout and split into (h, j) blocks by `split`.

    Each cube edge sends the source labels of circles away from t to their
    target bits and those of the circles through t to two scratch bits, with
    the column packed above them, so one merge or split call maps every
    generator of the vertex at once."""
    d.validate()
    m = len(d.crossings)
    np_, nm = d.n_plus, d.n_minus
    labels = d.edge_labels()
    circles_at = [reference_vertex_circles(d, labels, v) for v in range(1 << m)]
    ncirc = [len(set(circ.values())) for circ in circles_at]

    offset: list[int] = []
    basis: dict[int, list[int]] = {}
    for v in range(1 << m):
        r = v.bit_count()
        degs = basis.setdefault(r - nm, [])
        offset.append(len(degs))
        nloops = ncirc[v] + d.free_loops
        for mask in range(1 << nloops):
            degs.append(mask_qdeg(mask, nloops) + r + np_ - 2 * nm)

    mats: dict[int, dict[int, dict[int, int]]] = {}
    for v in range(1 << m):
        src = circles_at[v]
        edge_of = {k: e for e, k in src.items()}
        for t, x in enumerate(d.crossings):
            if v >> t & 1:
                continue
            w = v | 1 << t
            tgt = circles_at[w]
            at_src = sorted({src[e] for e in x.edges})
            at_tgt = sorted({tgt[e] for e in x.edges})
            if (len(at_src), len(at_tgt)) not in ((2, 1), (1, 2)):
                raise ValueError("the diagram is not planar")
            n_tgt = ncirc[w] + d.free_loops
            scratch = 1 << n_tgt
            dest = [scratch << at_src.index(k) if k in at_src else 1 << tgt[edge_of[k]]
                    for k in range(ncirc[v])]
            shift = ncirc[w] - ncirc[v]
            dest += [1 << (k + shift) for k in range(ncirc[v], ncirc[v] + d.free_loops)]
            moved = [0]
            for bit in dest:
                moved += [mm | bit for mm in moved]
            col_at = n_tgt + 2
            sign = -1 if (v & ((1 << t) - 1)).bit_count() % 2 else 1
            terms = {col << col_at | mm: sign for col, mm in enumerate(moved)}
            if len(at_src) == 2:
                terms = mask_merge(terms, scratch, scratch << 1, 1 << at_tgt[0])
            else:
                terms = mask_split(terms, scratch, 1 << at_tgt[0], 1 << at_tgt[1])
            mat = mats.setdefault(v.bit_count() - nm, {})
            for key, c in terms.items():
                mat.setdefault(offset[v] + (key >> col_at), {})[offset[w] + (key & (scratch - 1))] = c
    return split(basis, mats)


PD_FIXTURES = [
    "X(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6,3)\n",
    "X(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6,3)\nO()\nO\n",
    "X+(2,4,3,1)\nX+(4,6,5,3)\nX+(6,2,1,5)\n",
    "X-(1,2,2,1)",
    "X+(1,1,2,2)",
    "O()\nO()",
]


def test_cube_matches_the_reference_built_through_tqft():
    # the restated V against tqft's, entry by entry: closures of seeded words
    # on 2-5 strands, some leaving strands untouched (free loops), the PD
    # fixtures, and every random code; a code one builder refuses the other
    # refuses too
    rng = random.Random(41)
    diagrams = [parse_pd(text) for text in PD_FIXTURES]
    diagrams += [Diagram((Crossing((1, 2, 2, 1), 1),)), Diagram((Crossing((1, 2, 1, 2), 1),))]
    for _ in range(60):
        n = rng.randint(2, 5)
        used = rng.sample(range(1, n), rng.randint(1, n - 1))
        letters = [rng.choice([1, -1]) * rng.choice(used) for _ in range(rng.randint(0, 8))]
        diagrams.append(braid_to_pd(word(n, letters)))
    diagrams += list(_random_codes())
    built = refused = loops = 0
    for d in diagrams:
        try:
            want = reference_cube(d)
        except ValueError:
            with pytest.raises(ValueError):
                cube_complex(d)
            refused += 1
            continue
        got = cube_complex(d)
        assert got.basis == want.basis
        assert got.blocks == want.blocks
        built += 1
        loops += d.free_loops > 0 and bool(d.crossings)
    assert built > 100 and refused > 100 and loops > 5


def test_clearing_agrees_with_whole_block_reduction():
    # clearing changes which columns the Smith kernel sees, never the answer:
    # the random codes that build, and seeded random words on 2-4 strands
    complexes = []
    for d in _random_codes():
        try:
            complexes.append(cube_complex(d))
        except ValueError:
            pass
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(4, 7))]
        complexes.append(cube_complex(braid_to_pd(word(n, letters))))
    for T in complexes:
        for c in ("Z", "Q", "F2", "F3"):
            assert homology(T, c) == homology_without_clearing(T, c), c


def test_pd_one_crossing_kinks_are_unknots():
    # the under-strand runs a -> c and the over-strand d -> b at X+, b -> d at
    # X-; these two kinks agree with their signs (X+(1,2,2,1) and X-(1,1,2,2)
    # do not, and parse_pd refuses them)
    for text in ("X-(1,2,2,1)", "X+(1,1,2,2)"):
        assert cube_homology(parse_pd(text)).entries == {(0, -1): (1, ()), (0, 1): (1, ())}
    for text in ("X+(1,2,2,1)", "X-(1,1,2,2)"):
        with pytest.raises(ValueError):
            parse_pd(text)
    # a plain kink is signed by which of its ends run in: a and d at X+, a
    # and b at X-; mod 2 both edge-numbering residues read 1
    for text, sign in (("X(1,2,2,1)", -1), ("X(2,1,1,2)", -1), ("X(1,1,2,2)", 1), ("X(2,2,1,1)", 1)):
        d = parse_pd(text)
        assert [x.sign for x in d.crossings] == [sign], text
        assert cube_homology(d).entries == {(0, -1): (1, ()), (0, 1): (1, ())}, text


def test_f2_rank_at_least_q_rank():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(2, 3)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 5))]
        d = braid_to_pd(word(n, letters))
        assert total_rank(cube_homology(d, "F2")) >= total_rank(cube_homology(d, "Q"))


# the referee of linkinv._infinity_homology: the resolved diagram, built
# directly on the closure's edge labels


def braid_to_pd_resolved(b, c: int) -> tuple[Diagram, int]:
    """Diagram of the closure with letter c replaced by its unoriented
    smoothing, crossing signs adjusted for the induced reorientation.

    Returns (diagram, v) where v is the signed number of crossings between
    the arc leaving the resolved crossing's top-left corner and the other
    components of the complement; exactly the strands on that arc reverse.
    """
    letters = list(b.letters)
    m = len(letters)
    if not 0 <= c < m:
        raise ValueError("crossing index out of range")
    ids = _closure_edges(b.strands, letters)

    parent: dict[int, int] = {}
    ic = letters[c][0]
    for r, (i, _s) in enumerate(letters):
        up = (r + 1) % m
        for pos in range(1, b.strands + 1):
            if r == c and pos in (i, i + 1):
                continue
            if pos == i and r != c:
                _union(parent, ids[(r, i)], ids[(up, i + 1)])
            elif pos == i + 1 and r != c:
                _union(parent, ids[(r, i + 1)], ids[(up, i)])
            elif pos not in (i, i + 1):
                _union(parent, ids[(r, pos)], ids[(up, pos)])
    arc = _find(parent, ids[((c + 1) % m, ic)])  # component of the top-left corner

    v = 0
    new_crossings = []
    for r, (i, s) in enumerate(letters):
        if r == c:
            continue
        lo1, lo2 = ids[(r, i)], ids[(r, i + 1)]
        on_arc = (_find(parent, lo1) == arc, _find(parent, lo2) == arc)
        sign = s
        if on_arc[0] != on_arc[1]:
            v += s
            sign = -s  # exactly one strand reverses: crossing sign flips
        up = (r + 1) % m
        A, B, C, D = ids[(r, i)], ids[(r, i + 1)], ids[(up, i)], ids[(up, i + 1)]
        # tuple from the original geometry (which strand is over does not
        # change under reorientation); only the recorded sign flips, and with
        # it the global [-n_minus]{n_plus - 2 n_minus} shifts.  Both
        # smoothing pairings are rotation-invariant, so the stale "ccw from
        # incoming under" base point is harmless.
        if s == 1:
            new_crossings.append(Crossing((B, D, C, A), sign))
        else:
            new_crossings.append(Crossing((A, B, D, C), sign))

    # contract the resolved crossing: cup joins the two lower edges, cap the
    # two upper ones
    up = (c + 1) % m
    join = {}

    def rep(e: int) -> int:
        while e in join:
            e = join[e]
        return e

    pairs = [
        (ids[(c, ic)], ids[(c, ic + 1)]),
        (ids[(up, ic)], ids[(up, ic + 1)]),
    ]
    for e1, e2 in pairs:
        r1, r2 = rep(e1), rep(e2)
        if r1 != r2:
            join[max(r1, r2)] = min(r1, r2)
    relabeled = tuple(
        Crossing(tuple(rep(e) for e in x.edges), x.sign) for x in new_crossings
    )
    used = {e for x in relabeled for e in x.edges}
    # a resolved loop with no remaining crossings becomes a free loop
    survivors = {rep(ids[(c, ic)]), rep(ids[(up, ic)])}
    loops = sum(1 for e in survivors if e not in used)
    # strands untouched by any letter stay free loops
    touched = {i for (i, _s) in letters} | {i + 1 for (i, _s) in letters}
    loops += sum(1 for pos in range(1, b.strands + 1) if pos not in touched)
    diag = Diagram(relabeled, free_loops=loops)
    diag.validate()
    return diag, v


def test_resolved_diagram_matches_pipeline_infinity_term():
    cases = [
        (word(2, [1]), 0),
        (word(2, [1, 1]), 0),
        (word(2, [1, 1, 1]), 1),
        (word(3, [1, -2, 1, -2]), 2),
        (word(3, [2, -2, -2, 1, -2]), 0),
        # a negative letter resolved, with v = -2 and v = 2
        (word(2, [-1, -1, -1]), 1),
        (word(3, [1, -2, 1, -2]), 1),
    ]
    for b, c in cases:
        Z1, v1 = _infinity_homology(b, c, "Z")
        d, v2 = braid_to_pd_resolved(b, c)
        assert v1 == v2
        assert Z1 == cube_homology(d, "Z")


def test_arc_walk_v_matches_the_union_find_referee_exhaustively():
    # linkinv walks the arc up the closure; the referee takes the union-find
    # component of the top-left corner.  Every word of 1-5 letters on 3
    # strands and 1-4 letters on 4 strands, at every crossing
    cases = 0
    for n, longest in ((3, 5), (4, 4)):
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for length in range(1, longest + 1):
            for ints in itertools.product(letters, repeat=length):
                b = word(n, ints)
                for c in range(length):
                    assert _complement_arc_v(b, c) == braid_to_pd_resolved(b, c)[1], (n, ints, c)
                    cases += 1
    assert cases == 12282


def test_decategorified_skein_relation():
    # the graded Euler characteristic satisfies the unoriented skein identity
    # chi_X(j) = chi_Y(j-1) - (-1)^v chi_Z(j-3v-2) for a positive crossing
    def chi(H):
        acc = {}
        for (i, j), (r, _t) in H.entries.items():
            acc[j] = acc.get(j, 0) + (-1) ** i * r
        return acc

    for b, c in [(word(2, [1, 1, 1]), 0), (word(3, [1, 2, 1]), 1)]:
        sign = b.letters[c][1]
        assert sign == 1
        X = chi(cube_homology(braid_to_pd(b)))
        Y = chi(cube_homology(braid_to_pd(b.without_letter(c))))
        dz, v = braid_to_pd_resolved(b, c)
        Z = chi(cube_homology(dz))
        js = set(X) | {j + 1 for j in Y} | {j + 3 * v + 2 for j in Z}
        for j in js:
            assert X.get(j, 0) == Y.get(j - 1, 0) - (-1) ** v * Z.get(j - 3 * v - 2, 0)
