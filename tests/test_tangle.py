import itertools
import random

import pytest

import khbraid.tangle as tangle
from khbraid.arcalg import ArcCombination, _execute, block_basis, idempotent, multiply
from khbraid.homalg import (
    Complex,
    ModuleMap,
    ProjSummand,
    eliminate,
    homology,
    idempotent_truncate,
    is_chain_map,
)
from khbraid.planar import (
    cap_apply,
    circles,
    cup_insert,
    cupcap_through,
    enumerate_matchings,
    mixed,
    plait,
)
from khbraid.tangle import (
    _cup_circle_map,
    _transformed_components,
    counit_map,
    cupcap_functor,
    twist,
    unit_map,
    verify_braid_relations,
    verify_twist_inverse,
)
from khbraid.tqft import mask_qdeg
from test_homalg import entry


def single(w, q=0):
    return Complex.single(w, q)


def hom_of(a, C):
    return homology(idempotent_truncate(a, C))


# ---------------------------------------------------------------------------
# cup embedding


def cup_entry(i: int, g: ArcCombination) -> ArcCombination:
    """Kunneth embedding of a block element: new (i,i+1) circle labeled 1.

    The reference for the cup functor on morphisms, which `cupcap_functor`
    runs fused with the saddle (`tangle._saddle_schedule`)."""
    remap = _cup_circle_map(i, g.source, g.target)
    finals = [len(remap)] * (len(remap) + 1)  # the small circle reads an unset bit
    for k, kk in enumerate(remap):
        finals[kk] = k
    terms = _execute(dict(g.terms), (), finals)
    return ArcCombination(cup_insert(i, g.source), cup_insert(i, g.target), terms)


def test_cup_functor_sends_idempotents_to_idempotents():
    for n in (1, 2):
        for w in enumerate_matchings(n):
            for i in range(1, 2 * n + 2):
                e = idempotent(w)
                img = cup_entry(i, e)
                assert img == idempotent(cup_insert(i, w))


def test_cup_functor_is_a_strict_algebra_embedding():
    # cup(y . x) = cup(y) . cup(x), exhaustively over H_1 -> H_2 and on a
    # sample over H_2 -> H_3
    ms1 = enumerate_matchings(1)
    for u, v, w in itertools.product(ms1, repeat=3):
        for i in (1, 2, 3):
            for x in block_basis(u, v):
                for y in block_basis(v, w):
                    cx = ArcCombination.from_element(x)
                    cy = ArcCombination.from_element(y)
                    lhs = cup_entry(i, multiply(cy, cx))
                    rhs = multiply(cup_entry(i, cy), cup_entry(i, cx))
                    assert lhs == rhs
    rng = random.Random(0)
    ms2 = enumerate_matchings(2)
    for _ in range(200):
        u, v, w = (rng.choice(ms2) for _ in range(3))
        i = rng.randint(1, 5)
        x = ArcCombination.from_element(rng.choice(block_basis(u, v)))
        y = ArcCombination.from_element(rng.choice(block_basis(v, w)))
        assert cup_entry(i, multiply(y, x)) == multiply(cup_entry(i, y), cup_entry(i, x))


def test_cup_functor_image_of_a_twisted_complex_is_a_complex():
    # strictness at the complex level: P_w{q} -> P_{cup_insert(i,w)}{q} with
    # every entry embedded by cup_entry still satisfies d^2 = 0 and quantum
    # homogeneity without any correction terms (the constructor checks both)
    for w in enumerate_matchings(2):
        C = twist(1, 1, twist(2, -1, single(w)))
        for i in range(1, 6):
            terms = {
                h: tuple(ProjSummand(cup_insert(i, s.matching), s.qshift) for s in t)
                for h, t in C.terms.items()
            }
            diffs = {
                h: ModuleMap(terms[h], terms[h + 1], {rc: cup_entry(i, entry(d, rc)).terms for rc in d.entries})
                for h, d in C.diffs.items()
            }
            D = Complex(terms, diffs)
            assert all(s.matching.n == 3 for s in D.summands(0))
            assert D.diffs.keys() == C.diffs.keys()


def test_adjunction_graded_dimension_identity():
    # dim_q Hom(cup_i P_a, P_b) = dim_q Hom(P_a, cap_i P_b)
    for n in (2, 3):
        for a in enumerate_matchings(n - 1):
            for b in enumerate_matchings(n):
                for i in range(1, 2 * n):
                    lhs: dict[int, int] = {}
                    ca = cup_insert(i, a)
                    c = circles(ca, b).c
                    for mask in range(1 << c):
                        q = mask_qdeg(mask, c)
                        lhs[q] = lhs.get(q, 0) + 1
                    rhs: dict[int, int] = {}
                    down, closed = cap_apply(i, b)
                    shifts = (1, -1) if closed else (0,)
                    c2 = circles(a, down).c
                    for sh in shifts:
                        for mask in range(1 << c2):
                            q = mask_qdeg(mask, c2) + sh
                            rhs[q] = rhs.get(q, 0) + 1
                    assert lhs == rhs, (a, b, i)


def _composition_checks(i, a, b, c, g, h):
    """Assert that the (u, w) part of the transform of h.g is the sum over
    middle labels t of h's (t, w) part after g's (u, t) part; return the
    number of (u, w) parts compared."""
    labels = lambda w: (0, 1) if (i, i + 1) in w.pairs else (None,)

    def transformed(x):
        up = lambda w: cupcap_through(i, w)[0]
        parts = _transformed_components(i, x.source, x.target, x.terms)
        return {key: ArcCombination(up(x.source), up(x.target), t) for key, t in parts.items()}

    hg = transformed(multiply(h, g))
    tg = transformed(g)
    th = transformed(h)
    zero = ArcCombination(cupcap_through(i, a)[0], cupcap_through(i, c)[0])
    for u in labels(a):
        for w in labels(c):
            want = zero
            for t in labels(b):
                if (u, t) in tg and (t, w) in th:
                    want = want + multiply(th[(t, w)], tg[(u, t)])
            assert hg.get((u, w), zero) == want, (i, a, b, c, g, h, u, w)
    return len(labels(a)) * len(labels(c))


def test_cupcap_respects_composition():
    # functoriality on morphisms, which is what makes cupcap(d)^2 = 0:
    # exhaustively over basis pairs for n <= 3, on a seeded sample at n = 4
    checks = 0
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for a, b, c in itertools.product(ms, repeat=3):
            for i in range(1, 2 * n):
                for x in block_basis(a, b):
                    for y in block_basis(b, c):
                        g, h = ArcCombination.from_element(x), ArcCombination.from_element(y)
                        checks += _composition_checks(i, a, b, c, g, h)
    assert checks == 22088
    rng = random.Random(4)
    ms = enumerate_matchings(4)
    for _ in range(400):
        a, b, c = (rng.choice(ms) for _ in range(3))
        i = rng.randint(1, 7)
        g = ArcCombination.from_element(rng.choice(block_basis(a, b)))
        h = ArcCombination.from_element(rng.choice(block_basis(b, c)))
        _composition_checks(i, a, b, c, g, h)


# ---------------------------------------------------------------------------
# unit, counit, twists


def test_unit_and_counit_are_chain_maps_on_twisted_complexes():
    rng = random.Random(2)
    ms = enumerate_matchings(2)
    for _ in range(10):
        C = single(rng.choice(ms))
        for _ in range(rng.randint(0, 2)):
            C = eliminate(twist(rng.randint(1, 3), rng.choice((1, -1)), C))
        for i in (1, 2, 3):
            f, D = unit_map(i, C)
            assert is_chain_map(f, C, D)
            g, E = counit_map(i, C)
            assert is_chain_map(g, E, C)


def _twisted_complexes():
    # complexes with a nonzero differential, where every entry of the unit
    # and counit is pinned down by the chain-map condition
    yield eliminate(twist(1, 1, single(mixed(2)))), (1, 2, 3)
    yield eliminate(twist(2, -1, single(plait(3)))), (1, 2, 3, 4, 5)


def _mutants(f):
    """f with one entry dropped, then f with one coefficient negated, for
    every entry and every coefficient of f."""
    for h, fh in f.items():
        for key in fh.entries:
            g = entry(fh, key)
            rest = {k: e for k, e in fh.entries.items() if k != key}
            yield {**f, h: ModuleMap(fh.source, fh.target, rest)}
            for m in g.terms:
                flipped = ArcCombination(g.source, g.target, {**g.terms, m: -g.terms[m]})
                yield {**f, h: ModuleMap(fh.source, fh.target, {**fh.entries, key: flipped.terms})}


def _assert_twist_rejects_every_mutant(monkeypatch, name, sign):
    good = getattr(tangle, name)
    for C, positions in _twisted_complexes():
        for i in positions:
            f, D = good(i, C)
            mutants = list(_mutants(f))
            assert mutants
            for bad in mutants:
                monkeypatch.setattr(tangle, name, lambda i, C, bad=bad, D=D: (bad, D))
                with pytest.raises(ValueError, match=r"d\^2 != 0"):
                    twist(i, sign, C)
            monkeypatch.setattr(tangle, name, good)
            twist(i, sign, C)  # the real map passes the same check


def test_cone_check_rejects_a_bad_unit(monkeypatch):
    _assert_twist_rejects_every_mutant(monkeypatch, "unit_map", 1)


def test_cone_check_rejects_a_bad_counit(monkeypatch):
    _assert_twist_rejects_every_mutant(monkeypatch, "counit_map", -1)


def test_cupcap_respects_identity():
    # functor image of the identity complex map: differentials of the image
    # complex commute with images of identities implicitly; spot-check the
    # object map and a composite against a hand value
    C, layout = cupcap_functor(1, single(plait(2)))
    assert [(s.matching, s.qshift) for s in C.summands(0)] == [
        (plait(2), 1),
        (plait(2), -1),
    ]
    C, _ = cupcap_functor(1, single(mixed(2)))
    assert [(s.matching, s.qshift) for s in C.summands(0)] == [(plait(2), 0)]


def test_unit_counit_composite_is_center_multiplication():
    # around the circle-creation factor, counit{2} . unit = 2 v_i, never the
    # identity: check the composed entry on P_plait at i = 1
    P = single(plait(2))
    eta, D = unit_map(1, P)
    eps, E = counit_map(1, P)
    # E = cupcap(P){-1}, D = cupcap(P){+1}: compose entry-wise through the
    # common cupcap layout (two summands)
    comp = {}
    for (r, c) in eta[0].entries:
        g = entry(eta[0], (r, c))
        for (r2, c2) in eps[0].entries:
            h = entry(eps[0], (r2, c2))
            if c2 == r:
                key = (r2, c)
                term = multiply(h, g)
                comp[key] = comp.get(key, ArcCombination(plait(2), plait(2), {})) + term
    from khbraid.arcalg import center_action

    twice_v = 2 * center_action(1, idempotent(plait(2)))
    assert comp[(0, 0)] == twice_v


def test_twist_has_two_homological_columns():
    for w in enumerate_matchings(2):
        for i in (1, 2, 3):
            for s in (1, -1):
                T = twist(i, s, single(w))
                assert sorted(T.terms) == [-1, 0]


def test_twist_then_inverse_restores_homology():
    rep = verify_twist_inverse(2)
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]][:3]


def test_braid_relations_small():
    rep = verify_braid_relations(2)
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]][:3]


def test_unknot_calibration_from_single_twists():
    # closure of sigma_1 in Br_2 (one crossing on the horseshoe): total rank 2
    m2 = mixed(2)
    for s in (1, -1):
        T = twist(1, s, single(m2))
        H = hom_of(m2, T)
        assert H.total_rank() == 2
