import itertools
import random

import pytest

import khbraid.tangle as tangle
from khbraid.arcalg import ArcCombination, _execute, idempotent, multiply
from khbraid.homalg import (
    Complex,
    ProjSummand,
    eliminate,
    homology,
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
)
from khbraid.linkinv import idempotent_truncate, verify_braid_relations, verify_twist_inverse
from khbraid.tqft import mask_qdeg
from test_arcalg import block_basis
from test_homalg import entry, total_rank


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


def test_cup_circle_map_matches_the_cup_inserted_diagram():
    # the map by its rule (circles ordered by least point, the new one at
    # least point i) against the circles of the cup-inserted diagram, for
    # every u, v of n <= 4 arcs and every i
    cases = 0
    for n in (1, 2, 3, 4):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, repeat=2):
            for i in range(1, 2 * n + 2):
                big = circles(cup_insert(i, u), cup_insert(i, v))
                shift = lambda p: p if p < i else p + 2
                want = tuple(big.circle_of(shift(circ[0])) for circ in circles(u, v).circles)
                assert _cup_circle_map(i, u, v) == want, (i, u, v)
                assert big.c == len(want) + 1
                cases += 1
    assert cases == 3 * 1 + 5 * 4 + 7 * 25 + 9 * 196


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
                    lhs = cup_entry(i, multiply(y, x))
                    rhs = multiply(cup_entry(i, y), cup_entry(i, x))
                    assert lhs == rhs
    rng = random.Random(0)
    ms2 = enumerate_matchings(2)
    for _ in range(200):
        u, v, w = (rng.choice(ms2) for _ in range(3))
        i = rng.randint(1, 5)
        x = rng.choice(block_basis(u, v))
        y = rng.choice(block_basis(v, w))
        assert cup_entry(i, multiply(y, x)) == multiply(cup_entry(i, y), cup_entry(i, x))


def test_cup_functor_image_of_a_twisted_complex_is_a_complex():
    # strictness at the complex level: P_w{q} -> P_{cup_insert(i,w)}{q} with
    # every entry embedded by cup_entry still satisfies d^2 = 0 and quantum
    # homogeneity without any correction terms (validate checks both)
    for w in enumerate_matchings(2):
        C = twist(1, 1, twist(2, -1, single(w)))
        for i in range(1, 6):
            terms = {
                h: tuple(ProjSummand(cup_insert(i, s.matching), s.qshift) for s in t)
                for h, t in C.terms.items()
            }
            diffs = {
                h: {rc: cup_entry(i, entry(d, rc, C.terms[h], C.terms[h + 1])).terms for rc in d}
                for h, d in C.diffs.items()
            }
            D = Complex(terms, diffs)
            D.validate()
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
                for g in block_basis(a, b):
                    for h in block_basis(b, c):
                        checks += _composition_checks(i, a, b, c, g, h)
    assert checks == 22088
    rng = random.Random(4)
    ms = enumerate_matchings(4)
    for _ in range(400):
        a, b, c = (rng.choice(ms) for _ in range(3))
        i = rng.randint(1, 7)
        g = rng.choice(block_basis(a, b))
        h = rng.choice(block_basis(b, c))
        _composition_checks(i, a, b, c, g, h)


def direct_components(i, a, b, terms, cup):
    """The reference for `_transformed_components`: run the saddle schedule
    on the whole element, then split the result by the closed-circle bits.
    Also returns how many split terms summed to zero."""
    ops, down, up, _table = tangle._saddle_schedule(a, b, i)
    finals = up if cup else down
    c = len(finals) - 2
    comps, zeros = {}, 0
    for m, coeff in _execute(dict(terms), ops, finals).items():
        u = 1 - (m >> c & 1) if (i, i + 1) in a.pairs else None
        v = m >> (c + 1) & 1 if (i, i + 1) in b.pairs else None
        if coeff:
            comps.setdefault((u, v), {})[m & ((1 << c) - 1)] = coeff
        zeros += not coeff
    return comps, zeros


def _cancelling_element(rng, i, a, b):
    """Two labelings of block (a, b) whose images share a term, weighted so
    that this term cancels, or None when no two images overlap."""
    c = circles(a, b).c
    seen = {}
    for mask in rng.sample(range(1 << c), 1 << c):
        for key, part in direct_components(i, a, b, {mask: 1}, True)[0].items():
            for m, x in part.items():
                if (key, m) in seen and seen[(key, m)][0] != mask:
                    other, y = seen[(key, m)]
                    return {other: x, mask: -y}
                seen[(key, m)] = (mask, x)
    return None


def test_saddle_table_matches_a_direct_run():
    # every (a, b, i) for n <= 3 and a seeded sample at n = 4, on multi-term
    # elements, some of whose parts cancel; from cold tables, cup and cap
    # read-offs alternate on each schedule, so a table that ignored the
    # read-off would hand one the other's parts
    rng = random.Random(20)
    cases = [(a, b, i) for n in (1, 2, 3) for a, b in itertools.product(enumerate_matchings(n), repeat=2)
             for i in range(1, 2 * n)]
    ms = enumerate_matchings(4)
    cases += [(rng.choice(ms), rng.choice(ms), rng.randint(1, 7)) for _ in range(60)]
    tangle._saddle_schedule.cache_clear()
    zeros = 0
    for a, b, i in cases:
        c = circles(a, b).c
        elements = [{m: rng.choice((-3, -1, 1, 2)) for m in rng.sample(range(1 << c), min(c + 1, 1 << c))}
                    for _ in range(3)]
        elements.append(_cancelling_element(rng, i, a, b) or {0: 1})
        for k, terms in enumerate(elements):
            for cup in ((True, False) if k % 2 else (False, True)):
                want, z = direct_components(i, a, b, terms, cup)
                assert _transformed_components(i, a, b, terms, cup) == want, (a, b, i, terms, cup)
                zeros += z
    assert zeros == 138  # split terms that summed to zero


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
        for key, g in fh.items():
            yield {**f, h: {k: e for k, e in fh.items() if k != key}}
            for m in g:
                yield {**f, h: {**fh, key: {**g, m: -g[m]}}}


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
    C, layout = cupcap_functor(1, single(plait(2)), 0)
    assert [(s.matching, s.qshift) for s in C.summands(0)] == [
        (plait(2), 1),
        (plait(2), -1),
    ]
    C, _ = cupcap_functor(1, single(mixed(2)), 0)
    assert [(s.matching, s.qshift) for s in C.summands(0)] == [(plait(2), 0)]


def test_cupcap_functor_shift_identity():
    # (cup_i cap_i C){q} is a complex whose every truncated homology is the
    # q = 0 one moved up by q, on summands that close a circle and on others
    for w in enumerate_matchings(2):
        C = eliminate(twist(1, 1, single(w)))
        for i in (1, 2, 3):
            D0, _ = cupcap_functor(i, C, 0)
            assert any(hom_of(a, D0).entries for a in enumerate_matchings(2))
            for q in (-1, 1, 3):
                Dq, _ = cupcap_functor(i, C, q)
                Dq.validate()
                for a in enumerate_matchings(2):
                    assert hom_of(a, Dq) == hom_of(a, D0).shifted(0, q), (w, i, q, a)


def test_unit_counit_composite_is_center_multiplication():
    # around the circle-creation factor, counit{2} . unit = 2 v_i, never the
    # identity: check the composed entry on P_plait at i = 1
    P = single(plait(2))
    eta, D = unit_map(1, P)
    eps, E = counit_map(1, P)
    # E = cupcap(P){-1}, D = cupcap(P){+1}: compose entry-wise through the
    # common cupcap layout (two summands)
    comp = {}
    for (r, c) in eta[0]:
        g = entry(eta[0], (r, c), P.terms[0], D.terms[0])
        for (r2, c2) in eps[0]:
            h = entry(eps[0], (r2, c2), E.terms[0], P.terms[0])
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
        assert total_rank(H) == 2
