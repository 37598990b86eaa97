import itertools
import random

import pytest

from khbraid.arcalg import (
    _MULT_SCHEDULE_MAXSIZE,
    ArcCombination,
    _basis_products,
    _el_json,
    _execute,
    _mult_schedule,
    _surgery_schedule,
    center_action,
    dim_hn,
    factor_through_interpolation,
    idempotent,
    min_generator,
    multiplication_table,
    multiply,
    trace,
    verify_positivity,
)
from khbraid.planar import circles, codim, enumerate_matchings, matching, mixed, plait
from khbraid.tqft import mask_qdeg
from test_tqft import sdeg


def block_basis(u, v):
    """The basis of the block (u, v): every labeling mask, coefficient 1."""
    return [ArcCombination(u, v, {m: 1}) for m in range(1 << circles(u, v).c)]


def brute_dim(n):
    ms = enumerate_matchings(n)
    return sum(2 ** circles(u, v).c for u in ms for v in ms)


def test_dim_examples():
    assert dim_hn(1) == 2
    assert dim_hn(2) == 12
    # n = 3: brute-force enumeration over the 25 block pairs
    assert dim_hn(3) == brute_dim(3)


def test_idempotents():
    for n in (1, 2, 3):
        for w in enumerate_matchings(n):
            e = idempotent(w)
            assert multiply(e, e) == e


def test_n2_products_from_the_frobenius_tables():
    p2, m2 = plait(2), mixed(2)
    a_pm = min_generator(p2, m2)
    a_mp = min_generator(m2, p2)
    prod = multiply(a_mp, a_pm)  # lands in (plait, plait)
    x_on = lambda i: center_action(i, idempotent(p2))
    assert prod == x_on(1) + x_on(3)  # 1(x)x + x(x)1 on the two circles
    x_pm = center_action(1, a_pm)
    x_mp = center_action(1, a_mp)
    assert not multiply(x_mp, x_pm)  # x . x = 0


def test_mismatched_middles_multiply_to_zero():
    p2, m2 = plait(2), mixed(2)
    a = min_generator(p2, p2)
    b = min_generator(m2, m2)
    assert not multiply(b, a)


def test_unit_is_two_sided():
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, ms):
            for a in block_basis(u, v):
                assert multiply(idempotent(v), a) == a
                assert multiply(a, idempotent(u)) == a


def test_associativity_exhaustive_small():
    for n in (1, 2):
        ms = enumerate_matchings(n)
        for u, v, w, z in itertools.product(ms, repeat=4):
            for x in block_basis(u, v):
                for y in block_basis(v, w):
                    for t in block_basis(w, z):
                        assert multiply(t, multiply(y, x)) == multiply(multiply(t, y), x)


def test_associativity_n3_randomized():
    rng = random.Random(3)
    ms = enumerate_matchings(3)
    for _ in range(500):
        u, v, w, z = (rng.choice(ms) for _ in range(4))
        x = rng.choice(block_basis(u, v))
        y = rng.choice(block_basis(v, w))
        t = rng.choice(block_basis(w, z))
        assert multiply(t, multiply(y, x)) == multiply(multiply(t, y), x)


def product_surgery(u, v, w, order):
    """(arcs, saddles) of the product (u,v)*(v,w) with v's arcs contracted in
    ``order``, numbered the way `_mult_schedule` numbers them: bottom points
    are nodes 0..2n-1, top points nodes 2n..4n-1."""
    n = u.n
    B = lambda p: p - 1
    T = lambda p: 2 * n + p - 1
    arcs = [(B(p), B(q)) for p, q in u.pairs + v.pairs]
    arcs += [(T(p), T(q)) for p, q in v.pairs + w.pairs]
    return arcs, [(B(p), B(q), T(p), T(q)) for p, q in order]


def cupcap_saddle_surgery(a, b, i):
    """(arcs, saddles) of the (i, i+1) saddle on C(a, b), numbered the way
    `khbraid.tangle._saddle_schedule` numbers them."""
    n = a.n
    B = lambda p: p - 1
    T = lambda p: 2 * n + p - 1
    arcs = [(B(p), B(q)) for p, q in a.pairs] + [(T(p), T(q)) for p, q in b.pairs]
    arcs += [(B(p), T(p)) for p in range(1, 2 * n + 1)]
    return arcs, [(B(i), T(i), B(i + 1), T(i + 1))]


def product_in_order(b, a, order):
    """b*a with the middle arcs contracted in ``order``, by a schedule built
    here the way `_mult_schedule` builds its own in left-endpoint order."""
    u, v, w = a.source, a.target, b.target
    ops, slot_of = _surgery_schedule(*product_surgery(u, v, w, order))
    finals = [slot_of[circ[0] - 1] for circ in circles(u, w).circles]
    return run_schedule(b, a, circles(u, v).c, ops, finals)


def component(nbr, start):
    """The nodes joined to start, by a depth-first search over nbr."""
    seen = {start}
    stack = [start]
    while stack:
        for y in nbr[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def reference_schedule(arcs, saddles):
    """`_surgery_schedule` recomputed the plain way: after every saddle, the
    circle through p (and through q, on a split) is found again by a
    depth-first search over the whole diagram.  slot_of is a dict."""
    nbr = {}
    for x, y in arcs:
        nbr.setdefault(x, []).append(y)
        nbr.setdefault(y, []).append(x)
    slot_of = {}
    slots = 0
    for x in sorted(nbr):
        if x not in slot_of:
            slot_of.update(dict.fromkeys(component(nbr, x), slots))
            slots += 1
    ops = []
    for p, q, r, s in saddles:
        for x, y in ((p, q), (r, s)):
            nbr[x].remove(y)
            nbr[y].remove(x)
        for x, y in ((p, r), (q, s)):
            nbr[x].append(y)
            nbr[y].append(x)
        halves = [component(nbr, p)]
        if slot_of[p] != slot_of[r]:
            ops.append(("m", slot_of[p], slot_of[r], slots))
        else:
            assert q not in halves[0], "surgery on one circle must split it in two"
            ops.append(("s", slot_of[p], slots, slots + 1))
            halves.append(component(nbr, q))
        for half in halves:
            slot_of.update(dict.fromkeys(half, slots))
            slots += 1
    return ops, slot_of


def assert_same_schedule(arcs, saddles):
    ops, slot_of = _surgery_schedule(arcs, saddles)
    ref_ops, ref_slot_of = reference_schedule(arcs, saddles)
    assert ops == ref_ops, (arcs, saddles)
    assert slot_of == [ref_slot_of[x] for x in range(len(arcs))], (arcs, saddles)
    return ops, slot_of


def random_saddle_run(rng, nodes, most):
    """The union of two random perfect matchings on ``nodes`` nodes, as arcs,
    and a run of up to ``most`` saddles, each on two node-disjoint arcs the
    diagram holds at that point.  A saddle on one circle is oriented so that
    it splits it, as the reference builder requires."""
    arcs = []
    for _ in range(2):
        order = rng.sample(range(nodes), nodes)
        arcs += [(order[k], order[k + 1]) for k in range(0, nodes, 2)]
    nbr = {x: [] for x in range(nodes)}
    for x, y in arcs:
        nbr[x].append(y)
        nbr[y].append(x)
    saddles = []
    for _ in range(rng.randint(1, most)):
        p, r = rng.sample(range(nodes), 2)
        q, s = rng.choice(nbr[p]), rng.choice(nbr[r])
        if len({p, q, r, s}) < 4:
            continue
        for x, y in ((p, q), (r, s)):
            nbr[x].remove(y)
            nbr[y].remove(x)
        # on one circle, the path left through p ends at r or s, and the new
        # arc (p, r) splits the circle only if it closes that path
        if s in component(nbr, p):
            r, s = s, r
        for x, y in ((p, r), (q, s)):
            nbr[x].append(y)
            nbr[y].append(x)
        saddles.append((p, q, r, s))
    return arcs, saddles


def test_surgery_schedule_matches_the_reference_builder():
    rng = random.Random(13)
    kinds = set()
    for n in range(1, 7):
        ms = enumerate_matchings(n)
        for _ in range(340):
            u, v, w = (rng.choice(ms) for _ in range(3))
            order = list(v.pairs)
            if rng.random() < 0.3:
                rng.shuffle(order)
            ops, _slot_of = assert_same_schedule(*product_surgery(u, v, w, order))
            kinds.update(op[0] for op in ops)
        saddles = [(a, b, i) for a in ms for b in ms for i in range(1, 2 * n)]
        if n > 3:
            saddles = rng.sample(saddles, 200)
        for a, b, i in saddles:
            ops, _slot_of = assert_same_schedule(*cupcap_saddle_surgery(a, b, i))
            kinds.update(op[0] for op in ops)
    # random unions of circles, and runs of saddles longer than a product's
    for _ in range(300):
        ops, _slot_of = assert_same_schedule(*random_saddle_run(rng, 2 * rng.randint(2, 20), 30))
        kinds.update(op[0] for op in ops)
    assert kinds == {"m", "s"}


def test_surgery_schedule_two_node_circles():
    # n = 1: the product merges the two 2-node circles (0 1) and (2 3)
    (u,) = enumerate_matchings(1)
    assert assert_same_schedule(*product_surgery(u, u, u, u.pairs)) == (
        [("m", 0, 1, 2)], [2, 2, 2, 2])
    # the saddle cuts the 4-node circle 0-1-3-2 into (0 1) and (2 3)
    assert assert_same_schedule(*cupcap_saddle_surgery(u, u, 1)) == (
        [("s", 0, 1, 2)], [1, 1, 2, 2])
    # two saddles: (0 1) and (2 3) merge, and the next saddle splits them again
    assert assert_same_schedule([(0, 1), (0, 1), (2, 3), (2, 3)],
                                [(0, 1, 2, 3), (0, 2, 1, 3)]) == (
        [("m", 0, 1, 2), ("s", 2, 3, 4)], [3, 3, 4, 4])


def run_schedule(b, a, cb, ops, finals):
    """b*a by running one schedule on the whole state at once."""
    state = {}
    for ma, ca in a.terms.items():
        for mb, cbf in b.terms.items():
            key = ma | mb << cb
            state[key] = state.get(key, 0) + ca * cbf
    return ArcCombination(a.source, b.target, _execute(state, ops, finals))


def test_surgery_order_independence():
    # contracting the middle arcs in any order gives the same product
    for n in (2, 3):
        ms = enumerate_matchings(n)
        rng = random.Random(n)
        for _ in range(200):
            u, v, w = (rng.choice(ms) for _ in range(3))
            x = rng.choice(block_basis(u, v))
            y = rng.choice(block_basis(v, w))
            base = multiply(y, x)
            order = list(v.pairs)
            assert product_in_order(y, x, order) == base
            rng.shuffle(order)
            assert product_in_order(y, x, order) == base


def reference_product(b, a):
    """b*a by running the surgery schedule on the whole state at once,
    bypassing the basis-product table."""
    if a.target != b.source:
        return ArcCombination(a.source, b.target, {})
    cb, ops, finals, _table = _mult_schedule(a.source, a.target, b.target)
    return run_schedule(b, a, cb, ops, finals)


def test_table_products_match_the_schedule_on_every_basis_pair():
    _mult_schedule.cache_clear()
    for warm in (False, True):
        for n in (1, 2, 3):
            ms = enumerate_matchings(n)
            for u, v, w in itertools.product(ms, repeat=3):
                for x in block_basis(u, v):
                    for y in block_basis(v, w):
                        assert multiply(y, x) == reference_product(y, x), (warm, u, v, w)
        info = _mult_schedule.cache_info()
        assert info.currsize == sum(len(enumerate_matchings(n)) ** 3 for n in (1, 2, 3))
    assert info.maxsize == _MULT_SCHEDULE_MAXSIZE
    # the second pass read every product from the tables
    assert all(len(_mult_schedule(u, v, w)[3]) == 2 ** (circles(u, v).c + circles(v, w).c)
               for u, v, w in itertools.product(enumerate_matchings(3), repeat=3))


def random_combination(rng, u, v, terms=3):
    masks = range(1 << circles(u, v).c)
    picks = rng.sample(masks, min(terms, len(masks)))
    return ArcCombination(u, v, {m: rng.choice((-3, -2, -1, 1, 2, 5)) for m in picks})


def cancelling_pair(rng, ms):
    """(y, x1 - x2) with y*x1 == y*x2 != 0, so the product cancels to zero."""
    while True:
        u, v, w = (rng.choice(ms) for _ in range(3))
        y = min_generator(v, w)
        seen = {}
        for x in block_basis(u, v):
            p = reference_product(y, x)
            if p and p in seen:
                x1 = seen[p].terms
                return y, ArcCombination(u, v, {**x1, **{m: -c for m, c in x.terms.items()}})
            seen.setdefault(p, x)


def test_table_products_match_the_schedule_n4_cold_warm_and_evicted():
    rng = random.Random(4)
    ms = enumerate_matchings(4)
    cases = []
    for _ in range(60):
        u, v, w = (rng.choice(ms) for _ in range(3))
        cases.append((random_combination(rng, v, w), random_combination(rng, u, v)))
    y, x = cancelling_pair(rng, ms)
    assert not reference_product(y, x) and len(x.terms) == 2
    cases.append((y, x))
    u, v = ms[0], ms[1]
    cases.append((random_combination(rng, u, u), random_combination(rng, u, v)))  # v != u: zero
    expected = [reference_product(b, a) for b, a in cases]
    assert not expected[-1] and not expected[-2] and sum(bool(e) for e in expected) > 30

    _mult_schedule.cache_clear()
    assert [multiply(b, a) for b, a in cases] == expected  # cold
    assert [multiply(b, a) for b, a in cases] == expected  # warm
    b0, a0 = cases[0]
    table = _mult_schedule(a0.source, a0.target, b0.target)[3]
    assert table
    # fill the cache past its bound with triples on 5 strands; every n = 4
    # triple, and its table, is evicted
    for k, (p, q, r) in enumerate(itertools.product(enumerate_matchings(5), repeat=3)):
        if k == _MULT_SCHEDULE_MAXSIZE:
            break
        _mult_schedule(p, q, r)
    assert _mult_schedule.cache_info().currsize == _MULT_SCHEDULE_MAXSIZE
    misses = _mult_schedule.cache_info().misses
    assert _mult_schedule(a0.source, a0.target, b0.target)[3] is not table
    assert _mult_schedule.cache_info().misses == misses + 1
    assert [multiply(b, a) for b, a in cases] == expected  # after eviction


def test_center_action_examples():
    p2 = plait(2)
    e = idempotent(p2)
    v1e = center_action(1, e)
    assert v1e.terms == {0b01: 1}  # x on the circle {1,2}
    assert not center_action(1, v1e)  # x.x = 0
    # v_i and v_j act identically when i, j lie on the same circle
    m2 = mixed(2)
    a = min_generator(p2, m2)  # single circle through all points
    for i, j in itertools.combinations(range(1, 5), 2):
        assert center_action(i, a) == center_action(j, a)


def test_center_action_is_multiplication_by_the_central_element():
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, ms):
            for a in block_basis(u, v):
                for i in range(1, 2 * n + 1):
                    left = multiply(center_action(i, idempotent(v)), a)
                    right = multiply(a, center_action(i, idempotent(u)))
                    assert left == center_action(i, a) == right


def test_centrality_commutes_with_multiplication():
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        rng = random.Random(n)
        pool = [
            (u, v, a)
            for u, v in itertools.product(ms, ms)
            for a in block_basis(u, v)
        ]
        for _ in range(300):
            u, v, a = rng.choice(pool)
            w = rng.choice(ms)
            b = rng.choice(block_basis(v, w))
            for i in range(1, 2 * n + 1):
                assert center_action(i, multiply(b, a)) == multiply(center_action(i, b), a)
                assert center_action(i, multiply(b, a)) == multiply(b, center_action(i, a))


def test_trace_examples_and_symmetry():
    p2 = plait(2)
    top = ArcCombination(p2, p2, {0b11: 1})
    assert trace(top) == 1
    for n in (1, 2, 3):
        for w in enumerate_matchings(n):
            assert trace(idempotent(w)) == 0
    with pytest.raises(ValueError):
        trace(min_generator(plait(2), mixed(2)))
    # tr(ab) = tr(ba), exhaustive n <= 3
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, ms):
            for a in block_basis(u, v):
                for b in block_basis(v, u):
                    assert trace(multiply(b, a)) == trace(multiply(a, b))


def test_min_generator_degrees():
    p3, m3 = plait(3), mixed(3)

    def degree(u, v):
        (mask,) = min_generator(u, v).terms
        return sdeg(u.n, circles(u, v).c, mask.bit_count())

    assert degree(plait(2), plait(2)) == 0
    assert degree(plait(2), mixed(2)) == 1
    assert degree(p3, m3) == 2  # c(plait3, mix3) = 1


def test_positivity_exhaustive():
    for n in (1, 2, 3):
        assert verify_positivity(n)["ok"]


def test_codim_one_product_laws():
    # Exhaustive n <= 3 here; n = 4 runs in the acceptance suite.
    for n in (2, 3):
        _check_codim_one_laws(n)


def _check_codim_one_laws(n):
    ms = enumerate_matchings(n)
    for w, w2 in itertools.product(ms, ms):
        if codim(w, w2) != 1:
            continue
        moved = set(w.pairs) ^ set(w2.pairs)
        touched = sorted({p for arc in moved for p in arc})
        for w3 in ms:
            lhs = multiply(min_generator(w2, w3), min_generator(w, w2))
            c_w, c_w2 = circles(w, w3).c, circles(w2, w3).c
            alpha = min_generator(w, w3)
            if c_w == c_w2 - 1:
                assert lhs == alpha, (w, w2, w3)
            else:
                assert c_w == c_w2 + 1
                diag = circles(w, w3)
                merged = sorted({diag.circle_of(p) for p in touched})
                assert len(merged) == 2, "exactly two circles merge"
                pts = [diag.circles[k][0] for k in merged]
                expected = center_action(pts[0], alpha) + center_action(pts[1], alpha)
                assert lhs == expected, (w, w2, w3)


def test_factorization_through_interpolation():
    for n in (2, 3):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, ms):
            assert factor_through_interpolation(u, v) == min_generator(u, v)


def test_cyclicity_under_center_action():
    # every basis element of a block is a center monomial times the minimal
    # degree generator
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for u, v in itertools.product(ms, ms):
            diag = circles(u, v)
            reached = {0}
            frontier = [min_generator(u, v)]
            while frontier:
                a = frontier.pop()
                for k in range(diag.c):
                    b = center_action(diag.circles[k][0], a)
                    for m in b.terms:
                        if m not in reached:
                            reached.add(m)
                            frontier.append(b)
            assert reached == set(range(1 << diag.c))


def test_plait_mix_mediated_products_nonzero():
    for n in (2, 3):
        ms = enumerate_matchings(n)
        for mid in (plait(n), mixed(n)):
            for w, w2 in itertools.product(ms, ms):
                prod = multiply(
                    min_generator(mid, w2), min_generator(w, mid)
                )
                assert prod, (mid, w, w2)


def test_multiplication_table_shape():
    t = multiplication_table(2)
    assert t["dim"] == 12
    assert len(t["blocks"]) == 4
    assert all(b["dim"] in (2, 4) for b in t["blocks"])
    # products of e with e appear with coefficient one
    assert any(
        p["result"] and p["result"][0]["coeff"] == 1 for p in t["products"]
    )


def test_basis_products_match_multiply():
    # the one scan behind arc-dump and the positivity check yields every
    # pair of basis elements once, with the product multiply gives
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        seen = 0
        for u, v, w, ma, mb, p in _basis_products(n):
            want = multiply(ArcCombination(v, w, {mb: 1}), ArcCombination(u, v, {ma: 1}))
            assert {m: c for m, c in p.items() if c} == want.terms, (u, v, w, ma, mb)
            seen += 1
        assert seen == sum(2 ** (circles(u, v).c + circles(v, w).c) for u in ms for v in ms for w in ms)


def test_arcelement_labels_roundtrip():
    p2, m2 = plait(2), mixed(2)
    # character k of the label string is circle k's label: bit 1 set is x
    assert _el_json(p2, p2, 0b10) == {
        "source": "(1 2)(3 4)", "target": "(1 2)(3 4)", "labels": "1x"
    }
    assert mask_qdeg(0b10, 2) == 0 and sdeg(2, 2, 1) == 2
    assert _el_json(p2, m2, 0b1)["labels"] == "x"
