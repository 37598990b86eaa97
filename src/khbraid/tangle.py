"""The cup∘cap endofunctor and twists on complexes of projectives.

The twist attached to a braid letter is a mapping cone on the unit or
counit of the cup/cap adjunction:

* positive crossing:  Cone(C -> (cup_i cap_i C){+1})   (cone of the unit)
* negative crossing:  Cone((cup_i cap_i C){-1} -> C)   (cone of the counit)

On a summand P_a the endofunctor cup_i cap_i is P_{a'} for the resurgered
matching a' when a does not contain the arc (i, i+1), and P_a{+1} (+)
P_a{-1} when it does (the closed circle becomes a V factor, labels 1, x).
Morphisms transform by a single saddle surgery at (i, i+1) on their circle
diagrams; closed-circle labels on the source side select the summand by the
Frobenius pairing (label x feeds the 1-summand and vice versa), on the
target side directly.  The result is re-embedded by the cup at (i, i+1),
a strict algebra embedding with the new circle labeled 1.

Unit and counit act on a cup-containing summand by the identity into/out of
the x-labeled summand and by multiplication with the degree-2 center
element at i into/out of the 1-labeled summand; on other summands by the
minimal-degree generator of the codimension-one block.  All coefficients
are +1.
"""

from __future__ import annotations

from functools import lru_cache

from .planar import Matching, cap_apply, circles, cup_insert, cupcap_through, enumerate_matchings
from .arcalg import ArcCombination, idempotent
from .homalg import Complex, ModuleMap, ProjSummand, cone, is_chain_map
from .homalg import eliminate, homology, idempotent_truncate
from .tqft import mask_merge, mask_split


# ---------------------------------------------------------------------------
# cup embedding


@lru_cache(maxsize=None)
def _cup_circle_map(i: int, u: Matching, v: Matching) -> tuple[int, tuple[int, ...]]:
    """(index of the new small circle, old circle index -> new index).

    Cached: u, v have n-1 arcs and 1 <= i <= 2n-1, so at most
    (2n-1)*C_{n-1}^2 entries for each n reached."""
    cu, cv = cup_insert(i, u), cup_insert(i, v)
    big = circles(cu, cv)
    small = big.circle_of(i)
    old = circles(u, v)
    shift = lambda p: p if p < i else p + 2
    remap = tuple(big.circle_of(shift(circ[0])) for circ in old.circles)
    return small, remap


def _cup_entry(i: int, g: ArcCombination) -> ArcCombination:
    """Kunneth embedding of a block element: new (i,i+1) circle labeled 1."""
    small, remap = _cup_circle_map(i, g.source, g.target)
    terms: dict[int, int] = {}
    for m, c in g.terms.items():
        mm = 0
        for k, kk in enumerate(remap):
            if m >> k & 1:
                mm |= 1 << kk
        terms[mm] = terms.get(mm, 0) + c
    return ArcCombination(cup_insert(i, g.source), cup_insert(i, g.target), terms)


# ---------------------------------------------------------------------------
# the saddle surgery on a morphism's circle diagram


@lru_cache(maxsize=None)
def _saddle_schedule(a: Matching, b: Matching, i: int):
    """Combinatorics of the (i, i+1) saddle on C(a, b).

    Returns (op, capped_slots, closed_a_slot, closed_b_slot) where slots
    index the components after surgery: circle k of C(a,b) keeps slot k if
    untouched; a merge creates slot c, a split slots c, c+1 (c = circle
    count of C(a,b)).  capped_slots[k] is the slot carrying circle k of
    circles(cap(a), cap(b)); closed_*_slot is the slot of the circle closed
    off on that side, or None.

    Cached: at most (2n-1)*C_n^2 entries for each n reached.
    """
    n = a.n
    diag = circles(a, b)
    c = diag.c

    def node_a(p):
        return (p, "a") if p in (i, i + 1) else p

    def node_b(p):
        return (p, "b") if p in (i, i + 1) else p

    adj: dict[object, list[object]] = {}

    def link(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    for p, q in a.pairs:
        link(node_a(p), node_a(q))
    for p, q in b.pairs:
        link(node_b(p), node_b(q))
    link((i, "a"), (i + 1, "a"))
    link((i, "b"), (i + 1, "b"))

    def component(start) -> frozenset:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    s_i, s_i1 = diag.circle_of(i), diag.circle_of(i + 1)
    slot_of_node: dict[object, int] = {}
    if s_i != s_i1:
        op = ("m", s_i, s_i1, c)
        touched = {s_i, s_i1}
        new_slots = {frozenset(component(node_a(i))): c}
    else:
        comp1 = component((i, "a"))
        comp2 = component((i, "b"))
        assert comp1 != comp2, "saddle on one circle must split it"
        op = ("s", s_i, c, c + 1)
        touched = {s_i}
        new_slots = {comp1: c, comp2: c + 1}
    for comp, slot in new_slots.items():
        for x in comp:
            slot_of_node[x] = slot
    for k, circ in enumerate(diag.circles):
        if k in touched:
            continue
        for p in circ:
            for nd in (node_a(p), node_b(p)):
                slot_of_node[nd] = k

    a_down, _ = cap_apply(i, a)
    b_down, _ = cap_apply(i, b)
    down = circles(a_down, b_down)
    unshifted = lambda p: p if p < i else p + 2
    capped_slots = tuple(slot_of_node[unshifted(circ[0])] for circ in down.circles)
    closed_a = slot_of_node[(i, "a")] if (i, i + 1) in a.pairs else None
    closed_b = slot_of_node[(i, "b")] if (i, i + 1) in b.pairs else None
    return op, capped_slots, closed_a, closed_b


def _saddle_terms(a: Matching, b: Matching, i: int, g: ArcCombination):
    """Apply the saddle to every term of g.

    Yields (big_mask, p_bit, q_bit, coeff): big_mask labels circles of
    circles(cap a, cap b); p_bit / q_bit are the labels (1 = x) of the
    circles closed off on the a / b side, or None.
    """
    op, capped_slots, closed_a, closed_b = _saddle_schedule(a, b, i)
    state = dict(g.terms)
    if op[0] == "m":
        state = mask_merge(state, 1 << op[1], 1 << op[2], 1 << op[3])
    else:
        state = mask_split(state, 1 << op[1], 1 << op[2], 1 << op[3])
    for mask, coeff in state.items():
        big = 0
        for k, slot in enumerate(capped_slots):
            if mask >> slot & 1:
                big |= 1 << k
        p = (mask >> closed_a) & 1 if closed_a is not None else None
        q = (mask >> closed_b) & 1 if closed_b is not None else None
        yield big, p, q, coeff


# ---------------------------------------------------------------------------
# the cup_i cap_i endofunctor


def _transformed_components(
    i: int, a: Matching, b: Matching, g: ArcCombination
) -> dict[tuple[int | None, int | None], ArcCombination]:
    """Saddle transform of g, split into (source label, target label) parts.

    The source circle label p addresses the summand with the complementary
    label (Frobenius pairing), so components are keyed by u = 1 - p there;
    the target label keys directly.  The entries are re-embedded into
    blocks over the resurgered matchings with the new (i,i+1) circle
    labeled 1.
    """
    a_down, _ = cap_apply(i, a)
    b_down, _ = cap_apply(i, b)
    comps: dict[tuple[int | None, int | None], dict[int, int]] = {}
    for big, p, q, coeff in _saddle_terms(a, b, i, g):
        u = (1 - p) if p is not None else None
        d = comps.setdefault((u, q), {})
        d[big] = d.get(big, 0) + coeff
    out = {}
    for key, terms in comps.items():
        gg = _cup_entry(i, ArcCombination(a_down, b_down, terms))
        if gg:
            out[key] = gg
    return out


def cupcap_functor(i: int, C: Complex) -> tuple[Complex, dict[int, list[list[int]]]]:
    """The endofunctor cup_i cap_i, with the layout of image summands.

    layout[h][k] lists the flat indices of the images of summand k of C^h
    (in label order 1, x when the cap closes a circle).
    """
    terms: dict[int, tuple[ProjSummand, ...]] = {}
    images: dict[int, list[list[tuple[int, int | None]]]] = {}  # (flat index, label)
    for h, summands in C.terms.items():
        flat: list[ProjSummand] = []
        images[h] = []
        for s in summands:
            through, closed = cupcap_through(i, s.matching)
            # the closed circle's label 1 shifts up, label x down
            shifts = ((s.qshift + 1, 0), (s.qshift - 1, 1)) if closed else ((s.qshift, None),)
            images[h].append([(len(flat) + k, u) for k, (_q, u) in enumerate(shifts)])
            flat.extend(ProjSummand(through, q) for q, _u in shifts)
        terms[h] = tuple(flat)
    diffs: dict[int, ModuleMap] = {}
    for h, d in C.diffs.items():
        entries: dict[tuple[int, int], ArcCombination] = {}
        for (r, c), g in d.entries.items():
            a = C.terms[h][c].matching
            b = C.terms[h + 1][r].matching
            for (u, v), gg in _transformed_components(i, a, b, g).items():
                for sp, su in images[h][c]:
                    for tp, tv in images[h + 1][r]:
                        if su == u and tv == v:
                            entries[(tp, sp)] = entries[(tp, sp)] + gg if (tp, sp) in entries else gg
        diffs[h] = ModuleMap(terms[h], terms[h + 1], entries)
    layout = {h: [[p for p, _u in img] for img in imgs] for h, imgs in images.items()}
    return Complex(terms, diffs, check=False), layout


# ---------------------------------------------------------------------------
# unit and counit


def _x_at(i: int, w: Matching) -> ArcCombination:
    """x on the circle of C(w,w) through point i, 1 elsewhere (= v_i e_w)."""
    k = circles(w, w).circle_of(i)
    return ArcCombination(w, w, {1 << k: 1})


def _alpha(a: Matching, b: Matching) -> ArcCombination:
    return ArcCombination(a, b, {0: 1})


def unit_map(i: int, C: Complex) -> tuple[dict[int, ModuleMap], Complex]:
    """The chain map C -> (cup_i cap_i C){1} and its target."""
    D0, layout = cupcap_functor(i, C)
    D = D0.shift_q(1)
    f: dict[int, ModuleMap] = {}
    for h, summands in C.terms.items():
        entries: dict[tuple[int, int], ArcCombination] = {}
        for k, s in enumerate(summands):
            a = s.matching
            positions = layout[h][k]
            if (i, i + 1) in a.pairs:
                entries[(positions[1], k)] = idempotent(a)  # into the x summand
                entries[(positions[0], k)] = _x_at(i, a)  # into the 1 summand
            else:
                through, _ = cupcap_through(i, a)
                entries[(positions[0], k)] = _alpha(a, through)
        f[h] = ModuleMap(C.terms[h], D.terms[h], entries)
    if not is_chain_map(f, C, D):
        raise AssertionError(f"unit at position {i} failed the chain-map check")
    return f, D


def counit_map(i: int, C: Complex) -> tuple[dict[int, ModuleMap], Complex]:
    """The chain map (cup_i cap_i C){-1} -> C and its source."""
    D0, layout = cupcap_functor(i, C)
    D = D0.shift_q(-1)
    f: dict[int, ModuleMap] = {}
    for h, summands in C.terms.items():
        entries: dict[tuple[int, int], ArcCombination] = {}
        for k, s in enumerate(summands):
            a = s.matching
            positions = layout[h][k]
            if (i, i + 1) in a.pairs:
                entries[(k, positions[0])] = idempotent(a)  # from the 1 summand
                entries[(k, positions[1])] = _x_at(i, a)  # from the x summand
            else:
                through, _ = cupcap_through(i, a)
                entries[(k, positions[0])] = _alpha(through, a)
        f[h] = ModuleMap(D.terms[h], C.terms[h], entries)
    if not is_chain_map(f, D, C):
        raise AssertionError(f"counit at position {i} failed the chain-map check")
    return f, D


# ---------------------------------------------------------------------------
# twists


def twist(i: int, sign: int, C: Complex) -> Complex:
    """Mapping-cone twist for one braid letter at strand position i.

    sign +1 builds Cone(C -> (cup cap C){1}) (unit), sign -1 builds
    Cone((cup cap C){-1} -> C) (counit).  Gradings are raw here; the link
    pipeline applies the calibrated per-letter offsets at the end.
    """
    if sign == 1:
        f, D = unit_map(i, C)
        return cone(f, C, D)
    if sign == -1:
        f, D = counit_map(i, C)
        return cone(f, D, C)
    raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# verification suites over the functor layer


def _all_truncated_homologies(n: int, C: Complex) -> dict:
    out = {}
    for a in enumerate_matchings(n):
        out[a] = homology(idempotent_truncate(a, eliminate(C)), "Z")
    return out


def _twist_word(word, C: Complex) -> Complex:
    for i, s in word:
        C = eliminate(twist(i, s, C))
    return C


def verify_braid_relations(n: int) -> dict:
    """Braid relations and distant commutation on e_a-homology of every P_w."""
    checks = []
    positions = range(1, 2 * n)
    for w in enumerate_matchings(n):
        P = Complex.single(w)
        for s in (1, -1):
            for i in positions:
                if i + 1 in positions:
                    lhs = _twist_word([(i, s), (i + 1, s), (i, s)], P)
                    rhs = _twist_word([(i + 1, s), (i, s), (i + 1, s)], P)
                    ok = _all_truncated_homologies(n, lhs) == _all_truncated_homologies(n, rhs)
                    checks.append({"kind": "braid", "w": str(w), "i": i, "sign": s, "ok": ok})
                for j in positions:
                    if j >= i + 2:
                        lhs = _twist_word([(i, s), (j, s)], P)
                        rhs = _twist_word([(j, s), (i, s)], P)
                        ok = (
                            _all_truncated_homologies(n, lhs)
                            == _all_truncated_homologies(n, rhs)
                        )
                        checks.append(
                            {"kind": "commute", "w": str(w), "i": i, "j": j, "sign": s, "ok": ok}
                        )
    return {"n": n, "checks": checks, "ok": all(c["ok"] for c in checks)}


def verify_twist_inverse(n: int) -> dict:
    """twist then inverse twist restores the e_a-homology of every P_w,
    up to the homological shift of one cancelling letter pair."""
    checks = []
    for w in enumerate_matchings(n):
        P = Complex.single(w)
        base = _all_truncated_homologies(n, P)
        for i in range(1, 2 * n):
            for order in ((1, -1), (-1, 1)):
                C = _twist_word([(i, order[0]), (i, order[1])], P)
                got = _all_truncated_homologies(n, C)
                want = {a: H.shifted(-1, 0) for a, H in base.items()}
                ok = got == want
                checks.append({"w": str(w), "i": i, "order": order, "ok": ok})
    return {"n": n, "checks": checks, "ok": all(c["ok"] for c in checks)}
