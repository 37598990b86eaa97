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
a strict algebra embedding with the new circle labeled 1.  Saddle and cup
are one schedule, built by `arcalg._surgery_schedule` and run by
`arcalg._execute` like a product's: it lands in the block of the
cupcap_through images and carries the closed-circle labels in two extra
high bits.

Unit and counit act on a cup-containing summand by the identity into/out of
the x-labeled summand and by multiplication with the degree-2 center
element at i into/out of the 1-labeled summand; on other summands by the
minimal-degree generator of the codimension-one block.  All coefficients
are +1.

Entries are {mask: coeff} dicts, whose blocks their summands fix, so the
identity and the minimal generator are both {0: 1}.  Nothing here checks
what it builds; the twist's cone validates it.
"""

from __future__ import annotations

from functools import lru_cache

from .planar import Matching, cap_apply, circles, cup_insert, cupcap_through, enumerate_matchings
from .arcalg import _execute, _surgery_schedule
from .homalg import Complex, ModuleMap, ProjSummand, cone
from .homalg import is_chain_map  # kept: perfbench/tracer.py patches tangle.is_chain_map
from .homalg import eliminate, homology, idempotent_truncate


# ---------------------------------------------------------------------------
# cup embedding


@lru_cache(maxsize=None)
def _cup_circle_map(i: int, u: Matching, v: Matching) -> tuple[int, ...]:
    """Circle k of C(u, v) -> its index in the cup-inserted diagram, whose
    one other circle is the new small one through i, i+1.

    Cached: u, v have n-1 arcs and 1 <= i <= 2n-1, so at most
    (2n-1)*C_{n-1}^2 entries for each n reached."""
    cu, cv = cup_insert(i, u), cup_insert(i, v)
    big = circles(cu, cv)
    shift = lambda p: p if p < i else p + 2
    return tuple(big.circle_of(shift(circ[0])) for circ in circles(u, v).circles)


# ---------------------------------------------------------------------------
# the saddle surgery on a morphism's circle diagram


@lru_cache(maxsize=None)
def _saddle_schedule(a: Matching, b: Matching, i: int):
    """The (i, i+1) saddle on C(a, b) as (ops, finals) for `_execute`.

    Running it on the labelings of C(a, b) lands in C(a', b'), where a', b'
    are the cupcap_through images: finals[k] for k < c = c(a', b') is the
    slot of circle k there, and the new (i, i+1) circle reads a slot that
    no op writes, so it stays labeled 1.  finals[c] and finals[c + 1] carry
    the labels of the circles closed off on the a and b side (an unwritten
    slot, so 0, when that side closes none).

    Cached: at most (2n-1)*C_n^2 entries for each n reached.
    """
    # nodes 0..2n-1 are the points of a, 2n..4n-1 those of b; C(a, b) joins
    # each point to its copy, and the saddle cuts points i, i+1 apart
    n = a.n
    B = lambda p: p - 1
    T = lambda p: 2 * n + p - 1
    arcs = [(B(p), B(q)) for p, q in a.pairs] + [(T(p), T(q)) for p, q in b.pairs]
    arcs += [(B(p), T(p)) for p in range(1, 2 * n + 1)]
    ops, slot_of = _surgery_schedule(arcs, [(B(i), T(i), B(i + 1), T(i + 1))])
    blank = ops[0][-1] + 1  # one past the last slot the saddle writes
    a_down, _ = cap_apply(i, a)
    b_down, _ = cap_apply(i, b)
    remap = _cup_circle_map(i, a_down, b_down)
    finals = [blank] * (len(remap) + 3)
    unshifted = lambda p: p if p < i else p + 2
    for circ, k in zip(circles(a_down, b_down).circles, remap):
        finals[k] = slot_of[B(unshifted(circ[0]))]
    if (i, i + 1) in a.pairs:
        finals[-2] = slot_of[B(i)]
    if (i, i + 1) in b.pairs:
        finals[-1] = slot_of[T(i)]
    return ops, tuple(finals)


# ---------------------------------------------------------------------------
# the cup_i cap_i endofunctor


def _transformed_components(
    i: int, a: Matching, b: Matching, terms: dict[int, int]
) -> dict[tuple[int | None, int | None], dict[int, int]]:
    """Saddle transform of the element of block (a, b) with these terms,
    split into (source label, target label) parts.

    The source circle label p addresses the summand with the complementary
    label (Frobenius pairing), so components are keyed by u = 1 - p there;
    the target label keys directly, and a side that closes no circle keys
    None.  Each part is the {mask: coeff} dict, with no zero coefficient,
    of a nonzero element of the block of the cupcap_through images of a and
    b, with the new (i,i+1) circle labeled 1.
    """
    ops, finals = _saddle_schedule(a, b, i)
    c = len(finals) - 2
    closes_a, closes_b = (i, i + 1) in a.pairs, (i, i + 1) in b.pairs
    comps: dict[tuple[int | None, int | None], dict[int, int]] = {}
    for m, coeff in _execute(dict(terms), ops, finals).items():
        u = 1 - (m >> c & 1) if closes_a else None
        v = m >> (c + 1) & 1 if closes_b else None
        comps.setdefault((u, v), {})[m & ((1 << c) - 1)] = coeff
    return {key: kept for key, part in comps.items() if (kept := {m: x for m, x in part.items() if x})}


def cupcap_functor(i: int, C: Complex) -> tuple[Complex, dict[int, list[list[int]]]]:
    """The endofunctor cup_i cap_i, with the layout of image summands.

    layout[h][k] lists the flat indices of the images of summand k of C^h
    (in label order 1, x when the cap closes a circle).
    """
    terms: dict[int, tuple[ProjSummand, ...]] = {}
    images: dict[int, list[dict[int | None, int]]] = {}  # label -> flat index
    for h, summands in C.terms.items():
        flat: list[ProjSummand] = []
        images[h] = []
        for s in summands:
            through, closed = cupcap_through(i, s.matching)
            # the closed circle's label 1 shifts up, label x down
            shifts = ((s.qshift + 1, 0), (s.qshift - 1, 1)) if closed else ((s.qshift, None),)
            images[h].append({u: len(flat) + k for k, (_q, u) in enumerate(shifts)})
            flat.extend(ProjSummand(through, q) for q, _u in shifts)
        terms[h] = tuple(flat)
    diffs: dict[int, ModuleMap] = {}
    for h, d in C.diffs.items():
        entries: dict[tuple[int, int], dict[int, int]] = {}
        for (r, c), g in d.entries.items():
            src, tgt = images[h][c], images[h + 1][r]
            a, b = C.terms[h][c].matching, C.terms[h + 1][r].matching
            for (u, v), gg in _transformed_components(i, a, b, g).items():
                entries[(tgt[v], src[u])] = gg
        diffs[h] = ModuleMap(terms[h], terms[h + 1], entries)
    layout = {h: [list(img.values()) for img in imgs] for h, imgs in images.items()}
    return Complex(terms, diffs, check=False), layout


# ---------------------------------------------------------------------------
# unit and counit


def _x_at(i: int, w: Matching) -> dict[int, int]:
    """x on the circle of C(w,w) through point i, 1 elsewhere (= v_i e_w)."""
    return {1 << circles(w, w).circle_of(i): 1}


def unit_map(i: int, C: Complex) -> tuple[dict[int, ModuleMap], Complex]:
    """The chain map C -> (cup_i cap_i C){1} and its target.  Unchecked: the
    d^2 check of its cone is the one chain-map check per letter, so a bad
    unit raises ValueError from `cone`, not AssertionError from here."""
    D0, layout = cupcap_functor(i, C)
    D = D0.shift_q(1)
    f: dict[int, ModuleMap] = {}
    for h, summands in C.terms.items():
        entries: dict[tuple[int, int], dict[int, int]] = {}
        for k, s in enumerate(summands):
            a = s.matching
            positions = layout[h][k]
            if (i, i + 1) in a.pairs:
                entries[(positions[1], k)] = {0: 1}  # e_a into the x summand
                entries[(positions[0], k)] = _x_at(i, a)  # v_i into the 1 summand
            else:
                entries[(positions[0], k)] = {0: 1}  # the minimal generator
        f[h] = ModuleMap(C.terms[h], D.terms[h], entries)
    return f, D


def counit_map(i: int, C: Complex) -> tuple[dict[int, ModuleMap], Complex]:
    """The chain map (cup_i cap_i C){-1} -> C and its source.  Unchecked: the
    d^2 check of its cone is the one chain-map check per letter, so a bad
    counit raises ValueError from `cone`, not AssertionError from here."""
    D0, layout = cupcap_functor(i, C)
    D = D0.shift_q(-1)
    f: dict[int, ModuleMap] = {}
    for h, summands in C.terms.items():
        entries: dict[tuple[int, int], dict[int, int]] = {}
        for k, s in enumerate(summands):
            a = s.matching
            positions = layout[h][k]
            # e_a from the 1 summand, or the minimal generator
            entries[(k, positions[0])] = {0: 1}
            if (i, i + 1) in a.pairs:
                entries[(k, positions[1])] = _x_at(i, a)  # v_i from the x summand
        f[h] = ModuleMap(D.terms[h], C.terms[h], entries)
    return f, D


# ---------------------------------------------------------------------------
# twists


def twist(i: int, sign: int, C: Complex) -> Complex:
    """Mapping-cone twist for one braid letter at strand position i.

    sign +1 builds Cone(C -> (cup cap C){1}) (unit), sign -1 builds
    Cone((cup cap C){-1} -> C) (counit).  Gradings are raw here; the link
    pipeline applies the calibrated per-letter offsets at the end.

    The cone's d^2 check is the one chain-map check per letter: it covers
    f d_C - d_D f, the quantum degree of f, d_C^2 (the only check of
    `eliminate`'s output) and d_D^2 (the only check of the functor's
    output), and raises ValueError when any of them fails.
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
