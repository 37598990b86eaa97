"""The cap functor, the cup∘cap endofunctor and twists on complexes of
projectives.

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
target side directly.  That saddle alone is the cap functor
cap_i: H_n -> H_{n-1} (`cap_functor`), which closes braids.  The cup at
(i, i+1) re-embeds its result: a strict algebra embedding with the new
circle labeled 1.  One schedule per block, built by
`arcalg._surgery_schedule` and run by `arcalg._execute` like a product's,
serves both: it reads off in the block of the cap_apply images or, through
the cup's remap, of the cupcap_through images, and carries the
closed-circle labels in two extra high bits; like a product's, it keeps a
table of the images of basis labelings.

Unit and counit are one map, `_adjunction_map`.  On a cup-containing
summand it is the identity into the x-labeled summand (unit) or out of the
1-labeled summand (counit), plus multiplication with the degree-2 center
element v_i into or out of the other summand; on other summands it is the
minimal-degree generator of the codimension-one block.  All coefficients
are +1.  `cupcap_functor` applies their grading shift, {+1} or {-1}.

A differential or a chain map f_h is an entry dict {(r, c): {mask: coeff}}
between the summands of its degrees (`homalg`); an entry's summands fix its
block, so the identity and the minimal generator are both {0: 1}.  Nothing
here checks what it builds; the twist's cone validates it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .planar import Matching, cap_apply, circles, cupcap_through
from .planar import cup_insert  # kept: perfbench/tracer.py patches tangle.cup_insert
from .arcalg import _execute, _surgery_schedule
from .homalg import Complex, ProjSummand, cone
from .homalg import is_chain_map  # kept: perfbench/tracer.py patches tangle.is_chain_map


# ---------------------------------------------------------------------------
# cup embedding


@lru_cache(maxsize=None)
def _cup_circle_map(i: int, u: Matching, v: Matching) -> tuple[int, ...]:
    """Circle k of C(u, v) -> its index in the cup-inserted diagram, whose
    one other circle is the new small one through i, i+1.

    Circles are ordered by least point, and the cup moves the points from i
    up by 2, so the small circle (least point i) comes right after the
    circles whose least point is below i.

    Cached: u, v have n-1 arcs and 1 <= i <= 2n-1, so at most
    (2n-1)*C_{n-1}^2 entries for each n reached."""
    return tuple(k + (circ[0] >= i) for k, circ in enumerate(circles(u, v).circles))


# ---------------------------------------------------------------------------
# the saddle surgery on a morphism's circle diagram


@lru_cache(maxsize=None)
def _saddle_schedule(a: Matching, b: Matching, i: int):
    """The (i, i+1) saddle on C(a, b) as (ops, down, up, table).

    Running ops on the labelings of C(a, b) by `_execute` and reading off
    by down lands in C(cap_apply images of a, b): down[k] is the slot of
    circle k there.  up is down under the cup's remap, for the
    cupcap_through images; their new (i, i+1) circle reads a slot that no
    op writes, so it stays labeled 1.  The last two finals carry the labels
    of the circles closed off on the a and b side (an unwritten slot, so 0,
    when that side closes none).  table starts empty and is filled by
    `_transformed_components`, under mask << 1 | cup for read-off up or down.

    Cached and unbounded, but each schedule and table entry is made by one
    functor entry: at most (2n-1)*C_n^2 schedules for each n reached, each
    with at most 2^(c(a,b)+1) table entries of at most two parts (a saddle
    merges two circles or splits one).  `cache_clear()` empties the tables.
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
    unshifted = lambda p: p if p < i else p + 2
    down = [slot_of[B(unshifted(circ[0]))] for circ in circles(a_down, b_down).circles]
    down.append(slot_of[B(i)] if (i, i + 1) in a.pairs else blank)
    down.append(slot_of[T(i)] if (i, i + 1) in b.pairs else blank)
    up = [blank] * (len(down) + 1)
    for k, kk in enumerate(_cup_circle_map(i, a_down, b_down)):
        up[kk] = down[k]
    up[-2:] = down[-2:]
    return ops, tuple(down), tuple(up), {}


# ---------------------------------------------------------------------------
# the cap functor and the cup_i cap_i endofunctor


# the nine (source label, target label) part keys, shared by every table part
_PART_KEYS = {key: key for key in product((None, 0, 1), repeat=2)}


def _transformed_components(
    i: int, a: Matching, b: Matching, terms: dict[int, int], cup: bool = True
) -> dict[tuple[int | None, int | None], dict[int, int]]:
    """Saddle transform of the element of block (a, b) with these terms,
    split into (source label, target label) parts.

    The source circle label p addresses the summand with the complementary
    label (Frobenius pairing), so components are keyed by u = 1 - p there;
    the target label keys directly, and a side that closes no circle keys
    None.  Each part is the {mask: coeff} dict, with no zero coefficient,
    of a nonzero element of the block of the cupcap_through images of a and
    b, with the new (i,i+1) circle labeled 1, or with cup False of the
    block of their cap_apply images.  By linearity it sums the table parts
    of the terms' labelings; a labeling missing there is run once and split.
    """
    ops, down, up, table = _saddle_schedule(a, b, i)
    finals = up if cup else down
    c = len(finals) - 2
    closes_a, closes_b = (i, i + 1) in a.pairs, (i, i + 1) in b.pairs
    comps: dict[tuple[int | None, int | None], dict[int, int]] = {}
    for mask, coeff in terms.items():
        parts = table.get(mask << 1 | cup)
        if parts is None:
            parts = table[mask << 1 | cup] = tuple(
                (_PART_KEYS[1 - (m >> c & 1) if closes_a else None, m >> (c + 1) & 1 if closes_b else None],
                 m & ((1 << c) - 1), x) for m, x in _execute({mask: 1}, ops, finals).items())
        for key, m, x in parts:
            part = comps.setdefault(key, {})
            part[m] = part.get(m, 0) + coeff * x
    return {key: kept for key, part in comps.items() if (kept := {m: x for m, x in part.items() if x})}


def _saddle_functor(i: int, C: Complex, q: int, cup: bool) -> tuple[Complex, dict[int, list[list[int]]]]:
    """(cup_i cap_i C){q}, or (cap_i C){q} when cup is False, and the layout
    of image summands: layout[h][k] lists the flat indices of the images of
    summand k of C^h (in label order 1, x when the cap closes a circle)."""
    terms: dict[int, tuple[ProjSummand, ...]] = {}
    images: dict[int, list[dict[int | None, int]]] = {}  # label -> flat index
    for h, summands in C.terms.items():
        flat: list[ProjSummand] = []
        images[h] = []
        for s in summands:
            image, closed = cupcap_through(i, s.matching) if cup else cap_apply(i, s.matching)
            t = s.qshift + q
            # the closed circle's label 1 shifts up, label x down
            shifts = ((t + 1, 0), (t - 1, 1)) if closed else ((t, None),)
            images[h].append({u: len(flat) + k for k, (_t, u) in enumerate(shifts)})
            flat.extend(ProjSummand(image, shift) for shift, _u in shifts)
        terms[h] = tuple(flat)
    diffs: dict[int, dict] = {}
    for h, d in C.diffs.items():
        entries = diffs[h] = {}
        for (r, c), g in d.items():
            src, tgt = images[h][c], images[h + 1][r]
            a, b = C.terms[h][c].matching, C.terms[h + 1][r].matching
            for (u, v), gg in _transformed_components(i, a, b, g, cup).items():
                entries[(tgt[v], src[u])] = gg
    layout = {h: [list(img.values()) for img in imgs] for h, imgs in images.items()}
    return Complex(terms, diffs), layout


def cupcap_functor(i: int, C: Complex, q: int) -> tuple[Complex, dict[int, list[list[int]]]]:
    """(cup_i cap_i C){q} and its layout (`_saddle_functor`)."""
    return _saddle_functor(i, C, q, True)


def cap_functor(i: int, C: Complex) -> Complex:
    """cap_i C, from H_n to H_{n-1}: Hom(P_{cup_i a}, C) = Hom(P_a, cap_i C)."""
    return _saddle_functor(i, C, 0, False)[0]


# ---------------------------------------------------------------------------
# unit and counit


def _adjunction_map(i: int, sign: int, C: Complex) -> tuple[dict[int, dict], Complex]:
    """The unit C -> (cup_i cap_i C){1} for sign +1, the counit
    (cup_i cap_i C){-1} -> C for sign -1, and that functor image.  f[h] is
    the entry dict from the map's source's terms[h] to its target's.

    Unchecked: the d^2 check of its cone is the one chain-map check per
    letter, so a bad map raises ValueError from `cone`.
    """
    D, layout = cupcap_functor(i, C, sign)
    f: dict[int, dict] = {}
    for h, summands in C.terms.items():
        entries = f[h] = {}
        for k, s in enumerate(summands):
            one, *x = layout[h][k]  # the 1 and x summands, or the one image
            if x:  # the identity into x (unit) or out of 1 (counit), v_i on the other
                ident, vi = (x[0], one) if sign == 1 else (one, x[0])
                a = s.matching  # v_i e_a is x on the circle of C(a, a) through i
                pairs = ((ident, {0: 1}), (vi, {1 << circles(a, a).circle_of(i): 1}))
            else:
                pairs = ((one, {0: 1}),)  # the minimal generator
            for pos, g in pairs:
                entries[(pos, k) if sign == 1 else (k, pos)] = g
    return f, D


def unit_map(i: int, C: Complex) -> tuple[dict[int, dict], Complex]:
    """The chain map C -> (cup_i cap_i C){1} and its target."""
    return _adjunction_map(i, 1, C)


def counit_map(i: int, C: Complex) -> tuple[dict[int, dict], Complex]:
    """The chain map (cup_i cap_i C){-1} -> C and its source."""
    return _adjunction_map(i, -1, C)


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
