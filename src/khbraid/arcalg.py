"""Khovanov's arc algebra H_n over Z.

A basis element of the block (w, w') is a {1,x}-labeling of the circles of
the diagram w ∪ reflect(w').  Multiplication stacks two circle diagrams
along their common middle matching and contracts its n arcs one at a time;
each contraction merges two circles or splits one, and the Frobenius
algebra V says what happens to labels.

The merge/split pattern of a triple (u, v, w) does not depend on labels, so
it is computed once as a "schedule" and cached together with a table of
basis products.  `_surgery_schedule` is the one builder of such schedules:
it follows the circles of a diagram through a run of saddles, here the
contractions of v's arcs and in `khbraid.tangle` the single saddle of the
cup∘cap functor, naming each circle by the slot it lives in and walking
only the circles a saddle creates.  Both kinds have one shape and one
table reader, `_add_products`, which `multiply`, `khbraid.homalg`'s `compose`
and `eliminate`, `khbraid.tangle`'s saddle and the scan of all basis products
`_basis_products` call: it runs `_execute` on a pair of basis labelings (a
labeling, for a saddle) the first time it is asked for and reads the table
after that, adding up table entries.  The scan is the one loop behind arc-dump's
`multiplication_table` and `verify_positivity`.  The cache holds at
most ``_MULT_SCHEDULE_MAXSIZE`` triples, least recently used first out,
and each triple's table at most 2^(c(u,v) + c(v,w)) products.
"""

from __future__ import annotations

from functools import lru_cache

from .planar import Matching, circles, enumerate_matchings, interpolate
from .tqft import mask_merge, mask_split


class ArcCombination:
    """Z-linear combination of basis elements of one block (source, target).

    A basis element is a labeling of circles(source, target), held as a
    mask with bit k set when circle k (in the canonical order of
    :func:`khbraid.planar.circles`) is labeled x; ``terms`` is {mask: coeff}.
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: Matching, target: Matching, terms: dict[int, int] | None = None):
        self.source = source
        self.target = target
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- ring-module structure

    def __add__(self, other: "ArcCombination") -> "ArcCombination":
        if self.source != other.source or self.target != other.target:
            raise ValueError("block mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return ArcCombination(self.source, self.target, terms)

    def __rmul__(self, k: int) -> "ArcCombination":
        return ArcCombination(self.source, self.target, {m: k * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArcCombination)
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"0[{self.source} -> {self.target}]"
        c = circles(self.source, self.target).c
        bits = [f"{self.terms[m]:+d}*{_labels(m, c)}" for m in sorted(self.terms)]
        return f"({' '.join(bits)})[{self.source} -> {self.target}]"


def min_generator(source: Matching, target: Matching) -> ArcCombination:
    """The all-1 labeling, lowest degree element of its block."""
    return ArcCombination(source, target, {0: 1})


def idempotent(w: Matching) -> ArcCombination:
    """e_w, the identity of the diagonal block (w, w)."""
    return min_generator(w, w)


# ---------------------------------------------------------------------------
# multiplication


def _surgery_schedule(arcs, saddles):
    """Merge/split schedule of a run of saddles on a disjoint union of circles.

    The nodes are 0..N-1 with N = len(arcs): ``arcs`` joins nodes in pairs,
    each node on exactly two arcs, so the components are circles; they
    start in slots 0, 1, ... in the order of their least node.  A saddle
    (p, q, r, s) on four distinct nodes replaces the arcs (p, q) and (r, s)
    by (p, r) and (q, s): it merges the circles of p and r, or splits their
    common circle into the halves through p and through q.  Every result
    goes to a fresh slot, and that slot is the circle's only name.

    Each node's two neighbours are a 2-list that a saddle rewires in place,
    and one walk (previous node, current node) writes a slot on every node
    of one circle.  A saddle walks only the circles it creates, at most N
    nodes, so a product's n contractions on 4n nodes cost O(n^2).

    Returns (ops, slot_of): ops is a list of ("m", s1, s2, dst) /
    ("s", src, d1, d2) for `_execute`, where d1 holds the half through p;
    slot_of is a list, indexed by node, of the slot of the node's circle
    after the last saddle.
    """
    adj: list[list[int]] = [[] for _ in arcs]
    for x, y in arcs:
        adj[x].append(y)
        adj[y].append(x)
    slot_of = [-1] * len(adj)

    def walk(start: int, slot: int) -> None:
        slot_of[start] = slot
        prev, cur = start, adj[start][0]
        while cur != start:
            slot_of[cur] = slot
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)

    slots = 0
    for x in range(len(adj)):
        if slot_of[x] < 0:
            walk(x, slots)
            slots += 1
    ops: list[tuple] = []
    for p, q, r, s in saddles:
        # the arcs (p, q) and (r, s) become (p, r) and (q, s)
        a = adj[p]
        a[a.index(q)] = r
        a = adj[q]
        a[a.index(p)] = s
        a = adj[r]
        a[a.index(s)] = p
        a = adj[s]
        a[a.index(r)] = q
        if slot_of[p] != slot_of[r]:
            ops.append(("m", slot_of[p], slot_of[r], slots))
            walk(p, slots)
            slots += 1
        else:
            ops.append(("s", slot_of[p], slots, slots + 1))
            walk(p, slots)
            walk(q, slots + 1)
            # had q stayed on p's circle, its walk would have renamed p
            assert slot_of[p] == slots, "surgery on one circle must split it in two"
            slots += 2
    return ops, slot_of


_MULT_SCHEDULE_MAXSIZE = 1 << 13


@lru_cache(maxsize=_MULT_SCHEDULE_MAXSIZE)
def _mult_schedule(u: Matching, v: Matching, w: Matching):
    """Surgery schedule contracting the middle v between (u,v) and (v,w).

    Returns (n_bottom_circles, ops, finals, table): ops is a sequence of
    ("m", s1, s2, dst) / ("s", src, d1, d2) acting on slot ids, where the
    bottom diagram's circles start as slots 0..cb-1 and the top diagram's as
    cb..cb+ct-1; finals[k] is the slot holding circle k of circles(u, w).
    table starts empty; `_add_products` stores in it, under the key
    ma | mb << cb, the product of the basis labelings ma of (u, v) and mb
    of (v, w) as a tuple of (mask, coeff) pairs.  The table is shared by
    every caller and mutated by design: it is a cache, not a value.

    v's arcs are contracted in left-endpoint order; any order gives the
    same products (a tested property).

    Bounded: at most _MULT_SCHEDULE_MAXSIZE triples, least recently used
    evicted first with their tables (a word on 4-6 strands reaches a few
    thousand; the exhaustive positivity scan at n = 5 reaches 74 088), and
    at most 2^(c(u,v) + c(v,w)) products in one table.
    """
    # bottom points 1..2n are nodes 0..2n-1, top points nodes 2n..4n-1; an
    # arc of v contracts by joining each of its ends to its copy
    n = u.n
    B = lambda p: p - 1
    T = lambda p: 2 * n + p - 1
    arcs = [(B(p), B(q)) for p, q in u.pairs + v.pairs]
    arcs += [(T(p), T(q)) for p, q in v.pairs + w.pairs]
    saddles = [(B(p), B(q), T(p), T(q)) for p, q in v.pairs]
    ops, slot_of = _surgery_schedule(arcs, saddles)
    finals = tuple(slot_of[B(circ[0])] for circ in circles(u, w).circles)
    return circles(u, v).c, ops, finals, {}


def _execute(state: dict[int, int], ops, finals) -> dict[int, int]:
    for op in ops:
        if op[0] == "m":
            state = mask_merge(state, 1 << op[1], 1 << op[2], 1 << op[3])
        else:
            state = mask_split(state, 1 << op[1], 1 << op[2], 1 << op[3])
    out: dict[int, int] = {}
    for mask, coeff in state.items():
        m = 0
        for k, s in enumerate(finals):
            if mask >> s & 1:
                m |= 1 << k
        out[m] = out.get(m, 0) + coeff
    return out


def _add_products(
    acc: dict[int, int], schedule, a_terms: dict[int, int], b_terms: dict[int, int], k: int,
    offset: int = 0,
) -> None:
    """Add k * (b*a) into acc, for a in (u, v) and b in (v, w) given by
    their {mask: coeff} terms and ``schedule`` = _mult_schedule(u, v, w),
    or k * the saddle image of a for `khbraid.tangle._saddle_schedule` and
    b = {0: 1}.  A product mask m adds under the key offset | m: offset is
    0, or in `khbraid.homalg.compose` an entry's index above bit 32.

    The one reader of every surgery table: a product missing from it is
    computed by running the schedule on that pair, and stored.
    """
    cb, ops, finals, table = schedule
    get = acc.get
    for ma, ca in a_terms.items():
        for mb, cbf in b_terms.items():
            key = ma | mb << cb
            prod = table.get(key)
            if prod is None:
                prod = table[key] = tuple(_execute({key: 1}, ops, finals).items())
            scale = k * ca * cbf
            for m, p in prod:
                m |= offset
                acc[m] = get(m, 0) + scale * p


def multiply(b: ArcCombination, a: ArcCombination) -> ArcCombination:
    """Product b*a for a in block (u,v), b in block (v,w); lands in (u,w).

    Mismatched middle matchings multiply to zero (orthogonal idempotents).
    """
    acc: dict[int, int] = {}
    if a.target == b.source:
        _add_products(acc, _mult_schedule(a.source, a.target, b.target), a.terms, b.terms, 1)
    return ArcCombination(a.source, b.target, acc)


# ---------------------------------------------------------------------------
# center action, trace, dimensions


def center_action(i: int, a: ArcCombination) -> ArcCombination:
    """v_i a: multiplies by x the label of the circle through point i."""
    k = circles(a.source, a.target).circle_of(i)
    bit = 1 << k
    terms: dict[int, int] = {}
    for m, c in a.terms.items():
        if m & bit:
            continue  # x * x = 0
        terms[m | bit] = terms.get(m | bit, 0) + c
    return ArcCombination(a.source, a.target, terms)


def trace(a: ArcCombination) -> int:
    """Coefficient of the all-x labeling; defined on diagonal blocks only."""
    if a.source != a.target:
        raise ValueError("trace requires source == target")
    top = (1 << circles(a.source, a.target).c) - 1
    return a.terms.get(top, 0)


def dim_hn(n: int) -> int:
    ms = enumerate_matchings(n)
    return sum(2 ** circles(u, v).c for u in ms for v in ms)


def factor_through_interpolation(w0: Matching, wk: Matching) -> ArcCombination:
    """Ordered product of minimal generators along interpolate(w0, wk)."""
    seq = interpolate(w0, wk)
    acc = idempotent(w0)
    for a, b in zip(seq, seq[1:]):
        acc = multiply(min_generator(a, b), acc)
    return acc


def _basis_products(n: int):
    """Every product of two basis elements of H_n, as (u, v, w, ma, mb, p):
    p is mb * ma as a {mask: coeff} dict of the block (u, w), for ma a
    labeling of (u, v) and mb one of (v, w).  u, v, w run over the
    matchings and then ma, mb over the masks, each in increasing order.
    """
    ms = enumerate_matchings(n)
    for u in ms:
        for v in ms:
            for w in ms:
                schedule = _mult_schedule(u, v, w)
                for ma in range(1 << schedule[0]):
                    for mb in range(1 << circles(v, w).c):
                        p: dict[int, int] = {}
                        _add_products(p, schedule, {ma: 1}, {mb: 1}, 1)
                        yield u, v, w, ma, mb, p


def _labels(mask: int, c: int) -> str:
    """The labeling of c circles as a string, character k "x" or "1"."""
    return "".join("x" if mask >> k & 1 else "1" for k in range(c))


def _el_json(source: Matching, target: Matching, mask: int) -> dict:
    labels = _labels(mask, circles(source, target).c)
    return {"source": str(source), "target": str(target), "labels": labels}


def multiplication_table(n: int) -> dict:
    """Basis sizes per block and all pairwise basis products, JSON-ready."""
    ms = enumerate_matchings(n)
    blocks = [{"source": str(u), "target": str(v), "dim": 2 ** circles(u, v).c} for u in ms for v in ms]
    products = [
        {
            "left": _el_json(v, w, mb),
            "right": _el_json(u, v, ma),
            "result": [{"element": _el_json(u, w, m), "coeff": p[m]} for m in sorted(p) if p[m]],
        }
        for u, v, w, ma, mb, p in _basis_products(n)
    ]
    return {"n": n, "dim": dim_hn(n), "blocks": blocks, "products": products}


def verify_positivity(n: int) -> dict:
    """All structure constants of H_n are >= 0 (exhaustive product scan)."""
    scanned = 0
    negatives = []
    for u, v, w, ma, mb, p in _basis_products(n):
        scanned += 1
        bad = {m: c for m, c in p.items() if c < 0}
        if bad:
            negatives.append({"left": _el_json(v, w, mb), "right": _el_json(u, v, ma), "bad": bad})
    return {"n": n, "products_scanned": scanned, "negatives": negatives, "ok": not negatives}
