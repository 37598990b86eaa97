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
cup∘cap functor, and `_execute` runs every schedule on labelings.  The
product of two basis labelings is computed by running the schedule on that
one pair the first time it is asked for, and read from the table after
that; a product of combinations adds up table entries (`multiply_into`),
and so does the action of one element on a whole block of basis labelings
(`basis_images`, which the idempotent truncation reads).  The cache holds at
most ``_MULT_SCHEDULE_MAXSIZE`` triples, least recently used first out,
and each triple's table at most 2^(c(u,v) + c(v,w)) products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .planar import Matching, circles, enumerate_matchings, interpolate
from .tqft import Label, mask_merge, mask_split, mask_qdeg, sdeg


@dataclass(frozen=True)
class ArcElement:
    """Basis element: a labeling of circles(source, target).

    ``mask`` has bit k set when circle k (in the canonical order of
    :func:`khbraid.planar.circles`) is labeled x.
    """

    source: Matching
    target: Matching
    mask: int

    @property
    def labels(self) -> tuple[Label, ...]:
        c = circles(self.source, self.target).c
        return tuple(Label.X if self.mask >> k & 1 else Label.ONE for k in range(c))

    @property
    def qdeg(self) -> int:
        return mask_qdeg(self.mask, circles(self.source, self.target).c)

    @property
    def sdeg(self) -> int:
        d = circles(self.source, self.target)
        return sdeg(self.source.n, d.c, bin(self.mask).count("1"))


class ArcCombination:
    """Z-linear combination of basis elements of one block (source, target)."""

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: Matching, target: Matching, terms: dict[int, int] | None = None):
        self.source = source
        self.target = target
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors

    @classmethod
    def from_element(cls, el: ArcElement, coeff: int = 1) -> "ArcCombination":
        return cls(el.source, el.target, {el.mask: coeff})

    # -- ring-module structure

    def __add__(self, other: "ArcCombination") -> "ArcCombination":
        self._check_block(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return ArcCombination(self.source, self.target, terms)

    def __sub__(self, other: "ArcCombination") -> "ArcCombination":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "ArcCombination":
        return ArcCombination(self.source, self.target, {m: k * c for m, c in self.terms.items()})

    def __neg__(self) -> "ArcCombination":
        return (-1) * self

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
        bits = []
        c = circles(self.source, self.target).c
        for m in sorted(self.terms):
            lab = "".join("x" if m >> k & 1 else "1" for k in range(c))
            bits.append(f"{self.terms[m]:+d}*{lab}")
        return f"({' '.join(bits)})[{self.source} -> {self.target}]"

    def _check_block(self, other: "ArcCombination"):
        if self.source != other.source or self.target != other.target:
            raise ValueError("block mismatch")

    # -- inspection

    def elements(self) -> list[tuple[ArcElement, int]]:
        return [(ArcElement(self.source, self.target, m), c) for m, c in sorted(self.terms.items())]

    def is_homogeneous(self, q: int) -> bool:
        c = circles(self.source, self.target).c
        return all(mask_qdeg(m, c) == q for m in self.terms)


def min_generator(source: Matching, target: Matching) -> ArcElement:
    """The all-1 labeling, lowest degree element of its block."""
    return ArcElement(source, target, 0)


def idempotent(w: Matching) -> ArcCombination:
    """e_w, the identity of the diagonal block (w, w)."""
    return ArcCombination.from_element(min_generator(w, w))


# ---------------------------------------------------------------------------
# multiplication


def _surgery_schedule(arcs, saddles):
    """Merge/split schedule of a run of saddles on a disjoint union of circles.

    ``arcs`` joins nodes in pairs, each node on exactly two arcs, so the
    components are circles; they start in slots 0, 1, ... in the order of
    their least node.  A saddle (p, q, r, s) replaces the arcs (p, q) and
    (r, s) by (p, r) and (q, s): it merges the circles of p and r, or
    splits their common circle into the halves through p and through q.
    Every result goes to a fresh slot.

    Returns (ops, slot_of): ops is a list of ("m", s1, s2, dst) /
    ("s", src, d1, d2) for `_execute`, where d1 holds the half through p;
    slot_of maps every node to the slot of its circle after the last saddle.
    """
    nbr: dict[int, list[int]] = {}
    for x, y in arcs:
        nbr.setdefault(x, []).append(y)
        nbr.setdefault(y, []).append(x)

    def component(start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            for y in nbr[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    slot_of: dict[int, int] = {}
    slots = 0
    for x in sorted(nbr):
        if x not in slot_of:
            slot_of.update(dict.fromkeys(component(x), slots))
            slots += 1
    ops: list[tuple] = []
    for p, q, r, s in saddles:
        for x, y in ((p, q), (r, s)):
            nbr[x].remove(y)
            nbr[y].remove(x)
        for x, y in ((p, r), (q, s)):
            nbr[x].append(y)
            nbr[y].append(x)
        halves = [component(p)]
        if slot_of[p] != slot_of[r]:
            ops.append(("m", slot_of[p], slot_of[r], slots))
        else:
            assert q not in halves[0], "surgery on one circle must split it in two"
            ops.append(("s", slot_of[p], slots, slots + 1))
            halves.append(component(q))
        for half in halves:
            slot_of.update(dict.fromkeys(half, slots))
            slots += 1
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
    acc: dict[int, int], schedule, a_terms: dict[int, int], b_terms: dict[int, int], k: int
) -> None:
    """Add k * (b*a) into acc, for a in (u, v) and b in (v, w) given by
    their {mask: coeff} terms and ``schedule`` = _mult_schedule(u, v, w).

    The one reader of a schedule's basis-product table: a product missing
    from it is computed by running the schedule on that pair, and stored.
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
                acc[m] = get(m, 0) + scale * p


def multiply_into(acc: dict[int, int], b: ArcCombination, a: ArcCombination, k: int = 1) -> None:
    """Add k * (b*a) into acc, a {mask: coeff} dict of the block (u, w).

    a lies in block (u,v) and b in (v,w); mismatched middle matchings
    multiply to zero, so nothing is added.  Coefficients that cancel are
    left in acc as zeros.
    """
    if a.target != b.source:
        return
    _add_products(acc, _mult_schedule(a.source, a.target, b.target), a.terms, b.terms, k)


def multiply(b: ArcCombination, a: ArcCombination) -> ArcCombination:
    """Product b*a for a in block (u,v), b in block (v,w); lands in (u,w).

    Mismatched middle matchings multiply to zero (orthogonal idempotents).
    """
    acc: dict[int, int] = {}
    multiply_into(acc, b, a)
    return ArcCombination(a.source, b.target, acc)


def basis_images(g: ArcCombination, u: Matching) -> list[dict[int, int]]:
    """g*m for every basis labeling m of the block (u, g.source), indexed by m.

    Each image is a {mask: coeff} dict of the block (u, g.target); zero
    coefficients may be left in it.  One schedule lookup serves the whole
    block, and every product is read from the table `multiply_into` fills.
    """
    schedule = _mult_schedule(u, g.source, g.target)
    images = []
    for m in range(1 << schedule[0]):
        img: dict[int, int] = {}
        _add_products(img, schedule, {m: 1}, g.terms, 1)
        images.append(img)
    return images


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


def block_basis(source: Matching, target: Matching) -> list[ArcElement]:
    c = circles(source, target).c
    return [ArcElement(source, target, m) for m in range(1 << c)]


def factor_through_interpolation(w0: Matching, wk: Matching) -> ArcCombination:
    """Ordered product of minimal generators along interpolate(w0, wk)."""
    seq = interpolate(w0, wk)
    acc = idempotent(w0)
    for a, b in zip(seq, seq[1:]):
        acc = multiply(ArcCombination.from_element(min_generator(a, b)), acc)
    return acc


def multiplication_table(n: int) -> dict:
    """Basis sizes per block and all pairwise basis products, JSON-ready."""
    ms = enumerate_matchings(n)
    names = {w: str(w) for w in ms}
    blocks = [
        {"source": names[u], "target": names[v], "dim": 2 ** circles(u, v).c}
        for u in ms
        for v in ms
    ]
    products = []
    for u in ms:
        for v in ms:
            for w in ms:
                for x in block_basis(u, v):
                    for y in block_basis(v, w):
                        p = multiply(ArcCombination.from_element(y), ArcCombination.from_element(x))
                        products.append(
                            {
                                "left": _el_json(y),
                                "right": _el_json(x),
                                "result": [
                                    {"element": _el_json(el), "coeff": c} for el, c in p.elements()
                                ],
                            }
                        )
    return {"n": n, "dim": dim_hn(n), "blocks": blocks, "products": products}


def _el_json(el: ArcElement) -> dict:
    return {
        "source": str(el.source),
        "target": str(el.target),
        "labels": "".join("x" if l is Label.X else "1" for l in el.labels),
    }


def verify_positivity(n: int) -> dict:
    """All structure constants of H_n are >= 0 (exhaustive product scan)."""
    ms = enumerate_matchings(n)
    scanned = 0
    negatives = []
    for u in ms:
        for v in ms:
            xs = block_basis(u, v)
            for w in ms:
                ys = [(y, ArcCombination.from_element(y)) for y in block_basis(v, w)]
                for x in xs:
                    cx = ArcCombination.from_element(x)
                    for y, cy in ys:
                        p: dict[int, int] = {}
                        multiply_into(p, cy, cx)
                        scanned += 1
                        bad = {m: c for m, c in p.items() if c < 0}
                        if bad:
                            negatives.append({"left": _el_json(y), "right": _el_json(x), "bad": bad})
    return {"n": n, "products_scanned": scanned, "negatives": negatives, "ok": not negatives}
