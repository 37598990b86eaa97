"""Khovanov's arc algebra H_n over Z.

A basis element of the block (w, w') is a {1,x}-labeling of the circles of
the diagram w ∪ reflect(w').  Multiplication stacks two circle diagrams
along their common middle matching and contracts its n arcs one at a time;
each contraction merges two circles or splits one, and the Frobenius
algebra V says what happens to labels.

The merge/split pattern of a triple (u, v, w) does not depend on labels, so
it is computed once as a "schedule" and cached together with a table of
basis products.  The product of two basis labelings is computed by running
the schedule on that one pair the first time it is asked for, and read from
the table after that; a product of combinations adds up table entries.  The
cache holds at most ``_MULT_SCHEDULE_MAXSIZE`` triples, least recently used
first out, and each triple's table at most 2^(c(u,v) + c(v,w)) products.
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

    def qdegs(self) -> set[int]:
        c = circles(self.source, self.target).c
        return {mask_qdeg(m, c) for m in self.terms}

    def is_homogeneous(self, q: int) -> bool:
        return self.qdegs() <= {q}


def min_generator(source: Matching, target: Matching) -> ArcElement:
    """The all-1 labeling, lowest degree element of its block."""
    return ArcElement(source, target, 0)


def idempotent(w: Matching) -> ArcCombination:
    """e_w, the identity of the diagonal block (w, w)."""
    return ArcCombination.from_element(min_generator(w, w))


# ---------------------------------------------------------------------------
# multiplication


_MULT_SCHEDULE_MAXSIZE = 1 << 13


@lru_cache(maxsize=_MULT_SCHEDULE_MAXSIZE)
def _mult_schedule(u: Matching, v: Matching, w: Matching, order: tuple | None):
    """Surgery schedule contracting the middle v between (u,v) and (v,w).

    Returns (n_bottom_circles, ops, finals, table): ops is a sequence of
    ("m", s1, s2, dst) / ("s", src, d1, d2) acting on slot ids, where the
    bottom diagram's circles start as slots 0..cb-1 and the top diagram's as
    cb..cb+ct-1; finals[k] is the slot holding circle k of circles(u, w).
    table starts empty; `multiply_into` stores in it, under the key
    ma | mb << cb, the product of the basis labelings ma of (u, v) and mb
    of (v, w) as a tuple of (mask, coeff) pairs.  The table is shared by
    every caller and mutated by design: it is a cache, not a value.

    ``order`` is None for the left-endpoint order of the contracted arcs,
    or overrides it; any order gives the same products (a tested property).
    It has no default, so every call names it and shares one cache key.

    Bounded: at most _MULT_SCHEDULE_MAXSIZE triples, least recently used
    evicted first with their tables (a word on 4-6 strands reaches a few
    thousand; the exhaustive positivity scan at n = 5 reaches 74 088), and
    at most 2^(c(u,v) + c(v,w)) products in one table.
    """
    n = u.n
    bot = circles(u, v)
    top = circles(v, w)
    cb = bot.c

    # multigraph: bottom points 0..2n-1, top points 2n..4n-1
    B = lambda p: p - 1
    T = lambda p: 2 * n + p - 1
    edges: dict[int, tuple[int, int]] = {}
    adj: dict[int, set[int]] = {q: set() for q in range(4 * n)}
    eid = 0

    def add_edge(a: int, b: int) -> int:
        nonlocal eid
        edges[eid] = (a, b)
        adj[a].add(eid)
        adj[b].add(eid)
        eid += 1
        return eid - 1

    def del_edge(e: int):
        a, b = edges.pop(e)
        adj[a].discard(e)
        adj[b].discard(e)

    for a, b in u.pairs:
        add_edge(B(a), B(b))
    v_bot = {ab: add_edge(B(ab[0]), B(ab[1])) for ab in v.pairs}
    v_top = {ab: add_edge(T(ab[0]), T(ab[1])) for ab in v.pairs}
    for a, b in w.pairs:
        add_edge(T(a), T(b))

    def component(start: int) -> frozenset[int]:
        seen = {start}
        stack = [start]
        while stack:
            q = stack.pop()
            for e in adj[q]:
                x, y = edges[e]
                for z in (x, y):
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
        return frozenset(seen)

    slot_of: dict[int, int] = {}
    members: dict[int, set[int]] = {}
    for k, circ in enumerate(bot.circles):
        members[k] = {B(p) for p in circ}
    for k, circ in enumerate(top.circles):
        members[cb + k] = {T(p) for p in circ}
    for s, mem in members.items():
        for q in mem:
            slot_of[q] = s
    next_slot = cb + top.c

    ops: list[tuple] = []
    for p, q in order if order is not None else sorted(v.pairs):
        del_edge(v_bot[(p, q)])
        del_edge(v_top[(p, q)])
        add_edge(B(p), T(p))
        add_edge(B(q), T(q))
        sb, st = slot_of[B(p)], slot_of[T(p)]
        if sb != st:
            dst = next_slot
            next_slot += 1
            ops.append(("m", sb, st, dst))
            mem = members.pop(sb) | members.pop(st)
            members[dst] = mem
            for z in mem:
                slot_of[z] = dst
        else:
            comp1 = set(component(B(p)))
            comp2 = members.pop(sb) - comp1
            assert comp2, "surgery on one circle must split it in two"
            d1, d2 = next_slot, next_slot + 1
            next_slot += 2
            ops.append(("s", sb, d1, d2))
            members[d1], members[d2] = comp1, comp2
            for z in comp1:
                slot_of[z] = d1
            for z in comp2:
                slot_of[z] = d2

    out = circles(u, w)
    finals = tuple(slot_of[B(circ[0])] for circ in out.circles)
    return cb, ops, finals, {}


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


def multiply_into(
    acc: dict[int, int], b: ArcCombination, a: ArcCombination, k: int = 1, order: tuple | None = None
) -> None:
    """Add k * (b*a) into acc, a {mask: coeff} dict of the block (u, w).

    a lies in block (u,v) and b in (v,w); mismatched middle matchings
    multiply to zero, so nothing is added.  Coefficients that cancel are
    left in acc as zeros.
    """
    if a.target != b.source:
        return
    cb, ops, finals, table = _mult_schedule(a.source, a.target, b.target, order)
    get = acc.get
    for ma, ca in a.terms.items():
        for mb, cbf in b.terms.items():
            key = ma | mb << cb
            prod = table.get(key)
            if prod is None:
                prod = table[key] = tuple(_execute({key: 1}, ops, finals).items())
            scale = k * ca * cbf
            for m, p in prod:
                acc[m] = get(m, 0) + scale * p


def multiply(b: ArcCombination, a: ArcCombination, order: tuple | None = None) -> ArcCombination:
    """Product b*a for a in block (u,v), b in block (v,w); lands in (u,w).

    Mismatched middle matchings multiply to zero (orthogonal idempotents).
    """
    acc: dict[int, int] = {}
    multiply_into(acc, b, a, 1, order)
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
