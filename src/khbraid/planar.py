"""Crossingless matchings of 2n points and their planar combinatorics.

A matching pairs the points 1,...,2n on a horizontal line by disjoint arcs
in the upper half-plane.  Matchings index the idempotents of the arc
algebra; the circle diagram of a pair of matchings (one drawn above the
line, the reflection of the other below) carries the module structure.

Matchings are interned values: one object per matching, so equality and
hashing are identity and every cache keyed on matchings compares pointers.
The surgeries and circle diagrams are memoized lazily, on the matchings a
computation reaches; no per-n table is built ahead, since C_n grows as 4^n.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Iterator

# (n, sorted pairs) -> the one Matching of that value; holds one entry per
# distinct valid matching built, so at most sum(C_n) over the n reached.
_INTERNED: dict[tuple[int, tuple[tuple[int, int], ...]], "Matching"] = {}


class Matching:
    """A non-crossing perfect pairing of the points 1..2n.

    ``Matching(n, pairs)`` returns the canonical instance of that value,
    whatever the order of ``pairs`` or its container type.  ``pairs`` is
    stored sorted with each pair (a, b) satisfying a < b.  A value is
    validated the first time it is built; an invalid one is never stored,
    so it raises on every attempt.  Instances are immutable, and copying or
    unpickling one gives back the canonical instance.
    """

    __slots__ = ("n", "pairs")

    def __new__(cls, n: int, pairs) -> "Matching":
        given = tuple(tuple(ab) for ab in pairs)
        key = (n, tuple(sorted(given)))
        self = _INTERNED.get(key)
        if self is None:
            _validate(n, given)
            self = object.__new__(cls)
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "pairs", key[1])
            _INTERNED[key] = self
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Matching, (self.n, self.pairs)

    def __repr__(self) -> str:
        return f"Matching(n={self.n!r}, pairs={self.pairs!r})"

    def partner(self, i: int) -> int:
        for a, b in self.pairs:
            if a == i:
                return b
            if b == i:
                return a
        raise KeyError(i)

    def __str__(self) -> str:
        return format_matching(self)


def _validate(n: int, pairs: tuple[tuple[int, int], ...]) -> None:
    pts = sorted(p for ab in pairs for p in ab)
    if pts != list(range(1, 2 * n + 1)):
        raise ValueError(f"pairs do not cover 1..{2*n} exactly once: {pairs}")
    for a, b in pairs:
        if not a < b:
            raise ValueError(f"pair not sorted: {(a, b)}")
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                raise ValueError(f"crossing pairs {(a,b)} and {(c,d)}")


def matching(*pairs: tuple[int, int]) -> Matching:
    """Convenience constructor; sorts each pair."""
    norm = tuple(tuple(sorted(p)) for p in pairs)
    return Matching(len(norm), norm)


def format_matching(w: Matching) -> str:
    """Textual notation, e.g. "(1 2)(3 4)"."""
    return "".join(f"({a} {b})" for a, b in w.pairs)


def parse_matching(text: str) -> Matching:
    """Inverse of :func:`format_matching`; whitespace between groups is ok."""
    body = text.replace(",", " ").strip()
    pairs = []
    while body:
        close = body.find(")") + 1 or len(body)
        group, body = body[:close], body[close:].strip()
        nums = group[1:-1].split() if group[0] + group[-1] == "()" else []
        try:
            a, b = map(int, nums)
        except ValueError:
            raise ValueError(f"bad group {group!r} in matching notation {text!r}; want (a b)") from None
        pairs.append((a, b))
    if not pairs:
        raise ValueError("empty matching")
    return matching(*pairs)


@lru_cache(maxsize=None)
def enumerate_matchings(n: int) -> tuple[Matching, ...]:
    """All C_n crossingless matchings of 2n points, lexicographic order.

    Cached: one tuple of C_n matchings per n asked for."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        # first pairs with points[k] where an even count lies between
        for k in range(1, len(points), 2):
            inner = points[1:k]
            outer = points[k + 1 :]
            for left in rec(inner):
                for right in rec(outer):
                    yield ((first, points[k]),) + left + right

    out = [Matching(n, ps) for ps in rec(tuple(range(1, 2 * n + 1)))]
    out.sort(key=lambda w: w.pairs)
    return tuple(out)


def plait(n: int) -> Matching:
    """Adjacent pairs (1,2),(3,4),...,(2n-1,2n)."""
    return Matching(n, tuple((2 * i + 1, 2 * i + 2) for i in range(n)))


def mixed(n: int) -> Matching:
    """One outer arc over adjacent pairs: (1,2n),(2,3),...,(2n-2,2n-1)."""
    if n == 1:
        return Matching(1, ((1, 2),))
    prs = [(1, 2 * n)] + [(2 * i, 2 * i + 1) for i in range(1, n)]
    return matching(*prs)


def horseshoe(n: int) -> Matching:
    """Fully nested matching (i, 2n+1-i); basepoint of the link pipeline."""
    return Matching(n, tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))


@dataclass(frozen=True)
class CircleDiagram:
    """Components of the planar unlink w ∪ reflect(w2).

    ``circles`` partitions 1..2n; each circle is the tuple of its points in
    increasing order, and circles are sorted by minimum point.  ``c`` is the
    circle count; the codimension of the pair is n - c.
    """

    n: int
    circles: tuple[tuple[int, ...], ...]

    @property
    def c(self) -> int:
        return len(self.circles)

    def circle_of(self, point: int) -> int:
        """Index of the circle containing ``point``."""
        for k, circ in enumerate(self.circles):
            if point in circ:
                return k
        raise KeyError(point)


@lru_cache(maxsize=None)
def circles(w: Matching, w2: Matching) -> CircleDiagram:
    """Trace circles by alternately following arcs of w and of w2.

    Cached: at most C_n^2 entries for each n reached."""
    if w.n != w2.n:
        raise ValueError("matchings have different sizes")
    seen: set[int] = set()
    comps = []
    for start in range(1, 2 * w.n + 1):
        if start in seen:
            continue
        comp = []
        p, use_w = start, True
        while p not in seen:
            seen.add(p)
            comp.append(p)
            p = w.partner(p) if use_w else w2.partner(p)
            use_w = not use_w
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda t: t[0])
    return CircleDiagram(w.n, tuple(comps))


def codim(w: Matching, w2: Matching) -> int:
    return w.n - circles(w, w2).c


# ---------------------------------------------------------------------------
# cup / cap surgeries
#
# Each surgery is cached.  For matchings of n arcs (the larger side) there
# are 2n-1 positions, so each cache holds at most (2n-1)*C_n entries for each
# n reached.  A call that raises is not cached.


@lru_cache(maxsize=None)
def cup_insert(i: int, w: Matching) -> Matching:
    """Insert a new arc at positions (i, i+1), shifting old points up.

    ``w`` has n-1 pairs; the result has n pairs on 2n points, 1 <= i <= 2n-1.
    """
    n = w.n + 1
    if not 1 <= i <= 2 * n - 1:
        raise ValueError(f"cup position {i} out of range 1..{2*n-1}")
    shift = lambda p: p if p < i else p + 2
    prs = [(shift(a), shift(b)) for a, b in w.pairs]
    prs.append((i, i + 1))
    return matching(*prs)


@lru_cache(maxsize=None)
def cap_apply(i: int, w: Matching) -> tuple[Matching, int]:
    """Contract points (i, i+1); returns (smaller matching, closed_circles).

    If (i, i+1) is an arc of w it closes off a circle (closed_circles = 1);
    otherwise the arcs ending at i and i+1 concatenate.  Capping the unique
    1-pair matching yields the empty matching (the block over it is Z).
    """
    n = w.n
    if not 1 <= i <= 2 * n - 1:
        raise ValueError(f"cap position {i} out of range 1..{2*n-1}")
    unshift = lambda p: p if p < i else p - 2
    if (i, i + 1) in w.pairs:
        prs = [(unshift(a), unshift(b)) for a, b in w.pairs if (a, b) != (i, i + 1)]
        return Matching(n - 1, prs), 1
    p, q = w.partner(i), w.partner(i + 1)
    prs = [(a, b) for a, b in w.pairs if i not in (a, b) and i + 1 not in (a, b)]
    prs.append(tuple(sorted((p, q))))
    prs = [(unshift(a), unshift(b)) for a, b in prs]
    return matching(*prs), 0


@lru_cache(maxsize=None)
def cupcap_through(i: int, w: Matching) -> tuple[Matching, int]:
    """cup_insert(i, .) after cap_apply(i, .): same-size matching containing
    the arc (i, i+1), plus the number of circles closed by the cap."""
    down, closed = cap_apply(i, w)
    return cup_insert(i, down), closed


# ---------------------------------------------------------------------------
# interpolation


def _resurgery(w: Matching, arc: tuple[int, int]) -> Matching | None:
    """The matching sharing n-2 arcs with w and containing ``arc``, if planar.

    Removes the two arcs of w through the endpoints of ``arc`` and repairs
    the two leftover points.  Returns None when the repaired pairing would
    cross an untouched arc.
    """
    p, q = arc
    pp, qq = w.partner(p), w.partner(q)
    keep = [(a, b) for a, b in w.pairs if not {a, b} & {p, q, pp, qq}]
    cand = keep + [tuple(sorted((p, q))), tuple(sorted((pp, qq)))]
    try:
        return matching(*cand)
    except ValueError:
        return None


def interpolate(w0: Matching, wk: Matching) -> list[Matching]:
    """A codimension-one interpolating sequence from w0 to wk.

    Each step picks an arc of wk absent from the current matching -- by
    smallest left endpoint, skipping arcs whose resurgery is not planar --
    and performs the unique resurgery through it.  Length is codim(w0,wk)+1.
    """
    if w0.n != wk.n:
        raise ValueError("matchings have different sizes")
    seq = [w0]
    cur = w0
    while cur != wk:
        c_now = circles(cur, wk).c
        step = None
        for arc in sorted(set(wk.pairs) - set(cur.pairs)):
            nxt = _resurgery(cur, arc)
            if nxt is None:
                continue
            if codim(cur, nxt) == 1 and circles(nxt, wk).c == c_now + 1:
                step = nxt
                break
        if step is None:  # cannot happen for valid inputs
            raise RuntimeError(f"no interpolation step from {cur} toward {wk}")
        seq.append(step)
        cur = step
    return seq
