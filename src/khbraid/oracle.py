"""Cube-of-resolutions Khovanov homology: the classical construction.

Deliberately independent of the arc-algebra pipeline -- the only shared
code is the quantum degree of a label mask (``tqft.mask_qdeg``) and
`homalg`'s free complexes and homology -- so that the agreement of the two
paths is a meaningful cross-check.  The Frobenius algebra V's merge and
split are restated in `cube_complex`, so a fault in the arc path's V cannot
hide from it.

Diagrams are lists of crossings; each crossing is a 4-tuple of edge labels
read counterclockwise from the incoming under-strand, plus its sign.  The
0-smoothing joins (a,b) and (c,d), the 1-smoothing (a,d) and (b,c).  The
complex is shifted by [-n_minus]{n_plus - 2 n_minus} as usual.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .homalg import BigradedGroup, FreeComplex, homology, local_indices
from .tqft import mask_qdeg


@dataclass(frozen=True)
class Crossing:
    edges: tuple[int, int, int, int]  # ccw from incoming under-strand
    sign: int


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.crossings if x.sign == 1)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.crossings if x.sign == -1)

    def edge_labels(self) -> list[int]:
        labels = {e for x in self.crossings for e in x.edges}
        return sorted(labels)

    def validate(self):
        counts: dict[int, int] = {}
        for x in self.crossings:
            if x.sign not in (1, -1):
                raise ValueError(f"crossing sign must be +-1: {x}")
            for e in x.edges:
                counts[e] = counts.get(e, 0) + 1
        bad = {e: k for e, k in counts.items() if k != 2}
        if bad:
            raise ValueError(f"each edge label must appear exactly twice, got {bad}")


# ---------------------------------------------------------------------------
# union-find over a parent dict (absent keys are their own roots)


def _find(parent: dict, x):
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _union(parent: dict, x, y) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


# ---------------------------------------------------------------------------
# braid closures to diagrams


def _closure_edges(strands: int, letters) -> dict[tuple[int, int], int]:
    """Edge ids for the braid closure, one per (level, strand position).

    Level r sits below letter row r; levels are cyclic (level m = level 0),
    which performs the closure.  Positions a letter row does not touch pass
    straight through, so their lower and upper segments are the same edge.
    """
    m = len(letters)
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    for r, (i, _s) in enumerate(letters):
        up = (r + 1) % m
        for pos in range(1, strands + 1):
            if pos not in (i, i + 1):
                _union(parent, (r, pos), (up, pos))
    ids: dict[tuple[int, int], int] = {}
    reps: dict[tuple[int, int], int] = {}
    for r in range(m):
        for pos in range(1, strands + 1):
            rep = _find(parent, (r, pos))
            if rep not in reps:
                reps[rep] = len(reps) + 1
            ids[(r, pos)] = reps[rep]
    return ids


def braid_to_pd(b) -> Diagram:
    """Trace-closure diagram of a braid word (a linkinv.BraidWord or any
    object with .strands and .letters)."""
    letters = list(b.letters)
    m = len(letters)
    ids = _closure_edges(b.strands, letters)
    crossings = []
    for r, (i, s) in enumerate(letters):
        up = (r + 1) % m
        A = ids[(r, i)]  # bottom-left
        B = ids[(r, i + 1)]  # bottom-right
        C = ids[(up, i)]  # top-left
        D = ids[(up, i + 1)]  # top-right
        if s == 1:
            crossings.append(Crossing((B, D, C, A), 1))  # under-strand B -> C
        else:
            crossings.append(Crossing((A, B, D, C), -1))  # under-strand A -> D
    # strand positions never touched by any letter close into free loops
    touched = {i for (i, _s) in letters} | {i + 1 for (i, _s) in letters}
    loops = sum(1 for pos in range(1, b.strands + 1) if pos not in touched)
    diag = Diagram(tuple(crossings), free_loops=loops)
    diag.validate()
    return diag


# ---------------------------------------------------------------------------
# PD text format


def format_pd(d: Diagram) -> str:
    """One "X<sign>(a,b,c,d)" line per crossing; explicit signs make the
    format self-contained (plain "X(...)" is accepted on input when the sign
    can be inferred from consecutive edge numbering)."""
    lines = [f"X{'+' if x.sign == 1 else '-'}({','.join(map(str, x.edges))})" for x in d.crossings]
    for _ in range(d.free_loops):
        lines.append("O()")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_pd(text: str) -> Diagram:
    """Parse the PD text format; infers signs of plain X(...) crossings from
    the convention that edge numbers increase along each component, and
    refuses a sign that contradicts the orientation of the edge labels."""
    crossings = []
    loops = 0
    plain: list[tuple[int, int, int, int]] = []
    for raw in text.replace(";", "\n").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("O()", "O"):
            loops += 1
            continue
        if not (line.startswith("X") and line.endswith(")") and "(" in line):
            raise ValueError(f"bad PD line: {line!r}")
        body = line[line.index("(") + 1 : -1]
        head = line[1 : line.index("(")]
        labels = body.replace(",", " ").split()
        if len(labels) != 4 or not all(re.fullmatch(r"[+-]?[0-9]+", e) for e in labels):
            raise ValueError(f"bad PD line: {line!r}; want four integer edge labels")
        a, b, c, d = map(int, labels)
        if head == "+":
            crossings.append(Crossing((a, b, c, d), 1))
        elif head == "-":
            crossings.append(Crossing((a, b, c, d), -1))
        elif head == "":
            plain.append((a, b, c, d))
        else:
            raise ValueError(f"bad PD line: {line!r}")
    if plain:
        total = 2 * (len(plain) + len(crossings))
        for a, b, c, d in plain:
            # a and d run in at X+, a and b at X-; no edge runs into two ends
            if (b - d) % total == 1 and a != d:
                crossings.append(Crossing((a, b, c, d), 1))
            elif (d - b) % total == 1 and a != b:
                crossings.append(Crossing((a, b, c, d), -1))
            else:
                raise ValueError(
                    f"cannot infer sign of X({a},{b},{c},{d}); use X+/X- syntax"
                )
    diag = Diagram(tuple(crossings), free_loops=loops)
    diag.validate()
    # the under-strand runs a -> c, the over-strand d -> b at X+ and b -> d at
    # X-; every edge must run into exactly one crossing end
    into: set[int] = set()
    for x in crossings:
        a, b, _c, d = x.edges
        for e in (a, d if x.sign == 1 else b):
            if e in into:
                raise ValueError(
                    f"edge {e} runs into two crossing ends: a crossing sign contradicts its "
                    "edge labels (read counterclockwise from the incoming under-strand)"
                )
            into.add(e)
    return diag


# ---------------------------------------------------------------------------
# the cube


def _circle_walk(ends: list[int], mate: list[int], first: list[int], vertex: int):
    """(circle index of each edge id, least edge id of each circle) in the
    complete smoothing chosen by the bits of ``vertex``.

    End 4t + q is position q of crossing t and carries edge ``ends[4t + q]``;
    ``first`` is each edge's first end and ``mate`` pairs the two ends of an
    edge.  The smoothing at t joins q to q ^ 1 (bit 0) or to q ^ 3 (bit 1),
    so a walk that enters a crossing at an end leaves it by that partner and
    enters the next crossing at the partner's mate.  Edge ids follow the
    ascending labels, and each walk starts at the least unvisited one, so
    circles are numbered by their least edge."""
    circ = [-1] * len(first)
    least: list[int] = []
    for e, start in enumerate(first):
        if circ[e] < 0:
            k = len(least)
            least.append(e)
            i = start
            while True:
                j = i ^ (1 | (vertex >> (i >> 2) & 1) << 1)
                circ[ends[j]] = k
                i = mate[j]
                if i == start:
                    break
    return circ, least


def cube_complex(d: Diagram) -> FreeComplex:
    """The Khovanov complex of the diagram as a free bigraded complex.

    A generator at a vertex is a label mask over its circles, with the free
    loops in the top bits.  Flipping crossing t changes the smoothing at t
    only, so a circle away from t has the same edges at both ends of the cube
    edge: the cobordism is the identity on it and it keeps its label, at the
    index its edges have in the target.  Each cube edge therefore works out
    once where every source bit goes -- a circle away from t to that index, a
    free loop up or down by the change in circle count, a circle through t
    nowhere -- as ``moved``, the target mask of each source generator with
    the circles through t left 1.  Each generator's column is made once per
    vertex, and each cube edge writes its one or two entries straight into
    it, by V's rules on the labels of the circles through t: a merge takes
    1·1 to 1, 1·x and x·1 to x, and x·x to 0; a split takes 1 to 1⊗x + x⊗1
    and x to x⊗x.  Columns and rows are local indices, and each column goes
    straight into its (h, j) block (`homalg.FreeComplex`); an entry whose
    row is not of its column's j raises ValueError.

    V is restated here rather than read from ``tqft``'s ``mask_merge`` and
    ``mask_split``: one entry is then one dict write, and a fault in the arc
    path's V cannot hide from the arc==oracle cross-check.  Only
    ``tqft.mask_qdeg`` and `homalg`'s local indices and homology are shared.

    Edge signs are (-1)^{set bits below the flipped coordinate}.  Raises
    ValueError when flipping a crossing neither merges two circles nor
    splits one, which no planar diagram allows.
    """
    d.validate()
    m = len(d.crossings)
    np_, nm, loops = d.n_plus, d.n_minus, d.free_loops
    eid = {e: i for i, e in enumerate(d.edge_labels())}
    ends = [eid[e] for x in d.crossings for e in x.edges]
    first = [ends.index(e) for e in range(len(eid))]
    mate = [0] * len(ends)
    for i in first:
        j = ends.index(ends[i], i + 1)
        mate[i], mate[j] = j, i
    walks = [_circle_walk(ends, mate, first, v) for v in range(1 << m)]
    ncirc = [len(least) for _circ, least in walks]

    degs_at, local_at = [], []  # each vertex's generators: j and local index
    basis: dict[int, list[int]] = {}
    seen: dict[int, dict[int, int]] = {}
    qdegs = {c: [mask_qdeg(mask, c) for mask in range(1 << c)] for c in {k + loops for k in ncirc}}
    for v in range(1 << m):
        r = v.bit_count()
        degs = [q + r + np_ - 2 * nm for q in qdegs[ncirc[v] + loops]]
        degs_at.append(degs)
        local_at.append(local_indices(degs, seen.setdefault(r - nm, {})))
        basis.setdefault(r - nm, []).extend(degs)

    blocks: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for v in range((1 << m) - 1):  # the last vertex has no outgoing edge
        src, least = walks[v]
        jv = degs_at[v]
        cols: list[dict[int, int]] = [{} for _ in jv]
        for t in range(m):
            if v >> t & 1:
                continue
            w = v | 1 << t
            tgt = walks[w][0]
            jw, lw = degs_at[w], local_at[w]
            at = ends[4 * t : 4 * t + 4]
            at_src = sorted({src[e] for e in at})
            at_tgt = sorted({tgt[e] for e in at})
            if (len(at_src), len(at_tgt)) not in ((2, 1), (1, 2)):
                raise ValueError(f"crossing {t} {d.crossings[t].edges} neither merges nor "
                                 "splits circles: the diagram is not planar")
            dest = [0 if k in at_src else 1 << tgt[least[k]] for k in range(ncirc[v])]
            shift = ncirc[w] - ncirc[v]
            dest += [1 << (k + shift) for k in range(ncirc[v], ncirc[v] + loops)]
            moved = [0]  # moved[mask]: the target mask of mask, circles through t at 1
            for bit in dest:
                moved += [row + bit for row in moved]
            sign = -1 if (v & ((1 << t) - 1)).bit_count() % 2 else 1
            if len(at_src) == 2:  # merge
                both, x = 1 << at_src[0] | 1 << at_src[1], 1 << at_tgt[0]
                for mask, row in enumerate(moved):
                    lab = mask & both
                    if lab != both:
                        row += x if lab else 0
                        if jw[row] != jv[mask]:
                            raise ValueError("differential does not preserve quantum degree")
                        cols[mask][lw[row]] = sign
            else:  # split
                x, x1, x2 = 1 << at_src[0], 1 << at_tgt[0], 1 << at_tgt[1]
                for mask, row in enumerate(moved):
                    if mask & x:
                        r1 = r2 = row + x1 + x2
                    else:
                        r1, r2 = row + x1, row + x2
                    if jw[r1] != jv[mask] or jw[r2] != jv[mask]:
                        raise ValueError("differential does not preserve quantum degree")
                    cols[mask][lw[r1]] = cols[mask][lw[r2]] = sign
        h, lv = v.bit_count() - nm, local_at[v]
        for mask, col in enumerate(cols):
            if col:
                blocks.setdefault((h, jv[mask]), {})[lv[mask]] = col
    return FreeComplex(basis, blocks)


def cube_homology(d: Diagram, coefficients: str = "Z") -> BigradedGroup:
    """Bigraded Khovanov homology from the cube of resolutions."""
    return homology(cube_complex(d), coefficients)
