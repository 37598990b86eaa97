"""Cube-of-resolutions Khovanov homology: the classical construction.

Deliberately independent of the arc-algebra pipeline -- the only shared
code is the Frobenius algebra V and the homology routine -- so that the
agreement of the two paths is a meaningful cross-check.

Diagrams are lists of crossings; each crossing is a 4-tuple of edge labels
read counterclockwise from the incoming under-strand, plus its sign.  The
0-smoothing joins (a,b) and (c,d), the 1-smoothing (a,d) and (b,c).  The
complex is shifted by [-n_minus]{n_plus - 2 n_minus} as usual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homalg import BigradedGroup, FreeComplex, homology
from .tqft import mask_merge, mask_split, mask_qdeg


@dataclass(frozen=True)
class Crossing:
    edges: tuple[int, int, int, int]  # ccw from incoming under-strand
    sign: int

    def smoothing(self, bit: int) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b, c, d = self.edges
        return ((a, b), (c, d)) if bit == 0 else ((a, d), (b, c))


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
    if m == 0:
        return Diagram((), free_loops=b.strands)
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
        try:
            a, b, c, d = map(int, body.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"bad PD line: {line!r}; want four integer edge labels") from None
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
            if (b - d) % total == 1:
                crossings.append(Crossing((a, b, c, d), 1))
            elif (d - b) % total == 1:
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


def _vertex_circles(d: Diagram, labels: list[int], vertex: int) -> dict[int, int]:
    """Circle index of each edge in the complete smoothing chosen by the bits
    of ``vertex``.  ``labels`` lists the edge labels in ascending order, so
    circles are numbered by their least edge."""
    parent: dict[int, int] = {}
    for t, x in enumerate(d.crossings):
        for e1, e2 in x.smoothing(vertex >> t & 1):
            _union(parent, e1, e2)
    roots: dict[int, int] = {}
    return {e: roots.setdefault(_find(parent, e), len(roots)) for e in labels}


def cube_complex(d: Diagram) -> FreeComplex:
    """The Khovanov complex of the diagram as a free bigraded complex.

    A generator at a vertex is a label mask over its circles, with the free
    loops in the top bits.  Flipping crossing t changes the smoothing at t
    only, so a circle away from t has the same edges at both ends of the cube
    edge: the cobordism is the identity on it and it keeps its label, at the
    index its edges have in the target.  Each cube edge therefore works out
    once where every source bit goes -- a circle away from t to that index, a
    free loop up or down by the change in circle count, a circle through t to
    a scratch bit -- and one merge or split writes the target circles through
    t, for all generators at once.

    Edge signs are (-1)^{set bits below the flipped coordinate}.  Raises
    ValueError when flipping a crossing neither merges two circles nor
    splits one, which no planar diagram allows.
    """
    d.validate()
    m = len(d.crossings)
    np_, nm = d.n_plus, d.n_minus
    labels = d.edge_labels()
    circles_at = [_vertex_circles(d, labels, v) for v in range(1 << m)]
    ncirc = [len(set(circ.values())) for circ in circles_at]

    offset: list[int] = []
    basis: dict[int, list[int]] = {}
    for v in range(1 << m):
        r = bin(v).count("1")
        degs = basis.setdefault(r - nm, [])
        offset.append(len(degs))
        nloops = ncirc[v] + d.free_loops
        for mask in range(1 << nloops):
            degs.append(mask_qdeg(mask, nloops) + r + np_ - 2 * nm)

    mats: dict[int, dict[int, dict[int, int]]] = {}
    for v in range(1 << m):
        src = circles_at[v]
        edge_of = {k: e for e, k in src.items()}  # one edge per source circle
        for t, x in enumerate(d.crossings):
            if v >> t & 1:
                continue
            w = v | 1 << t
            tgt = circles_at[w]
            at_src = sorted({src[e] for e in x.edges})
            at_tgt = sorted({tgt[e] for e in x.edges})
            if (len(at_src), len(at_tgt)) not in ((2, 1), (1, 2)):
                raise ValueError(f"crossing {t} {x.edges} neither merges nor "
                                 "splits circles: the diagram is not planar")
            n_tgt = ncirc[w] + d.free_loops
            scratch = 1 << n_tgt  # bits n_tgt and n_tgt + 1
            dest = [scratch << at_src.index(k) if k in at_src else 1 << tgt[edge_of[k]]
                    for k in range(ncirc[v])]
            shift = ncirc[w] - ncirc[v]
            dest += [1 << (k + shift) for k in range(ncirc[v], ncirc[v] + d.free_loops)]
            moved = [0]  # moved[mask]: the source labels of mask at their destinations
            for bit in dest:
                moved += [mm | bit for mm in moved]
            # the column rides above the scratch bits, so one call maps them all
            col_at = n_tgt + 2
            sign = -1 if bin(v & ((1 << t) - 1)).count("1") % 2 else 1
            terms = {col << col_at | mm: sign for col, mm in enumerate(moved)}
            if len(at_src) == 2:
                terms = mask_merge(terms, scratch, scratch << 1, 1 << at_tgt[0])
            else:
                terms = mask_split(terms, scratch, 1 << at_tgt[0], 1 << at_tgt[1])
            mat = mats.setdefault(bin(v).count("1") - nm, {})
            for key, c in terms.items():  # each entry is written once, as ±1
                mat.setdefault(offset[v] + (key >> col_at), {})[offset[w] + (key & (scratch - 1))] = c
    return FreeComplex(basis, mats)


def cube_homology(d: Diagram, coefficients: str = "Z") -> BigradedGroup:
    """Bigraded Khovanov homology from the cube of resolutions."""
    return homology(cube_complex(d), coefficients)
