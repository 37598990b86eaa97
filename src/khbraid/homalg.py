"""Bounded complexes of q-shifted projectives P_w over H_n, and homology.

Conventions, fixed once:

* P_w is the projective with block column Hom(P_w', P_w) = labelings of
  circles(w', w); a map P_a -> P_b is an element g of block (a, b) acting by
  post-composition m -> g·m.
* A map between direct sums of projectives (a differential d_h from
  terms[h] to terms[h+1], or a chain map's f_h from C.terms[h] to
  D.terms[h]) is the dict {(r, c): {mask: coeff}} of its nonzero entries;
  entry (r, c) holds only g's terms, for g in the block that summands c and
  r fix.  Absent keys are zero.
* The quantum degree of m in a summand P_b{t} is qdeg(m) + t, so a map
  P_a{s} -> P_b{t} is quantum-degree 0 exactly when every labeling of its
  entry has qdeg = n + s - t.  Differentials must be quantum-degree 0.
* cone(f: C -> D) has terms C^{h+1} (+) D^h and differential
  [[-d_C, 0], [f, d_D]].

`eliminate` cancels the +/-idempotent entries of a differential by
worklist Gaussian elimination (Bar-Natan's local cancellation).  Summands
keep stable ids while it runs and each differential is held as row and
column adjacency, so a pivot costs only the entries it touches; the
survivors are renumbered once at the end.

A free complex (`FreeComplex`, read off a complex over H_0 by
`free_complex`, and made by the cube in `oracle`) holds each differential
once, as (h, j) blocks in block-local indices, which its producers write
straight into; its d² check multiplies out every block, and homology hands
them to the kernel as they are.  Homology has one kernel for every ring:
each block is reduced by unimodular integer row and column operations
(`smith_diagonal`), and the ranks over Z, Q and F_p and the torsion over Z
are read off its diagonal.  The kernel reduces the block's transpose, whose
rows are the block's columns as given; the transpose has the same rank and
invariant factors.  It has one pivot step, which clears the pivot's column
by row operations and then reduces the pivot row mod the pivot, and two
pivot choices: a sweep over the ±1 entries first, then entries of least
absolute value on what is left.  The blocks of each j go in increasing h,
and block (h+1, j) is reduced without the columns that the unit sweep of
block (h, j) pivoted on ("clearing", after Chen and Kerber, *Persistent
homology computation with a twist*, 2011): each such column becomes a cycle
in a unimodular change of basis, since d² = 0, which `FreeComplex.check_d2`
checks on every complex.  Only unit-sweep pivots clear; see `homology`.
`rank_over_field` is an independent dense eliminator kept as the tests'
reference.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .planar import Matching, circles
from .arcalg import _add_products, _mult_schedule
from .arcalg import multiply  # kept: perfbench/tracer.py patches homalg.multiply
from .tqft import mask_qdeg


@dataclass(frozen=True)
class ProjSummand:
    matching: Matching
    qshift: int

    def __repr__(self) -> str:
        return f"P[{self.matching}]{{{self.qshift}}}"


def compose(
    f: dict[tuple[int, int], dict[int, int]],
    g: dict[tuple[int, int], dict[int, int]],
    tgt: tuple[ProjSummand, ...],
    mid: tuple[ProjSummand, ...],
    src: tuple[ProjSummand, ...],
) -> dict[tuple[int, int], dict[int, int]]:
    """f after g, for g: src -> mid and f: mid -> tgt (matrix product via
    the surgery product).

    Every product adds into one dict under (r * len(src) + c) << 32 | mask,
    for the entry (r, c) and a mask of its block, which has one bit per
    circle: at most n, and `cli.MAX_STRANDS` = 16 <= 32.  Only nonzero sums
    are unpacked into entries.
    """
    ns = len(src)
    by_row: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for (r, k), a in f.items():
        by_row.setdefault(k, []).append((r, a))
    acc: dict[int, int] = {}
    for (k, c), b in g.items():
        u, v = src[c].matching, mid[k].matching
        for r, a in by_row.get(k, ()):
            _add_products(acc, _mult_schedule(u, v, tgt[r].matching), b, a, 1, (r * ns + c) << 32)
    entries: dict[tuple[int, int], dict[int, int]] = {}
    for key, x in acc.items():
        if x:
            entries.setdefault(divmod(key >> 32, ns), {})[key & 0xFFFFFFFF] = x
    return entries


class Complex:
    """Bounded cochain complex of projective summands; d_h goes h -> h+1.

    diffs[h] is the entry dict of d_h from terms[h] to terms[h+1].  Built
    unchecked: `validate` is the check, and `cone` runs it."""

    __slots__ = ("terms", "diffs")

    def __init__(self, terms: dict[int, tuple[ProjSummand, ...]], diffs: dict[int, dict]):
        self.terms = {h: tuple(t) for h, t in terms.items() if t}
        self.diffs = {h: d for h, d in diffs.items() if d and h in self.terms and h + 1 in self.terms}

    def validate(self):
        """Every entry nonempty and in its block with qdeg 0, d^2 = 0; else ValueError."""
        for h, d in self.diffs.items():
            src, tgt = self.terms[h], self.terms[h + 1]
            for (r, c), terms in d.items():
                if not terms:
                    raise ValueError(f"differential at {h}: entry ({r},{c}) is empty")
                s, t = src[c], tgt[r]
                k = circles(s.matching, t.matching).c
                want = s.matching.n + s.qshift - t.qshift
                for m, v in terms.items():
                    if not v or m >> k:
                        raise ValueError(f"differential at {h}: entry ({r},{c}) has a zero or a mask outside its block")
                    if mask_qdeg(m, k) != want:
                        raise ValueError(f"differential at {h} is not quantum-degree 0")
        for h, d in self.diffs.items():
            if h + 1 in self.diffs:
                if compose(self.diffs[h + 1], d, self.terms[h + 2], self.terms[h + 1], self.terms[h]):
                    raise ValueError(f"d^2 != 0 between degrees {h} and {h+2}")

    def summands(self, h: int) -> tuple[ProjSummand, ...]:
        return self.terms.get(h, ())

    @classmethod
    def single(cls, w: Matching, qshift: int = 0) -> "Complex":
        return cls({0: (ProjSummand(w, qshift),)}, {})


def is_chain_map(f: dict[int, dict], C: Complex, D: Complex) -> bool:
    """f_h: C_h -> D_h commuting with differentials."""
    for h in set(C.terms) | set(D.terms):
        src, tgt = C.summands(h), D.summands(h + 1)
        lhs = compose(f.get(h + 1, {}), C.diffs.get(h, {}), tgt, C.summands(h + 1), src)
        rhs = compose(D.diffs.get(h, {}), f.get(h, {}), tgt, D.summands(h), src)
        if lhs != rhs:  # compose keeps no zeros, so equal maps have equal dicts
            return False
    return True


def cone(f: dict[int, dict], C: Complex, D: Complex) -> "Complex":
    """Mapping cone of a degree-0 chain map f: C -> D.

    Terms C^{h+1} (+) D^h, differential [[-d_C, 0], [f, d_D]].  The only
    off-diagonal block of its square is f d_C - d_D f, so the d^2 check of
    the cone (ValueError) rejects an f that is not a chain map; the same
    `Complex.validate` rejects an entry of f, d_C or d_D that is empty, not
    quantum-degree 0 or not an element of its block, and a d_C or d_D whose
    square is not zero.  `unit_map`, `counit_map`, `cupcap_functor` and
    `eliminate` do not check what they build, so for a twist this is the
    one check per letter, and a bad unit or counit raises its ValueError.
    """
    degrees = {h - 1 for h in C.terms}
    degrees.update(D.terms)
    terms = {h: C.summands(h + 1) + D.summands(h) for h in degrees}
    diffs: dict[int, dict] = {}
    for h in sorted(degrees):
        if h + 1 not in terms:
            continue
        nc, nr = len(C.summands(h + 1)), len(C.summands(h + 2))
        entries = diffs[h] = {rc: {m: -v for m, v in g.items()} for rc, g in C.diffs.get(h + 1, {}).items()}
        for (r, c), g in f.get(h + 1, {}).items():
            entries[(nr + r, c)] = g
        for (r, c), g in D.diffs.get(h, {}).items():
            entries[(nr + r, nc + c)] = g
    K = Complex(terms, diffs)
    K.validate()
    return K


# ---------------------------------------------------------------------------
# Gaussian elimination of complexes


def _invertible_entry(g: dict[int, int], src: ProjSummand, tgt: ProjSummand) -> int | None:
    """+1/-1 when the entry is exactly (+/-) the idempotent, else None.

    The coefficient test (one term, at mask 0, with coefficient +/-1) runs
    first; it is cheap and rejects almost every entry before the summands
    are compared.
    """
    if len(g) != 1:
        return None
    s = g.get(0)
    if s != 1 and s != -1:
        return None
    if src.matching != tgt.matching or src.qshift != tgt.qshift:
        return None
    return s


def eliminate(C: Complex) -> Complex:
    """Cancel isomorphism entries of the differential until none remain.

    Each cancellation removes a pair of summands and corrects the rest of
    the differential by the standard Gaussian elimination lemma; homology is
    unchanged.

    Worklist elimination on stable ids: a summand keeps its index in C as
    its id, and the survivors are renumbered once at the end, in their
    original order.  d_h is held as rows[h][r] = {c: g} with column sets
    cols[h][c] = {r}, so a pivot (h, r, c) visits only its column and row of
    d_h, row c of d_{h-1} and column r of d_{h+1}.  One scan queues every
    invertible entry; afterwards an entry is queued only when a correction
    writes it invertible.  A popped entry is tested again, since it may have
    been deleted or changed while it waited.
    """
    terms = {h: dict(enumerate(t)) for h, t in C.terms.items()}
    rows: dict[int, dict[int, dict[int, dict[int, int]]]] = {}
    cols: dict[int, dict[int, set[int]]] = {}
    queue: deque[tuple[int, int, int]] = deque()
    for h, d in C.diffs.items():
        rows_h, cols_h = rows[h], cols[h] = {}, {}
        src, tgt = terms[h], terms[h + 1]
        for (r, c), g in d.items():
            rows_h.setdefault(r, {})[c] = g
            cols_h.setdefault(c, set()).add(r)
            if _invertible_entry(g, src[c], tgt[r]) is not None:
                queue.append((h, r, c))

    if not queue:  # nothing to cancel
        return C
    while queue:
        h, pr, pc = queue.popleft()
        rows_h, cols_h = rows[h], cols[h]
        g = rows_h.get(pr, {}).get(pc)
        if g is None:
            continue
        src, tgt = terms[h], terms[h + 1]
        s = _invertible_entry(g, src[pc], tgt[pr])
        if s is None:
            continue
        # take row pr and column pc out of d_h
        delta = rows_h.pop(pr)
        del delta[pc]
        for c in delta:
            cols_h[c].discard(pr)
        gamma = cols_h.pop(pc)
        gamma.discard(pr)
        # correction: d[r,c] -= s * d[r,pc] . d[pr,c], through P_pc = P_pr
        v = src[pc].matching
        for r in gamma:
            row = rows_h[r]
            g_r = row.pop(pc)
            w = tgt[r].matching
            for c, g_c in delta.items():
                corr: dict[int, int] = {}
                _add_products(corr, _mult_schedule(src[c].matching, v, w), g_c, g_r, -s)
                if not any(corr.values()):
                    continue
                old = row.get(c)
                if old is not None:
                    for m, x in old.items():
                        corr[m] = corr.get(m, 0) + x
                new = {m: x for m, x in corr.items() if x}
                if not new:
                    del row[c]
                    cols_h[c].discard(r)
                    continue
                row[c] = new
                cols_h[c].add(r)
                if _invertible_entry(new, src[c], tgt[r]) is not None:
                    queue.append((h, r, c))
        # drop row pc of d_{h-1} and column pr of d_{h+1}
        if h - 1 in rows:
            for c in rows[h - 1].pop(pc, ()):
                cols[h - 1][c].discard(pc)
        if h + 1 in rows:
            for r in cols[h + 1].pop(pr, ()):
                del rows[h + 1][r][pr]
        del src[pc], tgt[pr]

    index = {h: {k: i for i, k in enumerate(t)} for h, t in terms.items()}
    new_terms = {h: tuple(t.values()) for h, t in terms.items()}
    new_diffs = {}
    for h, rows_h in rows.items():
        ri, ci = index[h + 1], index[h]
        new_diffs[h] = {(ri[r], ci[c]): g for r, row in rows_h.items() for c, g in row.items()}
    return Complex(new_terms, new_diffs)


# ---------------------------------------------------------------------------
# free complexes


class FreeComplex:
    """Cochain complex of free abelian groups with a (h, j) bigrading.

    basis[h] is a list of quantum degrees j, one per generator.
    blocks[(h, j)] is d_h on the generators of bidegree (h, j), by columns
    {col: {row: coeff}} with no zero entries, in local indices: a
    generator's position among those of its degree h and its j.  Its
    producers reject an entry that changes j.  The dicts are taken as
    given, not copied, and no reader changes them.
    """

    def __init__(self, basis: dict[int, list[int]], blocks: dict[tuple[int, int], dict[int, dict[int, int]]]):
        self.basis = {h: list(b) for h, b in basis.items() if b}
        self.blocks = {hj: m for hj, m in blocks.items() if m}
        self.check_d2()

    def check_d2(self):
        """Every entry of every d_{h+1}·d_h, block by block (d preserves j)
        and one column at a time: column c of the product is the sum of the
        columns k of d_{h+1}, weighted by d_h[k, c]."""
        for (h, j), m in self.blocks.items():
            nxt = self.blocks.get((h + 1, j))
            if not nxt:
                continue
            for col in m.values():
                acc: dict[int, int] = {}
                for k, v in col.items():
                    for r, w in nxt.get(k, {}).items():
                        acc[r] = acc.get(r, 0) + w * v
                if any(acc.values()):
                    raise ValueError(f"d^2 != 0 in free complex at degree {h}")


def local_indices(degs: list[int], seen: dict[int, int]) -> list[int]:
    """Each generator's index among those of its quantum degree j, counted
    on from seen[j], the number before degs; seen is updated."""
    out = []
    for j in degs:
        k = seen[j] = seen.get(j, -1) + 1
        out.append(k)
    return out


def free_complex(C: Complex) -> FreeComplex:
    """C over H_0, where P_{}{t} is one generator of degree t and an entry
    {0: k} is the integer k; ValueError on an entry that changes t."""
    basis = {h: [s.qshift for s in t] for h, t in C.terms.items()}
    local = {h: local_indices(b, {}) for h, b in basis.items()}
    blocks: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for h, d in C.diffs.items():
        src, tgt, ls, lt = basis[h], basis[h + 1], local[h], local[h + 1]
        for (r, c), g in d.items():
            if tgt[r] != src[c]:
                raise ValueError("differential does not preserve quantum degree")
            blocks.setdefault((h, src[c]), {}).setdefault(ls[c], {})[lt[r]] = g[0]
    return FreeComplex(basis, blocks)


# ---------------------------------------------------------------------------
# integer linear algebra


def smith_diagonal(columns: dict[int, dict[int, int]]) -> tuple[list[int], list[int]]:
    """Diagonal of an integer matrix, given by columns {col: {row: v}} with
    no zero entries, under invertible row/col ops.

    Not forced into divisibility order; the cokernel torsion ⊕Z/d can be
    read off directly.  The transpose has the same rank and invariant
    factors, so it is the transpose that is reduced: each given column,
    copied, is a row, and only the column sets are indexed.

    One pivot step, two pivot choices (after Dumas, Saunders and Villard,
    J. Symb. Comput. 32, 2001).  The step at a pivot a in (pr, pc) subtracts
    row[pc] // a times row pr from every other row of column pc.  Once the
    column is clear a column operation would only touch row pr, so none is
    applied: row pr is reduced mod a in place, and once a is alone in it, it
    is dropped and |a| appended.  A unit sweep visits the columns once,
    fewest initial entries first, pivoting on the shortest row with a ±1
    there.  The remainder, including ±1s that fill-in wrote into columns
    already passed, pivots on an entry of least absolute value, and picks
    again while a smaller one is left in the column or the pivot row.

    Returns the diagonal and the row indices (the transpose's columns) that
    the unit sweep pivoted on, in pivot order.  On the given matrix the
    sweep's row operations are column operations, and a unit pivot's row is
    dropped as it stands.  So at the k-th unit pivot (pr, pc), row pr is the
    image of a unimodular combination of the given columns, with ±1 at pc
    and 0 at the k - 1 earlier unit pivots, which are cleared.  The
    remainder's pivots are not returned: reducing a pivot row mod a is a row
    operation on the given matrix.
    """
    rows = {r: dict(row) for r, row in columns.items() if row}
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)

    def clear_column(pr: int, pc: int) -> bool:
        prow = rows[pr]
        a = prow.pop(pc)  # out of the row while it is subtracted
        col = cols[pc]
        col.remove(pr)
        left = {pr}
        for r in col:
            row = rows[r]
            b = row.pop(pc)
            q = b // a
            if b != q * a:
                row[pc] = b - q * a
                left.add(r)
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -q * v
                    cols[c].add(r)
                elif old != q * v:
                    row[c] = old - q * v
                else:
                    del row[c]
                    cols[c].discard(r)  # never empties: pr is still there
            if not row:
                del rows[r]
        prow[pc] = a
        cols[pc] = left
        return len(left) == 1

    def unlink(r: int, cs) -> None:
        for c in cs:
            s = cols[c]
            s.discard(r)
            if not s:
                del cols[c]

    diag: list[int] = []
    units: list[int] = []
    for pc in sorted(cols, key=lambda c: len(cols[c])):
        col = cols.get(pc)
        pr = col and min(
            (r for r in col if rows[r][pc] in (1, -1)), key=lambda r: len(rows[r]), default=None
        )
        if pr is not None:
            clear_column(pr, pc)
            unlink(pr, rows.pop(pr))
            diag.append(1)
            units.append(pc)

    while rows:
        _, pr, pc = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        if not clear_column(pr, pc):
            continue  # a smaller remainder is left in the column
        prow = rows[pr]
        a = prow.pop(pc)
        for c, v in list(prow.items()):
            if v % a:
                prow[c] = v % a
            else:
                del prow[c]
                unlink(pr, (c,))
        if prow:
            prow[pc] = a  # a smaller entry is left in the row
        else:
            del rows[pr]
            unlink(pr, (pc,))
            diag.append(abs(a))
    return diag, units


def rank_over_field(entries: dict[tuple[int, int], int], p: int | None = None) -> int:
    """Rank over Q (p None) or F_p by dense Fraction / mod-p elimination.

    Not on the homology path: the tests compare `homology` against it as an
    independent reference.
    """
    grouped: dict[int, dict[int, Fraction | int]] = {}
    for (r, c), v in entries.items():
        v = v % p if p is not None else Fraction(v)
        if v:
            grouped.setdefault(r, {})[c] = v
    rows = list(grouped.values())
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        pc, pv = next(iter(row.items()))
        rank += 1
        reduced = []
        for other in rows:
            if pc in other:
                f = (other[pc] * pow(pv, -1, p)) % p if p is not None else other[pc] / pv
                upd: dict[int, Fraction | int] = {}
                for c in set(other) | set(row):
                    v = other.get(c, 0) - f * row.get(c, 0)
                    if p is not None:
                        v %= p
                    if v:
                        upd[c] = v
                reduced.append(upd)
            else:
                reduced.append(other)
        rows = reduced
    return rank


def _prime_power_factors(d: int) -> list[int]:
    out = []
    k = 2
    while k * k <= d:
        if d % k == 0:
            q = 1
            while d % k == 0:
                d //= k
                q *= k
            out.append(q)
        k += 1
    if d > 1:
        out.append(d)
    return out


@dataclass
class BigradedGroup:
    """Ranks and torsion indexed by (homological i, quantum j).

    Held in one normal form, so equal groups have equal entries: each
    torsion tuple sorted, and no cell with neither rank nor torsion."""

    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def __post_init__(self):
        self.entries = {k: (r, tuple(sorted(t))) for k, (r, t) in self.entries.items() if r or t}

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), (0, ()))[0]

    def torsion(self, i: int, j: int) -> tuple[int, ...]:
        return self.entries.get((i, j), (0, ()))[1]

    def __add__(self, other: "BigradedGroup") -> "BigradedGroup":
        """The direct sum."""
        out = dict(self.entries)
        for k, (r, t) in other.entries.items():
            out[k] = (self.rank(*k) + r, self.torsion(*k) + t)
        return BigradedGroup(out)

    def shifted(self, di: int, dj: int) -> "BigradedGroup":
        return BigradedGroup({(i + di, j + dj): v for (i, j), v in self.entries.items()})

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "j": j, "rank": r, "torsion": list(t)}
            for (i, j), (r, t) in sorted(self.entries.items())
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "BigradedGroup":
        return cls({(d["i"], d["j"]): (d["rank"], tuple(d["torsion"])) for d in data})


def coefficient_characteristic(coefficients: str) -> int:
    """0 for "Z" and "Q", p for "Fp" with p a prime below 2^31, written in
    ASCII digits with no leading zero.

    Raises ValueError for any other string.
    """
    if coefficients in ("Z", "Q"):
        return 0
    if re.fullmatch(r"F[1-9][0-9]*", coefficients):
        p = int(coefficients[1:])
        if 2 <= p < 1 << 31 and all(p % k for k in range(2, isqrt(p) + 1)):
            return p
    raise ValueError(f"bad coefficients {coefficients!r} (use Z, Q, or Fp for a prime p < 2^31)")


def homology(T: FreeComplex, coefficients: str = "Z") -> BigradedGroup:
    """Homology of a free complex, per (i, j).

    coefficients: "Z" (ranks and torsion), "Q", or "Fp" for a prime p (ranks
    only).  Each (h, j) block goes through `smith_diagonal` once, as T
    holds it; T is not changed.  Its diagonal D gives the block's rank over
    Z and Q as len(D), over F_p as the number of d in D with p not dividing
    d, and the torsion over Z in degree h + 1 as the entries d > 1.

    Clearing: the blocks of each j go in increasing h, and block (h+1, j)
    goes to `smith_diagonal` without the columns y_1, ..., y_m that the
    unit sweep of block (h, j) pivoted on.  The sweep is column operations
    on d_h, so the k-th unit pivot gives z_k = d_h(x_k), with ±1 at y_k and
    0 at y_1, ..., y_{k-1}.  Putting z_k in place of e_{y_k} is a triangular
    change of basis of C^{h+1} with ±1 on its diagonal, so it is unimodular
    over Z.  d_{h+1}(z_k) = d_{h+1} d_h(x_k) = 0, so in the new basis those
    columns of d_{h+1} are zero and the others are unchanged: the rank over
    Z, Q and F_p and the torsion over Z of d_{h+1} are those of the block
    without them.  The proof needs d² = 0, which `FreeComplex.check_d2`
    checks when every complex is built.  The remainder's pivots use row
    operations on d_h and clear nothing.
    """
    p = coefficient_characteristic(coefficients)
    ranks: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    cleared: dict[tuple[int, int], set[int]] = {}
    for h, j in sorted(T.blocks):
        block = T.blocks[(h, j)]
        drop = cleared.pop((h, j), None)
        if drop:  # clearing: d_h loses the columns d_{h-1}'s unit sweep pivoted on
            block = {c: col for c, col in block.items() if c not in drop}
        diag, units = smith_diagonal(block)
        cleared[(h + 1, j)] = set(units)
        ranks[(h, j)] = sum(1 for d in diag if d % p) if p else len(diag)
        if coefficients == "Z":
            torsion[(h + 1, j)] = tuple(q for d in diag if d > 1 for q in _prime_power_factors(d))

    dims = {(h, j): k for h, b in T.basis.items() for j, k in Counter(b).items()}
    return BigradedGroup({
        (h, j): (dim - ranks.get((h, j), 0) - ranks.get((h - 1, j), 0), torsion.get((h, j), ()))
        for (h, j), dim in sorted(dims.items())
    })
