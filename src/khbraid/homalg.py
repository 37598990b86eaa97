"""Bounded complexes of q-shifted projectives P_w over H_n, and homology.

Conventions, fixed once:

* P_w is the projective with block column Hom(P_w', P_w) = labelings of
  circles(w', w); a map P_a -> P_b is an element g of block (a, b) acting by
  post-composition m -> g·m.  A `ModuleMap` entry holds only g's
  {mask: coeff} terms: the summands it connects fix its block.
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

`idempotent_truncate` applies Hom(P_a, -) by table reads: each entry g of
a differential, P_b -> P_c, looks up its surgery schedule once and reads
g·m, for every basis labeling m of the block (a, b), from that schedule's
table of basis products (`arcalg.basis_images`), which every product fills.

A free complex (`FreeComplex`, made by `idempotent_truncate` and by the
cube in `oracle`) holds each differential once, by columns:
{col: {row: coeff}}.  Its d² check adds whole columns, and homology splits
each column once into its (h, j) block.  Homology has one kernel for every
ring: each block is reduced once by unimodular integer row and column
operations (`smith_diagonal`), and the ranks over Z, Q and F_p and the
torsion over Z are read off that one diagonal.  The kernel reduces the
block's transpose, whose rows are the block's columns as given; the
transpose has the same rank and invariant factors.  It has one pivot step,
which clears the pivot's column by row operations and then reduces the
pivot row mod the pivot, and two pivot choices: a sweep over the ±1
entries first, then entries of least absolute value on what is left.
`rank_over_field` is an independent dense eliminator kept as the tests'
reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .planar import Matching, circles
from .arcalg import _add_products, _mult_schedule, basis_images
from .arcalg import multiply  # kept: perfbench/tracer.py patches homalg.multiply
from .tqft import mask_qdeg


@dataclass(frozen=True)
class ProjSummand:
    matching: Matching
    qshift: int

    def shifted(self, q: int) -> "ProjSummand":
        return ProjSummand(self.matching, self.qshift + q)

    def __repr__(self) -> str:
        return f"P[{self.matching}]{{{self.qshift}}}"


class ModuleMap:
    """Matrix of block elements between direct sums of projectives.

    entries[(r, c)] is the {mask: coeff} dict, with no zero coefficient, of
    an element of the block (source[c].matching, target[r].matching), which
    the entry does not repeat.  Absent keys are zero; the constructor drops
    empty entries, and `Complex.validate` checks each one against its block.
    """

    __slots__ = ("source", "target", "entries")

    def __init__(
        self,
        source: tuple[ProjSummand, ...],
        target: tuple[ProjSummand, ...],
        entries: dict[tuple[int, int], dict[int, int]] | None = None,
    ):
        self.source = tuple(source)
        self.target = tuple(target)
        self.entries = {rc: terms for rc, terms in (entries or {}).items() if terms}

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (matrix product via the surgery product)."""
        if other.target != self.source:
            raise ValueError("compose: mismatched middles")
        src, mid, tgt = other.source, self.source, self.target
        acc: dict[tuple[int, int], dict[int, int]] = {}
        by_col: dict[int, list[tuple[int, dict[int, int]]]] = {}
        for (k, c), g in other.entries.items():
            by_col.setdefault(c, []).append((k, g))
        by_row: dict[int, list[tuple[int, dict[int, int]]]] = {}
        for (r, k), f in self.entries.items():
            by_row.setdefault(k, []).append((r, f))
        for c, lows in by_col.items():
            u = src[c].matching
            for k, g in lows:
                v = mid[k].matching
                for r, f in by_row.get(k, ()):
                    terms = acc.get((r, c))
                    if terms is None:
                        terms = acc[(r, c)] = {}
                    _add_products(terms, _mult_schedule(u, v, tgt[r].matching), g, f, 1)
        return ModuleMap(src, tgt, {
            rc: {m: x for m, x in terms.items() if x} for rc, terms in acc.items()
        })


class Complex:
    """Bounded cochain complex of projective summands; d_h goes h -> h+1."""

    __slots__ = ("terms", "diffs")

    def __init__(
        self,
        terms: dict[int, tuple[ProjSummand, ...]],
        diffs: dict[int, ModuleMap],
        check: bool = True,
    ):
        self.terms = {h: tuple(t) for h, t in terms.items() if t}
        self.diffs = {}
        for h, d in diffs.items():
            if h in self.terms and h + 1 in self.terms and d.entries:
                self.diffs[h] = d
        if check:
            self.validate()

    def validate(self):
        """Shapes, every entry in its block with qdeg 0, d^2 = 0; else ValueError."""
        for h, d in self.diffs.items():
            if d.source != self.terms[h] or d.target != self.terms.get(h + 1, ()):
                raise ValueError(f"differential at {h} has wrong shape")
            for (r, c), terms in d.entries.items():
                s, t = d.source[c], d.target[r]
                k = circles(s.matching, t.matching).c
                want = s.matching.n + s.qshift - t.qshift
                for m, v in terms.items():
                    if not v or m >> k:
                        raise ValueError(f"differential at {h}: entry ({r},{c}) has a zero or a mask outside its block")
                    if mask_qdeg(m, k) != want:
                        raise ValueError(f"differential at {h} is not quantum-degree 0")
        for h in self.diffs:
            if h + 1 in self.diffs:
                if self.diffs[h + 1].compose(self.diffs[h]).entries:
                    raise ValueError(f"d^2 != 0 between degrees {h} and {h+2}")

    def summands(self, h: int) -> tuple[ProjSummand, ...]:
        return self.terms.get(h, ())

    def differential(self, h: int) -> ModuleMap:
        if h in self.diffs:
            return self.diffs[h]
        return ModuleMap(self.terms.get(h, ()), self.terms.get(h + 1, ()))

    def size(self) -> int:
        return sum(len(t) for t in self.terms.values())

    def shift_q(self, q: int) -> "Complex":
        """Raise every quantum shift by q; entries are unchanged."""
        terms = {h: tuple(s.shifted(q) for s in t) for h, t in self.terms.items()}
        diffs = {
            h: ModuleMap(terms[h], terms[h + 1], d.entries) for h, d in self.diffs.items()
        }
        return Complex(terms, diffs, check=False)

    @classmethod
    def single(cls, w: Matching, qshift: int = 0, degree: int = 0) -> "Complex":
        return cls({degree: (ProjSummand(w, qshift),)}, {}, check=False)


def is_chain_map(f: dict[int, ModuleMap], C: Complex, D: Complex) -> bool:
    """f_h: C_h -> D_h commuting with differentials."""
    for h in set(C.terms) | set(D.terms):
        fh = f.get(h)
        fh1 = f.get(h + 1)
        lhs = fh1.compose(C.differential(h)).entries if fh1 else {}
        rhs = D.differential(h).compose(fh).entries if fh else {}
        if lhs != rhs:  # entries hold no zeros, so equal maps have equal dicts
            return False
    return True


def cone(f: dict[int, ModuleMap], C: Complex, D: Complex) -> "Complex":
    """Mapping cone of a degree-0 chain map f: C -> D.

    Terms C^{h+1} (+) D^h, differential [[-d_C, 0], [f, d_D]].  The only
    off-diagonal block of its square is f d_C - d_D f, so the d^2 check of
    the cone (ValueError) rejects an f that is not a chain map; the same
    `Complex.validate` rejects an entry of f, d_C or d_D that is not
    quantum-degree 0 or not an element of its block, and a d_C or d_D whose
    square is not zero.  `unit_map`, `counit_map`, `cupcap_functor` and
    `eliminate` do not check what they build, so for a twist this is the
    one check per letter, and a bad unit or counit raises its ValueError.
    """
    degrees = set()
    for h in C.terms:
        degrees.add(h - 1)
    degrees.update(D.terms)
    terms: dict[int, tuple[ProjSummand, ...]] = {}
    for h in degrees:
        terms[h] = C.summands(h + 1) + D.summands(h)
    diffs: dict[int, ModuleMap] = {}
    for h in sorted(degrees):
        if h + 1 not in terms:
            continue
        nc = len(C.summands(h + 1))
        entries: dict[tuple[int, int], dict[int, int]] = {}
        for (r, c), g in C.differential(h + 1).entries.items():
            entries[(r, c)] = {m: -v for m, v in g.items()}
        for (r, c), g in (f[h + 1].entries if h + 1 in f else {}).items():
            entries[(len(C.summands(h + 2)) + r, c)] = g
        for (r, c), g in D.differential(h).entries.items():
            entries[(len(C.summands(h + 2)) + r, nc + c)] = g
        diffs[h] = ModuleMap(terms[h], terms[h + 1], entries)
    return Complex(terms, diffs)


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
        for (r, c), g in d.entries.items():
            rows_h.setdefault(r, {})[c] = g
            cols_h.setdefault(c, set()).add(r)
            if _invertible_entry(g, src[c], tgt[r]) is not None:
                queue.append((h, r, c))

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
        entries = {(ri[r], ci[c]): g for r, row in rows_h.items() for c, g in row.items()}
        new_diffs[h] = ModuleMap(new_terms[h], new_terms[h + 1], entries)
    return Complex(new_terms, new_diffs, check=False)


# ---------------------------------------------------------------------------
# idempotent truncation


class FreeComplex:
    """Cochain complex of free abelian groups with a (h, j) bigrading.

    basis[h] is a list of quantum degrees j, one per generator.  mats[h]
    maps degree h to h+1 by columns, {col: {row: coeff}}, with global
    indices into basis[h] and basis[h+1] and no zero entries; the dicts are
    taken as given, not copied, and no reader changes them.  `homology`
    hands each column to `smith_diagonal` as a row of the transpose.
    Differentials preserve j.
    """

    def __init__(self, basis: dict[int, list[int]], mats: dict[int, dict[int, dict[int, int]]]):
        self.basis = {h: list(b) for h, b in basis.items() if b}
        self.mats = {h: m for h, m in mats.items() if m}
        self.check_d2()

    def check_d2(self):
        """Every entry of every d_{h+1}·d_h, one column at a time: column c
        of the product is the sum of the columns k of d_{h+1}, weighted by
        d_h[k, c]."""
        for h, m in self.mats.items():
            nxt = self.mats.get(h + 1)
            if not nxt:
                continue
            for col in m.values():
                acc: dict[int, int] = {}
                for k, v in col.items():
                    for r, w in nxt.get(k, {}).items():
                        acc[r] = acc.get(r, 0) + w * v
                if any(acc.values()):
                    raise ValueError(f"d^2 != 0 in free complex at degree {h}")


def idempotent_truncate(a: Matching, C: Complex) -> FreeComplex:
    """Apply Hom(P_a, -): summand P_b{t} contributes the block (a, b) with
    quantum degrees qdeg + t; an entry g of a differential acts on that
    block by the surgery product, read from the basis-product table."""
    basis: dict[int, list[int]] = {}
    offsets: dict[int, list[int]] = {}
    for h, summands in C.terms.items():
        degs: list[int] = []
        offs: list[int] = []
        for s in summands:
            offs.append(len(degs))
            c = circles(a, s.matching).c
            for m in range(1 << c):
                degs.append(mask_qdeg(m, c) + s.qshift)
        basis[h] = degs
        offsets[h] = offs
    mats: dict[int, dict[int, dict[int, int]]] = {}
    for h, d in C.diffs.items():
        mat: dict[int, dict[int, int]] = {}
        src_offs, tgt_offs = offsets[h], offsets[h + 1]
        src, tgt = C.terms[h], C.terms[h + 1]
        for (r, c), g in d.entries.items():
            row0 = tgt_offs[r]
            images = basis_images(g, a, src[c].matching, tgt[r].matching)
            for col, img in enumerate(images, src_offs[c]):
                column = mat.setdefault(col, {})
                for mm, coeff in img.items():
                    if coeff:
                        column[row0 + mm] = column.get(row0 + mm, 0) + coeff
        mats[h] = {
            c: kept for c, col in mat.items() if (kept := {r: v for r, v in col.items() if v})
        }
    return FreeComplex(basis, mats)


# ---------------------------------------------------------------------------
# integer linear algebra


def smith_diagonal(columns: dict[int, dict[int, int]]) -> list[int]:
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
    for pc in sorted(cols, key=lambda c: len(cols[c])):
        col = cols.get(pc)
        pr = col and min(
            (r for r in col if rows[r][pc] in (1, -1)), key=lambda r: len(rows[r]), default=None
        )
        if pr is not None:
            clear_column(pr, pc)
            unlink(pr, rows.pop(pr))
            diag.append(1)

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
    return diag


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
    """Ranks and torsion indexed by (homological i, quantum j)."""

    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), (0, ()))[0]

    def torsion(self, i: int, j: int) -> tuple[int, ...]:
        return self.entries.get((i, j), (0, ()))[1]

    def total_rank(self) -> int:
        return sum(r for r, _t in self.entries.values())

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

    def __eq__(self, other) -> bool:
        return isinstance(other, BigradedGroup) and self._norm() == other._norm()

    def _norm(self):
        return {
            k: (r, tuple(sorted(t)))
            for k, (r, t) in self.entries.items()
            if r or t
        }


def coefficient_characteristic(coefficients: str) -> int:
    """0 for "Z" and "Q", p for "Fp" with p a prime below 2^31.

    Raises ValueError for any other string.
    """
    if coefficients in ("Z", "Q"):
        return 0
    digits = coefficients[1:]
    if coefficients.startswith("F") and digits.isdecimal() and digits[0] != "0":
        p = int(digits)
        if 2 <= p < 1 << 31 and all(p % k for k in range(2, isqrt(p) + 1)):
            return p
    raise ValueError(f"bad coefficients {coefficients!r} (use Z, Q, or Fp for a prime p < 2^31)")


def homology(T: FreeComplex, coefficients: str = "Z") -> BigradedGroup:
    """Homology of a free complex, per (i, j).

    coefficients: "Z" (ranks and torsion), "Q", or "Fp" for a prime p (ranks
    only).  Each column of d_h goes once to the block of its bidegree
    (h, j), its rows renumbered within the target block; a row outside it
    raises ValueError.  Each block goes through `smith_diagonal` once.  Its
    diagonal D gives the block's rank over Z and Q as len(D), over F_p as
    the number of d in D with p not dividing d, and the torsion over Z in
    degree h + 1 as the entries d > 1.
    """
    p = coefficient_characteristic(coefficients)
    # index[h][j][g]: generator g's index in its (h, j) block; len is the size
    index: dict[int, dict[int, dict[int, int]]] = {}
    for h, b in T.basis.items():
        by_j = index[h] = {}
        for g, j in enumerate(b):
            idx = by_j.setdefault(j, {})
            idx[g] = len(idx)

    # each column of d_h goes to the block of its source bidegree, its rows
    # renumbered by the target's block index for that j, which holds every
    # row that preserves j and no other
    blocks: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for h, mat in T.mats.items():
        src, tgt = T.basis[h], index.get(h + 1, {})
        for c, col in mat.items():
            j = src[c]
            local = tgt.get(j, {})
            try:
                blocks.setdefault((h, j), {})[c] = {local[r]: v for r, v in col.items()}
            except KeyError:
                raise ValueError("differential does not preserve quantum degree") from None

    ranks: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    for (h, j), block in blocks.items():
        diag = smith_diagonal(block)
        ranks[(h, j)] = sum(1 for d in diag if d % p) if p else len(diag)
        if coefficients == "Z":
            torsion[(h + 1, j)] = tuple(
                sorted(q for d in diag if d > 1 for q in _prime_power_factors(d))
            )

    result: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    dims = {(h, j): len(idx) for h, by_j in index.items() for j, idx in by_j.items()}
    for (h, j), dim in sorted(dims.items()):
        rank = dim - ranks.get((h, j), 0) - ranks.get((h - 1, j), 0)
        tors = torsion.get((h, j), ())
        if rank or tors:
            result[(h, j)] = (rank, tors)
    return BigradedGroup(result)
