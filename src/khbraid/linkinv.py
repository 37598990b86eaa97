"""Braid word in, bigraded Khovanov homology out.

The pipeline starts from the projective of the horseshoe matching over H_n
(2n boundary points for an n-strand braid; the braid embeds through its
first n-1 generator indices), applies one mapping-cone twist per letter
with Gaussian-elimination reduction in between, truncates by the horseshoe
idempotent and takes integer homology.

Raw cone gradings are converted to Khovanov's (i, j) by per-letter offsets
calibrated once on the unknot and trefoil against the cube oracle and
frozen here:

    i = h + (number of positive letters)
    j = j_raw + writhe

The collapsed grading k = i - j is the single grading carried natively by
the Hom-complex pipeline, up to the n + w shift (the absolute degree of
that single grading is k + n + w; the unknot sits at k = +-1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .planar import horseshoe, parse_int
from .homalg import BigradedGroup, Complex, eliminate, homology, idempotent_truncate
from .tangle import cupcap_functor, twist

# frozen calibration: raw cone degrees -> Khovanov bigrading
HOM_OFFSET_PER_POSITIVE = 1
Q_OFFSET_PER_POSITIVE = 1
Q_OFFSET_PER_NEGATIVE = -1


@dataclass(frozen=True)
class BraidWord:
    """A word in Br_n: letters (generator index, sign), writhe = sum of signs."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strands must be >= 1")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(f"generator {idx} out of range for Br_{self.strands}")
            if sign not in (1, -1):
                raise ValueError(f"bad sign {sign}")

    @property
    def writhe(self) -> int:
        return sum(s for _i, s in self.letters)

    @property
    def positives(self) -> int:
        return sum(1 for _i, s in self.letters if s == 1)

    @property
    def negatives(self) -> int:
        return sum(1 for _i, s in self.letters if s == -1)

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def from_ints(cls, strands: int, word: list[int]) -> "BraidWord":
        return cls(strands, tuple((abs(k), 1 if k > 0 else -1) for k in word))

    @classmethod
    def parse(cls, text: str, strands: int | None = None) -> "BraidWord":
        """Grammar: optional header "n=<strands>", then whitespace-separated
        signed integers, e.g. "n=2 1 1 1"; every integer is [+-]?[0-9]+ in
        ASCII digits (`planar.parse_int`)."""
        toks = text.replace(",", " ").split()
        word = []
        header = None
        for t in toks:
            if t.startswith("n="):
                if header is not None:
                    raise ValueError("the n= header appears twice")
                try:
                    header = parse_int(t[2:])
                except ValueError:
                    raise ValueError(f"bad header {t!r} in braid word {text!r}; want n=<strands>") from None
                if strands is not None and header != strands:
                    raise ValueError(f"header n={header} contradicts the strand count {strands}")
                strands = header
            else:
                try:
                    k = parse_int(t)
                except ValueError:
                    raise ValueError(f"bad token {t!r} in braid word {text!r}; want a signed integer") from None
                if k == 0:
                    raise ValueError("0 is not a braid letter")
                word.append(k)
        if strands is None:
            raise ValueError("strand count missing (no n= header and no -n flag)")
        return cls.from_ints(strands, word)

    def format(self) -> str:
        body = " ".join(str(i * s) for i, s in self.letters)
        return f"n={self.strands}" + (f" {body}" if body else "")

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -s) for i, s in self.letters))

    def conjugate(self, g: int) -> "BraidWord":
        """sigma_g . word . sigma_g^{-1}"""
        return BraidWord(self.strands, ((g, 1),) + self.letters + ((g, -1),))

    def stabilize(self, sign: int) -> "BraidWord":
        return BraidWord(self.strands + 1, self.letters + ((self.strands, sign),))

    def without_letter(self, c: int) -> "BraidWord":
        return BraidWord(self.strands, self.letters[:c] + self.letters[c + 1 :])


@dataclass
class InvariantResult:
    braid: BraidWord
    coefficients: str
    bigraded: BigradedGroup
    shifts: dict = field(default_factory=dict)

    @property
    def collapsed(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """Direct sum over the antidiagonals k = i - j."""
        out: dict[int, list] = {}
        for (i, j), (r, t) in self.bigraded.entries.items():
            k = i - j
            acc = out.setdefault(k, [0, []])
            acc[0] += r
            acc[1].extend(t)
        return {k: (r, tuple(sorted(t))) for k, (r, t) in sorted(out.items())}

    def jones_polynomial(self) -> list[tuple[int, int]]:
        """Graded Euler characteristic sum (-1)^i q^j rank, as (power, coeff)."""
        acc: dict[int, int] = {}
        for (i, j), (r, _t) in self.bigraded.entries.items():
            acc[j] = acc.get(j, 0) + (-1) ** i * r
        return sorted((p, c) for p, c in acc.items() if c)

    def to_json(self) -> dict:
        return {
            "link": self.braid.format(),
            "n": self.braid.strands,
            "w": self.braid.writhe,
            "coefficients": self.coefficients,
            "shifts": dict(sorted(self.shifts.items())),
            "groups": self.bigraded.to_json(),
            "collapsed": [
                {"k": k, "rank": r, "torsion": list(t)} for k, (r, t) in self.collapsed.items()
            ],
            "jones": [[p, c] for p, c in self.jones_polynomial()],
        }


def braid_complex(b: BraidWord) -> Complex:
    """The twisted projective complex of the word, reduced after every
    letter, before truncation."""
    C = Complex.single(horseshoe(b.strands))
    for idx, sign in b.letters:
        C = eliminate(twist(idx, sign, C))
    return C


def _graded_homology(b: BraidWord, C: Complex, coefficients: str) -> BigradedGroup:
    T = idempotent_truncate(horseshoe(b.strands), C)
    raw = homology(T, coefficients)
    return raw.shifted(b.positives * HOM_OFFSET_PER_POSITIVE,
                       b.positives * Q_OFFSET_PER_POSITIVE + b.negatives * Q_OFFSET_PER_NEGATIVE)


def compute(b: BraidWord, coefficients: str = "Z") -> InvariantResult:
    """Khovanov homology of the closure of b, exact over Z by default.

    coefficients: "Z", "Q", or "Fp" (e.g. "F2").
    """
    bigraded = _graded_homology(b, braid_complex(b), coefficients)
    shifts = {
        "homological": b.positives,
        "quantum": b.writhe,
        "collapsed_nw": b.strands + b.writhe,
    }
    return InvariantResult(b, coefficients, bigraded, shifts)


# ---------------------------------------------------------------------------
# Markov verification


def verify_markov(b: BraidWord, seed: int = 0, coefficients: str = "Z") -> dict:
    """Recompute after conjugation and stabilization; groups must be equal."""
    base = compute(b, coefficients)
    rng = random.Random(seed)
    checks = []

    def check(name: str, other: BraidWord):
        res = compute(other, coefficients)
        ok = res.bigraded == base.bigraded
        checks.append(
            {
                "move": name,
                "word": other.format(),
                "ok": ok,
                "groups": res.bigraded.to_json() if not ok else None,
            }
        )

    if b.strands >= 2:
        g = rng.randint(1, b.strands - 1)
        check(f"conjugation by generator {g}", b.conjugate(g))
    check("positive stabilization", b.stabilize(1))
    check("negative stabilization", b.stabilize(-1))
    return {
        "word": b.format(),
        "coefficients": coefficients,
        "base_groups": base.bigraded.to_json(),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


# ---------------------------------------------------------------------------
# skein triangles


def _complement_arc_v(b: BraidWord, c: int) -> int:
    """The correction v for resolving letter c: signed crossings between the
    arc leaving the top-left corner of that crossing and the other
    components of the diagram-minus-crossing."""
    m = len(b.letters)
    n = b.strands
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    # edge levels 0..m-1 (cyclic); letter row r joins level r to level r+1
    for r, (i, _s) in enumerate(b.letters):
        up = (r + 1) % m
        for pos in range(1, n + 1):
            if r == c and pos in (i, i + 1):
                continue  # the resolved crossing: four loose ends
            if pos == i and r != c:
                union((r, i), (up, i + 1))
            elif pos == i + 1 and r != c:
                union((r, i + 1), (up, i))
            elif pos not in (i, i + 1):
                union((r, pos), (up, pos))
    ic = b.letters[c][0]
    arc = find(((c + 1) % m, ic))  # top-left corner edge
    v = 0
    for r, (i, s) in enumerate(b.letters):
        if r == c:
            continue
        in_arc = [find((r, i)) == arc, find((r, i + 1)) == arc]
        if in_arc[0] != in_arc[1]:
            v += s
    return v


def _infinity_homology(b: BraidWord, c: int, coefficients: str) -> tuple[BigradedGroup, int]:
    """Groups of the unoriented resolution at letter c, in the absolute
    (i, j) grading of the resolved diagram, plus the correction v."""
    idx, sign = b.letters[c]
    v = _complement_arc_v(b, c)
    C = Complex.single(horseshoe(b.strands))
    for k, (i, s) in enumerate(b.letters):
        if k == c:
            C, _layout = cupcap_functor(i, C)
            C = C.shift_q(1 if s == 1 else -1)
        else:
            C = twist(i, s, C)
        C = eliminate(C)
    T = idempotent_truncate(horseshoe(b.strands), C)
    raw = homology(T, coefficients)
    P, N = b.positives, b.negatives
    if sign == 1:
        di = (P - 1) - v
        dj = (P - 1) - N - 3 * v - 1
    else:
        di = P - v
        dj = P - N - 3 * v + 2
    return raw.shifted(di, dj), v


def verify_skein(b: BraidWord, crossing: int, coefficients: str = "Q") -> dict:
    """Check the unoriented skein triangle at one crossing.

    Computes the three links (crossing, oriented 0-resolution, unoriented
    resolution), then checks the long-exact-sequence rank bounds and the
    exact alternating Euler-characteristic identity with the degree offsets
    of the skein triangles, including the v correction.
    """
    if not 0 <= crossing < len(b.letters):
        raise ValueError("crossing index out of range")
    sign = b.letters[crossing][1]
    X = compute(b, coefficients).bigraded
    Y = compute(b.without_letter(crossing), coefficients).bigraded
    Z, v = _infinity_homology(b, crossing, coefficients)

    # the repeating long exact sequence window, indexed by (i, j) of X
    if sign == 1:
        # X^{i,j} -> Y^{i,j-1} -> Z^{i-v,j-3v-2} -> X^{i+1,j}
        window = lambda i, j: [(X, (i, j)), (Y, (i, j - 1)), (Z, (i - v, j - 3 * v - 2))]
    else:
        # X^{i,j} -> Z^{i-v+1,j-3v+2} -> Y^{i+1,j+1} -> X^{i+1,j}
        window = lambda i, j: [(X, (i, j)), (Z, (i - v + 1, j - 3 * v + 2)), (Y, (i + 1, j + 1))]

    i_vals = [i for g in (X, Y, Z) for (i, _j) in g.entries] or [0]
    j_vals = [j for g in (X, Y, Z) for (_i, j) in g.entries] or [0]
    i_lo, i_hi = min(i_vals) - abs(v) - 2, max(i_vals) + abs(v) + 2
    j_lo, j_hi = min(j_vals) - 3 * abs(v) - 4, max(j_vals) + 3 * abs(v) + 4

    rank_ok = True
    rank_failures = []
    for j in range(j_lo, j_hi + 1):
        seq: list[tuple[int, tuple[int, int], int]] = []
        for i in range(i_lo, i_hi + 1):
            for pos, (g, ij) in enumerate(window(i, j)):
                seq.append((pos, ij, g.rank(*ij)))
        for k in range(1, len(seq) - 1):
            mid = seq[k][2]
            if mid > seq[k - 1][2] + seq[k + 1][2]:
                rank_ok = False
                rank_failures.append({"j": j, "term": seq[k][:2], "rank": mid})

    euler_ok = True
    euler_failures = []

    def chi(g: BigradedGroup, j: int) -> int:
        return sum((-1) ** i * r for (i, jj), (r, _t) in g.entries.items() if jj == j)

    for j in range(j_lo, j_hi + 1):
        if sign == 1:
            total = chi(X, j) - chi(Y, j - 1) + (-1) ** v * chi(Z, j - 3 * v - 2)
        else:
            total = chi(X, j) - (-1) ** (v - 1) * chi(Z, j - 3 * v + 2) - chi(Y, j + 1)
        if total != 0:
            euler_ok = False
            euler_failures.append({"j": j, "defect": total})

    return {
        "word": b.format(),
        "crossing": crossing,
        "sign": sign,
        "v": v,
        "coefficients": coefficients,
        "rank_inequalities_ok": rank_ok,
        "rank_failures": rank_failures,
        "euler_identity_ok": euler_ok,
        "euler_failures": euler_failures,
        "ok": rank_ok and euler_ok,
    }
