"""Braid word in, bigraded Khovanov homology out.

The pipeline starts from the projective of the horseshoe matching over H_n
(2n boundary points for an n-strand braid; the braid embeds through its
first n-1 generator indices) and runs one letter loop (`_twisted`): one
mapping-cone twist per letter, Gaussian-elimination reduction after each,
and Bar-Natan's scanning, which runs cap_m right after the last
sigma_{m-1}, on the conjugate that scans cheapest, down to H_1; it closes
along horseshoe(1) (`idempotent_truncate`) and takes integer homology.
`compute` and the skein suite's resolution, cup_i cap_i in place of one
twist, share that path, on a shorter word with the same closure
(`_simplified`); `verify_markov` scans its moved words as given.  The
braid-relation and twist-inverse suites run the loop with no caps and
close at every matching.

Raw cone gradings are converted to Khovanov's (i, j) by per-letter offsets
calibrated once on the unknot and trefoil against the cube oracle and
frozen here, in one place (`_scanned_homology`) for every scanned closure:

    i = h + (number of positive letters)
    j = j_raw + writhe

A resolved letter is scanned at shift 0 and adds no offset.

The collapsed grading k = i - j is the single grading carried natively by
the Hom-complex pipeline, up to the n + w shift (the absolute degree of
that single grading is k + n + w; the unknot sits at k = +-1).
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from operator import sub

from .planar import Matching, cap_apply, cupcap_through, enumerate_matchings, horseshoe, parse_int
from .homalg import BigradedGroup, Complex, FreeComplex, eliminate, free_complex, homology
from .tangle import cap_functor, cupcap_functor, twist

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


def _twisted(letters, C: Complex, caps=None, resolved: int | None = None) -> Complex:
    """C after one twist per letter (generator index, sign), or at letter
    resolved its unoriented resolution cup_i cap_i C, unshifted, reduced
    after every letter and after each cap in caps[t], run after letter t."""
    for t, (i, s) in enumerate(letters):
        C = eliminate(cupcap_functor(i, C, 0)[0] if t == resolved else twist(i, s, C))
        for m in caps[t] if caps else ():
            C = eliminate(cap_functor(m, C))
    return C


def idempotent_truncate(a: Matching, C: Complex) -> FreeComplex:
    """Hom(P_a, C) as a free complex (`_truncate`)."""
    return _truncate(a, C, {})


def _truncate(a: Matching, C: Complex, capped: dict) -> FreeComplex:
    """Hom(P_a, C) as a free complex.  An arc (p, p+1) of a makes it
    cup_p(a'), and Hom(P_a, C) = Hom(P_a', cap_p C); so C is capped down to
    H_0, reduced between caps, and read off (`homalg.free_complex`);
    capped[caps] is C after those caps, for every a whose caps begin so."""
    caps = ()
    while a.n:
        p = next(p for p, q in a.pairs if q == p + 1)
        a, caps = cap_apply(p, a)[0], caps + (p,)
        if caps not in capped:
            capped[caps] = eliminate(cap_functor(p, C)) if a.n else cap_functor(p, C)
        C = capped[caps]
    return free_complex(C)


def _cap_plan(strands: int, letters) -> list[list[int]]:
    """caps[t]: the caps that run right after letter t.  cap_m commutes with
    the twists at i <= m - 2, so it runs once no later letter is sigma_{m-1}
    and cap_{m+1} has run; the last letter leaves H_1."""
    last = {i: t for t, (i, _s) in enumerate(letters)}
    caps, m = [], strands
    for t in range(len(letters)):
        caps.append([])
        while m > 1 and last.get(m - 1, -1) <= t:
            caps[t].append(m)
            m -= 1
    return caps


def _scan_norm(strands: int, letters, caps, bound) -> int | None:
    """The sum over letters of the L1 norm of the scanned complex's class
    {(matching, power of q): coefficient} in K_0, or None once it reaches
    bound.  A letter maps X to s(q^s E_i X - X), where E_i is cupcap_through
    with a factor q + 1/q for a closed circle; so does a cap, as cap_apply."""
    state = {(horseshoe(strands), 0): 1}
    total = 0
    for (i, s), due in zip(letters, caps):
        nxt: dict[tuple[Matching, int], int] = {}
        for (a, e), v in state.items():
            nxt[(a, e)] = nxt.get((a, e), 0) - s * v
            b, closed = cupcap_through(i, a)
            for d in (s + 1, s - 1) if closed else (s,):
                nxt[(b, e + d)] = nxt.get((b, e + d), 0) + s * v
        for m in due:
            state, nxt = nxt, {}
            for (a, e), v in state.items():
                b, closed = cap_apply(m, a)
                for d in (1, -1) if closed else (0,):
                    nxt[(b, e + d)] = nxt.get((b, e + d), 0) + v
        state = {key: v for key, v in nxt.items() if v}
        total += sum(map(abs, state.values()))
        if total >= bound:
            return None
    return total


def _cheapest_conjugate(b: BraidWord, mark: int | None = None):
    """(c, caps, position): b on the k strands its letters touch, renumbered
    in order, as the conjugate c that scans cheapest, c's `_cap_plan`, and
    the position to which c's rotation moved letter mark.  Of the L
    rotations of the word, each with and without sigma_i -> sigma_{k-i},
    the 6 with the least sum over letters of the Catalan number of the
    level then open are scanned, and the least `_scan_norm` wins.  That norm
    on all 2L, with its abort, chose 3-4x slower and won less back."""
    rank = {p: r for r, p in enumerate(sorted({p for i, _s in b.letters for p in (i, i + 1)}), 1)}
    k = len(rank) or 1
    word = [(rank[i], s) for i, s in b.letters]
    ranked = []
    for w in (word, [(k - i, s) for i, s in word]):
        for r in range(len(w) or 1):
            v = w[r:] + w[:r]
            caps = _cap_plan(k, v)
            levels = accumulate((len(due) for due in caps[:-1]), sub, initial=k)
            ranked.append((sum(comb(2 * m, m) // (m + 1) for m in levels), len(ranked), v, caps, r))
    best, choice = float("inf"), None
    for _cost, _n, v, caps, r in sorted(ranked)[:6]:
        norm = _scan_norm(k, v, caps, best)
        if norm is not None:
            best, choice = norm, (BraidWord(k, tuple(v)), caps, None if mark is None else (mark - r) % len(v))
    return choice


def _simplified(b: BraidWord, mark: int | None = None) -> tuple[BraidWord, int | None]:
    """(s, at): a word with b's closure, and where b's letter mark, never
    dropped, went.  Until neither applies: sigma_i^e cancels with the next
    letter, read cyclically, within 1 of i, if it is sigma_i^-e (the mark
    blocks as its sigma_i does); a lone letter at an end of the touched
    strands goes with its end strand (Markov destabilisation).  A lap moves
    each letter from the front to the back; one that cancels none is last."""
    n, low, word = b.strands, 0, [(i, s, t == mark) for t, (i, s) in enumerate(b.letters)]
    top = defaultdict(deque)  # top[i]: the positions of sigma_i's letters, in order
    for t, (i, _s, _m) in enumerate(word):
        top[i].append(t)
    lap, cancelled = range(len(word)), True
    while cancelled:
        cancelled = False
        for x in filter(None, map(word.__getitem__, lap)):  # word[t] is read as t comes
            i, s, m = x
            top[i].popleft()
            p = max((top[g][-1] for g in (i - 1, i, i + 1) if top[g]), default=None)
            if not m and p is not None and word[p] == (i, -s, False):
                word[p], cancelled = None, True
                top[i].pop()
            else:
                top[i].append(len(word))
                word.append(x)
        lap, live = range(lap.stop, len(word)), [i for i in top if top[i]]
        for g in {min(live), max(live)} if live else ():
            if len(top[g]) == 1 and not word[top[g][0]][2]:  # low counts the bottom strands gone
                word[top[g].pop()], n, low, cancelled = None, n - 1, low + (g == min(live)), True
                break
    word = list(filter(None, word[lap.start :]))
    return BraidWord(n, tuple((i - low, s) for i, s, _m in word)), next(
        (t for t, x in enumerate(word) if x[2]), None)


def braid_complex(b: BraidWord, caps, resolved: int | None = None) -> Complex:
    """The horseshoe's projective in H_n through b's letter loop
    (`_twisted`), with letter `resolved` resolved; a `_cap_plan` for caps
    ends it in H_1."""
    return _twisted(b.letters, Complex.single(horseshoe(b.strands)), caps, resolved)


def _scanned_homology(b: BraidWord, coefficients: str, resolved: int | None = None) -> BigradedGroup:
    """Homology of the closure of b, with letter `resolved` resolved, by the
    scan of the cheapest conjugate of exactly b's letters to H_1, graded by
    the `_offsets` of b's other letters; each strand no letter touches is an
    unknot: Kh(L + unknot) = Kh(L) (x) V."""
    c, caps, at = _cheapest_conjugate(b, resolved)
    raw = homology(idempotent_truncate(horseshoe(1), braid_complex(c, caps, at)), coefficients)
    for _ in range(b.strands - c.strands):
        raw = raw.shifted(0, 1) + raw.shifted(0, -1)
    return raw.shifted(*_offsets(b if resolved is None else b.without_letter(resolved)))


def _offsets(b: BraidWord) -> tuple[int, int]:
    """The shift from b's raw grading to Khovanov's (i, j)."""
    return (b.positives * HOM_OFFSET_PER_POSITIVE,
            b.positives * Q_OFFSET_PER_POSITIVE + b.negatives * Q_OFFSET_PER_NEGATIVE)


def compute(b: BraidWord, coefficients: str = "Z") -> InvariantResult:
    """Khovanov homology of the closure of b, exact over Z by default.

    coefficients: "Z", "Q", or "Fp" (e.g. "F2").  The scan runs on a word
    with b's closure (`_simplified`), graded by that word's offsets.
    """
    s, _ = _simplified(b)
    bigraded = _scanned_homology(s, coefficients)
    shifts = {
        "homological": b.positives,
        "quantum": b.writhe,
        "collapsed_nw": b.strands + b.writhe,
    }
    return InvariantResult(b, coefficients, bigraded, shifts)


# ---------------------------------------------------------------------------
# Markov verification


def verify_markov(b: BraidWord, coefficients: str = "Z") -> dict:
    """Recompute after conjugation and stabilization, each moved word
    scanned as given; groups must be equal."""
    base = compute(b, coefficients)
    checks = []

    def check(name: str, other: BraidWord):
        groups = _scanned_homology(other, coefficients)
        ok = groups == base.bigraded
        checks.append(
            {
                "move": name,
                "word": other.format(),
                "ok": ok,
                "groups": groups.to_json() if not ok else None,
            }
        )

    if b.strands >= 2:
        g = random.Random(0).randint(1, b.strands - 1)
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
# braid relations and twist inverses over the functor layer


def _all_truncated_homologies(n: int, P: Complex, letters) -> dict:
    """Raw homology of Hom(P_a, P twisted by the letters), for every a."""
    C, capped = _twisted(letters, P), {}
    return {a: homology(_truncate(a, C, capped), "Z") for a in enumerate_matchings(n)}


def verify_braid_relations(n: int) -> dict:
    """Braid relations and distant commutation on e_a-homology of every P_w."""
    checks = []
    for w in enumerate_matchings(n):
        P = Complex.single(w)
        same = lambda u, v: _all_truncated_homologies(n, P, u) == _all_truncated_homologies(n, P, v)
        for s in (1, -1):
            for i in range(1, 2 * n):
                if i + 1 < 2 * n:
                    ok = same([(i, s), (i + 1, s), (i, s)], [(i + 1, s), (i, s), (i + 1, s)])
                    checks.append({"kind": "braid", "w": str(w), "i": i, "sign": s, "ok": ok})
                for j in range(i + 2, 2 * n):
                    ok = same([(i, s), (j, s)], [(j, s), (i, s)])
                    checks.append({"kind": "commute", "w": str(w), "i": i, "j": j, "sign": s, "ok": ok})
    return {"n": n, "checks": checks, "ok": all(c["ok"] for c in checks)}


def verify_twist_inverse(n: int) -> dict:
    """twist then inverse twist restores the e_a-homology of every P_w,
    up to the homological shift of one cancelling letter pair."""
    checks = []
    for w in enumerate_matchings(n):
        P = Complex.single(w)
        want = {a: H.shifted(-1, 0) for a, H in _all_truncated_homologies(n, P, ()).items()}
        for i in range(1, 2 * n):
            for order in ((1, -1), (-1, 1)):
                ok = _all_truncated_homologies(n, P, [(i, order[0]), (i, order[1])]) == want
                checks.append({"w": str(w), "i": i, "order": order, "ok": ok})
    return {"n": n, "checks": checks, "ok": all(c["ok"] for c in checks)}


# ---------------------------------------------------------------------------
# skein triangles


def _complement_arc_v(b: BraidWord, c: int) -> int:
    """The correction v for resolving letter c: signed crossings between the
    arc leaving the top-left corner of that crossing and the other
    components of the diagram-minus-crossing.

    The walk goes up the closure one edge (level, position) at a time from
    (c + 1 mod m, i_c), row r swapping positions i_r and i_r + 1, until it
    enters crossing c from below.  v sums s_r over the crossings r != c it
    passes through once (exactly one lower edge on the arc).  It visits each
    of the closure's m * n edges at most once, which bounds it.
    """
    m, ic = len(b.letters), b.letters[c][0]
    level, pos = (c + 1) % m, ic
    crossed: set[int] = set()  # rows the arc has passed once so far
    for _ in range(m * b.strands):
        if level == c and pos in (ic, ic + 1):
            return sum(b.letters[r][1] for r in crossed)
        i = b.letters[level][0]
        if pos in (i, i + 1):
            crossed ^= {level}
            pos = 2 * i + 1 - pos  # swap i and i + 1
        level = (level + 1) % m
    raise RuntimeError(f"arc walk from crossing {c} did not close within {m * b.strands} steps")


def _infinity_homology(b: BraidWord, c: int, coefficients: str) -> tuple[BigradedGroup, int]:
    """Groups of the unoriented resolution at letter c, in the absolute
    (i, j) grading of the resolved diagram, plus the correction v: the
    graded scan of `_simplified(b, c)` shifted by (-v, -3v)."""
    v = _complement_arc_v(b, c)
    s, at = _simplified(b, c)
    return _scanned_homology(s, coefficients, at).shifted(-v, -3 * v), v


def verify_skein(b: BraidWord, crossing: int, coefficients: str = "Q") -> dict:
    """Check the unoriented skein triangle at one crossing.

    Computes the three links (crossing, oriented 0-resolution, unoriented
    resolution) and lays out one long exact sequence per j, its degree
    offsets, v included, stated only in `window`.  Each rank is at most its
    neighbours' sum, and the ranks signed by (-1)^(i + position) sum to an
    integer defect of 0: the window covers every nonzero group, so that is
    the triangle's Euler identity.
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

    rank_failures, euler_failures = [], []
    for j in range(j_lo, j_hi + 1):
        seq: list[tuple[int, tuple[int, int], int]] = []
        defect = 0  # ranks of an exact sequence over a field alternate to 0
        for i in range(i_lo, i_hi + 1):
            for pos, (g, ij) in enumerate(window(i, j)):
                r = g.rank(*ij)
                seq.append((pos, ij, r))
                defect += -r if (i + pos) % 2 else r
        for k in range(1, len(seq) - 1):
            mid = seq[k][2]
            if mid > seq[k - 1][2] + seq[k + 1][2]:
                rank_failures.append({"j": j, "term": seq[k][:2], "rank": mid})
        if defect:
            euler_failures.append({"j": j, "defect": defect})

    return {
        "word": b.format(),
        "crossing": crossing,
        "sign": sign,
        "v": v,
        "coefficients": coefficients,
        "rank_inequalities_ok": not rank_failures,
        "rank_failures": rank_failures,
        "euler_identity_ok": not euler_failures,
        "euler_failures": euler_failures,
        "ok": not rank_failures and not euler_failures,
    }
