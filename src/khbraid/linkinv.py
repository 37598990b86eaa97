"""Braid word in, bigraded Khovanov homology out.

The pipeline starts from the projective of the horseshoe matching over H_n
(2n boundary points for an n-strand braid; the braid embeds through its
first n-1 generator indices) and runs one letter loop (`_twisted`): one
mapping-cone twist per letter, Gaussian-elimination reduction after each,
and Bar-Natan's scanning, which runs cap_m right after the last
sigma_{m-1}, on the conjugate that scans cheapest, down to H_1; it closes
along horseshoe(1) (`idempotent_truncate`) and takes integer homology.
`compute` and the skein suite's resolution share that path, on a shorter
word with the same closure (`_simplified`: cancellation, destabilisation and
Dehornoy's handle moves, each judged on its window): a letter of sign 0 is a
resolved crossing, whose `twist` is cup_i cap_i at no shift.
`verify_markov` scans its moved words as given.  The braid-relation and
twist-inverse suites run the loop with no caps and close at every matching.

Raw cone gradings are converted to Khovanov's (i, j) by one rule
(`_offsets`), calibrated once on the unknot and trefoil against the cube
oracle and frozen, and applied by `_scanned_homology` to every scanned
closure:

    i = h + (number of positive letters)
    j = j_raw + writhe

A letter of sign 0 counts in neither.

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
from .tangle import cap_functor, twist


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


def _twisted(letters, C: Complex, caps=None) -> Complex:
    """C after each letter (generator index, sign), by its `twist`, sign 0
    included; reduced after every letter and after each cap in caps[t], run
    after letter t."""
    for t, (i, s) in enumerate(letters):
        C = eliminate(twist(i, s, C))
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
    bound.  A letter maps X to s(q^s E_i X - X), and one of sign 0 to
    E_i X, where E_i is cupcap_through with a factor q + 1/q for a closed
    circle; so does a cap, as cap_apply."""
    state = {(horseshoe(strands), 0): 1}
    total = 0
    for (i, s), due in zip(letters, caps):
        nxt: dict[tuple[Matching, int], int] = {}
        f, ends = s or 1, ((s,), (s + 1, s - 1))  # E_i's factor; its q-shifts by circles closed
        for (a, e), v in state.items():
            nxt[(a, e)] = nxt.get((a, e), 0) - s * v
            b, closed = cupcap_through(i, a)
            for d in ends[closed]:
                nxt[(b, e + d)] = nxt.get((b, e + d), 0) + f * v
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


def _cheapest_conjugate(letters):
    """(k, c, caps): the letters on the k strands they touch, renumbered in
    order, as the conjugate c that scans cheapest, and c's `_cap_plan`.  Of
    the L rotations of the word, each with and without sigma_i ->
    sigma_{k-i}, the 6 with the least sum over letters of the Catalan
    number of the level then open are scanned, and the least `_scan_norm`
    wins.  That norm on all 2L, with its abort, chose 3-4x slower and won
    less back."""
    rank = {p: r for r, p in enumerate(sorted({p for i, _s in letters for p in (i, i + 1)}), 1)}
    k = len(rank) or 1
    word = [(rank[i], s) for i, s in letters]
    ranked = []
    for w in (word, [(k - i, s) for i, s in word]):
        for r in range(len(w) or 1):
            v = w[r:] + w[:r]
            caps = _cap_plan(k, v)
            levels = accumulate((len(due) for due in caps[:-1]), sub, initial=k)
            ranked.append((sum(comb(2 * m, m) // (m + 1) for m in levels), len(ranked), v, caps))
    best, choice = float("inf"), None
    for _cost, _n, v, caps in sorted(ranked)[:6]:
        norm = _scan_norm(k, v, caps, best)
        if norm is not None:
            best, choice = norm, (k, v, caps)
    return choice


def _reduced(strands: int, letters) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(n, letters) with the closure of the given ones.  Until neither
    applies: sigma_i^e cancels with the next letter, read cyclically, within
    1 of i, if it is sigma_i^-e (a letter of sign 0, at most one a word,
    never cancels and blocks as its sigma_i does); a lone letter of nonzero
    sign at an end of the touched strands goes with its end strand (Markov
    destabilisation).  A lap moves each letter from the front to the back;
    one that cancels none is last."""
    n, low, word = strands, 0, list(letters)
    top = defaultdict(deque)  # top[i]: the positions of sigma_i's letters, in order
    for t, (i, _s) in enumerate(word):
        top[i].append(t)
    lap, cancelled = range(len(word)), True
    while cancelled:
        cancelled = False
        for x in filter(None, map(word.__getitem__, lap)):  # word[t] is read as t comes
            i, s = x
            top[i].popleft()
            p = max((top[g][-1] for g in (i - 1, i, i + 1) if top[g]), default=None)
            if p is not None and word[p] == (i, -s):
                word[p], cancelled = None, True
                top[i].pop()
            else:
                top[i].append(len(word))
                word.append(x)
        lap, live = range(lap.stop, len(word)), [i for i in top if top[i]]
        for g in {min(live), max(live)} if live else ():
            if len(top[g]) == 1 and word[top[g][0]][1]:  # low counts the bottom strands gone
                word[top[g].pop()], n, low, cancelled = None, n - 1, low + (g == min(live)), True
                break
    return n, tuple((i - low, s) for i, s in filter(None, word[lap.start :]))


def _handle_moves(n: int, word: list, starts, outer: tuple = ()):
    """Each move on a handle beginning at a position in starts, in order, as
    (key, moved, where).  moved is the word after the move, led by its
    window: the letters from the sigma_i before the handle to the one after
    (or all), rewritten and cancelled as a segment, the rewrite on from
    `where`.  key is (letters, strands) once a lone end sigma_i or sigma_j
    goes.  Then, with no outer (the first word's length and end generators),
    the moves of each moved on the handles beginning in its `where`."""
    size, firsts, ww = len(word), [], word * 3  # position a of the word is ww[size + a]
    base, lo, hi = outer or (size, min(word, default=(0, 0))[0], max(word, default=(0, 0))[0])
    for a in starts:
        (i, e), a = word[a], size + a
        t = next((t for t in range(1, size) if ww[a + t][0] == i or not ww[a + t][1]), 0)
        js = {g for g, _d in ww[a + 1 : a + t]} & {i - 1, i + 1}
        if not (e and t and ww[a + t] == (i, -e) and len(js) == 1):
            continue
        (j,), back = js, next(d for d in range(1, size) if ww[a - d][0] == i)
        ahead = next(d for d in range(1, size) if ww[a + t + d][0] == i)
        back, ahead = (back, ahead) if back + t + ahead < size else (0, size - 1 - t)  # all, not overlapping
        mid = [y for g, d in ww[a + 1 : a + t] for y in ([(j, -e), (i, d), (j, e)] if g == j else [(g, d)])]
        new = []
        for g, d in ww[a - back : a] + mid + ww[a + t + 1 : a + t + ahead + 1]:
            p = len(new) - 1
            while p >= 0 and abs(new[p][0] - g) > 1:
                p -= 1
            if p >= 0 and new[p] == (g, -d):
                del new[p]
            else:
                new.append((g, d))
        moved = new + ww[a + t + ahead + 1 : a + size - back]
        ends = {lo, hi} & {i, j} if 0 <= len(moved) - base <= 1 else ()
        k = n - any(moved.count((g, 1)) + moved.count((g, -1)) == 1 and (g, 0) not in moved for g in ends)
        firsts.append(((len(moved) - n + k, k), moved, range(back, len(new))))
        yield firsts[-1]
    for _key, moved, where in () if outer else firsts:
        yield from _handle_moves(n, moved, where, (size, lo, hi))


def _simplified(strands: int, letters) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(n, letters) with the closure of the given ones: `_reduced`, then
    cyclic handle reduction (Dehornoy 1997) until no move is kept.  A handle
    is sigma_i^e w sigma_i^-e, read cyclically, e = +-1, whose w holds no
    sigma_i, no letter of sign 0, and sigma_j letters for one j = i +- 1; the
    move drops its ends and writes each sigma_j^d of w as sigma_j^-e sigma_i^d
    sigma_j^e, that braid as |i - j| = 1.  The first move, else the first
    pair, in position order, after which cancellation and destabilisation
    make (letters, strands) smaller is kept, judged on its window alone
    (`_handle_moves`).  Work, for L letters: at most 3L rounds, each of at
    most L + 3L^2 tries of O(L^2) reads, so O(L^5) reads."""
    n, word = _reduced(strands, letters)
    while True:
        tries = _handle_moves(n, list(word), range(len(word)))
        key, moved = next(((key, m) for key, m, _w in tries if key < (len(word), n)), ((len(word), n), word))
        if key[1] == n and moved is not word:  # cancelled in its window; no strand goes
            word = moved
        elif (reduced := _reduced(n, moved)) == (n, tuple(word)):
            return reduced
        else:
            n, word = reduced


def braid_complex(strands: int, letters, caps) -> Complex:
    """The horseshoe's projective in H_strands through the letter loop
    (`_twisted`); a `_cap_plan` for caps ends it in H_1."""
    return _twisted(letters, Complex.single(horseshoe(strands)), caps)


def _scanned_homology(strands: int, letters, coefficients: str) -> BigradedGroup:
    """Homology of the closure of the letters on `strands` strands, by the
    scan of the cheapest conjugate of exactly those letters to H_1, graded
    by their `_offsets`; each strand no letter touches is an unknot:
    Kh(L + unknot) = Kh(L) (x) V."""
    k, c, caps = _cheapest_conjugate(letters)
    raw = homology(idempotent_truncate(horseshoe(1), braid_complex(k, c, caps)), coefficients)
    for _ in range(strands - k):
        raw = raw.shifted(0, 1) + raw.shifted(0, -1)
    return raw.shifted(*_offsets(letters))


def _offsets(letters) -> tuple[int, int]:
    """The frozen grading rule: the shift from the letters' raw grading to
    Khovanov's (i, j) is (number of positive letters, writhe)."""
    return sum(s > 0 for _i, s in letters), sum(s for _i, s in letters)


def compute(b: BraidWord, coefficients: str = "Z") -> InvariantResult:
    """Khovanov homology of the closure of b, exact over Z by default.

    coefficients: "Z", "Q", or "Fp" (e.g. "F2").  The scan runs on a word
    with b's closure (`_simplified`), graded by that word's offsets.
    """
    bigraded = _scanned_homology(*_simplified(b.strands, b.letters), coefficients)
    h, w = _offsets(b.letters)
    shifts = {
        "homological": h,
        "quantum": w,
        "collapsed_nw": b.strands + w,
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
        groups = _scanned_homology(other.strands, other.letters, coefficients)
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
    graded scan of b's letters, letter c's sign set to 0, after
    `_simplified`, shifted by (-v, -3v)."""
    v = _complement_arc_v(b, c)
    letters = b.letters[:c] + ((b.letters[c][0], 0),) + b.letters[c + 1 :]
    return _scanned_homology(*_simplified(b.strands, letters), coefficients).shifted(-v, -3 * v), v


def verify_skein(b: BraidWord, crossing: int | None = None, coefficients: str = "Q") -> dict:
    """Check the unoriented skein triangle at each crossing of b, or at
    `crossing` alone: {"word", "crossings": a report each, "ok"}.  The link
    X is scanned once, and Y (letter removed) and Z (resolved) once per
    crossing.  An empty word or a crossing outside 0..m-1 is a ValueError.

    One long exact sequence per j where a group lives, indexed by (i, j) of
    X.  `window` states its degree offsets once, v included: position p
    holds (group, di, dj), and its term is group^{i+di, j+dj}.  i runs over
    the span of the groups' terms, in X's index, and one zero row past each
    end.  Each rank is at most its neighbours' sum, and the ranks signed by
    (-1)^(i + p) sum to an integer defect of 0, the triangle's Euler identity.
    """
    if not b.letters:
        raise ValueError("skein verification needs at least one crossing")
    if crossing is not None and not 0 <= crossing < len(b.letters):
        raise ValueError(f"--crossing must lie in 0..{len(b.letters) - 1}")
    X, reports = compute(b, coefficients).bigraded, []
    for c in range(len(b.letters)) if crossing is None else (crossing,):
        sign = b.letters[c][1]
        Y = compute(b.without_letter(c), coefficients).bigraded
        Z, v = _infinity_homology(b, c, coefficients)
        # sign +1: X^{i,j} -> Y^{i,j-1} -> Z^{i-v,j-3v-2} -> X^{i+1,j}
        # sign -1: X^{i,j} -> Z^{i-v+1,j-3v+2} -> Y^{i+1,j+1} -> X^{i+1,j}
        window = (((X, 0, 0), (Y, 0, -1), (Z, -v, -3 * v - 2)) if sign == 1
                  else ((X, 0, 0), (Z, 1 - v, 2 - 3 * v), (Y, 1, 1)))
        lives = {(i - di, j - dj) for g, di, dj in window for i, j in g.entries}  # in X's (i, j)
        rows = range(min(lives, default=(0,))[0] - 1, max(lives, default=(0,))[0] + 2)
        rank_failures, euler_failures = [], []
        for j in sorted({j for _i, j in lives}):
            seq = [(pos, (i + di, j + dj), g.rank(i + di, j + dj), (i + pos) % 2)
                   for i in rows for pos, (g, di, dj) in enumerate(window)]
            for k in range(1, len(seq) - 1):
                if seq[k][2] > seq[k - 1][2] + seq[k + 1][2]:
                    rank_failures.append({"j": j, "term": seq[k][:2], "rank": seq[k][2]})
            # ranks of an exact sequence over a field alternate to 0
            if defect := sum(-r if odd else r for _pos, _ij, r, odd in seq):
                euler_failures.append({"j": j, "defect": defect})

        reports.append({
            "word": b.format(),
            "crossing": c,
            "sign": sign,
            "v": v,
            "coefficients": coefficients,
            "rank_inequalities_ok": not rank_failures,
            "rank_failures": rank_failures,
            "euler_identity_ok": not euler_failures,
            "euler_failures": euler_failures,
            "ok": not rank_failures and not euler_failures,
        })
    return {"word": b.format(), "crossings": reports, "ok": all(r["ok"] for r in reports)}
