"""Seeded braid-word corpora for the four benchmark workloads.

The program under test sees only the generated words.  Per-word cost is
heavy-tailed, so each corpus is sized by two work estimates that this file
computes on its own, without khbraid:

* `tl_work`: the arc path.  After each letter the twisted complex has at
  least as many summands as the L1 norm of its class in the Grothendieck
  group, a vector of Laurent polynomials over crossingless matchings on
  which each letter acts through the Temperley-Lieb relation.  The sum of
  these norms over the prefixes of a word tracks the arc path's wall time
  (log-log correlation about 0.97 on 4-6 strand words).
* `cube_gens`: the cube of resolutions.  The sum over its 2^crossings
  vertices of 2^(circles), i.e. the oracle's generator count.

A word is drawn until its estimate falls inside the workload's band, so no
single word dominates a pass and passes cost about the same on every seed.
"""

from __future__ import annotations

import random
from math import comb
from dataclasses import dataclass

GENERATOR_VERSION = 2
DEFAULT_SEED = 0
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Op:
    """One operation: a (word, command, coefficients) invocation of the CLI."""

    id: int
    word: int  # index of the word in the corpus
    strands: int
    letters: tuple[int, ...]
    command: str
    coeffs: str
    work: int  # the estimate the word was drawn by

    @property
    def braid(self) -> str:
        return " ".join([f"n={self.strands}", *map(str, self.letters)])

    @property
    def crossings(self) -> int:
        return len(self.letters)

    def argv(self) -> list[str]:
        return [self.command, "--braid", self.braid, "--coeffs", self.coeffs]


# ---------------------------------------------------------------------------
# work estimates


def _partner(a: frozenset, p: int) -> int:
    for x, y in a:
        if x == p:
            return y
        if y == p:
            return x
    raise ValueError(p)


def _cupcap(i: int, a: frozenset) -> tuple[frozenset, bool]:
    """cup_i cap_i on a matching: (new matching, whether a circle closed)."""
    if (i, i + 1) in a:
        return a, True
    p, q = _partner(a, i), _partner(a, i + 1)
    rest = [pr for pr in a if i not in pr and i + 1 not in pr]
    return frozenset(rest + [tuple(sorted((p, q))), (i, i + 1)]), False


def tl_work(strands: int, letters) -> int:
    """Sum over prefixes of the L1 norm of the twisted complex's class.

    The start is the horseshoe matching (k, 2n+1-k) on 2n points.  A letter
    at i with sign s maps a class X to s(q^s E_i X - X), where E_i a is
    (q + 1/q) a when a holds the arc (i, i+1) and the resurgered matching
    otherwise.
    """
    n = strands
    state = {frozenset((k, 2 * n + 1 - k) for k in range(1, n + 1)): {0: 1}}
    total = 0
    for x in letters:
        i, s = abs(x), (1 if x > 0 else -1)
        out: dict[frozenset, dict[int, int]] = {}
        for a, poly in state.items():
            acc = out.setdefault(a, {})
            for k, v in poly.items():
                acc[k] = acc.get(k, 0) - s * v
            b, closed = _cupcap(i, a)
            acc = out.setdefault(b, {})
            for d in ((s + 1, s - 1) if closed else (s,)):
                for k, v in poly.items():
                    acc[k + d] = acc.get(k + d, 0) + s * v
        state = {a: {k: v for k, v in p.items() if v} for a, p in out.items()}
        state = {a: p for a, p in state.items() if p}
        total += sum(abs(v) for p in state.values() for v in p.values())
    return total


def cube_blocks(strands: int, letters) -> dict[tuple[int, int], int]:
    """Generators of the cube of resolutions per bidegree (i, j).

    Points are (level, strand position); letter r joins level r to level
    r+1 (cyclically).  A crossing's oriented smoothing is the straight one;
    it is smoothing 0 of a positive crossing and smoothing 1 of a negative
    one.  A vertex with c circles and r one-smoothings carries C(c, k)
    generators in degree (r - n_-, c - 2k + r + n_+ - 2 n_-).
    """
    m, n = len(letters), strands
    if m == 0:
        return {(0, n - 2 * k): comb(n, k) for k in range(n + 1)}
    n_plus = sum(1 for x in letters if x > 0)
    n_minus = m - n_plus
    base = []  # (a, b) joins made by every vertex
    smooth = []  # per crossing: (joins of smoothing 0, joins of smoothing 1)
    for r, x in enumerate(letters):
        i, up = abs(x), (r + 1) % m
        for pos in range(1, n + 1):
            if pos not in (i, i + 1):
                base.append(((r, pos), (up, pos)))
        straight = (((r, i), (up, i)), ((r, i + 1), (up, i + 1)))
        turned = (((r, i), (r, i + 1)), ((up, i), (up, i + 1)))
        smooth.append((straight, turned) if x > 0 else (turned, straight))
    points = {p for pair in base for p in pair} | {
        p for both in smooth for joins in both for pair in joins for p in pair
    }
    index = {p: k for k, p in enumerate(sorted(points))}

    def merges(parent, joins) -> int:
        merged = 0
        for a, b in joins:
            a, b = index[a], index[b]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
                merged += 1
        return merged

    base_parent = list(range(len(index)))
    base_comps = len(index) - merges(base_parent, base)
    blocks: dict[tuple[int, int], int] = {}
    for v in range(1 << m):
        joins = [pair for t in range(m) for pair in smooth[t][v >> t & 1]]
        c = base_comps - merges(list(base_parent), joins)
        r = bin(v).count("1")
        for k in range(c + 1):
            key = (r - n_minus, c - 2 * k + r + n_plus - 2 * n_minus)
            blocks[key] = blocks.get(key, 0) + comb(c, k)
    return blocks


def cube_gens(strands: int, letters) -> int:
    """Generators of the cube of resolutions: its 2^crossings vertices'
    sum of 2^(circles)."""
    return sum(cube_blocks(strands, letters).values())


def cube_work(strands: int, letters) -> int:
    """Entries of the dense (i, j) blocks of the cube's differential: the
    sum over bidegrees of dim(i, j) * dim(i+1, j)."""
    b = cube_blocks(strands, letters)
    return sum(d * b.get((i + 1, j), 0) for (i, j), d in b.items())


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Slot:
    """One word of a corpus: its family and the accepted range of its estimate."""

    strands: int  # 3 for the alternating family
    lengths: tuple[int, int]  # inclusive
    band: tuple[int, int]  # inclusive


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    coeffs: tuple[str, ...]
    estimate: str  # "tl" (arc path) or "cube" (oracle)
    slots: tuple[Slot, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "arc_elim", "compute", ("Z",), "tl", (Slot(3, (14, 14), (2600, 2800)),) * 2,
            "compute over Z, 3-strand alternating words (s1 positive, s2 negative, runs 1-2), "
            "14 letters: the complex stays large, so eliminate is the largest layer",
        ),
        Workload(
            "arc_wide", "compute", ("Z",), "tl",
            tuple(Slot(n, (10, 14), (330, 370)) for n in (4, 5, 6)) * 3,
            "compute over Z, random words on 4-6 strands, 10-14 letters: functors, checks, "
            "truncation and the planar/arcalg caches; elimination is small",
        ),
        Workload(
            "referee_z", "compare", ("Z",), "cube",
            (Slot(3, (8, 8), (350_000, 430_000)), Slot(4, (8, 8), (350_000, 430_000))) * 5,
            "compare over Z, random words on 3-4 strands, 8 crossings: cube build, d^2 "
            "check and Smith kernel; the arc path is a few percent",
        ),
        Workload(
            "referee_field", "compare", ("Q", "F2"), "cube",
            (Slot(3, (6, 6), (10_000, 16_000)), Slot(4, (6, 6), (10_000, 16_000))) * 12,
            "compare over Q and F2, random words on 3-4 strands, 6 crossings: rank over a "
            "field; kept apart so a Q gain cannot hide a Z loss",
        ),
    )
}


def _draw(rng: random.Random, name: str, slot: Slot) -> tuple[int, ...]:
    length = rng.randint(*slot.lengths)
    if name == "arc_elim":
        # The word ends in a run of one letter: at equal tl_work a closing
        # double run costs about a quarter more, which would widen the spread
        # of pass times between seeds.
        while True:
            letters: list[int] = []
            gen = 1
            while len(letters) < length:
                letters += [1 if gen == 1 else -2] * rng.randint(1, 2)
                gen = 3 - gen
            letters = letters[:length]
            if letters[-1] != letters[-2]:
                return tuple(letters)
    n = slot.strands
    return tuple(rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length))


def generate(name: str, seed: int) -> list[Op]:
    """The operations of one pass, in order.  Same (name, seed), same ops."""
    wl = WORKLOADS[name]
    estimate = tl_work if wl.estimate == "tl" else cube_work
    rng = random.Random(f"khbraid-bench:{GENERATOR_VERSION}:{name}:{seed}")
    ops: list[Op] = []
    for k, slot in enumerate(wl.slots):
        for _ in range(MAX_DRAWS):
            letters = _draw(rng, name, slot)
            work = estimate(slot.strands, letters)
            if slot.band[0] <= work <= slot.band[1]:
                break
        else:
            raise RuntimeError(f"{name}: no word in band {slot.band} after {MAX_DRAWS} draws")
        for c in wl.coeffs:
            ops.append(Op(len(ops), k, slot.strands, letters, wl.command, c, work))
    return ops
