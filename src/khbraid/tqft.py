"""The rank-two Frobenius algebra V = Z<1,x> underlying the TQFT.

Merging circles multiplies labels (x*x = 0), splitting comultiplies
(1 -> 1@x + x@1, x -> x@x).  All structure constants are 0 or +1; that
positivity is what lets the surgery product agree with the geometric one.

Internally a label is the int 0 ("1") or 1 ("x"); the enum is the public
face.  Quantum degree: qdeg(1) = +1, qdeg(x) = -1.
"""

from __future__ import annotations

import enum


class Label(enum.Enum):
    ONE = 0
    X = 1

    def __repr__(self) -> str:
        return "1" if self is Label.ONE else "x"


ONE, X = Label.ONE, Label.X


def merge(a: Label, b: Label) -> dict[Label, int]:
    """Product in V as a formal Z-combination: 1 is the unit, x*x = 0."""
    if a is ONE:
        return {b: 1}
    if b is ONE:
        return {a: 1}
    return {}


def split(a: Label) -> dict[tuple[Label, Label], int]:
    """Coproduct: 1 -> 1@x + x@1, x -> x@x (all coefficients +1)."""
    if a is ONE:
        return {(ONE, X): 1, (X, ONE): 1}
    return {(X, X): 1}


def counit(a: Label) -> int:
    """eps(1) = 0, eps(x) = 1; with merge this gives the trace pairing."""
    return 0 if a is ONE else 1


def unit() -> dict[Label, int]:
    """iota: Z -> V, 1 -> 1."""
    return {ONE: 1}


def qdeg(a: Label) -> int:
    return 1 if a is ONE else -1


def sdeg(n: int, c: int, p: int) -> int:
    """Cohomological degree of a block generator: (n - c) + 2p.

    This is the grading in which the arc algebra product is additive; a
    block between matchings with c common circles lives in n-c <= * <= n+c.
    """
    return (n - c) + 2 * p


# --- int-mask fast path -----------------------------------------------------
#
# A labeling of c circles is an int bitmask, bit k set = circle k labeled x.
# Formal combinations are dicts {mask: coeff}.  These helpers are what the
# surgery schedules execute; the enum API above stays the reference.


def mask_merge(terms: dict[int, int], bit_a: int, bit_b: int, bit_dst: int) -> dict[int, int]:
    """Merge circles bit_a, bit_b of every term into bit_dst (x*x kills)."""
    out: dict[int, int] = {}
    for mask, coeff in terms.items():
        xa = mask & bit_a
        xb = mask & bit_b
        if xa and xb:
            continue
        new = (mask & ~(bit_a | bit_b)) | (bit_dst if (xa or xb) else 0)
        out[new] = out.get(new, 0) + coeff
    return out


def mask_split(terms: dict[int, int], bit_src: int, bit_1: int, bit_2: int) -> dict[int, int]:
    """Split circle bit_src into bit_1, bit_2 via the coproduct."""
    out: dict[int, int] = {}
    for mask, coeff in terms.items():
        base = mask & ~bit_src
        if mask & bit_src:
            new = base | bit_1 | bit_2
            out[new] = out.get(new, 0) + coeff
        else:
            for put in (bit_1, bit_2):
                new = base | put
                out[new] = out.get(new, 0) + coeff
    return out


def mask_qdeg(mask: int, c: int) -> int:
    return c - 2 * bin(mask).count("1")
