"""The rank-two Frobenius algebra V = Z<1,x> underlying the TQFT.

Merging circles multiplies labels (x*x = 0), splitting comultiplies
(1 -> 1@x + x@1, x -> x@x).  All structure constants are 0 or +1; that
positivity is what lets the surgery product agree with the geometric one.

A labeling of c circles is an int mask: bit k set means circle k is
labeled x, clear means 1.  Formal combinations are dicts {mask: coeff}.
Quantum degree: 1 has +1, x has -1, so a labeling has c - 2 * (number of x).
"""

from __future__ import annotations


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
    return c - 2 * mask.bit_count()
