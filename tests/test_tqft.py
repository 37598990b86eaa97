"""The laws of V = Z<1,x>, stated on the int-mask operations.

A labeling is a mask with bit k set when circle k is labeled x; the
circles below are single bits, so for two circles on bits 1 and 2 the
mask 0b01 is x@1 (first circle x) and 0b10 is 1@x.
"""

from khbraid.tqft import mask_merge, mask_qdeg, mask_split

# a (x) b for a, b in {1, x}: a on bit 1, b on bit 2
PAIRS = (0b00, 0b01, 0b10, 0b11)


def sdeg(n: int, c: int, p: int) -> int:
    """Cohomological degree of a block generator: (n - c) + 2p.

    This is the grading in which the arc algebra product is additive; a
    block between matchings with c common circles lives in n-c <= * <= n+c.
    """
    return (n - c) + 2 * p


def merge(mask: int) -> dict[int, int]:
    """m: the circles on bits 1, 2 merge into bit 4."""
    return mask_merge({mask: 1}, 1, 2, 4)


def split(mask: int) -> dict[int, int]:
    """Delta: the circle on bit 1 splits into bits 2 (left) and 4 (right)."""
    return mask_split({mask: 1}, 1, 2, 4)


def test_merge_table():
    # 1*1 = 1, 1*x = x*1 = x, x*x = 0
    assert merge(0b00) == {0b000: 1}
    assert merge(0b01) == {0b100: 1}
    assert merge(0b10) == {0b100: 1}
    assert merge(0b11) == {}


def test_split_table():
    # 1 -> 1@x + x@1, x -> x@x
    assert split(0b0) == {0b100: 1, 0b010: 1}
    assert split(0b1) == {0b110: 1}


def test_split_after_merge_on_unit_pair():
    # m then Delta on 1 (x) 1 gives 1 (x) x + x (x) 1 on bits 1, 2
    assert mask_split(merge(0b00), 4, 1, 2) == {0b10: 1, 0b01: 1}


def test_frobenius_identity_on_all_of_v_tensor_v():
    # a on bit 1, b on bit 2; every side leaves its two outputs on bits 8
    # (left) and 16 (right)
    for ab in PAIRS:
        # Delta . m
        center = mask_split(mask_merge({ab: 1}, 1, 2, 4), 4, 8, 16)
        # (m (x) id) . (id (x) Delta): a (x) b -> sum m(a, s1) (x) s2
        left = mask_merge(mask_split({ab: 1}, 2, 4, 16), 1, 4, 8)
        # (id (x) m) . (Delta (x) id): a (x) b -> sum s1 (x) m(s2, b)
        right = mask_merge(mask_split({ab: 1}, 1, 8, 4), 4, 2, 16)
        assert left == center == right, ab


def test_counit_and_trace_pairing():
    # the counit is the coefficient of the x labeling: eps(1) = 0, eps(x) = 1
    counit = lambda terms, bit: sum(c for m, c in terms.items() if m & bit)
    assert counit({0: 1}, 1) == 0 and counit({1: 1}, 1) == 1
    pairing = {ab: counit(merge(ab), 4) for ab in PAIRS}
    assert pairing == {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 0}


def test_unit():
    # the unit is mask 0: merging it in on either side changes no labeling
    for a in (0, 1):
        assert mask_merge({a: 1}, 1, 2, 4) == {a << 2: 1}  # a (x) 1
        assert mask_merge({a << 1: 1}, 1, 2, 4) == {a << 2: 1}  # 1 (x) a
    # and split sends it to the two labelings with one x
    assert all(bin(m).count("1") == 1 for m in split(0))


def test_all_structure_constants_nonnegative():
    for ab in PAIRS:
        assert all(c == 1 for c in merge(ab).values())
    for a in (0, 1):
        assert all(c == 1 for c in split(a).values())


def test_qdeg_conventions():
    # qdeg(1) = +1, qdeg(x) = -1
    assert mask_qdeg(0, 1) == 1 and mask_qdeg(1, 1) == -1
    assert mask_qdeg(0b110, 3) == -1  # 1 (x) x (x) x
    # a c-circle labeling with p x-labels has qdeg c - 2p
    for c in range(1, 5):
        for mask in range(1 << c):
            p = bin(mask).count("1")
            assert mask_qdeg(mask, c) == c - 2 * p
    # merge and split both lower total qdeg by one
    for ab in PAIRS:
        for m in merge(ab):
            assert mask_qdeg(m >> 2, 1) == mask_qdeg(ab, 2) - 1
    for a in (0, 1):
        for m in split(a):
            assert mask_qdeg(m >> 1, 2) == mask_qdeg(a, 1) - 1


def test_sdeg_range():
    # generators of a block with c circles live in n-c <= sdeg <= n+c
    n, c = 3, 2
    degs = [sdeg(n, c, p) for p in range(c + 1)]
    assert min(degs) == n - c and max(degs) == n + c


def test_mask_ops_match_label_ops():
    # on a formal combination each term follows the tables above, and a
    # circle the operation does not touch keeps its label
    got = mask_merge({0b00: 1, 0b01: 1, 0b10: 1, 0b11: 1}, 1, 2, 4)
    assert got == {0b000: 1, 0b100: 2}
    got = mask_split({0b1001: 3, 0b1000: 2}, 1, 2, 4)
    assert got == {0b1110: 3, 0b1010: 2, 0b1100: 2}
    got = mask_merge({0b1001: 1, 0b0010: -1}, 1, 2, 4)
    assert got == {0b1100: 1, 0b0100: -1}
