import itertools

from khbraid.tqft import (
    Label,
    counit,
    mask_merge,
    mask_qdeg,
    mask_split,
    merge,
    qdeg,
    sdeg,
    split,
    unit,
)

ONE, X = Label.ONE, Label.X
BASIS = (ONE, X)


def test_merge_table():
    assert merge(ONE, ONE) == {ONE: 1}
    assert merge(ONE, X) == {X: 1}
    assert merge(X, ONE) == {X: 1}
    assert merge(X, X) == {}


def test_split_table():
    assert split(ONE) == {(ONE, X): 1, (X, ONE): 1}
    assert split(X) == {(X, X): 1}


def test_split_after_merge_on_unit_pair():
    # m then Delta on 1 (x) 1 gives 1 (x) x + x (x) 1
    acc = {}
    for lab, c1 in merge(ONE, ONE).items():
        for pair, c2 in split(lab).items():
            acc[pair] = acc.get(pair, 0) + c1 * c2
    assert acc == {(ONE, X): 1, (X, ONE): 1}


def _compose_pair(op_first, op_second):
    """(V (x) V -> V (x) V) built from one merge-ish and one split-ish leg."""
    out = {}
    for a, b in itertools.product(BASIS, BASIS):
        acc = {}
        for mid, c1 in op_first(a, b).items():
            for pair, c2 in op_second(mid).items():
                acc[pair] = acc.get(pair, 0) + c1 * c2
        out[(a, b)] = acc
    return out


def test_frobenius_identity_on_all_of_v_tensor_v():
    # Delta . m
    center = _compose_pair(merge, split)
    # (m (x) id) . (id (x) Delta):  a (x) b -> sum m(a, s1) (x) s2
    left = {}
    for a, b in itertools.product(BASIS, BASIS):
        acc = {}
        for (s1, s2), c1 in split(b).items():
            for lab, c2 in merge(a, s1).items():
                acc[(lab, s2)] = acc.get((lab, s2), 0) + c1 * c2
        left[(a, b)] = acc
    # (id (x) m) . (Delta (x) id):  a (x) b -> sum s1 (x) m(s2, b)
    right = {}
    for a, b in itertools.product(BASIS, BASIS):
        acc = {}
        for (s1, s2), c1 in split(a).items():
            for lab, c2 in merge(s2, b).items():
                acc[(s1, lab)] = acc.get((s1, lab), 0) + c1 * c2
        right[(a, b)] = acc
    assert left == center == right


def test_counit_and_trace_pairing():
    assert counit(ONE) == 0 and counit(X) == 1
    pairing = {
        (a, b): sum(counit(lab) * c for lab, c in merge(a, b).items())
        for a in BASIS
        for b in BASIS
    }
    assert pairing == {(ONE, ONE): 0, (ONE, X): 1, (X, ONE): 1, (X, X): 0}


def test_unit():
    assert unit() == {ONE: 1}


def test_all_structure_constants_nonnegative():
    for a, b in itertools.product(BASIS, BASIS):
        assert all(c == 1 for c in merge(a, b).values())
    for a in BASIS:
        assert all(c == 1 for c in split(a).values())


def test_qdeg_conventions():
    assert qdeg(ONE) == 1 and qdeg(X) == -1
    assert sum(qdeg(lab) for lab in (ONE, X, X)) == -1
    # a c-circle labeling with p x-labels has qdeg c - 2p
    for c in range(1, 5):
        for mask in range(1 << c):
            p = bin(mask).count("1")
            assert mask_qdeg(mask, c) == c - 2 * p
    # merge and split both lower total qdeg by one
    for a, b in itertools.product(BASIS, BASIS):
        for lab, _c in merge(a, b).items():
            assert qdeg(lab) == qdeg(a) + qdeg(b) - 1
    for a in BASIS:
        for (s1, s2), _c in split(a).items():
            assert qdeg(s1) + qdeg(s2) == qdeg(a) - 1


def test_sdeg_range():
    # generators of a block with c circles live in n-c <= sdeg <= n+c
    n, c = 3, 2
    degs = [sdeg(n, c, p) for p in range(c + 1)]
    assert min(degs) == n - c and max(degs) == n + c


def test_mask_ops_match_label_ops():
    # merge circles 0,1 of a two-circle diagram into one
    got = mask_merge({0b00: 1, 0b01: 1, 0b10: 1, 0b11: 1}, 1, 2, 4)
    assert got == {0b000: 1, 0b100: 2}
    got = mask_split({0b1: 1}, 1, 2, 4)
    assert got == {0b110: 1}
    got = mask_split({0b0: 1}, 1, 2, 4)
    assert got == {0b010: 1, 0b100: 1}
