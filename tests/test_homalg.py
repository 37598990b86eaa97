import itertools
import random
from math import gcd

import pytest

from khbraid.arcalg import ArcCombination, min_generator, multiply
from khbraid.homalg import (
    BigradedGroup,
    Complex,
    FreeComplex,
    ModuleMap,
    ProjSummand,
    cone,
    _invertible_entry,
    _prime_power_factors,
    eliminate,
    homology,
    idempotent_truncate,
    is_chain_map,
    rank_over_field,
    smith_diagonal,
)
from khbraid.linkinv import BraidWord, braid_complex
from khbraid.oracle import braid_to_pd, cube_complex
from khbraid.planar import circles, enumerate_matchings, mixed, plait
from khbraid.tangle import counit_map, twist
from khbraid.tqft import mask_qdeg


def single(w, q=0):
    return Complex.single(w, q)


def entry(d, rc):
    """Entry rc of the ModuleMap d as an ArcCombination, its block read from
    the summands of d."""
    r, c = rc
    return ArcCombination(d.source[c].matching, d.target[r].matching, d.entries.get(rc))


def identity(summands):
    """The identity ModuleMap of a direct sum: e_w on the diagonal."""
    return ModuleMap(summands, summands, {(k, k): {0: 1} for k in range(len(summands))})


def by_col(entries):
    """{(row, col): v} in the column layout {col: {row: v}}, in write order."""
    cols = {}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return cols


# ---------------------------------------------------------------------------
# integer linear algebra


def test_smith_diagonal_simple():
    assert smith_diagonal(by_col({})) == []
    assert smith_diagonal(by_col({(0, 0): 2})) == [2]
    assert sorted(smith_diagonal(by_col({(0, 0): 2, (1, 1): 3}))) == [2, 3]
    # [[2,4],[4,2]] has Smith form diag(2, 6)
    assert sorted(smith_diagonal(by_col({(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 2}))) == [2, 6]


def _brute_rank(entries, rows, cols):
    from fractions import Fraction

    M = [[Fraction(0)] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        M[r][c] = Fraction(v)
    rank = 0
    r0 = 0
    for c in range(cols):
        piv = next((i for i in range(r0, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r0], M[piv] = M[piv], M[r0]
        for i in range(rows):
            if i != r0 and M[i][c]:
                f = M[i][c] / M[r0][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r0])]
        r0 += 1
        rank += 1
    return rank


def test_smith_rank_fuzz_against_dense_elimination():
    rng = random.Random(99)
    for _ in range(150):
        R, C = rng.randint(1, 6), rng.randint(1, 6)
        entries = {
            (r, c): rng.randint(-5, 5)
            for r in range(R)
            for c in range(C)
            if rng.random() < 0.6
        }
        entries = {k: v for k, v in entries.items() if v}
        want = _brute_rank(entries, R, C)
        assert len(smith_diagonal(by_col(entries))) == want
        assert rank_over_field(dict(entries)) == want
        for p in (2, 3, 5):
            assert rank_over_field(dict(entries), p) == len(
                [d for d in smith_diagonal(by_col(entries)) if d % p]
            )


def _det(M):
    if not M:
        return 1
    return sum(
        (-1) ** k * v * _det([row[:k] + row[k + 1 :] for row in M[1:]])
        for k, v in enumerate(M[0])
        if v
    )


def _invariant_factors(entries, rows, cols):
    """s_k = d_k / d_(k-1), with d_k the gcd of all k x k minors (brute force)."""
    M = [[entries.get((r, c), 0) for c in range(cols)] for r in range(rows)]
    d = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, _det([[M[r][c] for c in cs] for r in rs]))
        if not g:
            break
        d.append(g)
    return [d[k] // d[k - 1] for k in range(1, len(d))]


def _torsion(diagonal):
    return sorted(q for s in diagonal if s > 1 for q in _prime_power_factors(s))


def test_smith_torsion_against_determinantal_divisors():
    # three rows and columns c0, c1, c2.  The sweep passes c2 ({2}) and
    # c0 ({3, 4}), which hold no unit, then pivots on the 1 at (0, 1); the row
    # operation on row 1 writes 4 - 3 = 1 into c0, a column already passed,
    # and the remainder loop must pick that unit up.  Smith form (1, 1, 12).
    fill = {(0, 0): 3, (0, 1): 1, (1, 0): 4, (1, 1): 1, (1, 2): 2, (2, 1): 2}
    cases = [(fill, 3, 3)]
    rng = random.Random(5)
    for _ in range(150):
        R, C = rng.randint(1, 5), rng.randint(1, 5)
        entries = {
            (r, c): rng.choice((2, 2, 3, 3, 4, 4, 1)) * rng.choice((1, -1))
            for r in range(R)
            for c in range(C)
            if rng.random() < 0.6
        }
        cases.append((entries, R, C))
    # no unit anywhere: every pivot goes through the remainder.  In [4 -6] the
    # pivot row keeps -6 mod 4 = 2 after its reduction and in [4; 6] the
    # column keeps 6 - 4 = 2, and the pick must move to that smaller entry.
    cases += [({(0, 0): 4, (0, 1): -6}, 1, 2), ({(0, 0): 4, (1, 0): 6}, 2, 1)]
    rng = random.Random(11)
    for _ in range(150):
        R, C = rng.randint(1, 5), rng.randint(1, 5)
        entries = {
            (r, c): rng.choice((2, 3, 4, 6)) * rng.choice((1, -1))
            for r in range(R)
            for c in range(C)
            if rng.random() < 0.6
        }
        cases.append((entries, R, C))
    for entries, R, C in cases:
        want = _invariant_factors(entries, R, C)
        diagonal = smith_diagonal(by_col(entries))
        assert len(diagonal) == len(want), entries
        assert _torsion(diagonal) == _torsion(want), entries
    assert _invariant_factors(fill, 3, 3) == [1, 1, 12]


def test_homology_plain_groups():
    # zero differential on Z^2
    T = FreeComplex({0: [0, 0]}, {})
    H = homology(T)
    assert H.entries == {(0, 0): (2, ())}
    # Z --x2--> Z gives Z/2 in the target degree
    T = FreeComplex({0: [0], 1: [0]}, {0: by_col({(0, 0): 2})})
    H = homology(T)
    assert H.entries == {(1, 0): (0, (2,))}


def test_homology_rejects_bad_differential():
    with pytest.raises(ValueError):
        FreeComplex({0: [0], 1: [0], 2: [0]}, {0: by_col({(0, 0): 1}), 1: by_col({(0, 0): 1})})


def test_check_d2_sums_within_a_column():
    # Z -> Z^2 -> Z with d0 = (1, 1)^T: d1 = (1, -1) cancels within the one
    # column of d1·d0, and d1 = (1, 1) leaves 2 there
    basis = {0: [0], 1: [0, 0], 2: [0]}
    d0 = by_col({(0, 0): 1, (1, 0): 1})
    FreeComplex(basis, {0: d0, 1: by_col({(0, 0): 1, (0, 1): -1})})
    with pytest.raises(ValueError, match="d\\^2 != 0 in free complex at degree 0"):
        FreeComplex(basis, {0: d0, 1: by_col({(0, 0): 1, (0, 1): 1})})


def test_check_d2_reads_every_column():
    # Z^2 -> Z^2 -> Z with d0 columns e0 + e1 and e0, d1 = (1, -1):
    # d1·d0 = (0, 1), so its one nonzero entry lies in column 1
    basis = {0: [0, 0], 1: [0, 0], 2: [0]}
    d0 = by_col({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="d\\^2 != 0 in free complex at degree 0"):
        FreeComplex(basis, {0: d0, 1: by_col({(0, 0): 1, (0, 1): -1})})


def test_homology_rejects_a_differential_that_changes_j():
    T = FreeComplex({0: [0], 1: [2]}, {0: {0: {0: 1}}})
    with pytest.raises(ValueError, match="does not preserve quantum degree"):
        homology(T)
    # every column is checked, not only the first, and every row of a column
    for T in (
        FreeComplex({0: [2, 0], 1: [2]}, {0: by_col({(0, 0): 1, (0, 1): 1})}),
        FreeComplex({0: [0], 1: [0, 2]}, {0: by_col({(0, 0): 1, (1, 0): 1})}),
    ):
        with pytest.raises(ValueError, match="does not preserve quantum degree"):
            homology(T)


def _universal_coefficient_cases():
    rng = random.Random(5)
    for _ in range(40):
        dims = [rng.randint(1, 4) for _ in range(3)]
        basis = {h: [0] * d for h, d in enumerate(dims)}
        d0 = {
            (r, c): rng.randint(-3, 3)
            for r in range(dims[1])
            for c in range(dims[0])
            if rng.random() < 0.7
        }
        # force d1 . d0 = 0 by taking d1 = 0
        yield FreeComplex(basis, {0: by_col({k: v for k, v in d0.items() if v})})
    # cube complexes: several quantum degrees, consecutive nonzero
    # differentials, and torsion
    rng = random.Random(12)
    for _ in range(5):
        word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(rng.randint(3, 5))]
        yield cube_complex(braid_to_pd(BraidWord.from_ints(3, word)))


def _dense_field_ranks(T, p):
    """dim - rank(d_in) - rank(d_out) per (h, j) block, by `rank_over_field`."""
    def block(h, j):
        return {
            (r, c): v
            for c, col in T.mats.get(h, {}).items()
            if T.basis[h][c] == j
            for r, v in col.items()
        }

    ranks = {}
    for h, b in T.basis.items():
        for j in set(b):
            ranks[(h, j)] = (
                b.count(j) - rank_over_field(block(h, j), p) - rank_over_field(block(h - 1, j), p)
            )
    return {k: r for k, r in ranks.items() if r}


def test_universal_coefficients_ranks():
    for T in _universal_coefficient_cases():
        mats = {h: {c: dict(col) for c, col in m.items()} for h, m in T.mats.items()}
        HZ = homology(T, "Z")
        assert T.mats == mats  # the Smith kernel works on copies
        HQ = homology(T, "Q")
        for (h, j), (r, _t) in HQ.entries.items():
            assert HZ.entries.get((h, j), (0, ()))[0] == r
        H2 = homology(T, "F2")
        for (h, j), (r2, _t) in H2.entries.items():
            rz, tz = HZ.entries.get((h, j), (0, ()))
            t_up = HZ.entries.get((h + 1, j), (0, ()))[1]
            expect = rz + len([t for t in tz if t % 2 == 0]) + len(
                [t for t in t_up if t % 2 == 0]
            )
            assert r2 == expect
        for c, p in (("Q", None), ("F2", 2), ("F3", 3)):
            H = homology(T, c)
            assert {k: r for k, (r, _t) in H.entries.items()} == _dense_field_ranks(T, p)


# ---------------------------------------------------------------------------
# complexes of projectives


def test_truncation_block_dimension():
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for a, b in itertools.product(ms, ms):
            T = idempotent_truncate(a, single(b))
            assert len(T.basis[0]) == 2 ** circles(a, b).c
            # quantum degrees are {c - 2p}, shifted by the qshift
            c = circles(a, b).c
            assert sorted(T.basis[0]) == sorted(
                c - 2 * bin(m).count("1") for m in range(1 << c)
            )
            T5 = idempotent_truncate(a, single(b, 5))
            assert sorted(T5.basis[0]) == sorted(j + 5 for j in T.basis[0])


def test_truncation_of_diagonal_block_rank():
    # Hom(P_w, P_w) has rank 2^n
    for n in (1, 2, 3):
        for w in enumerate_matchings(n):
            H = homology(idempotent_truncate(w, single(w)))
            assert H.total_rank() == 2**n
    # Hom(P_plait, P_mix) has rank 2 (one circle)
    H = homology(idempotent_truncate(plait(2), single(mixed(2))))
    assert H.total_rank() == 2


def per_labeling_truncate(a, C):
    """Hom(P_a, C) the direct way: one `multiply` per basis labeling of each
    entry's source block, with no table read shared between labelings."""
    basis, offsets = {}, {}
    for h, summands in C.terms.items():
        degs, offs = [], []
        for s in summands:
            offs.append(len(degs))
            c = circles(a, s.matching).c
            degs.extend(mask_qdeg(m, c) + s.qshift for m in range(1 << c))
        basis[h], offsets[h] = degs, offs
    mats = {}
    for h, d in C.diffs.items():
        mat = {}
        for r, c in d.entries:
            g = entry(d, (r, c))
            for m in range(1 << circles(a, g.source).c):
                col = mat.setdefault(offsets[h][c] + m, {})
                img = multiply(g, ArcCombination(a, g.source, {m: 1}))
                for mm, coeff in img.terms.items():
                    row = offsets[h + 1][r] + mm
                    col[row] = col.get(row, 0) + coeff
        mats[h] = {
            c: kept for c, col in mat.items() if (kept := {r: v for r, v in col.items() if v})
        }
    return FreeComplex(basis, mats)


def test_truncation_matches_one_product_per_labeling():
    rng = random.Random(10)
    several_terms = negative = 0
    for n in (2, 3, 3):
        ms = enumerate_matchings(n)
        C = single(rng.choice(ms))
        for _ in range(rng.randint(3, 5)):
            C = twist(rng.randint(1, 2 * n - 1), rng.choice((1, -1)), C)
            for K in (C, eliminate(C)):
                for g in (entry(d, rc) for d in K.diffs.values() for rc in d.entries):
                    several_terms += len(g.terms) > 1
                    negative += min(g.terms.values()) < 0
                for a in ms:
                    T, want = idempotent_truncate(a, K), per_labeling_truncate(a, K)
                    assert T.basis == want.basis
                    # columns and entries, and the order they were written in, agree
                    items = lambda F: [
                        (h, [(c, list(col.items())) for c, col in m.items()])
                        for h, m in F.mats.items()
                    ]
                    assert items(T) == items(want)
            C = eliminate(C)
    assert several_terms and negative


def test_cone_of_identity_is_acyclic():
    for w in enumerate_matchings(2):
        C = single(w)
        f = {0: identity(C.terms[0])}
        K = cone(f, C, C)
        for a in enumerate_matchings(2):
            assert homology(idempotent_truncate(a, K)).entries == {}


def test_cone_of_zero_is_direct_sum_of_shift():
    C = single(plait(2))
    D = single(mixed(2), 1)
    K = cone({}, C, D)
    assert K.summands(-1) == (ProjSummand(plait(2), 0),)
    assert K.summands(0) == (ProjSummand(mixed(2), 1),)
    assert not K.diffs


def test_cone_rejects_non_chain_maps():
    # identity in degree 0 with nothing in degree 1 does not commute with a
    # nonzero differential
    p2, m2 = plait(2), mixed(2)
    C = Complex(
        {0: (ProjSummand(m2, 0),), 1: (ProjSummand(p2, 1),)},
        {
            0: ModuleMap(
                (ProjSummand(m2, 0),),
                (ProjSummand(p2, 1),),
                {(0, 0): ArcCombination.from_element(min_generator(m2, p2)).terms},
            )
        },
    )
    bad = {0: identity(C.terms[0])}
    assert not is_chain_map(bad, C, C)
    with pytest.raises(ValueError):
        cone(bad, C, C)


def test_counit_cone_homology_is_honest():
    # Euler characteristic forces total e_plait-rank 4 for the cone of the
    # counit on P_plait at i = 1 (source rank 8, target rank 4).
    P = single(plait(2))
    f, D = counit_map(1, P)
    K = cone(f, D, P)
    H = homology(idempotent_truncate(plait(2), K))
    assert H.total_rank() == 4
    euler = sum((-1) ** i * r for (i, _j), (r, _t) in H.entries.items())
    assert euler == -4


def test_cone_euler_characteristic():
    # chi(cone f) = chi(D) - chi(C) in every quantum degree, at the level of
    # homology of every idempotent truncation
    from khbraid.tangle import unit_map

    def chi(H):
        acc = {}
        for (i, j), (r, _t) in H.entries.items():
            acc[j] = acc.get(j, 0) + (-1) ** i * r
        return {j: v for j, v in acc.items() if v}

    rng = random.Random(1)
    ms = enumerate_matchings(2)
    for _ in range(12):
        C = single(rng.choice(ms))
        for _ in range(rng.randint(0, 2)):
            C = eliminate(twist(rng.randint(1, 3), rng.choice((1, -1)), C))
        f, D = unit_map(rng.randint(1, 3), C)
        K = cone(f, C, D)
        for a in ms:
            hC = chi(homology(idempotent_truncate(a, C), "Q"))
            hD = chi(homology(idempotent_truncate(a, D), "Q"))
            hK = chi(homology(idempotent_truncate(a, K), "Q"))
            want = {
                j: v
                for j in set(hC) | set(hD)
                if (v := hD.get(j, 0) - hC.get(j, 0))
            }
            assert hK == want


def test_shift_identities():
    C = twist(1, 1, single(plait(2)))
    Cq = C.shift_q(3)
    for a in enumerate_matchings(2):
        HA = homology(idempotent_truncate(a, Cq))
        HB = homology(idempotent_truncate(a, C))
        assert HA == HB.shifted(0, 3)


def _complexes_to_eliminate():
    rng = random.Random(7)
    ms = enumerate_matchings(2)
    for _ in range(15):
        full = single(rng.choice(ms))
        for _ in range(rng.randint(1, 3)):
            full = twist(rng.randint(1, 3), rng.choice((1, -1)), full)
        yield full
    # integer multiples of one idempotent: a correction can write a new +-1
    # entry, which must be cancelled too
    for _ in range(15):
        w = rng.choice(ms)
        src = (ProjSummand(w, 0),) * rng.randint(1, 4)
        tgt = (ProjSummand(w, 0),) * rng.randint(1, 4)
        entries = {
            (r, c): {0: v}
            for r in range(len(tgt))
            for c in range(len(src))
            if (v := rng.randint(-2, 2))
        }
        yield Complex({0: src, 1: tgt}, {0: ModuleMap(src, tgt, entries)})


def test_eliminate_preserves_homology():
    for full in _complexes_to_eliminate():
        red = eliminate(full)
        assert red.size() <= full.size()
        for a in enumerate_matchings(2):
            assert homology(idempotent_truncate(a, red)) == homology(
                idempotent_truncate(a, full)
            )
        # postconditions: a complex, with no isomorphism entry left
        red.validate()
        for h, d in red.diffs.items():
            for (r, c), g in d.entries.items():
                assert _invertible_entry(g, red.terms[h][c], red.terms[h + 1][r]) is None
        assert eliminate(red).size() == red.size()


@pytest.mark.parametrize(
    "word, size",
    [
        ("n=3 1 -2 1 -2 1 -2 1 -2", 88),
        ("n=3 1 2 1 2 1 2 1 2", 12),
        ("n=4 1 -2 3 -2 1 -2 3 -2", 134),
        ("n=3 1 1 -2 -2 1 -2 1 -2", 70),
    ],
)
def test_braid_complex_size_does_not_grow(word, size):
    # sizes reached by the rescanning eliminator this one replaced
    assert braid_complex(BraidWord.parse(word)).size() <= size


def test_module_map_composition_is_matrix_product():
    p2, m2 = plait(2), mixed(2)
    f = ModuleMap(
        (ProjSummand(p2, 0),),
        (ProjSummand(m2, -1),),
        {(0, 0): ArcCombination.from_element(min_generator(p2, m2)).terms},
    )
    g = ModuleMap(
        (ProjSummand(m2, -1),),
        (ProjSummand(p2, -2),),
        {(0, 0): ArcCombination.from_element(min_generator(m2, p2)).terms},
    )
    gf = g.compose(f)
    expected = ArcCombination(p2, p2, {0b01: 1, 0b10: 1})
    assert entry(gf, (0, 0)) == expected


def test_complex_checks_that_every_entry_lies_in_its_block():
    # P_mix{0} -> P_plait{1}: the block (mix, plait) has one circle, and the
    # entry must have qdeg n + 0 - 1 = 1, which the all-1 labeling has
    p2, m2 = plait(2), mixed(2)
    src, tgt = (ProjSummand(m2, 0),), (ProjSummand(p2, 1),)
    assert circles(m2, p2).c == 1 and mask_qdeg(0, 1) == 1

    def build(terms):
        return Complex({0: src, 1: tgt}, {0: ModuleMap(src, tgt, {(0, 0): terms})})

    assert build({0: 1}).diffs[0].entries == {(0, 0): {0: 1}}
    for bad, message in (
        ({0b10: 1}, "outside its block"),  # a bit at the block's circle count
        ({0: 1, 0b10: 1}, "outside its block"),
        ({0: 0}, "has a zero"),  # a zero coefficient
        ({0: 1, 0b1: 0}, "has a zero"),
        ({0b1: 1}, "not quantum-degree 0"),  # the x labeling has qdeg -1
    ):
        with pytest.raises(ValueError, match=message):
            build(bad)
    # an empty entry is no entry, and a map of empty entries is zero
    C = build({})
    assert C.diffs == {}
    assert ModuleMap(src, tgt, {(0, 0): {}}).entries == {}


def test_bigraded_group_json_roundtrip():
    H = BigradedGroup({(0, 1): (1, ()), (3, 7): (0, (2,))})
    assert BigradedGroup.from_json(H.to_json()) == H
