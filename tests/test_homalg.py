import itertools
import random
from math import gcd

import pytest

from khbraid.arcalg import ArcCombination, _add_products, _mult_schedule, min_generator, multiply
from khbraid.homalg import (
    BigradedGroup,
    Complex,
    FreeComplex,
    ProjSummand,
    cone,
    _invertible_entry,
    _prime_power_factors,
    coefficient_characteristic,
    compose,
    eliminate,
    free_complex,
    homology,
    is_chain_map,
    rank_over_field,
    smith_diagonal,
)
from khbraid.linkinv import BraidWord, braid_complex, idempotent_truncate
from khbraid.oracle import braid_to_pd, cube_complex
from khbraid.planar import circles, enumerate_matchings, horseshoe, mixed, plait
from khbraid.tangle import counit_map, twist
from khbraid.tqft import mask_qdeg


def single(w, q=0):
    return Complex.single(w, q)


def entry(d, rc, src, tgt):
    """Entry rc of the entry dict d, a map from summands src to tgt, as an
    ArcCombination, its block read from the summands it connects."""
    r, c = rc
    return ArcCombination(src[c].matching, tgt[r].matching, d.get(rc))


def identity(summands):
    """The identity map of a direct sum: e_w on the diagonal."""
    return {(k, k): {0: 1} for k in range(len(summands))}


def size(C):
    """The number of summands of C, over all degrees."""
    return sum(len(t) for t in C.terms.values())


def total_rank(H):
    """The sum of the ranks of H over all bidegrees."""
    return sum(r for r, _t in H.entries.values())


def by_col(entries):
    """{(row, col): v} in the column layout {col: {row: v}}, in write order."""
    cols = {}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return cols


def split(basis, mats):
    """The free complex of degrees basis and differentials mats, given in
    the global layout {h: {col: {row: v}}} with indices into basis[h] and
    basis[h+1]: each column goes to its (h, j) block, its index and rows
    renumbered within their blocks, and a row of another j raises
    ValueError.  The reference for the producers' block-local columns."""
    index = {}  # index[h][j][g]: generator g's index in its (h, j) block
    for h, b in basis.items():
        by_j = index[h] = {}
        for g, j in enumerate(b):
            idx = by_j.setdefault(j, {})
            idx[g] = len(idx)
    blocks = {}
    for h, mat in sorted(mats.items()):
        for c, col in mat.items():
            j = basis[h][c]
            local = index.get(h + 1, {}).get(j, {})
            try:
                blocks.setdefault((h, j), {})[index[h][j][c]] = {local[r]: v for r, v in col.items()}
            except KeyError:
                raise ValueError("differential does not preserve quantum degree") from None
    return FreeComplex(basis, blocks)


# ---------------------------------------------------------------------------
# integer linear algebra


def test_smith_diagonal_simple():
    assert smith_diagonal(by_col({}))[0] == []
    assert smith_diagonal(by_col({(0, 0): 2}))[0] == [2]
    assert sorted(smith_diagonal(by_col({(0, 0): 2, (1, 1): 3}))[0]) == [2, 3]
    # [[2,4],[4,2]] has Smith form diag(2, 6)
    assert sorted(smith_diagonal(by_col({(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 2}))[0]) == [2, 6]


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
        assert len(smith_diagonal(by_col(entries))[0]) == want
        assert rank_over_field(dict(entries)) == want
        for p in (2, 3, 5):
            assert rank_over_field(dict(entries), p) == len(
                [d for d in smith_diagonal(by_col(entries))[0] if d % p]
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
        diagonal = smith_diagonal(by_col(entries))[0]
        assert len(diagonal) == len(want), entries
        assert _torsion(diagonal) == _torsion(want), entries
    assert _invariant_factors(fill, 3, 3) == [1, 1, 12]


def test_homology_plain_groups():
    # zero differential on Z^2
    T = split({0: [0, 0]}, {})
    H = homology(T)
    assert H.entries == {(0, 0): (2, ())}
    # Z --x2--> Z gives Z/2 in the target degree
    T = split({0: [0], 1: [0]}, {0: by_col({(0, 0): 2})})
    H = homology(T)
    assert H.entries == {(1, 0): (0, (2,))}


def test_homology_rejects_bad_differential():
    with pytest.raises(ValueError):
        split({0: [0], 1: [0], 2: [0]}, {0: by_col({(0, 0): 1}), 1: by_col({(0, 0): 1})})


def test_check_d2_sums_within_a_column():
    # Z -> Z^2 -> Z with d0 = (1, 1)^T: d1 = (1, -1) cancels within the one
    # column of d1·d0, and d1 = (1, 1) leaves 2 there
    basis = {0: [0], 1: [0, 0], 2: [0]}
    d0 = by_col({(0, 0): 1, (1, 0): 1})
    split(basis, {0: d0, 1: by_col({(0, 0): 1, (0, 1): -1})})
    with pytest.raises(ValueError, match="d\\^2 != 0 in free complex at degree 0"):
        split(basis, {0: d0, 1: by_col({(0, 0): 1, (0, 1): 1})})


def test_check_d2_reads_every_column():
    # Z^2 -> Z^2 -> Z with d0 columns e0 + e1 and e0, d1 = (1, -1):
    # d1·d0 = (0, 1), so its one nonzero entry lies in column 1
    basis = {0: [0, 0], 1: [0, 0], 2: [0]}
    d0 = by_col({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="d\\^2 != 0 in free complex at degree 0"):
        split(basis, {0: d0, 1: by_col({(0, 0): 1, (0, 1): -1})})


# differentials that change j: in the first column, in a later column, and
# in a later row of a column
J_CHANGING = [
    ({0: [0], 1: [2]}, {0: {0: {0: 1}}}),
    ({0: [2, 0], 1: [2]}, {0: by_col({(0, 0): 1, (0, 1): 1})}),
    ({0: [0], 1: [0, 2]}, {0: by_col({(0, 0): 1, (1, 0): 1})}),
]


def test_homology_rejects_a_differential_that_changes_j():
    # the reference split checks every column and every row of a column
    for basis, mats in J_CHANGING:
        with pytest.raises(ValueError, match="does not preserve quantum degree"):
            split(basis, mats)


def over_h0(basis, mats):
    """The complex over H_0 with one summand P_{}{j} per degree j of basis
    and the integer entries of mats, in the global layout, as {0: v}."""
    terms = {h: tuple(ProjSummand(horseshoe(0), j) for j in b) for h, b in basis.items()}
    return Complex(terms, {
        h: {(r, c): {0: v} for c, col in m.items() for r, v in col.items()} for h, m in mats.items()
    })


def test_free_complex_rejects_an_entry_that_changes_j():
    # the read-off checks every entry, in every column and every row
    for basis, mats in J_CHANGING:
        with pytest.raises(ValueError, match="does not preserve quantum degree"):
            free_complex(over_h0(basis, mats))
    # and writes each column into its block in local indices: the
    # generators of degree 2 are 0 and 2 at h = 0, 1 and 2 at h = 1
    basis = {0: [2, 0, 2], 1: [0, 2, 2], 2: [2]}
    mats = {
        0: by_col({(1, 0): 1, (2, 0): -1, (0, 1): 2, (1, 2): 2, (2, 2): -2}),
        1: by_col({(0, 1): 1, (0, 2): 1}),
    }
    T = free_complex(over_h0(basis, mats))
    assert T.basis == basis and T.blocks == split(basis, mats).blocks == {
        (0, 2): {0: {0: 1, 1: -1}, 1: {0: 2, 1: -2}},
        (0, 0): {0: {0: 2}},
        (1, 2): {0: {0: 1}, 1: {0: 1}},
    }


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
        yield split(basis, {0: by_col({k: v for k, v in d0.items() if v})})
    # cube complexes: several quantum degrees, consecutive nonzero
    # differentials, and torsion
    rng = random.Random(12)
    for _ in range(5):
        word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(rng.randint(3, 5))]
        yield cube_complex(braid_to_pd(BraidWord.from_ints(3, word)))


def _dense_field_ranks(T, p):
    """dim - rank(d_in) - rank(d_out) per (h, j) block, by `rank_over_field`."""
    def block(h, j):
        return {(r, c): v for c, col in T.blocks.get((h, j), {}).items() for r, v in col.items()}

    ranks = {}
    for h, b in T.basis.items():
        for j in set(b):
            ranks[(h, j)] = (
                b.count(j) - rank_over_field(block(h, j), p) - rank_over_field(block(h - 1, j), p)
            )
    return {k: r for k, r in ranks.items() if r}


def test_universal_coefficients_ranks():
    for T in _universal_coefficient_cases():
        blocks = {hj: {c: dict(col) for c, col in m.items()} for hj, m in T.blocks.items()}
        HZ = homology(T, "Z")
        assert T.blocks == blocks  # the Smith kernel works on copies
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


def test_homology_leaves_the_complex_unchanged():
    # the kernel reduces copies and clearing filters a copy of the block, so
    # Z then Q on one complex gives what each gives on a fresh one; the cube
    # clears columns (see test_homology_clears_the_unit_sweep_targets)
    build = lambda: cube_complex(braid_to_pd(BraidWord.from_ints(3, [1, -2, 1, -2, 1])))
    T = build()
    blocks = {hj: {c: dict(col) for c, col in m.items()} for hj, m in T.blocks.items()}
    basis = {h: list(b) for h, b in T.basis.items()}
    HZ, HQ = homology(T, "Z"), homology(T, "Q")
    assert T.blocks == blocks and T.basis == basis
    assert HZ.entries == homology(build(), "Z").entries
    assert HQ.entries == homology(build(), "Q").entries


def homology_without_clearing(T, coefficients="Z"):
    """`homology` with every (h, j) block of every d_h reduced whole by
    `smith_diagonal`: the reference that clearing must agree with."""
    p = coefficient_characteristic(coefficients)
    ranks, torsion = {}, {}
    for (h, j), block in T.blocks.items():
        diag = smith_diagonal(block)[0]
        ranks[(h, j)] = sum(1 for d in diag if d % p) if p else len(diag)
        if coefficients == "Z":
            torsion[(h + 1, j)] = tuple(
                sorted(q for d in diag if d > 1 for q in _prime_power_factors(d))
            )
    result = {}
    for h, b in T.basis.items():
        for j in set(b):
            rank = b.count(j) - ranks.get((h, j), 0) - ranks.get((h - 1, j), 0)
            if rank or torsion.get((h, j)):
                result[(h, j)] = (rank, torsion.get((h, j), ()))
    return BigradedGroup(result)


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +/-1 and its inverse,
    built from elementary row operations (applied to the inverse as the
    inverse column operations)."""
    U = [[int(r == c) for c in range(n)] for r in range(n)]
    V = [row[:] for row in U]
    for _ in range(3 * n):
        i, k = rng.randrange(n), rng.randrange(n)
        if i == k:  # negate row i
            U[i] = [-v for v in U[i]]
            for row in V:
                row[i] = -row[i]
        else:  # row i += c row k
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[k])]
            for row in V:
                row[k] -= c * row[i]
    return U, V


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def _known_answer_complex(rng):
    """A free complex on degrees 0..3 whose homology is known, and that
    homology over Z, Q, F2 and F3.

    Per quantum degree j, the standard form sends each of a few generators
    of C^h to k times its own generator of C^{h+1}, with k = +/-1 in every
    degree and k in {2, 3, 4} next to it, plus a few free generators; then
    each d_h is hidden as U_{h+1} d_h U_h^-1 by random unimodular U."""
    basis = {h: [] for h in range(4)}
    mats = {h: {} for h in range(3)}
    want = {c: {} for c in ("Z", "Q", "F2", "F3")}

    def add(c, h, j, rank=0, tors=()):
        r0, t0 = want[c].get((h, j), (0, ()))
        want[c][(h, j)] = (r0 + rank, tuple(sorted(t0 + tors)))

    for j in (-1, 1):
        dims = [0] * 4
        sources = []  # (h, x, k): e_x in C^h goes to k times a generator of C^{h+1}
        for h in range(4):
            free = rng.randint(0, 2)
            for c in want:
                add(c, h, j, rank=free)
            dims[h] += free
            if h == 3:
                break
            ks = [rng.choice((1, -1)) for _ in range(rng.randint(1, 3))]
            ks += rng.sample((2, 3, 4), rng.randint(1, 2))
            for k in ks:
                sources.append((h, dims[h], k))
                dims[h] += 1
        pieces = []  # (h, x, y, k): e_x in C^h goes to k e_y
        for h, x, k in sources:
            pieces.append((h, x, dims[h + 1], k))
            dims[h + 1] += 1
            if abs(k) > 1:
                add("Z", h + 1, j, tors=(k,))
            for c, p in (("F2", 2), ("F3", 3)):
                if k % p == 0:
                    add(c, h, j, rank=1)
                    add(c, h + 1, j, rank=1)
        U = [_unimodular(rng, n) for n in dims]
        offset = [len(basis[h]) for h in range(4)]
        for h in range(4):
            basis[h] += [j] * dims[h]
        for h in range(3):
            D = [[0] * dims[h] for _ in range(dims[h + 1])]
            for g, x, y, k in pieces:
                if g == h:
                    D[y][x] = k
            hidden = _matmul(_matmul(U[h + 1][0], D), U[h][1])
            for c in range(dims[h]):
                col = {offset[h + 1] + r: hidden[r][c] for r in range(dims[h + 1]) if hidden[r][c]}
                if col:
                    mats[h][offset[h] + c] = col
    want = {c: {k: v for k, v in w.items() if v[0] or v[1]} for c, w in want.items()}
    return split(basis, mats), want


def test_homology_of_hidden_standard_forms():
    # every degree has a unit block, so the unit sweep of d_h clears columns
    # of d_{h+1} next to its Z/2, Z/3 and Z/4 blocks
    rng = random.Random(2024)
    for _ in range(40):
        T, want = _known_answer_complex(rng)
        for c in ("Z", "Q", "F2", "F3"):
            assert homology(T, c).entries == want[c], c
            assert homology_without_clearing(T, c).entries == want[c], c


def test_homology_clears_the_unit_sweep_targets(monkeypatch):
    # on a cube with nonzero d_h and d_{h+1}, Smith sees fewer columns than
    # the complex has: the targets of d_h's unit pivots are dropped
    from khbraid import homalg

    T = cube_complex(braid_to_pd(BraidWord.from_ints(3, [1, -2, 1, -2, 1])))
    seen = []

    def counting(columns):
        seen.append(len(columns))
        return smith_diagonal(columns)

    monkeypatch.setattr(homalg, "smith_diagonal", counting)
    H = homology(T)
    assert sum(seen) < sum(len(m) for m in T.blocks.values())
    assert H == homology_without_clearing(T)


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
            assert total_rank(H) == 2**n
    # Hom(P_plait, P_mix) has rank 2 (one circle)
    H = homology(idempotent_truncate(plait(2), single(mixed(2))))
    assert total_rank(H) == 2


def table_truncate(a, C):
    """Hom(P_a, C) by table reads, the reference for the closure by caps:
    summand P_b{t} contributes the block (a, b) with quantum degrees
    qdeg + t; an entry g of a differential, P_b -> P_c, acts on that block
    by the surgery product, one schedule lookup per entry and g·m read from
    its basis-product table for each labeling m."""
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
        src, tgt = C.terms[h], C.terms[h + 1]
        for (r, c), g in d.items():
            row0 = offsets[h + 1][r]
            schedule = _mult_schedule(a, src[c].matching, tgt[r].matching)
            for m in range(1 << schedule[0]):
                img = {}
                _add_products(img, schedule, {m: 1}, g, 1)
                column = mat.setdefault(offsets[h][c] + m, {})
                for mm, coeff in img.items():
                    if coeff:
                        column[row0 + mm] = column.get(row0 + mm, 0) + coeff
        mats[h] = {
            c: kept for c, col in mat.items() if (kept := {r: v for r, v in col.items() if v})
        }
    return split(basis, mats)


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
        for r, c in d:
            g = entry(d, (r, c), C.terms[h], C.terms[h + 1])
            for m in range(1 << circles(a, g.source).c):
                col = mat.setdefault(offsets[h][c] + m, {})
                img = multiply(g, ArcCombination(a, g.source, {m: 1}))
                for mm, coeff in img.terms.items():
                    row = offsets[h + 1][r] + mm
                    col[row] = col.get(row, 0) + coeff
        mats[h] = {
            c: kept for c, col in mat.items() if (kept := {r: v for r, v in col.items() if v})
        }
    return split(basis, mats)


def test_truncation_matches_one_product_per_labeling():
    rng = random.Random(10)
    several_terms = negative = 0
    for n in (2, 3, 3):
        ms = enumerate_matchings(n)
        C = single(rng.choice(ms))
        for _ in range(rng.randint(3, 5)):
            C = twist(rng.randint(1, 2 * n - 1), rng.choice((1, -1)), C)
            for K in (C, eliminate(C)):
                for g in (entry(d, rc, K.terms[h], K.terms[h + 1]) for h, d in K.diffs.items() for rc in d):
                    several_terms += len(g.terms) > 1
                    negative += min(g.terms.values()) < 0
                for a in ms:
                    T, want = table_truncate(a, K), per_labeling_truncate(a, K)
                    assert T.basis == want.basis
                    # columns and entries, and the order they were written in, agree
                    items = lambda F: [
                        (hj, [(c, list(col.items())) for c, col in m.items()])
                        for hj, m in F.blocks.items()
                    ]
                    assert items(T) == items(want)
            C = eliminate(C)
    assert several_terms and negative


def test_closing_by_caps_matches_the_table_truncation():
    # Hom(P_a, C) by caps along a's innermost arcs, with eliminate between
    # them, against the table truncation at every matching a: seeded twisted
    # complexes for n <= 4 with a letter at every position 1..2n-1, whose
    # first letter repeats three times so that Z sees torsion
    rng = random.Random(19)
    compared = torsion = 0
    for n in (1, 2, 3, 4):
        ms = enumerate_matchings(n)
        for _ in range(2):
            positions = list(range(1, 2 * n))
            rng.shuffle(positions)
            letters = [(i, rng.choice((1, -1))) for i in positions]
            letters[:1] *= 3
            C = single(rng.choice(ms))
            for i, sign in letters:
                C = eliminate(twist(i, sign, C))
            for a in ms:
                capped, table = idempotent_truncate(a, C), table_truncate(a, C)
                for coeffs in ("Z", "Q", "F2", "F3"):
                    H = homology(capped, coeffs)
                    assert H == homology(table, coeffs), (n, letters, a, coeffs)
                    compared += 1
                    torsion += coeffs == "Z" and any(t for _r, t in H.entries.values())
    assert compared == 4 * 2 * (1 + 2 + 5 + 14) and torsion


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
        {0: {(0, 0): min_generator(m2, p2).terms}},
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
    assert total_rank(H) == 4
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
        yield Complex({0: src, 1: tgt}, {0: entries})


def test_eliminate_preserves_homology():
    for full in _complexes_to_eliminate():
        red = eliminate(full)
        assert size(red) <= size(full)
        for a in enumerate_matchings(2):
            assert homology(idempotent_truncate(a, red)) == homology(
                idempotent_truncate(a, full)
            )
        # postconditions: a complex, with no isomorphism entry left
        red.validate()
        for h, d in red.diffs.items():
            for (r, c), g in d.items():
                assert _invertible_entry(g, red.terms[h][c], red.terms[h + 1][r]) is None
        assert size(eliminate(red)) == size(red)


@pytest.mark.parametrize(
    "word, bound",
    [
        ("n=3 1 -2 1 -2 1 -2 1 -2", 88),
        ("n=3 1 2 1 2 1 2 1 2", 12),
        ("n=4 1 -2 3 -2 1 -2 3 -2", 134),
        ("n=3 1 1 -2 -2 1 -2 1 -2", 70),
    ],
)
def test_braid_complex_size_does_not_grow(word, bound):
    # sizes reached in H_n, with no caps, by the rescanning eliminator this
    # one replaced
    b = BraidWord.parse(word)
    assert size(braid_complex(b.strands, b.letters, None)) <= bound


def test_module_map_composition_is_matrix_product():
    p2, m2 = plait(2), mixed(2)
    src, mid, tgt = (ProjSummand(p2, 0),), (ProjSummand(m2, -1),), (ProjSummand(p2, -2),)
    f = {(0, 0): min_generator(p2, m2).terms}
    g = {(0, 0): min_generator(m2, p2).terms}
    gf = compose(g, f, tgt, mid, src)
    expected = ArcCombination(p2, p2, {0b01: 1, 0b10: 1})
    assert entry(gf, (0, 0), src, tgt) == expected


def entrywise_compose(g, f, tgt, mid, src):
    """g after f entry by entry, for f: src -> mid and g: mid -> tgt, the
    reference for `compose`: entry (r, c) is the sum over k of
    multiply(g[r, k], f[k, c]), kept only when it is nonzero."""
    out = {}
    for r, c in itertools.product(range(len(tgt)), range(len(src))):
        total = ArcCombination(src[c].matching, tgt[r].matching)
        for k in range(len(mid)):
            if (k, c) in f and (r, k) in g:
                total = total + multiply(entry(g, (r, k), mid, tgt), entry(f, (k, c), src, mid))
        if total:
            out[(r, c)] = total.terms
    return out


def _random_map(rng, source, target, density):
    entries = {}
    for r, c in itertools.product(range(len(target)), range(len(source))):
        if rng.random() < density:
            k = circles(source[c].matching, target[r].matching).c
            masks = rng.sample(range(1 << k), rng.randint(1, min(3, 1 << k)))
            entries[(r, c)] = {m: rng.choice((-2, -1, 1, 2)) for m in masks}
    return entries


def test_compose_matches_entrywise_products():
    # seeded maps at n <= 3; a middle summand repeated with the negated row
    # cancels its route, so some sums cancel in part and some in full
    rng = random.Random(20)
    cancelled = 0
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        for _ in range(15):
            src, mid, tgt = (tuple(ProjSummand(rng.choice(ms), 0) for _ in range(rng.randint(1, 4)))
                             for _ in range(3))
            f = _random_map(rng, src, mid, 0.6)
            g = _random_map(rng, mid, tgt, 0.6)
            # P_k repeated: f's row k copied, g's column k negated
            k = rng.randrange(len(mid))
            f2 = {**f, **{(len(mid), c): t for (kk, c), t in f.items() if kk == k}}
            g2 = {**g, **{(r, len(mid)): {m: -x for m, x in t.items()} for (r, kk), t in g.items() if kk == k}}
            for gg, ff, mm in ((g, f, mid), (g2, f2, mid + (mid[k],))):
                want = entrywise_compose(gg, ff, tgt, mm, src)
                assert compose(gg, ff, tgt, mm, src) == want
                reached = {(r, c) for (r, k1) in gg for (k2, c) in ff if k1 == k2}
                cancelled += len(reached - set(want))
    assert cancelled == 101  # entries some product reaches whose sum is zero


def test_compose_packs_masks_of_the_widest_blocks():
    # the diagonal block of horseshoe(16) has 16 circles, the most any block
    # reaches at the CLI's strand bound; products there stay apart
    hs = horseshoe(16)
    top = (1 << 16) - 1
    assert circles(hs, hs).c == 16
    src, mid, tgt = (ProjSummand(hs, 0),) * 3, (ProjSummand(hs, 0),) * 2, (ProjSummand(hs, 0),) * 3
    f = {
        (0, 0): {0: 1, 1 << 15: 2}, (1, 0): {0: 1},
        (0, 1): {top ^ 1: 1}, (1, 1): {top ^ 1: 1},
        (0, 2): {1: 1, 1 << 15: -1}, (1, 2): {1 << 15: 1},
    }
    g = {
        (0, 0): {0: 1}, (0, 1): {0: -1},  # row 0: f's columns 1 cancel in full
        (1, 0): {1: 1}, (1, 1): {top ^ 1: 3},
        (2, 0): {0: 1}, (2, 1): {0: 1},
    }
    gf = compose(g, f, tgt, mid, src)
    assert gf == entrywise_compose(g, f, tgt, mid, src)
    assert (0, 1) not in gf  # x^(top^1) - x^(top^1)
    assert gf[(2, 2)] == {1: 1}  # the two 1 << 15 terms cancel
    assert gf[(1, 1)] == {top: 1}  # x_0 . x^(top^1), the all-x labeling
    assert gf[(1, 0)] == {1: 1, 1 << 15 | 1: 2, top ^ 1: 3}


def test_complex_checks_that_every_entry_lies_in_its_block():
    # P_mix{0} -> P_plait{1}: the block (mix, plait) has one circle, and the
    # entry must have qdeg n + 0 - 1 = 1, which the all-1 labeling has
    p2, m2 = plait(2), mixed(2)
    src, tgt = (ProjSummand(m2, 0),), (ProjSummand(p2, 1),)
    assert circles(m2, p2).c == 1 and mask_qdeg(0, 1) == 1

    def build(terms):
        C = Complex({0: src, 1: tgt}, {0: {(0, 0): terms}})
        C.validate()
        return C

    assert build({0: 1}).diffs[0] == {(0, 0): {0: 1}}
    for bad, message in (
        ({}, "is empty"),  # an entry with no terms
        ({0b10: 1}, "outside its block"),  # a bit at the block's circle count
        ({0: 1, 0b10: 1}, "outside its block"),
        ({0: 0}, "has a zero"),  # a zero coefficient
        ({0: 1, 0b1: 0}, "has a zero"),
        ({0b1: 1}, "not quantum-degree 0"),  # the x labeling has qdeg -1
    ):
        with pytest.raises(ValueError, match=message):
            build(bad)
    # a map with no entries is no differential
    assert Complex({0: src, 1: tgt}, {0: {}}).diffs == {}


@pytest.mark.parametrize(
    "rc", [(1, 0), (0, 1), (-1, 0), (0, -1)], ids=["row_past_end", "column_past_end", "row_negative", "column_negative"]
)
def test_complex_checks_that_every_entry_lies_between_its_degrees_summands(rc):
    # one summand on each side, and {0: 1} is a good entry at (0, 0): an
    # index past the end is no summand, and a negative one must not wrap
    # round to the last summand and be checked against that block
    src, tgt = (ProjSummand(mixed(2), 0),), (ProjSummand(plait(2), 1),)
    Complex({0: src, 1: tgt}, {0: {(0, 0): {0: 1}}}).validate()
    with pytest.raises(ValueError, match="out of range"):
        Complex({0: src, 1: tgt}, {0: {rc: {0: 1}}}).validate()


def test_bigraded_group_json_roundtrip():
    H = BigradedGroup({(0, 1): (1, ()), (3, 7): (0, (2,))})
    assert BigradedGroup.from_json(H.to_json()) == H


def test_bigraded_group_holds_one_normal_form():
    # torsion sorted, and a cell with neither rank nor torsion dropped, as
    # the group is built: equal groups hold equal entries
    H = BigradedGroup({(0, 1): (1, (4, 2, 3)), (2, 5): (0, ()), (3, 7): (0, (3, 2))})
    normal = {(0, 1): (1, (2, 3, 4)), (3, 7): (0, (2, 3))}
    assert H == BigradedGroup(normal) and H.entries == normal
    assert H.to_json() == [
        {"i": 0, "j": 1, "rank": 1, "torsion": [2, 3, 4]},
        {"i": 3, "j": 7, "rank": 0, "torsion": [2, 3]},
    ]
    assert (H + H).entries == {(0, 1): (2, (2, 2, 3, 3, 4, 4)), (3, 7): (0, (2, 2, 3, 3))}
