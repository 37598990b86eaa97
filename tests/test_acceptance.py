"""Acceptance criteria, one test per criterion.

Each test prints its own PASS/FAIL line (straight to the terminal, past
capture) and enforces the stated tolerance -- exact equality everywhere --
and runtime budget.
"""

import itertools
import random
import time

import pytest

from khbraid.arcalg import (
    center_action,
    factor_through_interpolation,
    idempotent,
    min_generator,
    multiply,
    trace,
    verify_positivity,
)
from khbraid.linkinv import (
    BraidWord,
    compute,
    verify_braid_relations,
    verify_markov,
    verify_skein,
    verify_twist_inverse,
)
from khbraid.oracle import braid_to_pd, cube_homology
from khbraid.planar import (
    cap_apply,
    circles,
    codim,
    cup_insert,
    enumerate_matchings,
    mixed,
    plait,
)
from khbraid.tqft import mask_qdeg
from test_arcalg import block_basis
from test_linkinv import as_given
from test_homalg import total_rank
from test_tangle import cup_entry


def _report(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _random_words(count=10, max_len=6, max_strands=3, seed=20260810):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, max_strands)
        length = rng.randint(1, max_len)
        words.append(
            BraidWord.from_ints(
                n, [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)]
            )
        )
    return words


def criterion_links():
    named = [
        BraidWord(1),                          # unknot, empty word
        BraidWord.from_ints(2, [1]),           # unknot, sigma_1
        BraidWord.from_ints(2, [1, 1]),        # Hopf link
        BraidWord.from_ints(2, [1, 1, 1]),     # right trefoil
        BraidWord.from_ints(2, [-1, -1, -1]),  # left trefoil
        BraidWord.from_ints(3, [1, -2, 1, -2]),  # figure eight
    ]
    return named + _random_words()


@pytest.fixture(scope="module")
def links():
    return criterion_links()


def test_criterion_1_oracle_equivalence(links, capsys):
    t0 = time.time()
    ok = True
    for b in links:
        for coeffs in ("Q", "Z"):
            arc = compute(b, coeffs).bigraded
            orc = cube_homology(braid_to_pd(b), coeffs)
            # compute scans 20 of these 48 letters; the word as given, all
            given = as_given(b, coeffs)
            if not arc == given == orc:
                ok = False
                _report(capsys, f"  mismatch for {b.format()} over {coeffs}")
    elapsed = time.time() - t0
    _report(
        capsys,
        f"CRITERION 1 ({_status(ok and elapsed < 300)}): arc pipeline == cube oracle "
        f"on {len(links)} links over Q and Z, ranks and torsion exact ({elapsed:.1f}s < 300s)",
    )
    assert ok and elapsed < 300


def test_criterion_2_grading_collapse(links, capsys):
    ok = True
    for b in links:
        res = compute(b, "Q")
        direct = {}
        for (i, j), (r, _t) in res.bigraded.entries.items():
            direct[i - j] = direct.get(i - j, 0) + r
        collapsed = {k: r for k, (r, _t) in res.collapsed.items() if r}
        if collapsed != {k: r for k, r in direct.items() if r}:
            ok = False
            _report(capsys, f"  collapse mismatch for {b.format()}")
        if res.shifts["collapsed_nw"] != b.strands + b.writhe:
            ok = False
    _report(
        capsys,
        f"CRITERION 2 ({_status(ok)}): collapsed ranks equal antidiagonal sums over Q "
        f"with the n+w shift recorded, every link, exact",
    )
    assert ok


def test_criterion_3_arc_algebra_suite(capsys):
    t0 = time.time()
    problems = []

    # --- exhaustive n <= 3
    for n in (1, 2, 3):
        ms = enumerate_matchings(n)
        # two-sided unit
        for u, v in itertools.product(ms, ms):
            for a in block_basis(u, v):
                if multiply(idempotent(v), a) != a or multiply(a, idempotent(u)) != a:
                    problems.append(("unit", n))
        # trace symmetry
        for u, v in itertools.product(ms, ms):
            for x in block_basis(u, v):
                for y in block_basis(v, u):
                    if trace(multiply(y, x)) != trace(multiply(x, y)):
                        problems.append(("trace", n))
        # positivity
        if not verify_positivity(n)["ok"]:
            problems.append(("positivity", n))
        # factorization along interpolations
        for u, v in itertools.product(ms, ms):
            if factor_through_interpolation(u, v) != min_generator(u, v):
                problems.append(("factorization", n))
        # cyclicity under the center action
        for u, v in itertools.product(ms, ms):
            diag = circles(u, v)
            reached, frontier = {0}, [min_generator(u, v)]
            while frontier:
                a = frontier.pop()
                for k in range(diag.c):
                    b = center_action(diag.circles[k][0], a)
                    for m in b.terms:
                        if m not in reached:
                            reached.add(m)
                            frontier.append(b)
            if reached != set(range(1 << diag.c)):
                problems.append(("cyclicity", n))
    # associativity: exhaustive n <= 2, randomized 10^4 triples at n = 3, 4
    for n in (1, 2):
        ms = enumerate_matchings(n)
        for u, v, w, z in itertools.product(ms, repeat=4):
            for x in block_basis(u, v):
                for y in block_basis(v, w):
                    for t in block_basis(w, z):
                        if multiply(t, multiply(y, x)) != multiply(multiply(t, y), x):
                            problems.append(("associativity", n))
    rng = random.Random(1)
    for n in (3, 4):
        ms = enumerate_matchings(n)
        for _ in range(10_000):
            u, v, w, z = (rng.choice(ms) for _ in range(4))
            x = rng.choice(block_basis(u, v))
            y = rng.choice(block_basis(v, w))
            t = rng.choice(block_basis(w, z))
            if multiply(t, multiply(y, x)) != multiply(multiply(t, y), x):
                problems.append(("associativity", n))
                break

    # codim-1 product laws with the exact center-class correction, n <= 4
    for n in (2, 3, 4):
        ms = enumerate_matchings(n)
        for w, w2 in itertools.product(ms, ms):
            if codim(w, w2) != 1:
                continue
            touched = sorted({p for arc in set(w.pairs) ^ set(w2.pairs) for p in arc})
            for w3 in ms:
                lhs = multiply(min_generator(w2, w3), min_generator(w, w2))
                alpha = min_generator(w, w3)
                if circles(w, w3).c == circles(w2, w3).c - 1:
                    if lhs != alpha:
                        problems.append(("codim1-constant", n))
                else:
                    diag = circles(w, w3)
                    merged = sorted({diag.circle_of(p) for p in touched})
                    if len(merged) != 2:
                        problems.append(("codim1-merge-count", n))
                        continue
                    pts = [diag.circles[k][0] for k in merged]
                    expected = center_action(pts[0], alpha) + center_action(pts[1], alpha)
                    if lhs != expected:
                        problems.append(("codim1-correction", n))

    # plait/mix-mediated products never vanish, n <= 4
    for n in (2, 3, 4):
        ms = enumerate_matchings(n)
        for mid in (plait(n), mixed(n)):
            for w, w2 in itertools.product(ms, ms):
                if not multiply(min_generator(mid, w2), min_generator(w, mid)):
                    problems.append(("plait-mix-nonzero", n))

    elapsed = time.time() - t0
    ok = not problems and elapsed < 120
    _report(
        capsys,
        f"CRITERION 3 ({_status(ok)}): arc algebra suite -- associativity, unit, trace "
        f"symmetry, positivity, codim-1 laws with center correction, factorization, "
        f"cyclicity, plait/mix nonvanishing ({elapsed:.1f}s < 120s)"
        + (f"; failures: {sorted(set(problems))}" if problems else ""),
    )
    assert ok, problems


def test_criterion_4_functor_suite(capsys):
    t0 = time.time()
    problems = []

    # cup functors: strict algebra embeddings, idempotent compatible (n <= 3)
    ms1 = enumerate_matchings(1)
    for u, v, w in itertools.product(ms1, repeat=3):
        for i in (1, 2, 3):
            for x in block_basis(u, v):
                for y in block_basis(v, w):
                    lhs = cup_entry(i, multiply(y, x))
                    rhs = multiply(cup_entry(i, y), cup_entry(i, x))
                    if lhs != rhs:
                        problems.append(("cup-strict", 2, i))
    rng = random.Random(8)
    ms2 = enumerate_matchings(2)
    for _ in range(2000):
        u, v, w = (rng.choice(ms2) for _ in range(3))
        i = rng.randint(1, 5)
        x = rng.choice(block_basis(u, v))
        y = rng.choice(block_basis(v, w))
        if cup_entry(i, multiply(y, x)) != multiply(cup_entry(i, y), cup_entry(i, x)):
            problems.append(("cup-strict", 3, i))
    for n in (1, 2):
        for w in enumerate_matchings(n):
            for i in range(1, 2 * n + 2):
                if cup_entry(i, idempotent(w)) != idempotent(cup_insert(i, w)):
                    problems.append(("cup-idempotent", n + 1, i))

    # graded adjunction dimension identity for every (a, b, i), n <= 3
    for n in (2, 3):
        for a in enumerate_matchings(n - 1):
            for b in enumerate_matchings(n):
                for i in range(1, 2 * n):
                    lhs: dict[int, int] = {}
                    c = circles(cup_insert(i, a), b).c
                    for mask in range(1 << c):
                        q = mask_qdeg(mask, c)
                        lhs[q] = lhs.get(q, 0) + 1
                    rhs: dict[int, int] = {}
                    down, closed = cap_apply(i, b)
                    c2 = circles(a, down).c
                    for sh in (1, -1) if closed else (0,):
                        for mask in range(1 << c2):
                            q = mask_qdeg(mask, c2) + sh
                            rhs[q] = rhs.get(q, 0) + 1
                    if lhs != rhs:
                        problems.append(("adjunction-dim", n, a, b, i))

    # twist then inverse twist restores e_a homology (n <= 3)
    for n in (1, 2, 3):
        if not verify_twist_inverse(n)["ok"]:
            problems.append(("twist-inverse", n))

    # braid relations and distant commutation on e_a homology (n <= 3)
    for n in (1, 2, 3):
        if not verify_braid_relations(n)["ok"]:
            problems.append(("braid-relations", n))

    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    _report(
        capsys,
        f"CRITERION 4 ({_status(ok)}): functor suite -- strict cup embeddings, graded "
        f"adjunction dimensions, twist inverses, braid relations ({elapsed:.1f}s < 300s)"
        + (f"; failures: {problems[:4]}" if problems else ""),
    )
    assert ok, problems[:10]


def test_criterion_5_skein_triangles(links, capsys):
    t0 = time.time()
    ok = True
    checked = 0
    for b in links:
        if not b.letters:
            continue  # the unknot's empty word has no crossing, and verify_skein refuses it
        # the whole-word suite: X scanned once, every crossing in order
        for rep in verify_skein(b)["crossings"]:
            checked += 1
            if not rep["ok"]:
                ok = False
                _report(capsys, f"  skein failure at {b.format()} crossing {rep['crossing']}: {rep}")
    elapsed = time.time() - t0
    ok = ok and checked == 48
    _report(
        capsys,
        f"CRITERION 5 ({_status(ok)}): skein rank bounds and exact Euler identity with "
        f"the v offset, {checked} of 48 crossings across all links ({elapsed:.1f}s)",
    )
    assert ok, checked


def test_criterion_6_markov_invariance(capsys):
    tref2 = BraidWord.from_ints(2, [1, 1, 1])
    tref3 = BraidWord.from_ints(3, [1, 1, 1, 2])
    ok = compute(tref2).bigraded == compute(tref3).bigraded
    unknot1 = BraidWord(1)
    for s in (1, -1):
        ok &= compute(unknot1).bigraded == compute(BraidWord.from_ints(2, [s])).bigraded
    # compute destabilises the larger words first; scanned as given, the
    # stabilising letter and its offsets are in the run
    ok &= compute(tref2).bigraded == as_given(tref3)
    for s in (1, -1):
        ok &= compute(unknot1).bigraded == as_given(BraidWord.from_ints(2, [s]))
    for b in (tref2, BraidWord.from_ints(3, [1, -2, 1, -2])):
        rep = verify_markov(b)
        ok &= rep["ok"]
    _report(
        capsys,
        f"CRITERION 6 ({_status(ok)}): Markov invariance -- trefoil Br2 vs Br3, unknot "
        f"Br1 vs Br2 (both signs), random conjugations and stabilizations, exact",
    )
    assert ok


def test_criterion_7_performance_floor(capsys):
    b = BraidWord.from_ints(4, [1, 2, 3, -1, 2, -3, 1, 2])
    t0 = time.time()
    res = compute(b, "Q")
    elapsed = time.time() - t0
    ok = elapsed < 600 and total_rank(res.bigraded) > 0
    _report(
        capsys,
        f"CRITERION 7 ({_status(ok)}): length-8 word on 4 strands over Q with the "
        f"elimination path: {elapsed:.1f}s < 600s",
    )
    assert ok
