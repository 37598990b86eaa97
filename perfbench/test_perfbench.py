"""Tests of the benchmark itself: corpus determinism, the work estimates,
the self-time arithmetic and the metric tables.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    a = corpus.generate(name, 3)
    assert a == corpus.generate(name, 3)
    assert a != corpus.generate(name, 4)
    wl = corpus.WORKLOADS[name]
    assert len(a) == len(wl.slots) * len(wl.coeffs)
    for op in a:
        slot = wl.slots[op.word]
        assert slot.band[0] <= op.work <= slot.band[1]
        assert slot.lengths[0] <= op.crossings <= slot.lengths[1]


def test_arc_elim_words_alternate():
    for op in corpus.generate("arc_elim", 0):
        assert op.strands == 3 and 12 <= op.crossings <= 14
        assert set(op.letters) <= {1, -2} and op.letters[0] == 1
        runs = "".join("a" if x == 1 else "b" for x in op.letters)
        assert "aaa" not in runs and "bbb" not in runs
        assert runs[-1] != runs[-2]


def test_cube_estimate_matches_the_oracle_basis():
    pytest.importorskip("khbraid")
    from khbraid.linkinv import BraidWord
    from khbraid.oracle import braid_to_pd, cube_complex

    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(2, 4)
        letters = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(rng.randint(0, 5))]
        F = cube_complex(braid_to_pd(BraidWord.from_ints(n, letters)))
        blocks: dict = {}
        for h, degs in F.basis.items():
            for j in degs:
                blocks[(h, j)] = blocks.get((h, j), 0) + 1
        assert corpus.cube_blocks(n, letters) == blocks


def test_tl_estimate_small_cases():
    # n=2, a = (1 4)(2 3), b = (1 2)(3 4): E a = b and E b = (q + 1/q) b.
    # sigma_1: -a + q b (norm 2); sigma_1 again: a - q b + q^3 b (norm 3)
    assert corpus.tl_work(2, (1,)) == 2
    assert corpus.tl_work(2, (1, 1)) == 2 + 3


def synthetic_tree():
    """main [0,10] > a [1,6] > b [2,3]; main > c [7,9]; a folds 2 calls of
    leaf, 1.5 s in all; d [11,12] is a second top-level span."""
    spans = [
        (2, "arcalg.b", 2.0, 3.0, 1, 0),
        (1, "homalg.a", 1.0, 6.0, 0, 0),
        (3, "tangle.c", 7.0, 9.0, 0, 0),
        (0, "cli.main", 0.0, 10.0, tracer.ROOT, 0),
        (4, "oracle.d", 11.0, 12.0, tracer.ROOT, 1),
    ]
    folded = {(1, "planar.leaf"): [2, 1.5]}
    return spans, folded


def test_self_times_on_a_synthetic_tree():
    spans, folded = synthetic_tree()
    self_s, incl_s, calls = tracer.self_times(spans, folded)
    assert self_s == {"cli.main": 3.0, "homalg.a": 2.5, "arcalg.b": 1.0, "tangle.c": 2.0,
                      "oracle.d": 1.0, "planar.leaf": 1.5}
    assert incl_s["cli.main"] == 10.0 and incl_s["homalg.a"] == 5.0
    assert incl_s["planar.leaf"] == 1.5
    assert calls == {"cli.main": 1, "homalg.a": 1, "arcalg.b": 1, "tangle.c": 1, "oracle.d": 1,
                     "planar.leaf": 2}
    assert sum(self_s.values()) == pytest.approx(tracer.root_seconds(spans, folded)) == 11.0


def test_inclusive_time_counts_recursion_once():
    spans = [(1, "f", 1.0, 2.0, 0, 0), (0, "f", 0.0, 3.0, tracer.ROOT, 0)]
    self_s, incl_s, calls = tracer.self_times(spans)
    assert incl_s["f"] == 3.0 and self_s["f"] == 3.0 and calls["f"] == 2


def test_tracer_records_nested_spans_and_restores():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    tr = tracer.Tracer(clock=clock)
    leaf = tr.wrap_folded("leaf", lambda: None)
    inner = tr.wrap("inner", lambda: leaf())
    outer = tr.wrap("outer", lambda: inner() or inner())
    outer()
    names = [s[1] for s in tr.spans]
    assert names == ["inner", "inner", "outer"]
    parents = {s[1]: s[4] for s in tr.spans}
    assert parents["outer"] == tracer.ROOT
    self_s, _incl, calls = tracer.self_times(tr.spans, tr.folded)
    assert calls["leaf"] == 2
    assert sum(self_s.values()) == pytest.approx(tracer.root_seconds(tr.spans, tr.folded))


ISSUE_METRICS = {
    "pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "linkinv.letters": "count", "tangle.cupcap_functor_s": "s", "tangle.unit_counit_s": "s",
    "homalg.chain_check_s": "s", "homalg.chain_check_calls": "count", "homalg.cone_s": "s",
    "homalg.validate_s": "s", "homalg.eliminate_s": "s", "homalg.pivots": "count",
    "homalg.complex_size_max": "count", "homalg.truncate_s": "s", "homalg.truncate_gens": "count",
    "homalg.homology_s": "s", "homalg.check_d2_s": "s", "homalg.smith_s": "s",
    "homalg.smith_calls": "count", "homalg.smith_nnz": "count", "homalg.field_rank_s": "s",
    "homalg.field_rank_calls": "count", "arcalg.multiply_s": "s", "arcalg.multiply_calls": "count",
    "arcalg.mult_schedule_hit_ratio": "ratio", "arcalg.mult_schedule_hits": "count",
    "arcalg.mult_schedule_misses": "count", "planar.circles_hit_ratio": "ratio",
    "planar.circles_entries": "count", "tangle.saddle_schedule_entries": "count",
    "oracle.braid_to_pd_s": "s", "oracle.cube_build_s": "s", "oracle.vertices": "count",
    "oracle.gens": "count", "cli.self_s": "s", "other_s": "s",
}


def test_every_named_metric_has_its_unit():
    units = {n: u for n, u, *_ in run.END_TO_END + run.PER_LAYER}
    for name, unit in ISSUE_METRICS.items():
        assert units.get(name) == unit, name


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


def test_layer_metrics_cover_the_per_layer_table():
    spans, folded = synthetic_tree()
    tr = tracer.Tracer()
    tr.spans.extend(spans)
    tr.folded.update(folded)
    m, _raw = worker.layer_metrics(tr, passes=1, wall_total=12.5)
    m.update({"trace.untraced_pass_s": 1.0, "trace.overhead_s": 0.1})
    m.update(worker.cache_metrics({c: (3, 1, 1) for c in worker.CACHES}))
    assert {n for n, *_ in run.PER_LAYER} == set(m)
    assert m["other_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == m["cli.layer_self_s"] == 3.0
    assert m["planar.layer_self_s"] == 1.5 and m["homalg.layer_self_s"] == 2.5
    assert m["trace.coverage_err_s"] == pytest.approx(0.0)


def test_tally_counts_each_failed_execution_once():
    ops = corpus.generate("referee_z", 0)[:2]
    plan = run.plan_checks(ops, None)
    assert plan[0] == ["passes", "verdict"]
    t = run.Tally(ops, plan, None)
    cold = [[0, "a", None, 0.1], [0, "b", None, 0.1]]
    t.passes("cold", [cold], cold)
    t.passes("warm", [[[0, "a", None, 0.1], [1, "x", None, 0.1]]], cold)
    t.verdicts(['{"equal": true}', '{"equal": false}'])
    t.oracle({"1": "arc groups differ from the cube oracle"})
    assert t.attempted == 4 and t.runs == {0: 2, 1: 2}
    assert sorted(t.failures) == [("cold", 0, 1), ("warm", 0, 1)]
    assert len(t.failures[("cold", 0, 1)]) == 2


def test_a_missing_cache_is_absent_not_zero():
    from types import SimpleNamespace

    class Info:
        def cache_info(self):
            return SimpleNamespace(hits=5, misses=2, currsize=2)

    kh = SimpleNamespace(planar=SimpleNamespace(circles=Info()),
                         arcalg=SimpleNamespace(), tangle=SimpleNamespace(_saddle_schedule=len))
    counts = worker.cache_counts(kh)
    assert counts["planar.circles"] == (5, 2, 2)
    assert counts["arcalg.mult_schedule"] is None  # renamed or removed
    assert counts["tangle.saddle_schedule"] is None  # no longer an lru_cache
    m = worker.cache_metrics(worker.cache_delta(counts, counts))
    assert m["planar.circles_hits"] == 0 and m["planar.circles_entries"] == 2
    assert not any(k.startswith(("arcalg.", "tangle.")) for k in m)


def test_scaled_time_removes_the_probe_and_rescales():
    import hostspeed

    sp = hostspeed.SpeedProbe()
    sp.samples, sp.spent = [hostspeed.REF_S], 0.001
    mark = sp.mark()
    # an operation of 1.002 s wall, 0.002 s of it in two probe samples that
    # ran at half the reference speed: 1 s of work at twice the time
    sp.samples += [2 * hostspeed.REF_S, 2 * hostspeed.REF_S]
    sp.spent += 0.002
    assert sp.scaled(mark, 1.002) == pytest.approx(0.5)
    # too short to be sampled: the last sample before it sets the speed
    assert sp.scaled(sp.mark(), 0.3) == pytest.approx(0.15)


def test_speed_probe_samples_on_its_timer():
    import time

    import hostspeed

    sp = hostspeed.SpeedProbe(interval=0.005).start()
    try:
        mark = sp.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            hostspeed.probe_loop()
        wall = time.perf_counter() - t0
    finally:
        sp.stop()
    assert len(sp.samples) - mark[0] >= 5
    assert 0 < sp.scaled(mark, wall) < 100 * wall
