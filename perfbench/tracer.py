"""Spans around the public functions of khbraid, recorded from outside.

The package is not edited.  `install` replaces each traced function at the
module attribute its callers look it up through (its import site), so a
call made through that name opens a span.  Spans are kept in memory as
tuples and written out when the run ends.

A span is (id, name, start, end, parent id, word id).  Very hot leaf calls
(the surgery product, the planar helpers) are not kept one by one: each is
folded into a per-(parent, name) total of calls and seconds, which enters
the self-time arithmetic exactly as the individual spans would.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ROOT = -1  # parent id of a span opened outside any other span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, start, end, parent, word)
        self.folded: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.word = -1
        self._stack = [ROOT]
        self._next = 0

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] += k

    def high(self, name: str, v: float) -> None:
        if v > self.maxima.get(name, float("-inf")):
            self.maxima[name] = v

    def wrap(self, name: str, fn, on_call=None):
        """Open a span named `name` around each call; `on_call(args, result)`
        may record counters, and is itself inside the span."""
        clock, stack, spans = self.clock, self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.word))

        traced.__wrapped__ = fn
        return traced

    def wrap_folded(self, name: str, fn):
        """Like `wrap` for a leaf that is called too often to keep each span."""
        clock, stack, folded = self.clock, self._stack, self.folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc = folded.get((stack[-1], name))
                if acc is None:
                    folded[(stack[-1], name)] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        traced.__wrapped__ = fn
        return traced


def self_times(spans, folded=None):
    """Per-name self and inclusive seconds and call counts.

    Self time is a span's duration minus the durations of its children
    (folded leaves included).  Inclusive time sums only spans with no
    ancestor of the same name, so a recursive call is not counted twice.
    Returns (self_s, incl_s, calls), three dicts keyed by name.
    """
    folded = folded or {}
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for sid, _name, t0, t1, parent, _w in spans:
        child_s[parent] += t1 - t0
    for (parent, _name), (_calls, secs) in folded.items():
        child_s[parent] += secs

    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, t0, t1, parent, _w in spans:
        self_s[name] += (t1 - t0) - child_s[sid]
        calls[name] += 1
        p = parent
        while p != ROOT and by_id[p][1] != name:
            p = by_id[p][4]
        if p == ROOT:
            incl_s[name] += t1 - t0
    for (parent, name), (n, secs) in folded.items():
        self_s[name] += secs
        incl_s[name] += secs
        calls[name] += n
    return dict(self_s), dict(incl_s), dict(calls)


def root_seconds(spans, folded=None) -> float:
    """Wall time covered by top-level spans and folded leaves."""
    total = sum(t1 - t0 for _sid, _n, t0, t1, parent, _w in spans if parent == ROOT)
    total += sum(secs for (parent, _n), (_c, secs) in (folded or {}).items() if parent == ROOT)
    return total


# ---------------------------------------------------------------------------
# the traced surface of khbraid


def _size(C) -> int:
    return sum(len(t) for t in C.terms.values())


def install(tracer: Tracer, kh) -> list[tuple]:
    """Wrap khbraid's public functions at their import sites.

    `kh` is a namespace holding the imported khbraid modules (cli, linkinv,
    tangle, homalg, oracle are used).  Returns the list of
    (owner, attribute, original) needed by `uninstall`.
    """
    undo: list[tuple] = []

    def patch(owner, attr, name, on_call=None, folded=False):
        orig = getattr(owner, attr)
        w = tracer.wrap_folded(name, orig) if folded else tracer.wrap(name, orig, on_call)
        undo.append((owner, attr, orig))
        setattr(owner, attr, w)

    def on_eliminate(args, result):
        before, after = _size(args[0]), _size(result)
        tracer.count("homalg.pivots", (before - after) / 2)
        tracer.high("homalg.complex_size_max", before)

    def on_truncate(args, result):
        tracer.count("homalg.truncate_gens", sum(len(b) for b in result.basis.values()))

    def on_smith(args, result):
        tracer.count("homalg.smith_nnz", sum(1 for v in args[0].values() if v))

    def on_cube(args, result):
        tracer.count("oracle.vertices", 1 << len(args[0].crossings))
        tracer.count("oracle.gens", sum(len(b) for b in result.basis.values()))

    cli, linkinv, tangle, homalg, oracle = kh.cli, kh.linkinv, kh.tangle, kh.homalg, kh.oracle

    patch(cli, "main", "cli.main")
    patch(cli, "compute", "linkinv.compute")
    patch(cli, "braid_to_pd", "oracle.braid_to_pd")
    patch(cli, "cube_homology", "oracle.cube_homology")
    patch(linkinv, "braid_complex", "linkinv.braid_complex")
    patch(linkinv, "twist", "tangle.twist")
    patch(linkinv, "eliminate", "homalg.eliminate", on_eliminate)
    patch(linkinv, "idempotent_truncate", "homalg.idempotent_truncate", on_truncate)
    patch(linkinv, "homology", "homalg.homology")
    patch(linkinv, "horseshoe", "planar.horseshoe", folded=True)
    patch(tangle, "unit_map", "tangle.unit_map")
    patch(tangle, "counit_map", "tangle.counit_map")
    patch(tangle, "cupcap_functor", "tangle.cupcap_functor")
    patch(tangle, "cone", "homalg.cone")
    patch(tangle, "is_chain_map", "homalg.is_chain_map")
    patch(homalg, "is_chain_map", "homalg.is_chain_map")
    patch(homalg.Complex, "validate", "homalg.Complex.validate")
    patch(homalg.FreeComplex, "check_d2", "homalg.FreeComplex.check_d2")
    patch(homalg, "smith_diagonal", "homalg.smith_diagonal", on_smith)
    patch(homalg, "rank_over_field", "homalg.rank_over_field")
    patch(homalg, "multiply", "arcalg.multiply", folded=True)
    for attr in ("cupcap_through", "cup_insert", "cap_apply"):
        patch(tangle, attr, f"planar.{attr}", folded=True)
    patch(oracle, "cube_complex", "oracle.cube_complex", on_cube)
    patch(oracle, "homology", "homalg.homology")
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
