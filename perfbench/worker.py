"""One benchmark process: import khbraid from the checkout and run passes.

Run by run.py in a fresh interpreter, so that the cold pass pays the import
and every cache fill, as a user's CLI invocation does.  Each operation goes
through `khbraid.cli.main` in-process with `-o` pointing at a file, one
operation after another from a single thread (a closed loop with one
client).  Prints one JSON object on stdout.

Modes:
  measure  cold pass, then untraced warm passes for --seconds (at least one)
  trace    cold pass, untraced warm passes for half of --seconds, then
           traced warm passes for the other half
  probe    one untraced and one traced execution of a single operation
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402

CACHES = {  # metric prefix -> (module, attribute)
    "planar.circles": ("planar", "circles"),
    "arcalg.mult_schedule": ("arcalg", "_mult_schedule"),
    "tangle.saddle_schedule": ("tangle", "_saddle_schedule"),
    "tangle.cup_circle_map": ("tangle", "_cup_circle_map"),
}
MODULES = ("cli", "linkinv", "tangle", "homalg", "arcalg", "planar", "oracle")


def import_khbraid(root: str) -> SimpleNamespace:
    """Import khbraid from <root>/src, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    pkg = importlib.import_module("khbraid")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(os.path.abspath(src), "khbraid"):
        raise ImportError(f"khbraid imported from {where}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"khbraid.{m}") for m in MODULES})


def cache_counts(kh) -> dict[str, tuple[int, int, int] | None]:
    """(hits, misses, entries) of each known cache; None when it is gone."""
    out = {}
    for name, (mod, attr) in CACHES.items():
        info = getattr(getattr(getattr(kh, mod), attr, None), "cache_info", None)
        if info is None:
            out[name] = None
        else:
            ci = info()
            out[name] = (ci.hits, ci.misses, ci.currsize)
    return out


def cache_delta(before, after) -> dict:
    out = {}
    for name in CACHES:
        a, b = before[name], after[name]
        out[name] = None if a is None or b is None else (b[0] - a[0], b[1] - a[1], b[2])
    return out


class Runner:
    """Runs passes over a list of operations through cli.main.  With a
    started SpeedProbe, each operation's time is also scaled to the
    reference host speed."""

    def __init__(self, kh, ops, workdir: str, speed: SpeedProbe | None = None):
        self.kh, self.ops, self.speed = kh, ops, speed
        self.outpath = os.path.join(workdir, f"out-{os.getpid()}.json")

    def close(self) -> None:
        try:
            os.unlink(self.outpath)
        except FileNotFoundError:
            pass

    def one(self, op, tracer=None):
        """(exit code, output bytes, error text); never raises."""
        if tracer is not None:
            tracer.word = op.id
        self.close()
        try:
            code = self.kh.cli.main(op.argv() + ["-o", self.outpath])
            with open(self.outpath, "rb") as fh:
                out = fh.read()
            return code, out, None
        except SystemExit as e:  # argparse refusing the arguments
            return e.code if isinstance(e.code, int) else 2, b"", f"SystemExit({e.code})"
        except Exception:  # one failed operation must not end the run
            return None, b"", traceback.format_exc()

    def run_pass(self, tracer=None):
        """Time one pass; results are kept and checked after the clock stops.
        Each result is (exit code, output, error, seconds, scaled seconds);
        the last is None without a SpeedProbe."""
        results = []
        clock, speed = time.perf_counter, self.speed
        t0 = clock()
        for op in self.ops:
            mark = speed.mark() if speed else None
            t = clock()
            res = self.one(op, tracer)
            dt = clock() - t
            results.append(res + (dt, speed.scaled(mark, dt) if speed else None))
        return clock() - t0, results


def timed_passes(runner, seconds, min_passes, tracer=None):
    times, all_results = [], []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        dt, results = runner.run_pass(tracer)
        times.append(dt)
        all_results.append(results)
    return times, all_results


def digest(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def encode(results):
    """[exit code, sha256 of output, error, seconds, scaled seconds] per
    operation."""
    return [[code, digest(out), err, secs, scaled] for code, out, err, secs, scaled in results]


def layer_metrics(tr: tracing.Tracer, passes: int, wall_total: float) -> dict:
    """Per-pass means of the traced layer metrics, plus the coverage check."""
    self_s, incl_s, calls = tracing.self_times(tr.spans, tr.folded)
    per = lambda x: x / passes
    S = lambda *names: per(sum(self_s.get(n, 0.0) for n in names))
    I = lambda *names: per(sum(incl_s.get(n, 0.0) for n in names))
    C = lambda *names: per(sum(calls.get(n, 0) for n in names))
    covered = tracing.root_seconds(tr.spans, tr.folded)
    other = wall_total - covered
    m = {
        "linkinv.letters": C("tangle.twist"),
        "tangle.cupcap_functor_s": S("tangle.cupcap_functor"),
        "tangle.unit_counit_s": S("tangle.unit_map", "tangle.counit_map"),
        "homalg.chain_check_s": I("homalg.is_chain_map"),
        "homalg.chain_check_calls": C("homalg.is_chain_map"),
        "homalg.cone_s": S("homalg.cone"),
        "homalg.validate_s": I("homalg.Complex.validate"),
        "homalg.eliminate_s": I("homalg.eliminate"),
        "homalg.pivots": per(tr.counters.get("homalg.pivots", 0)),
        "homalg.complex_size_max": tr.maxima.get("homalg.complex_size_max", 0),
        "homalg.truncate_s": I("homalg.idempotent_truncate"),
        "homalg.truncate_gens": per(tr.counters.get("homalg.truncate_gens", 0)),
        "homalg.homology_s": S("homalg.homology"),
        "homalg.check_d2_s": I("homalg.FreeComplex.check_d2"),
        "homalg.smith_s": I("homalg.smith_diagonal"),
        "homalg.smith_calls": C("homalg.smith_diagonal"),
        "homalg.smith_nnz": per(tr.counters.get("homalg.smith_nnz", 0)),
        "homalg.field_rank_s": I("homalg.rank_over_field"),
        "homalg.field_rank_calls": C("homalg.rank_over_field"),
        "arcalg.multiply_s": I("arcalg.multiply"),
        "arcalg.multiply_calls": C("arcalg.multiply"),
        "oracle.braid_to_pd_s": I("oracle.braid_to_pd"),
        "oracle.cube_build_s": S("oracle.cube_complex"),
        "oracle.vertices": per(tr.counters.get("oracle.vertices", 0)),
        "oracle.gens": per(tr.counters.get("oracle.gens", 0)),
        "cli.self_s": S("cli.main"),
        "other_s": per(other),
    }
    for mod in MODULES:
        m[f"{mod}.layer_self_s"] = per(sum(v for k, v in self_s.items() if k.split(".")[0] == mod))
    m["trace.wall_s"] = per(wall_total)
    layer_sum = sum(m[f"{mod}.layer_self_s"] for mod in MODULES) + m["other_s"]
    m["trace.coverage_err_s"] = layer_sum - m["trace.wall_s"]
    return m, {"self_s": self_s, "incl_s": incl_s, "calls": calls}


def write_spans(path: str, tr: tracing.Tracer) -> None:
    with open(path, "w") as fh:
        for sid, name, t0, t1, parent, word in tr.spans:
            fh.write(json.dumps([sid, name, t0, t1, parent, word]) + "\n")
        for (parent, name), (n, secs) in tr.folded.items():
            fh.write(json.dumps({"folded": name, "parent": parent, "calls": n, "seconds": secs}) + "\n")


def oracle_check(kh, op, output: bytes) -> str | None:
    """None when the arc output's groups equal the cube oracle's, else why not."""
    try:
        arc = kh.homalg.BigradedGroup.from_json(json.loads(output)["groups"])
        b = kh.linkinv.BraidWord.parse(op.braid)
        orc = kh.oracle.cube_homology(kh.oracle.braid_to_pd(b), op.coeffs)
    except Exception:
        return traceback.format_exc()
    return None if arc == orc else "arc groups differ from the cube oracle"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--mode", choices=("measure", "trace", "probe"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--oracle-ops", default="", help="comma-separated op ids to check against the oracle")
    ap.add_argument("--probe", help="braid word for --mode probe")
    ap.add_argument("--command", default="compute")
    ap.add_argument("--coeffs", default="Z")
    args = ap.parse_args(argv)

    if args.mode == "probe":
        strands, letters = parse_word(args.probe)
        ops = [corpus.Op(0, 0, strands, letters, args.command, args.coeffs, 0)]
    else:
        ops = corpus.generate(args.workload, args.seed)

    # measure times its passes at the reference host speed; the traced
    # modes measure plain wall time, with no probe interrupting spans
    speed = SpeedProbe().start() if args.mode == "measure" else None
    mark = speed.mark() if speed else None
    t0 = time.perf_counter()
    kh = import_khbraid(args.root)
    runner = Runner(kh, ops, args.workdir, speed)
    c0 = cache_counts(kh)
    cold_s, cold = runner.run_pass()
    setup_wall = time.perf_counter() - t0
    out = {"setup_wall_s": setup_wall, "cold_pass_s": cold_s, "cold": encode(cold),
           "cold_caches": cache_delta(c0, cache_counts(kh)),
           "setup_s": speed.scaled(mark, setup_wall) if speed else setup_wall}
    if args.mode == "measure":
        times, results = timed_passes(runner, args.seconds, 1)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(pass_times=times, warm=[encode(r) for r in results])
    elif args.mode in ("trace", "probe"):
        if args.mode == "probe":  # the cold pass is the one untraced execution
            times, results, half = [cold_s], [], 0
        else:
            half = args.seconds / 2
            times, results = timed_passes(runner, half, 2)
        tr = tracing.Tracer()
        undo = tracing.install(tr, kh)
        try:
            ttimes, tresults = timed_passes(runner, half, 1, tr)
        finally:
            tracing.uninstall(undo)
        metrics, raw = layer_metrics(tr, len(ttimes), sum(ttimes))
        metrics["trace.untraced_pass_s"] = statistics.median(times)
        metrics["trace.overhead_s"] = statistics.median(ttimes) - statistics.median(times)
        metrics.update(cache_metrics(out["cold_caches"]))
        tag = "probe" if args.mode == "probe" else f"{args.workload}-s{args.seed}"
        spans_path = os.path.join(args.workdir, f"spans-{tag}.jsonl")
        write_spans(spans_path, tr)
        out.update(pass_times=times, traced_pass_times=ttimes, warm=[encode(r) for r in results],
                   traced=[encode(r) for r in tresults], layer=metrics, raw=raw, spans=spans_path)
    if speed:
        speed.stop()
        out["speed_mean_s"] = statistics.mean(speed.samples)
    out["cold_outputs"] = [r[1].decode() for r in cold]
    wanted = {int(x) for x in args.oracle_ops.split(",") if x}
    out["oracle"] = {op.id: oracle_check(kh, op, cold[op.id][1]) for op in ops if op.id in wanted}
    runner.close()
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def cache_metrics(deltas) -> dict:
    """Hit ratio (with its base), hits, misses and entries after the cold
    pass, for each cache that still exists."""
    m = {}
    for name, d in deltas.items():
        if d is None:
            continue
        hits, misses, entries = d
        m[f"{name}_hits"] = hits
        m[f"{name}_misses"] = misses
        m[f"{name}_entries"] = entries
        if hits + misses:
            m[f"{name}_hit_ratio"] = hits / (hits + misses)
    return m


def parse_word(text: str) -> tuple[int, tuple[int, ...]]:
    strands, letters = None, []
    for tok in text.replace(",", " ").split():
        if tok.startswith("n="):
            strands = int(tok[2:])
        else:
            letters.append(int(tok))
    if strands is None:
        strands = max([abs(x) for x in letters] or [0]) + 1
    return strands, tuple(letters)


if __name__ == "__main__":
    sys.exit(main())
