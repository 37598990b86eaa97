"""Seeded benchmark of `khbraid compute` and `khbraid compare`.

    python3 perfbench/run.py --workload arc_elim --seed 0 --seconds 8 --trace 0

Runs the workload's corpus (perfbench/corpus.py) through `khbraid.cli.main`
in fresh interpreters started from this checkout's `src/`, checks every
output, prints each metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (pass_s, setup_s, peak_rss_mb),
with times scaled to a reference host speed (perfbench/hostspeed.py);
--trace 1 runs a separate traced process and reports the per-layer split.
Other entry points, not used by the gated runs:

    --probe "n=3 1 -2 ..." [--command compute|oracle|compare] [--coeffs Z]
        untraced wall time and traced layer split of one operation
    --make-reference
        rewrite perfbench/reference/*.json at the default seed
    --write-spec
        rewrite BENCHMARK.json from the tables below

Per-run records (environment, checks, metrics) and the span files go to
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
REFDIR = os.path.join(HERE, "reference")
sys.path.insert(0, HERE)

import corpus  # noqa: E402

RUN_SECONDS = 8
# Fresh interpreters per --trace 0 run.  Each gives one setup_s sample and
# warm passes for its share of --seconds.  The same corpus's time moved by
# up to 8 % from one process to the next (the hash seed did not explain it),
# so an operation's time is its median over the warm passes of all of them.
WORKERS = 3
RUN_LIMIT_S = 170  # a gated run, all its workers included, ends within 180 s
# an arc word without a reference is checked against the cube oracle when
# its cube is at most this large
ORACLE_MAX_CROSSINGS = 10
ORACLE_MAX_GENS = 8000

# Bounds are the largest allowed.  On the shared 2-core host the bounds were
# set on, the same pass read up to 2x slower from one second to the next;
# pass_s and setup_s are therefore scaled to a reference host speed
# (hostspeed.py), and the plain wall times are printed beside them.  The
# cache growth behind peak_rss_mb differs by a few percent from seed to seed.
END_TO_END = [  # name, unit, better, bound, meaning
    ("pass_s", "s", "lower", 0.25,
     "one warm pass over the corpus: the sum over its operations of each one's median "
     "warm time, scaled to the reference host speed"),
    ("setup_s", "s", "lower", 0.25,
     "median over fresh interpreters of import khbraid plus the first, cold-cache pass, "
     "scaled to the reference host speed"),
    ("peak_rss_mb", "MB", "lower", 0.25, "median over the measuring processes of their peak "
     "resident memory"),
]

PER_LAYER = [  # name, unit, better
    ("linkinv.letters", "count", "lower"),
    ("tangle.cupcap_functor_s", "s", "lower"),
    ("tangle.unit_counit_s", "s", "lower"),
    ("homalg.chain_check_s", "s", "lower"),
    ("homalg.chain_check_calls", "count", "lower"),
    ("homalg.cone_s", "s", "lower"),
    ("homalg.validate_s", "s", "lower"),
    ("homalg.eliminate_s", "s", "lower"),
    ("homalg.pivots", "count", "lower"),
    ("homalg.complex_size_max", "count", "lower"),
    ("homalg.truncate_s", "s", "lower"),
    ("homalg.truncate_gens", "count", "lower"),
    ("homalg.homology_s", "s", "lower"),
    ("homalg.check_d2_s", "s", "lower"),
    ("homalg.smith_s", "s", "lower"),
    ("homalg.smith_calls", "count", "lower"),
    ("homalg.smith_nnz", "count", "lower"),
    ("homalg.field_rank_s", "s", "lower"),
    ("homalg.field_rank_calls", "count", "lower"),
    ("arcalg.multiply_s", "s", "lower"),
    ("arcalg.multiply_calls", "count", "lower"),
    ("oracle.braid_to_pd_s", "s", "lower"),
    ("oracle.cube_build_s", "s", "lower"),
    ("oracle.vertices", "count", "lower"),
    ("oracle.gens", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("other_s", "s", "lower"),
    *((f"{m}.layer_self_s", "s", "lower")
      for m in ("cli", "linkinv", "tangle", "homalg", "arcalg", "planar", "oracle")),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage_err_s", "s", "lower"),
    *((f"{c}_{k}", u, b)
      for c in ("planar.circles", "arcalg.mult_schedule", "tangle.saddle_schedule",
                "tangle.cup_circle_map")
      for k, u, b in (("hit_ratio", "ratio", "higher"), ("hits", "count", "higher"),
                      ("misses", "count", "lower"), ("entries", "count", "lower"))),
]

# The pipeline stages a traced run splits the time into (ROADMAP aim 1); the
# surgery product (arcalg.multiply_s) runs beneath several of them.
STAGES = ("tangle.cupcap_functor_s", "tangle.unit_counit_s", "homalg.chain_check_s",
          "homalg.cone_s", "homalg.validate_s", "homalg.eliminate_s", "homalg.truncate_s",
          "homalg.homology_s", "homalg.check_d2_s", "homalg.smith_s", "homalg.field_rank_s",
          "oracle.cube_build_s", "oracle.braid_to_pd_s", "cli.self_s")
ARC_STAGES = STAGES[:7]


def purpose(name: str, m: dict) -> tuple[str, bool]:
    """The per-layer fact each workload was chosen for, and whether it holds."""
    largest = max(STAGES, key=lambda k: m.get(k, 0.0))
    if name == "arc_elim":
        return f"eliminate_s is the largest stage (largest: {largest})", largest == "homalg.eliminate_s"
    if name == "arc_wide":
        return f"eliminate_s is not the largest stage (largest: {largest})", largest != "homalg.eliminate_s"
    if name == "referee_z":
        oracle_s = m["homalg.smith_s"] + m["oracle.cube_build_s"]
        arc_s = sum(m[k] for k in ARC_STAGES)
        return f"smith_s + cube_build_s = {oracle_s:.3g} s exceeds the arc stages' {arc_s:.3g} s", oracle_s > arc_s
    return f"field_rank_s is the largest stage (largest: {largest})", largest == "homalg.field_rank_s"


# ---------------------------------------------------------------------------
# environment


def environment(seed) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from its .git directory, if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for ln in fh:
                    if ln.rstrip().endswith(" " + ref):
                        return ln.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# workers


class WorkerError(RuntimeError):
    pass


def worker(mode: str, deadline: float | None, **kw) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result.
    `deadline` is a time.monotonic() value, or None for no limit."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--mode", mode,
           "--workdir", WORKDIR]
    for k, v in kw.items():
        cmd += [f"--{k.replace('_', '-')}", str(v)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{mode} worker stopped at the run's {RUN_LIMIT_S} s limit") from e
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(name: str, seed: int) -> dict | None:
    """{op id: reference entry} when a committed reference covers this seed."""
    path = os.path.join(REFDIR, f"{name}.json")
    if seed != corpus.DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path) as fh:
        ref = json.load(fh)
    if ref.get("generator_version") != corpus.GENERATOR_VERSION or ref.get("seed") != seed:
        return None
    return {e["id"]: e for e in ref["ops"]}


def plan_checks(ops, ref, max_gens=ORACLE_MAX_GENS) -> dict[int, list[str]]:
    """Which checks each operation gets, beyond equality across passes."""
    plan = {}
    for op in ops:
        checks = ["passes"]
        if ref is not None and op.id in ref and ref[op.id]["argv"] == op.argv():
            checks.append("reference")
        elif op.command == "compute" and oracle_fits(op, max_gens):
            checks.append("oracle")
        if op.command == "compare":
            checks.append("verdict")
        plan[op.id] = checks
    return plan


def oracle_fits(op, max_gens) -> bool:
    return op.crossings <= ORACLE_MAX_CROSSINGS and (
        max_gens is None or corpus.cube_gens(op.strands, op.letters) <= max_gens)


class Tally:
    """Counts operation executions attempted and failed, with the reasons.

    A failed execution counts once, however many of its checks fail.  The
    untimed oracle and verdict checks apply to the cold pass's execution.
    """

    def __init__(self, ops, plan, ref):
        self.ops, self.plan, self.ref = ops, plan, ref
        self.attempted = 0
        self.runs = {op.id: 0 for op in ops}
        self.failures: dict[tuple, list[str]] = {}  # (pass label, index, op id) -> reasons

    def fail(self, key: tuple, why: str) -> None:
        self.failures.setdefault(key, []).append(why.strip().splitlines()[-1])

    def passes(self, label: str, passes, expected) -> None:
        """Each pass is a list of [exit code, sha256, error, seconds, scaled
        seconds] per operation; `expected` holds the same for the run to
        compare with."""
        for k, results in enumerate(passes):
            for op, (code, dig, err, *_secs) in zip(self.ops, results):
                self.attempted += 1
                self.runs[op.id] += 1
                if "reference" in self.plan[op.id]:
                    want, what = self.ref[op.id]["sha256"], "the reference"
                else:
                    want, what = expected[op.id][1], "the run it is compared with"
                if err is not None:
                    self.fail((label, k, op.id), err)
                elif code != 0:
                    self.fail((label, k, op.id), f"exit code {code}")
                elif dig != want:
                    self.fail((label, k, op.id), f"output differs from {what}")

    def oracle(self, verdicts: dict) -> None:
        for op_id, why in verdicts.items():
            if why is not None:
                self.fail(("cold", 0, int(op_id)), f"oracle: {why}")

    def verdicts(self, cold_outputs) -> None:
        for op in self.ops:
            if "verdict" in self.plan[op.id]:
                try:
                    equal = json.loads(cold_outputs[op.id])["equal"]
                except (ValueError, KeyError):
                    equal = False
                if equal is not True:
                    self.fail(("cold", 0, op.id), "compare: arc and oracle disagree")

    def lines(self) -> list[str]:
        return [f"{label}[{k}] op {i}: " + "; ".join(why)
                for (label, k, i), why in self.failures.items()]


def oracle_ops(plan) -> str:
    return ",".join(str(i) for i, checks in plan.items() if "oracle" in checks)


def run_untraced(args, ops, plan, tally, deadline) -> dict:
    runs = [worker("measure", deadline, workload=args.workload, seed=args.seed,
                   seconds=args.seconds / WORKERS, oracle_ops=oracle_ops(plan) if k == 0 else "")
            for k in range(WORKERS)]
    main = runs[0]  # the one that checks against the oracle
    cold = main["cold"]
    for k, r in enumerate(runs):
        tally.passes(f"cold{k}", [r["cold"]], cold)
        tally.passes(f"warm{k}", r["warm"], cold)
    tally.oracle(main["oracle"])
    tally.verdicts(main["cold_outputs"])
    warm = [p for r in runs for p in r["warm"]]
    op_s = [statistics.median(p[op.id][4] for p in warm) for op in ops]
    return {
        "metrics": {
            "pass_s": sum(op_s),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        },
        "wall": {"pass_s": statistics.median(t for r in runs for t in r["pass_times"]),
                 "setup_s": statistics.median(r["setup_wall_s"] for r in runs)},
        "samples": {"pass_wall_s": [r["pass_times"] for r in runs],
                    "setup_s": [r["setup_s"] for r in runs], "op_s": op_s,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
                    "speed_mean_s": [r["speed_mean_s"] for r in runs]},
        "cold_caches": main["cold_caches"],
    }


def run_traced(args, ops, plan, tally, deadline) -> dict:
    t = worker("trace", deadline, workload=args.workload, seed=args.seed, seconds=args.seconds,
               oracle_ops=oracle_ops(plan))
    cold = t["cold"]
    tally.passes("cold", [cold], cold)
    tally.passes("warm", t["warm"], cold)
    warm0 = t["warm"][0]  # traced outputs must equal the untraced ones byte for byte
    tally.passes("traced", t["traced"], warm0)
    tally.oracle(t["oracle"])
    tally.verdicts(t["cold_outputs"])
    layer = t["layer"]
    problems = []
    if abs(layer["trace.coverage_err_s"]) > 1e-6 * max(layer["trace.wall_s"], 1.0):
        problems.append(f"layer self times miss the wall time by {layer['trace.coverage_err_s']} s")
    absent = [c for c, d in t["cold_caches"].items() if d is None]
    claim, holds = purpose(args.workload, layer)
    return {"metrics": layer, "problems": problems, "absent_caches": absent, "spans": t["spans"],
            "purpose": {"claim": claim, "holds": holds},
            "samples": {"pass_s": t["pass_times"], "traced_pass_s": t["traced_pass_times"]}}


def run_workload(args) -> int:
    ops = corpus.generate(args.workload, args.seed)
    ref = load_reference(args.workload, args.seed)
    plan = plan_checks(ops, ref)
    tally = Tally(ops, plan, ref)
    env = environment(args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        res = (run_traced if args.trace else run_untraced)(args, ops, plan, tally, deadline)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    units = {m[0]: m[1] for m in PER_LAYER + END_TO_END}
    metrics = {n: {"value": res["metrics"][n], "unit": units[n]} for n in names if n in res["metrics"]}
    missing = [n for n in names if n not in res["metrics"]]
    unchecked = [op.id for op in ops if plan[op.id] == ["passes"] and tally.runs[op.id] < 2]
    failed = len(tally.failures)
    problems = res.get("problems", [])
    correct = failed == 0 and not unchecked and not problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops/pass {len(ops)}  words {len({op.word for op in ops})}")
    print("environment " + json.dumps(env, sort_keys=True))
    kinds: dict[str, int] = {}
    for checks in plan.values():
        key = "+".join(checks)
        kinds[key] = kinds.get(key, 0) + 1
    print("checks per op: " + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())))
    for line in tally.lines()[:20] + problems:
        print(f"FAILED {line}")
    if "purpose" in res:
        p = res["purpose"]
        print(f"purpose: {p['claim']}: {'holds' if p['holds'] else 'DOES NOT HOLD'}")
    if unchecked:
        print(f"UNCHECKED ops {unchecked}")
    for n in missing:
        print(f"{n}: absent at this commit")
    for n, m in metrics.items():
        print(f"{n} = {m['value']:.6g} {m['unit']}")
    for n, v in res.get("wall", {}).items():
        print(f"{n} unscaled (plain wall time, not gated) = {v:.6g} s")
    print(f"fail_frac = {failed / max(tally.attempted, 1):.6g} ratio ({failed}/{tally.attempted})")

    os.makedirs(WORKDIR, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "ops": [{"id": op.id, "argv": op.argv(), "work": op.work, "checks": plan[op.id]}
                      for op in ops],
              "failures": tally.lines(), "unchecked": unchecked, "metrics": metrics,
              **{k: v for k, v in res.items() if k != "metrics"}}
    path = os.path.join(WORKDIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# ungated entry points


def run_probe(args) -> int:
    """One word, once untraced and once traced; prints the layer split."""
    try:
        r = worker("probe", None, probe=args.probe, command=args.command,
                   coeffs=args.coeffs, seconds=0)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    layer = r["layer"]
    wall = layer["trace.wall_s"]
    print(f"probe {args.command} {args.probe!r} over {args.coeffs}")
    print("environment " + json.dumps(environment(None), sort_keys=True))
    print(f"untraced wall = {r['cold_pass_s']:.6g} s (cold, includes cache fills)")
    print(f"traced wall   = {wall:.6g} s")
    print(f"exit code     = {r['cold'][0][0]}")
    self_s = r["raw"]["self_s"]
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} self {secs:10.4f} s  {100 * secs / wall:5.1f} %")
    print(f"  {'(outside any span)':32s} self {layer['other_s']:10.4f} s")
    for name, _unit, _b in PER_LAYER:
        if name in layer:
            print(f"{name} = {layer[name]:.6g}")
    return 0 if r["cold"][0][0] == 0 else 1


def make_reference(names) -> int:
    """Expected output of every op at the default seed, cross-checked once."""
    os.makedirs(REFDIR, exist_ok=True)
    for name in names:
        ops = corpus.generate(name, corpus.DEFAULT_SEED)
        plan = plan_checks(ops, None, max_gens=None)  # untimed: any size up to the crossing cap
        r = worker("measure", None, workload=name, seed=corpus.DEFAULT_SEED, seconds=0,
                   oracle_ops=oracle_ops(plan))
        tally = Tally(ops, plan, None)
        tally.passes("cold", [r["cold"]], r["cold"])
        tally.passes("warm", r["warm"], r["cold"])
        tally.oracle(r["oracle"])
        tally.verdicts(r["cold_outputs"])
        if tally.failures:
            print(f"{name}: not written; " + "; ".join(tally.lines()), file=sys.stderr)
            return 1
        entries = []
        for op in ops:
            if "oracle" in plan[op.id]:
                made = "arc output equals the cube oracle"
            elif "verdict" in plan[op.id]:
                made = "compare exit code 0: arc equals oracle"
            else:
                made = "none: cube too large for the oracle; output stable across passes"
            entries.append({"id": op.id, "argv": op.argv(), "sha256": r["cold"][op.id][1],
                            "cross_check": made, "output": r["cold_outputs"][op.id]})
        with open(os.path.join(REFDIR, f"{name}.json"), "w") as fh:
            json.dump({"workload": name, "seed": corpus.DEFAULT_SEED,
                       "generator_version": corpus.GENERATOR_VERSION, "ops": entries},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(entries)} reference outputs written")
    return 0


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in corpus.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", help='one braid word, e.g. "n=3 1 -2 1 -2"')
    ap.add_argument("--command", choices=("compute", "oracle", "compare"), default="compute")
    ap.add_argument("--coeffs", default="Z")
    ap.add_argument("--make-reference", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "khbraid", "__init__.py")):
        print(f"error: no khbraid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    if args.make_reference:
        return make_reference([args.workload] if args.workload else list(corpus.WORKLOADS))
    if args.probe:
        return run_probe(args)
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"(run.py finished in {time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    sys.exit(code)
