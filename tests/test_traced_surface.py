"""The benchmark's tracer (perfbench/tracer.py) patches khbraid functions by
name at their import sites.  Installing it on the real modules fails here,
in the unit tests, as soon as a traced name is renamed or deleted.  A probe
run of the benchmark's worker must also end on a result line that holds
every per-layer metric the benchmark declares."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def real_modules():
    return SimpleNamespace(
        **{m: importlib.import_module(f"khbraid.{m}") for m in ("cli", "linkinv", "tangle", "homalg", "oracle")}
    )


def test_tracer_installs_on_the_real_modules_and_restores_them(capsys):
    tracing = load_tracer()
    kh = real_modules()
    tr = tracing.Tracer()
    undo = tracing.install(tr, kh)
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in undo)
        assert kh.cli.main(["compute", "--braid", "1 1", "-n", "2"]) == 0
    finally:
        tracing.uninstall(undo)
    assert all(getattr(owner, attr) is orig for owner, attr, orig in undo)
    assert json.loads(capsys.readouterr().out)["link"] == "n=2 1 1"

    _self_s, _incl_s, calls = tracing.self_times(tr.spans, tr.folded)
    assert calls["linkinv.compute"] == 1
    # one cone per letter, and its own d^2 check is the one chain-map check:
    # the unit and counit no longer run is_chain_map
    assert calls["homalg.cone"] == 2
    assert calls.get("homalg.is_chain_map", 0) == 0
    # every traced layer is reached through the name the tracer patches: a
    # letter loop or closure that bypasses linkinv's twist, eliminate,
    # idempotent_truncate or homology, or a twist that bypasses tangle's
    # functor, unit, counit or cone, reads a count of 0 here
    for name in ("tangle.twist", "homalg.cone", "homalg.Complex.validate", "tangle.cupcap_functor"):
        assert calls.get(name, 0) == 2, name
    # one reduction per letter, and one after cap_2, which the scan runs
    # right after the last sigma_1; the closure's one cap, cap_1, is last
    assert calls.get("homalg.eliminate", 0) == 3
    assert calls.get("tangle.unit_map", 0) + calls.get("tangle.counit_map", 0) == 2
    for name in ("linkinv.braid_complex", "homalg.idempotent_truncate", "homalg.homology"):
        assert calls.get(name, 0) == 1, name


def test_traced_skein_runs_all_three_links_through_the_letter_loop(capsys):
    # the crossing, its oriented smoothing and its unoriented resolution each
    # scan once: a skein path that bypasses the letter loop reads fewer
    tracing = load_tracer()
    kh = real_modules()
    tr = tracing.Tracer()
    undo = tracing.install(tr, kh)
    try:
        assert kh.cli.main(["verify", "skein", "--braid", "1 1 1", "-n", "2", "--crossing", "0"]) == 0
    finally:
        tracing.uninstall(undo)
    assert json.loads(capsys.readouterr().out)["ok"]
    _self_s, _incl_s, calls = tracing.self_times(tr.spans, tr.folded)
    for name in ("linkinv.braid_complex", "homalg.idempotent_truncate", "homalg.homology"):
        assert calls.get(name, 0) == 3, name


def test_traced_caches_expose_cache_info(capsys):
    # the bench worker reports a cache it cannot find as absent rather than
    # failing, so a renamed cache would silently drop its traced metrics
    caches = []
    for mod, attr in (("planar", "circles"), ("arcalg", "_mult_schedule"),
                      ("tangle", "_saddle_schedule"), ("tangle", "_cup_circle_map")):
        cache = getattr(importlib.import_module(f"khbraid.{mod}"), attr, None)
        assert callable(getattr(cache, "cache_info", None)), (mod, attr)
        assert cache.cache_info().currsize >= 0
        caches.append((mod, attr, cache))
    # and it reports a cache's hit ratio only when the pass looked it up, so
    # the smallest compute must look up each one from cold
    for _mod, _attr, cache in caches:
        cache.cache_clear()
    cli = importlib.import_module("khbraid.cli")
    assert cli.main(["compute", "--braid", "1 1", "-n", "2"]) == 0
    capsys.readouterr()
    for mod, attr, cache in caches:
        info = cache.cache_info()
        assert info.hits + info.misses >= 1, (mod, attr, info)


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in the worker's result line")


@pytest.mark.parametrize("command", ["compute", "compare"])
def test_traced_probe_ends_on_a_result_line_with_every_layer_metric(command, tmp_path):
    # the benchmark reads a traced run's last stdout line as strict JSON and
    # takes every per-layer metric it declares from it: a traced name or a
    # cache that goes, or a metric that is not finite, breaks that line
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--root", str(ROOT), "--mode", "probe",
         "--workdir", str(tmp_path), "--probe", "n=3 1 -2 1 -2", "--command", command],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_refuse)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in declared if name not in result["layer"]]
    assert not missing
    assert all(math.isfinite(result["layer"][name]) for name in declared)
