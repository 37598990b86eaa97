"""The committed benchmark references, replayed through the CLI: every
operation in perfbench/reference/*.json must write exactly its recorded
output bytes, and every surgery schedule the compute workloads build must
match the reference builder.  The files are read, never written."""

import hashlib
import json
from pathlib import Path

import pytest

from khbraid import arcalg, tangle
from khbraid.cli import main
from test_arcalg import assert_same_schedule

REFERENCES = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "reference").glob("*.json"))


def test_every_workload_has_a_reference():
    assert [p.stem for p in REFERENCES] == ["arc_elim", "arc_wide", "referee_field", "referee_z"]


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_reference_outputs_are_reproduced_byte_for_byte(path, tmp_path):
    ops = json.loads(path.read_text())["ops"]
    assert ops
    out = tmp_path / "out.json"
    for op in ops:
        assert main(op["argv"] + ["-o", str(out)]) == 0, op["argv"]
        got = out.read_bytes()
        assert hashlib.sha256(got).hexdigest() == op["sha256"], op["argv"]
        assert got == op["output"].encode(), op["argv"]


@pytest.mark.parametrize("stem", ["arc_elim", "arc_wide"])
def test_reference_surgery_schedules_match_the_reference_builder(stem, monkeypatch, tmp_path):
    # every schedule the compute workloads build, from cold caches, is checked
    # against the depth-first reference builder of tests/test_arcalg.py
    arcalg._mult_schedule.cache_clear()
    tangle._saddle_schedule.cache_clear()
    built = []

    def checked(arcs, saddles):
        built.append(saddles)
        return assert_same_schedule(arcs, saddles)

    monkeypatch.setattr(arcalg, "_surgery_schedule", checked)
    monkeypatch.setattr(tangle, "_surgery_schedule", checked)
    path = REFERENCES[0].parent / f"{stem}.json"
    for op in json.loads(path.read_text())["ops"]:
        assert main(op["argv"] + ["-o", str(tmp_path / "out.json")]) == 0, op["argv"]
    assert built
