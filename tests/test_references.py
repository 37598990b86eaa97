"""The committed benchmark references, replayed through the CLI: every
operation in perfbench/reference/*.json must write exactly its recorded
output bytes.  The files are read, never written."""

import hashlib
import json
from pathlib import Path

import pytest

from khbraid.cli import main

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
