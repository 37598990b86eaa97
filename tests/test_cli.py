import json

import pytest

from khbraid.cli import build_parser, emit, groups_table, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_unknot_golden(capsys):
    rc, out, _ = run(capsys, "compute", "--braid", "n=1")
    assert rc == 0
    rec = json.loads(out)
    assert rec == {
        "collapsed": [
            {"k": -1, "rank": 1, "torsion": []},
            {"k": 1, "rank": 1, "torsion": []},
        ],
        "coefficients": "Z",
        "groups": [
            {"i": 0, "j": -1, "rank": 1, "torsion": []},
            {"i": 0, "j": 1, "rank": 1, "torsion": []},
        ],
        "jones": [[-1, 1], [1, 1]],
        "link": "n=1",
        "n": 1,
        "shifts": {"collapsed_nw": 1, "homological": 0, "quantum": 0},
        "w": 0,
    }


def test_emit_is_bit_identical(capsys):
    _, out1, _ = run(capsys, "compute", "--braid", "1 1 1", "-n", "2")
    _, out2, _ = run(capsys, "compute", "--braid", "1 1 1", "-n", "2")
    assert out1 == out2


def test_round_trip_parse_emit(capsys):
    # every result kind survives parse(emit(x)) unchanged
    commands = [
        ("compute", "--braid", "1 -2 1 -2", "-n", "3"),
        ("oracle", "--braid", "1 1", "-n", "2"),
        ("compare", "--braid", "1", "-n", "2"),
        ("arc-dump", "-n", "1"),
        ("verify", "markov", "--braid", "1", "-n", "2"),
        ("verify", "skein", "--braid", "1 1", "-n", "2"),
    ]
    for argv in commands:
        _rc, out, _ = run(capsys, *argv)
        rec = json.loads(out)
        text = emit(rec, None)
        capsys.readouterr()  # drain the re-emitted copy
        assert json.loads(text) == rec


def test_diff_table_reports_per_bidegree():
    from khbraid.cli import _diff_table
    from khbraid.homalg import BigradedGroup

    a = BigradedGroup({(0, 1): (1, ()), (2, 5): (1, (2,))})
    b = BigradedGroup({(0, 1): (1, ()), (2, 5): (2, ())})
    diff = _diff_table(a, b)
    assert diff == [
        {
            "i": 2,
            "j": 5,
            "arc": {"rank": 1, "torsion": [2]},
            "oracle": {"rank": 2, "torsion": []},
        }
    ]


def test_compare_matching_link(capsys):
    rc, out, _ = run(capsys, "compare", "--braid", "1 -2 1 -2", "-n", "3")
    assert rc == 0
    assert json.loads(out)["equal"] is True


def test_compare_agrees_over_z_on_a_12_crossing_word(capsys):
    # 4 strands, 12 crossings: the cube has 4096 vertices.  The referee's Smith
    # kernel finishes in seconds only while unit pivots stay cheap, so this
    # also guards against fill-in spreading from them again.
    word = "n=4 1 2 -3 1 2 -3 1 -2 3 -1 2 3"
    rc, out, _ = run(capsys, "compare", "--braid", word, "--coeffs", "Z")
    rec = json.loads(out)
    assert rc == 0 and rec["equal"] is True
    assert any(g["torsion"] for g in rec["oracle_groups"])  # torsion is compared as well


def test_compare_exit_codes_and_coeffs(capsys, monkeypatch):
    monkeypatch.setenv("KH_COEFFS", "F2")
    rc, out, _ = run(capsys, "compare", "--braid", "1 1", "-n", "2")
    assert rc == 0
    assert json.loads(out)["coefficients"] == "F2"


def test_compute_table_mode(capsys):
    rc, out, _ = run(capsys, "compute", "--braid", "1 1 1", "-n", "2", "--table")
    assert rc == 0
    assert "j\\i" in out and "Z/2" in out


def test_table_mode_writes_to_output_path(capsys, tmp_path):
    for cmd in ("compute", "oracle"):
        rc, table, _ = run(capsys, cmd, "--braid", "1 1 1", "-n", "2", "--table")
        assert rc == 0
        path = tmp_path / f"{cmd}.txt"
        rc, out, _ = run(capsys, cmd, "--braid", "1 1 1", "-n", "2", "--table", "-o", str(path))
        assert rc == 0 and out == "" and path.read_text() == table
        missing = tmp_path / "missing" / "t.txt"
        rc, out, err = run(capsys, cmd, "--braid", "1 1 1", "-n", "2", "--table", "-o", str(missing))
        assert rc == 2 and out == "" and "error:" in err and not missing.parent.exists()


def test_oracle_subcommand_braid_and_pd(tmp_path, capsys):
    rc, out, _ = run(capsys, "oracle", "--braid", "1 1 1", "-n", "2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["n_plus"] == 3 and rec["n_minus"] == 0
    pd_file = tmp_path / "trefoil.pd"
    pd_file.write_text("\n".join(rec["pd"]) + "\n")
    rc, out2, _ = run(capsys, "oracle", "--pd", str(pd_file))
    assert rc == 0
    assert json.loads(out2)["groups"] == rec["groups"]


def test_arc_dump(capsys):
    rc, out, _ = run(capsys, "arc-dump", "-n", "2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["dim"] == 12 and len(rec["products"]) == 72
    rc, out, _ = run(capsys, "arc-dump", "-n", "2", "--source", "(1 2)(3 4)", "--target", "(1 2)(3 4)")
    assert rc == 0
    rec = json.loads(out)
    assert all(p["right"]["source"] == "(1 2)(3 4)" for p in rec["products"])
    assert all(p["left"]["target"] == "(1 2)(3 4)" for p in rec["products"])


def test_verify_subcommands(capsys):
    rc, out, _ = run(capsys, "verify", "positivity", "-n", "2")
    assert rc == 0 and out == "all structure constants >= 0: PASS\n"
    rc, out, _ = run(capsys, "verify", "positivity", "-n", "2", "-o", "-")
    verdict, record = out.split("\n", 1)
    assert rc == 0 and verdict == "all structure constants >= 0: PASS" and json.loads(record)["ok"]
    rc, out, _ = run(capsys, "verify", "markov", "--braid", "1", "-n", "2")
    assert rc == 0 and json.loads(out)["ok"] is True
    rc, out, _ = run(capsys, "verify", "skein", "--braid", "1 1", "-n", "2")
    assert rc == 0 and json.loads(out)["ok"] is True
    rc, out, _ = run(capsys, "verify", "braid-relations", "-n", "1")
    assert rc == 0


def test_input_errors_exit_2(capsys, tmp_path):
    rc, _out, err = run(capsys, "compute", "--braid", "7", "-n", "2")
    assert rc == 2 and "error" in err
    rc, _out, err = run(capsys, "compute", "--braid", "1 1")
    assert rc == 2
    rc, _out, err = run(capsys, "compute", "--braid", "1", "-n", "2", "--coeffs", "R")
    assert rc == 2
    rc, _out, err = run(capsys, "arc-dump", "-n", "9")
    assert rc == 2
    # F_p needs p prime; the input contract holds for verify as well
    for argv in (
        *(("compute", "--braid", "1", "-n", "2", "--coeffs", c) for c in ("F4", "F9", "F1", "F00")),
        ("verify", "skein", "--braid", "1 1", "-n", "2", "--crossing", "5"),
        ("verify", "braid-relations", "-n", "0"),
        ("verify", "positivity", "-n", "0"),
        # the exhaustive scans are refused above the strand count they finish at
        ("verify", "braid-relations", "-n", "6"),
        ("verify", "positivity", "-n", "6"),
        # a --source / --target matching must have -n arcs
        ("arc-dump", "-n", "2", "--source", "(1 2)(3 4)(5 6)"),
        ("arc-dump", "-n", "2", "--target", "(1 2)"),
        # -o into a directory that does not exist
        ("compute", "--braid", "n=2 1", "-o", str(tmp_path / "missing" / "x.json")),
        ("verify", "positivity", "-n", "2", "-o", str(tmp_path / "missing" / "y")),
        ("verify", "skein", "--braid", "1 1", "-n", "2", "--coeffs", "F4"),
        # more strands than the braid commands finish on, however given
        ("compute", "--braid", "n=99999999999999999999 1"),
        ("compute", "--braid", "1", "-n", "17"),
        ("oracle", "--braid", "n=17 1"),
        ("compare", "--braid", "n=17 1"),
        ("verify", "markov", "--braid", "n=17 1"),
        ("verify", "skein", "--braid", "n=17 1"),
        # a strand count that contradicts itself
        ("compute", "--braid", "n=2 1", "-n", "3"),
        ("compute", "--braid", "n=2 n=3 1 2"),
        # a group of the matching notation that is not "(a b)"
        ("arc-dump", "-n", "2", "--source", "(1 2 3)(4 5)"),
        ("arc-dump", "-n", "2", "--source", "(1 2)(3 4"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and "error:" in err and out == "", argv
    # a PD code whose crossing neither merges nor splits circles is not planar;
    # in the kinks the sign contradicts the orientation of the edge labels
    for name, code in (("nonplanar", "X+(1,2,1,2)"), ("kink+", "X+(1,2,2,1)"), ("kink-", "X-(1,1,2,2)")):
        pd = tmp_path / f"{name}.pd"
        pd.write_text(code + "\n")
        rc, out, err = run(capsys, "oracle", "--pd", str(pd))
        assert rc == 2 and "error:" in err and out == "", code
    # a malformed token or PD line is quoted, not reported as a Python error
    bad_pd = {"short": "X+(1,2,3)", "letter": "X-(1,2,3,x)", "noparen": "X)"}
    cases = [(("compute", "--braid", "n=abc 1"), "'n=abc'"), (("compute", "--braid", "n=2 1 x"), "'x'")]
    for name, code in bad_pd.items():
        pd = tmp_path / f"{name}.pd"
        pd.write_text(code + "\n")
        cases.append((("oracle", "--pd", str(pd)), repr(code)))
    for argv, quoted in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and quoted in err, (argv, err)
        assert "invalid literal" not in err and "unpack" not in err and "substring" not in err, err
    # a header equal to -n stays accepted
    rc, out, err = run(capsys, "compute", "--braid", "n=3 1 2", "-n", "3")
    assert rc == 0


def test_integer_tokens_are_ascii_digits_only(capsys, tmp_path):
    # int() would read "1_1" as 11 and Arabic-Indic digits as 1, 2, ...
    pd = {"underscore": "X+(1_0,2,3,4)", "arabic": "X+(١,2,3,4)"}
    bad = [
        ("compute", "--braid", "n=12 1_1"),
        ("compute", "--braid", "n=3 ١ -٢"),
        ("compute", "--braid", "n=٣ 1 -2"),
        ("compute", "--braid", "n=1_2 1"),
        ("arc-dump", "-n", "1", "--source", "(١ 2)"),
        ("arc-dump", "-n", "1", "--source", "(1 2_0)"),
    ]
    for name, code in pd.items():
        path = tmp_path / f"{name}.pd"
        path.write_text(code + "\n", encoding="utf-8")
        bad.append(("oracle", "--pd", str(path)))
    for argv in bad:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "error:" in err, (argv, err)
    # an explicit + sign is still an integer
    rc, out, _ = run(capsys, "compute", "--braid", "n=+2 +1 +1 +1")
    assert rc == 0 and json.loads(out)["link"] == "n=2 1 1 1"
    rc, out, _ = run(capsys, "arc-dump", "-n", "1", "--source", "(+1 +2)")
    assert rc == 0 and all(p["right"]["source"] == "(1 2)" for p in json.loads(out)["products"])
    path = tmp_path / "trefoil.pd"
    path.write_text("X+(+2,4,3,1)\nX+(4,+6,5,3)\nX+(6,2,1,+5)\n")
    rc, out, _ = run(capsys, "oracle", "--pd", str(path))
    assert rc == 0 and json.loads(out)["groups"] == json.loads(run(capsys, "oracle", "--braid", "n=2 1 1 1")[1])["groups"]


def test_skein_reads_coefficients(capsys, monkeypatch):
    monkeypatch.delenv("KH_COEFFS", raising=False)
    rc, out, _ = run(capsys, "verify", "skein", "--braid", "1 1", "-n", "2")
    assert rc == 0
    assert {s["coefficients"] for s in json.loads(out)["crossings"]} == {"Q"}
    rc, out, _ = run(capsys, "verify", "skein", "--braid", "1 1", "-n", "2", "--coeffs", "F2")
    assert rc == 0
    assert {s["coefficients"] for s in json.loads(out)["crossings"]} == {"F2"}
    monkeypatch.setenv("KH_COEFFS", "F3")
    rc, out, _ = run(capsys, "verify", "skein", "--braid", "1 1", "-n", "2")
    assert rc == 0
    assert {s["coefficients"] for s in json.loads(out)["crossings"]} == {"F3"}


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    rc, _o, _e = run(capsys, "compute", "--braid", "1", "-n", "2", "-o", str(out_path))
    assert rc == 0
    assert json.loads(out_path.read_text())["link"] == "n=2 1"


def test_groups_table_rendering():
    table = groups_table([{"i": 0, "j": 1, "rank": 1, "torsion": []}])
    assert "1" in table and "j\\i" in table
    assert groups_table([]) == "(trivial)\n"


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])
