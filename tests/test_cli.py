import hashlib
import json

import pytest

from khbraid.cli import build_parser, emit, groups_table, main


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as e:  # argparse refuses an option or a combination
        rc = e.code
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


@pytest.mark.slow
def test_compare_agrees_over_z_on_a_14_crossing_word(capsys):
    # W14, the 12-crossing word above followed by s1 s2^-1: 16384 cube
    # vertices, whose Smith reduction is cheap only with clearing
    word = "n=4 1 2 -3 1 2 -3 1 -2 3 -1 2 3 1 -2"
    rc, out, _ = run(capsys, "compare", "--braid", word, "--coeffs", "Z")
    rec = json.loads(out)
    assert rc == 0 and rec["equal"] is True
    assert any(g["torsion"] for g in rec["oracle_groups"])


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
    # a readable PD code, so that only the option combination is refused
    (tmp_path / "any.pd").write_text("X+(2,4,3,1)\nX+(4,6,5,3)\nX+(6,2,1,5)\n")
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
        # an empty option value is refused, not read as absent
        ("compute", "--braid", "n=2 1", "-o", ""),
        ("verify", "positivity", "-n", "1", "-o", ""),
        ("verify", "skein", "--braid", "1 1", "-n", "2", "--coeffs", ""),
        ("oracle", "--pd", ""),
        ("arc-dump", "-n", "1", "--source", ""),
        ("arc-dump", "-n", "1", "--target", ""),
        ("verify", "skein", "--braid", "1 1", "-n", "2", "--coeffs", "F4"),
        # more strands than the braid commands finish on, however given
        ("compute", "--braid", "n=99999999999999999999 1"),
        ("compute", "--braid", "1", "-n", "17"),
        ("oracle", "--braid", "n=17 1"),
        ("compare", "--braid", "n=17 1"),
        ("verify", "markov", "--braid", "n=17 1"),
        ("verify", "skein", "--braid", "n=17 1"),
        # an option the command or verify kind would ignore
        ("oracle", "--pd", str(tmp_path / "any.pd"), "--braid", "1 1"),
        ("oracle", "--pd", str(tmp_path / "any.pd"), "-n", "2"),
        ("verify", "positivity", "-n", "2", "--coeffs", "F2", "--braid", "1 1"),
        ("verify", "braid-relations", "-n", "1", "--coeffs", "Q"),
        ("verify", "markov", "--braid", "n=2 1", "--crossing", "3"),
        ("verify", "braid-relations", "-n", "1", "--crossing", "0"),
        # a strand count that contradicts itself
        ("compute", "--braid", "n=2 1", "-n", "3"),
        ("compute", "--braid", "n=2 n=3 1 2"),
        # a group of the matching notation that is not "(a b)"
        ("arc-dump", "-n", "2", "--source", "(1 2 3)(4 5)"),
        ("arc-dump", "-n", "2", "--source", "(1 2)(3 4"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and "error:" in err and out == "", argv
    assert run(capsys, "oracle", "--pd", str(tmp_path / "any.pd"))[0] == 0
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


def test_unreadable_and_unwritable_paths_are_quoted(capsys, tmp_path):
    # an -o path that cannot be written, or a --pd path that cannot be read,
    # is named by its repr, so an empty one still shows, with the OS reason
    missing, here = str(tmp_path / "missing" / "x.json"), str(tmp_path)
    gone = "No such file or directory"
    for argv, want in (
        (("compute", "--braid", "n=2 1", "-o", ""), f"cannot write '': {gone}"),
        (("compute", "--braid", "n=2 1", "-o", missing), f"cannot write {missing!r}: {gone}"),
        (("oracle", "--pd", ""), f"cannot read '': {gone}"),
        (("oracle", "--pd", missing), f"cannot read {missing!r}: {gone}"),
        (("oracle", "--pd", here), f"cannot read {here!r}: Is a directory"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {want}\n"), argv


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


def test_integer_flags_are_ascii_digits_only(capsys):
    # -n and --crossing read the same integer tokens as the braid word
    for argv in (
        ("compute", "--braid", "1 1 1", "-n", "\u0662"),
        ("oracle", "--braid", "1 1 1", "-n", "2_0"),
        ("compare", "--braid", "1 1 1", "-n", "\u0662"),
        ("arc-dump", "-n", "1_0"),
        ("verify", "skein", "--braid", "1 1", "-n", "2", "--crossing", "0_0"),
        ("verify", "skein", "--braid", "1 1", "-n", "2", "--crossing", "\u0660"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "" and repr(argv[-1]) in out.err, argv
    rc, out, _ = run(capsys, "compute", "--braid", "1 1 1", "-n", "+2")
    assert rc == 0 and json.loads(out)["link"] == "n=2 1 1 1"
    rc, out, _ = run(capsys, "verify", "skein", "--braid", "1 1", "-n", "+2", "--crossing", "+1")
    assert rc == 0 and [s["crossing"] for s in json.loads(out)["crossings"]] == [1]


def test_coefficients_are_ascii_digits_only(capsys, monkeypatch):
    # str.isdecimal() holds for any Unicode digit: F\u0662 is Arabic-Indic 2
    # and F\uff13 a fullwidth 3
    monkeypatch.delenv("KH_COEFFS", raising=False)
    # an empty --coeffs is refused, not read as absent; an empty KH_COEFFS
    # reads as unset
    for coeffs in ("", "F\u0662", "F\uff13", "F0", "F03", "F+3", "F 3", "F3_"):
        rc, out, err = run(capsys, "compute", "--braid", "n=2 1 1 1", "--coeffs", coeffs)
        assert rc == 2 and out == "" and "error:" in err, coeffs
        if not coeffs:
            continue
        monkeypatch.setenv("KH_COEFFS", coeffs)
        rc, out, err = run(capsys, "compute", "--braid", "n=2 1 1 1")
        assert rc == 2 and out == "" and "error:" in err, coeffs
        monkeypatch.delenv("KH_COEFFS")
    monkeypatch.setenv("KH_COEFFS", "")
    rc, out, _ = run(capsys, "compute", "--braid", "n=2 1 1 1")
    assert rc == 0 and json.loads(out)["coefficients"] == "Z"
    monkeypatch.delenv("KH_COEFFS")
    for coeffs in ("F2", "F3"):
        rc, out, _ = run(capsys, "compute", "--braid", "n=2 1 1 1", "--coeffs", coeffs)
        assert rc == 0 and json.loads(out)["coefficients"] == coeffs
        monkeypatch.setenv("KH_COEFFS", coeffs)
        rc, out, _ = run(capsys, "compute", "--braid", "n=2 1 1 1")
        assert rc == 0 and json.loads(out)["coefficients"] == coeffs
        monkeypatch.delenv("KH_COEFFS")


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


W12 = "n=4 1 2 -3 1 2 -3 1 -2 3 -1 2 3"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("skein", "--braid", "n=2 1 1 1"), "68812aa3430fa7f40eccef8c445deba1e8294531fc67379de8551c7f6b2b7fbf"),
        (("skein", "--braid", "n=3 1 -2 1 -2", "--coeffs", "Z"), "78353e8b46f94446eb2a58344557d20fff4c5aed24ab272dd4135d96cd3b1a3a"),
        (("skein", "--braid", "n=2 -1 -1 -1", "--coeffs", "Z"), "7dcd83d8be3957b27b1d3622938774035c3a5e0070ce8cc3a33e53a70753d104"),
        (("skein", "--braid", W12), "3d866f218341aa45ad4788ac66f185e4db1004feff8ec7c1d46e98041fc81a6c"),
        (("skein", "--braid", W12, "--crossing", "7", "--coeffs", "Z"), "18a2289430cf448d4703c3491213b51e5b47b8c6f7539ec4a7d4cd32d83d4d36"),
        (("markov", "--braid", W12), "b4c1a1d876566469c3b5ef8b8ce5ffa24f6041023760bc18ab073b18a102ee1b"),
    ],
    ids=["skein-trefoil", "skein-figure8-Z", "skein-left-trefoil-Z", "skein-W12", "skein-W12-crossing7-Z", "markov-W12"],
)
def test_verify_output_bytes_are_pinned(argv, digest, tmp_path, capsys, monkeypatch):
    # the sha256 of each report's -o bytes: the verify suites' output is
    # pinned byte for byte, key order and indentation included
    monkeypatch.delenv("KH_COEFFS", raising=False)
    out_path = tmp_path / "report.json"
    rc, out, err = run(capsys, "verify", *argv, "-o", str(out_path))
    assert (rc, out, err) == (0, "", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--braid", "n=2 -1 -1 -1"), "cb4f198c8538ed8159732c3e1b73ff0eded091cdf391772c9f2ab916b289e82a"),
        (("--braid", "n=2 1 1 1"), "335003e8556d05d67ec316edf37e93b7e0f95c4618fa6d0557f7c4fd2bcfb148"),
        (("--braid", W12, "--coeffs", "Z"), "2c4d33ea9afd0700dd25f5daf31a2c97d497f9ef7a9fca4cabbb075857e1c008"),
    ],
    ids=["left-trefoil", "trefoil", "W12-Z"],
)
def test_failing_skein_output_bytes_are_pinned(argv, digest, tmp_path, capsys, monkeypatch):
    # a Z shifted by (0, 2) breaks the triangle: the -o bytes pin every rank
    # failure's term and every Euler defect, in order, so a scan range that
    # loses a term at an end of the sequence changes them
    from khbraid import linkinv

    real = linkinv._infinity_homology

    def shifted(b, c, coefficients):
        Z, v = real(b, c, coefficients)
        return Z.shifted(0, 2), v

    monkeypatch.setattr(linkinv, "_infinity_homology", shifted)
    monkeypatch.delenv("KH_COEFFS", raising=False)
    out_path = tmp_path / "report.json"
    rc, out, err = run(capsys, "verify", "skein", *argv, "-o", str(out_path))
    assert (rc, out, err) == (1, "", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_skein_refusals_keep_their_text(capsys):
    for argv, text in (
        (("--braid", "n=2"), "skein verification needs at least one crossing"),
        (("--braid", "n=2 1 1", "--crossing", "2"), "--crossing must lie in 0..1"),
        (("--braid", "n=2 1 1", "--crossing", "-1"), "--crossing must lie in 0..1"),
    ):
        assert run(capsys, "verify", "skein", *argv) == (2, "", f"error: {text}\n")


def test_groups_table_rendering():
    table = groups_table([{"i": 0, "j": 1, "rank": 1, "torsion": []}])
    assert "1" in table and "j\\i" in table
    assert groups_table([]) == "(trivial)\n"


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])
