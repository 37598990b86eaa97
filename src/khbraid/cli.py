"""Command-line driver: compute, oracle, compare, arc-dump, verify.

Exit codes: 0 success / verified, 1 verification or comparison failure,
2 input error.  The KH_COEFFS environment variable overrides the default
coefficients ("Z", "Q", or "Fp"): Z everywhere except `verify skein`, whose
default is Q.  --coeffs overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .arcalg import multiplication_table, verify_positivity
from .homalg import BigradedGroup, coefficient_characteristic
from .linkinv import BraidWord, compute, verify_braid_relations, verify_markov, verify_skein
from .oracle import braid_to_pd, cube_homology, format_pd, parse_pd
from .planar import parse_int, parse_matching


class InputError(Exception):
    pass


# The braid commands refuse more strands than this.  On 16 strands the word
# "1 -2 1" takes about 0.15 s to compute and 1.4 s through the oracle (2-core
# Xeon, fresh process); the oracle's cost grows with every unknot added.
MAX_STRANDS = 16


def _braid_from_args(args) -> BraidWord:
    if args.braid is None:
        raise InputError("--braid is required")
    try:
        b = BraidWord.parse(args.braid, strands=args.n)
    except ValueError as e:
        raise InputError(str(e)) from e
    if b.strands > MAX_STRANDS:
        raise InputError(f"braids run only on at most {MAX_STRANDS} strands, not {b.strands}")
    return b


def _coeffs(args, default: str = "Z") -> str:
    c = args.coeffs if args.coeffs is not None else os.environ.get("KH_COEFFS") or default
    try:
        coefficient_characteristic(c)
    except ValueError as e:
        raise InputError(str(e)) from e
    return c


def emit(record: dict, path: str | None, table: bool = False) -> str:
    """Serialize with stable key order, or as the grid of record["groups"]
    for table; identical runs emit identical bytes."""
    if table:
        text = groups_table(record["groups"])
    else:
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if path is not None and path != "-":
        try:
            fh = open(path, "w")
        except OSError as e:
            raise InputError(f"cannot write {path}: {e.strerror}") from e
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def groups_table(groups: list[dict]) -> str:
    """Bigraded grid, i across and j down, as in the knot homology tables."""
    if not groups:
        return "(trivial)\n"
    is_ = sorted({g["i"] for g in groups})
    js = sorted({g["j"] for g in groups}, reverse=True)
    cell = {}
    for g in groups:
        parts = []
        if g["rank"]:
            parts.append(str(g["rank"]))
        parts.extend(f"Z/{t}" for t in g["torsion"])
        cell[(g["i"], g["j"])] = "+".join(parts) if parts else "."
    width = max(5, max(len(v) for v in cell.values()) + 1)
    head = "j\\i".rjust(6) + "".join(str(i).rjust(width) for i in is_)
    lines = [head]
    for j in js:
        row = str(j).rjust(6)
        for i in is_:
            row += cell.get((i, j), ".").rjust(width)
        lines.append(row)
    return "\n".join(lines) + "\n"


def cmd_compute(args) -> int:
    b = _braid_from_args(args)
    res = compute(b, _coeffs(args))
    emit(res.to_json(), args.output, args.table)
    return 0


def cmd_oracle(args) -> int:
    coeffs = _coeffs(args)
    if args.pd is not None:
        if args.n is not None:
            raise InputError("-n goes with --braid, not --pd")
        try:
            if args.pd == "-":
                text = sys.stdin.read()
            else:
                with open(args.pd) as fh:
                    text = fh.read()
            diagram = parse_pd(text)
            H = cube_homology(diagram, coeffs)  # rejects a non-planar code
        except (OSError, ValueError) as e:
            raise InputError(str(e)) from e
        link = "pd"
    else:
        b = _braid_from_args(args)
        diagram = braid_to_pd(b)
        link = b.format()
        H = cube_homology(diagram, coeffs)
    record = {
        "link": link,
        "pd": format_pd(diagram).splitlines(),
        "n_plus": diagram.n_plus,
        "n_minus": diagram.n_minus,
        "coefficients": coeffs,
        "groups": H.to_json(),
    }
    emit(record, args.output, args.table)
    return 0


def cmd_compare(args) -> int:
    b = _braid_from_args(args)
    coeffs = _coeffs(args)
    arc = compute(b, coeffs).bigraded
    orc = cube_homology(braid_to_pd(b), coeffs)
    equal = arc == orc
    record = {
        "link": b.format(),
        "coefficients": coeffs,
        "equal": equal,
        "arc_groups": arc.to_json(),
        "oracle_groups": orc.to_json(),
    }
    if not equal:
        record["diff"] = _diff_table(arc, orc)
    emit(record, args.output)
    return 0 if equal else 1


def _diff_table(a: BigradedGroup, b: BigradedGroup) -> list[dict]:
    out = []
    for key in sorted(set(a.entries) | set(b.entries)):
        ra, ta = a.entries.get(key, (0, ()))
        rb, tb = b.entries.get(key, (0, ()))
        if (ra, ta) != (rb, tb):
            out.append(
                {
                    "i": key[0],
                    "j": key[1],
                    "arc": {"rank": ra, "torsion": list(ta)},
                    "oracle": {"rank": rb, "torsion": list(tb)},
                }
            )
    return out


def _matching_of_size(text: str | None, n: int) -> str | None:
    """The notation of a matching of n arcs, or None for no restriction."""
    if text is None:
        return None
    w = parse_matching(text)
    if w.n != n:
        raise ValueError(f"matching {text!r} has {w.n} arcs, not -n {n}")
    return str(w)


def cmd_arc_dump(args) -> int:
    if args.n is None or args.n < 1:
        raise InputError("-n is required and must be >= 1")
    if args.n > 3:
        raise InputError("arc-dump emits the full multiplication table only for n <= 3")
    table = multiplication_table(args.n)
    if args.source is not None or args.target is not None:
        # restrict to products landing in the block (source, target)
        try:
            src, tgt = (_matching_of_size(text, args.n) for text in (args.source, args.target))
        except ValueError as e:
            raise InputError(str(e)) from e
        table["blocks"] = [
            b
            for b in table["blocks"]
            if (src is None or b["source"] == src) and (tgt is None or b["target"] == tgt)
        ]
        table["products"] = [
            p
            for p in table["products"]
            if (src is None or p["right"]["source"] == src)
            and (tgt is None or p["left"]["target"] == tgt)
        ]
    emit(table, args.output)
    return 0


def _verify_strands(n: int | None, kind: str) -> None:
    """Accept 1 <= n <= 5.  At n = 5 each scan takes under a minute and a
    half on a 2-core Xeon; n = 6 has 132 matchings instead of 42 and 52
    times as many structure constants."""
    if n is None or n < 1:
        raise InputError("-n is required and must be >= 1")
    if n > 5:
        raise InputError(f"verify {kind} runs only for n <= 5")


def cmd_verify(args) -> int:
    """Run the suite args.what names; exit 1 if it fails, 2 on a refused input."""
    kind = args.what
    if kind == "markov":
        report = verify_markov(_braid_from_args(args), coefficients=_coeffs(args))
    elif kind == "skein":
        try:
            report = verify_skein(_braid_from_args(args), args.crossing, _coeffs(args, default="Q"))
        except ValueError as e:
            raise InputError(str(e)) from e
    elif kind == "braid-relations":
        _verify_strands(args.n, "braid-relations")
        report = verify_braid_relations(args.n)
    else:
        _verify_strands(args.n, "positivity")
        report = verify_positivity(args.n)
        if args.output is not None and args.output != "-":
            emit(report, args.output)  # a path that cannot be written exits 2 before the verdict
        tail = "PASS" if report["ok"] else "FAIL"
        print(f"all structure constants >= 0: {tail}")
        if args.output == "-":
            emit(report, args.output)
        return 0 if report["ok"] else 1
    emit(report, args.output)
    return 0 if report["ok"] else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Each command and verify kind takes only the options it reads; --pd
    and --braid exclude each other.  Built once: parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="khbraid",
        description="Khovanov homology of braid closures, via the arc algebra and via the resolution cube",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def braid(p, given=None):
        (given or p).add_argument("--braid", help='braid word, e.g. "1 1 1" or "n=2 1 1 1"')
        p.add_argument("-n", type=parse_int, help="number of strands (alternative to the n= header)")
        p.add_argument("--coeffs", help="Z (default; Q for verify skein), Q, or Fp such as F2")
        p.add_argument("-o", "--output", help="output path (default stdout)")

    p = sub.add_parser("compute", help="arc-algebra pipeline invariant")
    braid(p)
    p.add_argument("--table", action="store_true", help="human-readable bigraded grid")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="cube-of-resolutions invariant")
    given = p.add_mutually_exclusive_group()
    braid(p, given)
    given.add_argument("--pd", help="PD code file ('-' for stdin) instead of a braid")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="run both pipelines; exit 0 iff equal")
    braid(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("arc-dump", help="basis sizes and multiplication table of H_n")
    p.add_argument("-n", type=parse_int)
    p.add_argument("-o", "--output")
    p.add_argument("--source", help='restrict to products from this matching, e.g. "(1 2)(3 4)"')
    p.add_argument("--target", help="restrict to products into this matching")
    p.set_defaults(func=cmd_arc_dump)

    kinds = sub.add_parser("verify", help="structural verification suites").add_subparsers(
        dest="what", required=True
    )
    for kind, what in (
        ("markov", "groups unchanged by conjugation and stabilization"),
        ("skein", "the skein triangle at each crossing"),
        ("braid-relations", "braid relations on every projective of H_n"),
        ("positivity", "every structure constant of H_n is >= 0"),
    ):
        p = kinds.add_parser(kind, help=what)
        if kind in ("markov", "skein"):
            braid(p)
        else:
            p.add_argument("-n", type=parse_int, help="number of arcs, at most 5")
            p.add_argument("-o", "--output")
        if kind == "skein":
            p.add_argument("--crossing", type=parse_int, help="single crossing index (default all)")
        p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
