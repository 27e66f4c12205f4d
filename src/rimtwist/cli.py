"""Command-line front end: alexander, pi1, cover, classify, search.

Text output on stdout, diagnostics on stderr; ``--json`` switches every
subcommand to a schema-stable JSON form.  Exit codes: 0 success, 1 the
reader closed stdout, 2 parse or validation error or a knot expression
nested too deeply, 3 undetermined group verdict under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

from .alexander import alexander_polynomial
from .covers import CoverHomology, branched_cover_order, branched_cover_structure
from .groups import DEFAULT_COSET_BUDGET
from .knots import parse_knot
from .surgery import SurgeryParams, SurgeryReport, determine_pi1, classify, enumerate_examples
from .wirtinger import presentation_of_knot


def _answers(args):
    """The records a subcommand answers with; each renders itself as text and as JSON."""
    if args.command == "search":
        return enumerate_examples(args.pmax, args.qmax, args.dmax, args.mmax)
    if args.command == "classify":
        params = SurgeryParams(d=args.d, m=args.m, sw_nontrivial=args.sw, cp2=args.cp2)
        return [classify(parse_knot(args.knot), params, args.budget)]
    pres = presentation_of_knot(parse_knot(args.knot))
    if args.command == "alexander":
        return [alexander_polynomial(pres)]
    if args.command == "pi1":
        return [determine_pi1(pres, args.d, args.m, args.budget)[0]]
    order = branched_cover_order(alexander_polynomial(pres), args.d)
    structure = branched_cover_structure(pres, args.d) if args.structure else None
    return [CoverHomology(args.d, order, structure)]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    argparse looks up ``sys.stdout`` and ``sys.stderr`` when it prints,
    so one parser serves every ``run`` call with that call's streams.
    """
    parser = argparse.ArgumentParser(
        prog="rimtwist",
        description="exact invariants of twist-surgered surfaces",
    )
    parser.set_defaults(text=str, strict=False)
    sub = parser.add_subparsers(dest="command", required=True)

    knot = argparse.ArgumentParser(add_help=False)
    knot.add_argument("knot")
    surgery = argparse.ArgumentParser(add_help=False)
    surgery.add_argument("--d", type=int, required=True)
    surgery.add_argument("--m", type=int, required=True)
    surgery.add_argument("--budget", type=int, default=DEFAULT_COSET_BUDGET)
    surgery.add_argument("--strict", action="store_true")

    sub.add_parser("alexander", parents=[knot], help="Alexander polynomial of a knot")
    sub.add_parser(
        "pi1", parents=[knot, surgery], help="fundamental group of the surgered complement"
    )

    p_cover = sub.add_parser("cover", parents=[knot], help="homology of the d-fold branched cover")
    p_cover.add_argument("--d", type=int, required=True)
    p_cover.add_argument("--structure", action="store_true")

    p_cls = sub.add_parser(
        "classify", parents=[knot, surgery], help="full surgery report for one knot"
    )
    p_cls.add_argument(
        "--cp2",
        action="store_true",
        help="treat the surface as a degree-d curve (implies the SW hypothesis)",
    )
    p_cls.add_argument("--sw", action="store_true", help="assert the SW hypothesis")

    p_search = sub.add_parser(
        "search", help="stream the smoothly-knotted-but-standard family"
    )
    p_search.add_argument("--pmax", type=int, required=True)
    p_search.add_argument("--qmax", type=int, required=True)
    p_search.add_argument("--dmax", type=int, required=True)
    p_search.add_argument("--mmax", type=int, required=True)
    p_search.set_defaults(text=SurgeryReport.row_text)

    # added last, so that --json still ends every subcommand's usage line
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    code = 0
    try:
        # search yields its rows as it classifies them, so each is printed at once
        for answer in _answers(args):
            text = json.dumps(answer.to_json(), sort_keys=True) if args.json else args.text(answer)
            print(text, file=out)
            # pi1 answers with its verdict, classify with a report that carries one
            if args.strict and getattr(answer, "pi1", answer).kind == "undetermined":
                code = 3
    except ValueError as exc:  # KnotError is a ValueError
        print(f"error: {exc}", file=err)
        return 2
    except RecursionError:  # the parser and the walks over an expression recurse
        print("error: knot expression is nested too deeply", file=err)
        return 2
    return code


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
