"""Command-line front end: alexander, pi1, cover, classify, search.

Text output on stdout, diagnostics on stderr; ``--json`` switches every
subcommand to a schema-stable JSON form.  Exit codes: 0 success, 2
parse or validation error, 3 undetermined group verdict under
``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .alexander import alexander_polynomial
from .covers import (
    CoverHomology,
    branched_cover_order,
    branched_cover_structure,
    order_value,
)
from .groups import DEFAULT_COSET_BUDGET
from .knots import KnotError, parse_knot, render
from .laurent import poly_text
from .surgery import SurgeryParams, SurgeryReport, determine_pi1, classify, enumerate_examples
from .wirtinger import presentation_of_knot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rimtwist",
        description="exact invariants of twist-surgered surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alex = sub.add_parser("alexander", help="Alexander polynomial of a knot")
    p_alex.add_argument("knot")
    p_alex.add_argument("--json", action="store_true")

    p_pi1 = sub.add_parser("pi1", help="fundamental group of the surgered complement")
    p_pi1.add_argument("knot")
    p_pi1.add_argument("--d", type=int, required=True)
    p_pi1.add_argument("--m", type=int, required=True)
    p_pi1.add_argument("--budget", type=int, default=DEFAULT_COSET_BUDGET)
    p_pi1.add_argument("--strict", action="store_true")
    p_pi1.add_argument("--json", action="store_true")

    p_cover = sub.add_parser("cover", help="homology of the d-fold branched cover")
    p_cover.add_argument("knot")
    p_cover.add_argument("--d", type=int, required=True)
    p_cover.add_argument("--structure", action="store_true")
    p_cover.add_argument("--json", action="store_true")

    p_cls = sub.add_parser("classify", help="full surgery report for one knot")
    p_cls.add_argument("knot")
    p_cls.add_argument("--d", type=int, required=True)
    p_cls.add_argument("--m", type=int, required=True)
    p_cls.add_argument("--budget", type=int, default=DEFAULT_COSET_BUDGET)
    p_cls.add_argument(
        "--cp2",
        action="store_true",
        help="treat the surface as a degree-d curve (implies the SW hypothesis)",
    )
    p_cls.add_argument("--sw", action="store_true", help="assert the SW hypothesis")
    p_cls.add_argument("--strict", action="store_true")
    p_cls.add_argument("--json", action="store_true")

    p_search = sub.add_parser(
        "search", help="stream the smoothly-knotted-but-standard family"
    )
    p_search.add_argument("--pmax", type=int, required=True)
    p_search.add_argument("--qmax", type=int, required=True)
    p_search.add_argument("--dmax", type=int, required=True)
    p_search.add_argument("--mmax", type=int, required=True)
    p_search.add_argument("--json", action="store_true")

    return parser


def _report_text(report: SurgeryReport) -> str:
    lines = [
        f"knot: {render(report.knot)}",
        f"surgery: d={report.params.d} m={report.params.m}",
        f"alexander: {poly_text(report.alexander)}",
        f"pi1: {report.pi1}",
        f"pi1 obstruction: {'yes' if report.pi1_obstruction else 'no'}",
        f"branched cover: order {order_value(report.branched_order)}",
        f"smoothly knotted: {report.smoothly_knotted} ({report.smoothly_knotted_reason})",
    ]
    if report.topologically_standard_failed is None:
        lines.append(f"topologically standard: {report.topologically_standard}")
    else:
        lines.append(
            f"topologically standard: {report.topologically_standard} "
            f"(failed: {report.topologically_standard_failed})"
        )
    if report.params.cp2:
        lines.append(f"cp2: degree {report.params.d} curve, genus {report.cp2_genus}")
    return "\n".join(lines)


def _search_row_text(report: SurgeryReport) -> str:
    return (
        f"knot={render(report.knot)} d={report.params.d} m={report.params.m} "
        f"alexander=\"{poly_text(report.alexander)}\" "
        f"cover_order={order_value(report.branched_order)} "
        f"smoothly_knotted={report.smoothly_knotted} "
        f"topologically_standard={report.topologically_standard}"
    )


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "alexander":
            delta = alexander_polynomial(presentation_of_knot(parse_knot(args.knot)))
            if args.json:
                print(json.dumps(delta.to_json(), sort_keys=True), file=out)
            else:
                print(poly_text(delta), file=out)
            return 0

        if args.command == "pi1":
            pres = presentation_of_knot(parse_knot(args.knot))
            verdict, _ = determine_pi1(pres, args.d, args.m, args.budget)
            if args.json:
                print(json.dumps(verdict.to_json(), sort_keys=True), file=out)
            else:
                print(str(verdict), file=out)
            if args.strict and verdict.kind == "undetermined":
                return 3
            return 0

        if args.command == "cover":
            pres = presentation_of_knot(parse_knot(args.knot))
            cover = CoverHomology(
                d=args.d,
                order=branched_cover_order(alexander_polynomial(pres), args.d),
                structure=branched_cover_structure(pres, args.d) if args.structure else None,
            )
            if args.json:
                print(json.dumps(cover.to_json(), sort_keys=True), file=out)
            else:
                print(cover, file=out)
            return 0

        if args.command == "classify":
            params = SurgeryParams(d=args.d, m=args.m, sw_nontrivial=args.sw, cp2=args.cp2)
            report = classify(parse_knot(args.knot), params, args.budget)
            if args.json:
                print(json.dumps(report.to_json(), sort_keys=True), file=out)
            else:
                print(_report_text(report), file=out)
            if args.strict and report.pi1.kind == "undetermined":
                return 3
            return 0

        if args.command == "search":
            for report in enumerate_examples(args.pmax, args.qmax, args.dmax, args.mmax):
                if args.json:
                    print(json.dumps(report.to_json(), sort_keys=True), file=out)
                else:
                    print(_search_row_text(report), file=out)
            return 0
    except (KnotError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2

    raise AssertionError("unreachable command")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
