"""Command line interface.

`formsign decide` exits 0 when the form is proved nonnegative on the
nonnegative orthant, 1 when an explicit negative point was found, and 2
when the depth limit ran out first; every usage, parse or validation error,
and any internal error, exits 3 with one `error:` line and no traceback, so
exit codes above 2 never collide with a verdict.  `sample` exits 1 when the
grid finds a negative value (a proof of indefiniteness by itself) and 0
otherwise.  JSON output renders every rational as a 'p/q' string; nothing
is ever rounded, and long numbers print in full.  Sizes the commands could
not finish are refused up front, also with exit 3: the wds scheme above
MAX_WDS_N variables (it has n! cells) and grids of more than
MAX_GRID_POINTS points.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from math import comb

from .engine import Outcome, decide, run_report
from .oracle import GridSpec, grid_classify
from .parsing import VariableContext, format_form, parse_form
from .subdivision import (
    VOLUME_PROBLEM,
    SchemeError,
    SubdivisionScheme,
    check_convergence,
    format_scheme,
    load_scheme,
    make_central3_scheme,
    make_midpoint3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    save_scheme,
    validate_scheme,
)

_BUILTIN_SCHEMES = ("wds", "midpoint3", "trisection3", "central3")
MAX_WDS_N = 7  # 5 040 cells; each further variable multiplies time and memory by n
MAX_GRID_POINTS = 10**5  # sample evaluates the form once per point


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which would collide with
    # the "inconclusive" verdict; keep everything above the verdict range
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _resolve_scheme(selector: str, n: int) -> SubdivisionScheme:
    if selector == "wds":
        if n > MAX_WDS_N:
            raise SchemeError(
                f"wds with n = {n} has n! cells; the command line builds it "
                f"for n <= {MAX_WDS_N}"
            )
        return make_wds_scheme(n)
    if selector == "midpoint3":
        return make_midpoint3_scheme()
    if selector == "trisection3":
        return make_trisection3_scheme()
    if selector == "central3":
        return make_central3_scheme()
    if selector.startswith("file:"):
        return load_scheme(selector[len("file:"):])
    raise SchemeError(
        f"unknown scheme {selector!r} "
        f"(choose one of {', '.join(_BUILTIN_SCHEMES)}, or file:PATH)"
    )


@contextmanager
def _full_digits():
    # str() refuses ints past sys.get_int_max_str_digits() (Python >= 3.10.7);
    # input literals keep that bound, but a result prints in full
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def _fmt_point(point) -> str:
    return "(" + ", ".join(str(v) for v in point) + ")"


def _cmd_decide(args) -> int:
    ctx = VariableContext.of(args.vars)
    form = parse_form(args.form, ctx)
    scheme = _resolve_scheme(args.scheme, ctx.n)

    on_level = None
    if args.trace:

        def on_level(level, parents, pruned, kept):
            print(
                f"level {level}: {parents} branches expanded, "
                f"{pruned} pruned nonnegative, {kept} kept",
                file=sys.stderr,
            )

    verdict = decide(
        form,
        scheme,
        max_depth=args.max_depth,
        dedup=args.dedup,
        on_level=on_level,
    )

    with _full_digits():
        if args.output == "json":
            report = {
                "form": format_form(form, ctx),
                "variables": list(ctx.names),
                "scheme": scheme.name,
                "max_depth": args.max_depth,
                "dedup": args.dedup,
            }
            report.update(run_report(verdict))
            print(json.dumps(report, indent=2))
        else:
            print(f"form: {format_form(form, ctx)}")
            print(f"scheme: {scheme.name} ({len(scheme)} cells)")
            print(f"verdict: {verdict.outcome.value}")
            print(f"depth reached: {verdict.depth_reached}")
            if verdict.outcome is Outcome.INDEFINITE:
                print(f"witness path: {list(verdict.witness_path)}")
                print(f"witness point: {_fmt_point(verdict.witness_point)}")
                print(f"witness value: {verdict.witness_value}")
            if verdict.outcome is Outcome.INCONCLUSIVE:
                print(run_report(verdict)["note"])
            s = verdict.stats
            print(
                f"stats: {s.branches_expanded} branches expanded, "
                f"{s.branches_pruned_positive} pruned nonnegative, "
                f"peak frontier {s.peak_frontier_size}"
            )
    return {Outcome.PSD: 0, Outcome.INDEFINITE: 1, Outcome.INCONCLUSIVE: 2}[
        verdict.outcome
    ]


def _cmd_analyze_scheme(args) -> int:
    try:
        scheme = _resolve_scheme(args.scheme, args.n)
    except SchemeError as exc:
        # a scheme file whose cells fail the checks: report them matrix by matrix
        if exc.validation is None:
            raise
        validation, convergence = exc.validation, None
    else:
        validation, convergence = validate_scheme(scheme), check_convergence(scheme)

    if args.output == "json":
        report = {
            "scheme": validation.name,
            "n": validation.n,
            "matrices": len(validation.dets),
            "valid": validation.ok,
            "dets": [str(d) for d in validation.dets],
            "det_sum": str(validation.det_sum),
            "failures": validation.failures(),
        }
        if convergence is not None:
            report["convergent"] = convergence.convergent
            report["contraction_ratio_sq"] = (
                str(convergence.contraction_ratio_sq)
                if convergence.contraction_ratio_sq is not None
                else None
            )
            report["shared_edges"] = [
                {"matrix": m, "columns": list(cols)}
                for m, cols in convergence.shared_edges
            ]
        print(json.dumps(report, indent=2))
    else:
        print(
            f"scheme: {validation.name} ({len(validation.dets)} cells, "
            f"n = {validation.n})"
        )
        for index, det in enumerate(validation.dets, start=1):
            print(f"matrix {index}: det {det}")
        short = any(msg.startswith(VOLUME_PROBLEM) for msg in validation.problems)
        print(f"sum |det|: {validation.det_sum}" + (" (expected 1)" if short else ""))
        print(f"valid: {'yes' if validation.ok else 'no'}")
        for msg in validation.failures():
            print(f"  problem: {msg}")
        if convergence is not None:
            print(f"convergent: {'yes' if convergence.convergent else 'no'}")
            if convergence.convergent:
                print(
                    f"contraction ratio squared: {convergence.contraction_ratio_sq}"
                )
            else:
                for m, (a, b) in convergence.shared_edges:
                    print(
                        f"  matrix {m} keeps a full simplex edge "
                        f"(columns {a} and {b} are basis vectors)"
                    )
    return 0 if validation.ok else 3


def _cmd_sample(args) -> int:
    ctx = VariableContext.of(args.vars)
    form = parse_form(args.form, ctx)
    grid = GridSpec(ctx.n, args.denominator)
    # len(grid) raises OverflowError past sys.maxsize; count the points directly
    points = comb(args.denominator + ctx.n - 1, ctx.n - 1)
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"the grid has {points} points, more than the maximum "
            f"{MAX_GRID_POINTS}; use a smaller denominator"
        )
    result = grid_classify(form, grid)
    with _full_digits():
        if args.output == "json":
            print(
                json.dumps(
                    {
                        "form": format_form(form, ctx),
                        "denominator": args.denominator,
                        "points": points,
                        "min_value": str(result.min_value),
                        "argmin": [str(v) for v in result.argmin],
                        "negative_found": result.negative_found,
                    },
                    indent=2,
                )
            )
        else:
            print(f"form: {format_form(form, ctx)}")
            print(f"grid: denominator {args.denominator}, {points} points")
            print(f"min value: {result.min_value} at {_fmt_point(result.argmin)}")
            print(f"negative found: {'yes' if result.negative_found else 'no'}")
    return 1 if result.negative_found else 0


def _cmd_gen_scheme(args) -> int:
    scheme = _resolve_scheme(args.scheme, args.n)
    if args.out:
        save_scheme(scheme, args.out)
        print(f"wrote {args.out}")
    else:
        print(format_scheme(scheme), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="formsign",
        description=(
            "Decide nonnegativity of homogeneous polynomials on the "
            "nonnegative orthant by simplex subdivision."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_form_args(p):
        p.add_argument(
            "--vars",
            required=True,
            help="comma-separated variable names, e.g. x,y,z (order fixes coordinates)",
        )
        p.add_argument(
            "--form",
            required=True,
            help="the form, e.g. 'x^2 - 2*x*y + y^2' (explicit *, rational p/q literals)",
        )

    p = sub.add_parser(
        "decide", help="prove nonnegativity or find a counterexample"
    )
    add_common_form_args(p)
    p.add_argument(
        "--scheme",
        required=True,
        help="wds | midpoint3 | trisection3 | central3 | file:PATH",
    )
    p.add_argument("--max-depth", type=int, default=30)
    p.add_argument(
        "--dedup",
        action="store_true",
        help="drop repeated identical branch forms within a level",
    )
    p.add_argument(
        "--trace", action="store_true", help="print per-level counts to stderr"
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser(
        "analyze-scheme", help="validate a scheme and report its contraction"
    )
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, default=3, help="dimension for wds (default 3)")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_analyze_scheme)

    p = sub.add_parser(
        "sample", help="evaluate a form on a rational grid over the simplex"
    )
    add_common_form_args(p)
    p.add_argument(
        "-D",
        "--denominator",
        type=int,
        required=True,
        help="grid denominator: all points (a_1/D, ..., a_n/D) with sum 1",
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gen-scheme", help="write a built-in scheme as a scheme file")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, default=3, help="dimension for wds (default 3)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen_scheme)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exits 1 and 2 are verdicts, so no error may reach them
        print(f"error: {exc} ({type(exc).__name__})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
