"""Command-line front end: ad-hoc evaluation, verification runs, reduction checks.

Exit codes: 0 success, 1 verification failures, 2 argument errors,
3 evaluation errors.  A reader that closes stdout early (``| head``) ends the
run quietly with 1, as Python itself exits on a broken pipe.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, TextIO

from .core import DEFAULT_QUAD_TOL, BranchSide, DomainError, GammaPoleError, QuadratureError, check_quad_tol
from .hyperfun import HyperSpec, appell_f1, hyp2f1, lauricella_fd

if TYPE_CHECKING:
    from .identities import EvalReport

_EVAL_ERRORS = (DomainError, GammaPoleError, QuadratureError, KeyError, ValueError)


def _parse_complex(token: str) -> complex:
    parts = token.split(",")
    if len(parts) > 2:
        raise ValueError(f"cannot parse complex value from {token!r}")
    value = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
    if not cmath.isfinite(value):
        raise ValueError(f"values must be finite, got {token!r}")
    return value


def _parse_complex_list(text: str) -> list[complex]:
    """';'-separated complex entries; a bare comma list is read as reals."""
    sep = ";" if ";" in text else ","
    return [_parse_complex(tok) for tok in text.split(sep) if tok.strip()]


def _float_or_nan(text: str) -> float:
    # text that is no number reads as nan, which every range check below refuses
    try:
        return float(text)
    except ValueError:
        return math.nan


def _quad_tol(text: str) -> float:
    """--quad-tol: the tolerances the evaluators accept."""
    value = _float_or_nan(text)
    try:
        check_quad_tol(value)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return value


def _tol(text: str) -> float:
    """--tol: a finite check tolerance above 0."""
    value = _float_or_nan(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _format_value(value: complex) -> str:
    if abs(value.imag) <= 1e-13 * abs(value):
        return f"{value.real:.15g}"
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real:.15g} {sign} {abs(value.imag):.15g}i"


def _report_json(reports: list[EvalReport]) -> str:
    import json

    rows = []
    for r in reports:
        rows.append({
            "id": r.id,
            "anchor": r.anchor,
            "lhs": {"re": r.lhs_value.real, "im": r.lhs_value.imag},
            "rhs": {"re": r.rhs_value.real, "im": r.rhs_value.imag},
            "abs_err": r.abs_err,
            "rel_err": r.rel_err,
            "status": r.status,
            "elapsed_ms": r.elapsed * 1000.0,
            "note": r.note,
        })
    return json.dumps(rows, indent=2, separators=(",", ": "))


def _report_text(reports: list[EvalReport]) -> str:
    lines = [f"{'id':34s} {'status':18s} {'rel_err':>10s} {'ms':>8s}  value"]
    for r in reports:
        lines.append(
            f"{r.id:34s} {r.status:18s} {r.rel_err:10.2e} {r.elapsed * 1000.0:8.1f}  "
            f"{_format_value(r.lhs_value)}"
            + (f"  [{r.note}]" if r.note else "")
        )
    counts = {"pass": 0, "fail": 0, "pass_with_erratum": 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    lines.append(
        f"total {len(reports)}: {counts['pass']} pass, "
        f"{counts['pass_with_erratum']} pass_with_erratum, {counts['fail']} fail"
    )
    return "\n".join(lines)


def _run(args: argparse.Namespace, run: Callable[[], list[EvalReport]]) -> int:
    """Run the records and report them; exit code 1 when a record fails.

    --out is opened before any record runs, so a path that cannot be written
    is exit code 2 at once, as are an empty report (--filter matched nothing)
    and a failed write.  A write, flush or close of --out that fails is one
    `cannot write report` line: close flushes what a failed write left.
    """
    if not args.out:
        return _finish(run(), args, None)
    try:
        with open(args.out, "w") as handle:
            return _finish(run(), args, handle)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2


def _finish(reports: list[EvalReport], args: argparse.Namespace, handle: Optional[TextIO]) -> int:
    """Write the report to the open --out file, or to stdout when it is None."""
    if not reports:
        print(f"no record matches --filter {args.filter!r}", file=sys.stderr)
        return 2
    text = _report_json(reports) if args.format == "json" else _report_text(reports)
    print(text, file=handle)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    side = BranchSide.ABOVE if args.side == "above" else BranchSide.BELOW
    try:
        a = _parse_complex(args.a)
        c = _parse_complex(args.c)
        if args.function == "2f1":
            b, x = _parse_complex(args.b), _parse_complex(args.x)
        else:
            bs = _parse_complex_list(args.bs)
            xs = _parse_complex_list(args.xs)
            if args.function == "f1" and (len(bs) != 2 or len(xs) != 2):
                raise ValueError("f1 needs exactly two b parameters and two arguments")
            if len(bs) != len(xs):
                raise ValueError(f"fd needs as many b parameters as arguments, got {len(bs)} and {len(xs)}")
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2

    # an evaluation error reaches main, which reports it with exit code 3
    if args.function == "2f1":
        value = hyp2f1(a, b, c, x, side, args.quad_tol)
    elif args.function == "f1":
        value = appell_f1(a, bs[0], bs[1], c, xs[0], xs[1], side, args.quad_tol)
    else:
        value = lauricella_fd(HyperSpec(a, tuple(bs), c, tuple(xs)), side, args.quad_tol)
    print(_format_value(value))
    return 0


# the catalog modules load only in the commands that run them, so that
# `lauricella eval` imports just the evaluation stack

def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import verify_all

    return _run(args, lambda: verify_all(args.filter, args.tol, args.quad_tol))


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .identities import run_all
    from .reductions import CHECKS, check_reduction

    return _run(args, lambda: run_all(CHECKS, check_reduction, args.filter, args.tol, args.quad_tol))


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_tol, default=None, help="relative tolerance override")
    parser.add_argument("--quad-tol", dest="quad_tol", type=_quad_tol, default=DEFAULT_QUAD_TOL)
    parser.add_argument("--filter", default=None, help="a record id, or a glob over record ids")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lauricella",
        description="evaluate 2F1/F1/FD and verify the identity and reduction catalogs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function value")
    p_eval.add_argument("function", choices=("2f1", "f1", "fd"))
    p_eval.add_argument("--a", required=True)
    p_eval.add_argument("--b")
    p_eval.add_argument("--bs")
    p_eval.add_argument("--c", required=True)
    p_eval.add_argument("--x")
    p_eval.add_argument("--xs")
    p_eval.add_argument("--side", choices=("above", "below"), default="below")
    p_eval.add_argument("--quad-tol", dest="quad_tol", type=_quad_tol, default=DEFAULT_QUAD_TOL)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the identity catalog")
    _add_run_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="run the reduction checks")
    _add_run_flags(p_reduce)
    p_reduce.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "eval":
        needed = {"2f1": ("b", "x"), "f1": ("bs", "xs"), "fd": ("bs", "xs")}[args.function]
        for name in needed:
            if getattr(args, name) is None:
                print(f"eval {args.function} requires --{name}", file=sys.stderr)
                return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except _EVAL_ERRORS as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout is flushed once more at exit; point it at devnull so that
        # flush cannot raise again (the SIGPIPE note in Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
