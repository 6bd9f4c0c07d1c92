"""Command-line front end.

Exit codes: 0 success, 1 law failures, 2 usage errors: bad syntax, a bad
mode, bad files, a bad ``QFTALG_SEED`` or ``--random-count``, input too
deep for the recursion limit, and a number too long for Python's
int-to-string limit (4300 digits by default), whether as an integer
literal of the input or as a coefficient of the result.  Every usage
error prints one ``error:`` line on stderr, from the one handler in
:func:`main`.  ``check --law`` offers the names of :data:`laws.LAWS` and
``all``.  Output is deterministic for fixed inputs and seed; the
environment variable ``QFTALG_SEED`` overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import laws
from .coqts import RMode, chronological, t_functional, twisted_product
from .errors import ExprSyntaxError, ModeError, PowerError, QftAlgError
from .expr import parse
from .graphs import export_graphs
from .hopf import coproduct, coproduct_prime
from .renorm import Vertex, connected_T, renormalized_T, t_c_functional

USAGE_ERROR = 2
LAW_FAILURE = 1

# the commands defined for the chronological (feynman) pairing only
_CHRONOLOGICAL = ("T", "t", "Tc", "tc", "TR")


def _emit(obj, output: str) -> None:
    if output == "json":
        print(json.dumps(obj.to_json()))
    else:
        print(str(obj))


def _warn_off_kernel(expr):
    """Return ``expr`` unchanged, warning on stderr when its counit is
    nonzero; the command's ``strict=False`` call does the projection."""
    if expr.counit():
        print(
            "warning: expression has nonzero counit; projecting onto the counit kernel",
            file=sys.stderr,
        )
    return expr


def _add_expr_command(subparsers, name, help_text):
    sub = subparsers.add_parser(name, help=help_text)
    sub.add_argument("--expr", required=True, help="field expression")
    sub.add_argument("--output", choices=("pretty", "json"), default="pretty")
    if name in _CHRONOLOGICAL:
        sub.add_argument("--mode", choices=("feynman", "wightman"), default="feynman")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qftalg",
        description="Exact algebra of Wick products: coproducts, chronological "
        "products, Feynman graphs, connected and renormalized products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_expr_command(sub, "delta", "contraction coproduct of an expression")
    _add_expr_command(sub, "delta-prime", "partition coproduct of an expression")
    _add_expr_command(sub, "counit", "vacuum expectation value")

    wick = sub.add_parser("wick", help="twisted (Wick) product of two expressions")
    wick.add_argument("--mode", choices=("feynman", "wightman"), default="feynman")
    wick.add_argument("--lhs", required=True)
    wick.add_argument("--rhs", required=True)
    wick.add_argument("--output", choices=("pretty", "json"), default="pretty")

    _add_expr_command(sub, "T", "chronological product")
    _add_expr_command(sub, "t", "scalar part of the chronological product")
    _add_expr_command(sub, "Tc", "connected chronological product")
    _add_expr_command(sub, "tc", "connected scalar functional")

    tr = _add_expr_command(sub, "TR", "renormalized chronological product")
    tr.add_argument("--vertex", required=True, help="JSON vertex rule table")

    graphs = sub.add_parser("graphs", help="Feynman-graph expansion of a monomial")
    graphs.add_argument("--expr", required=True)
    graphs.add_argument("--connected", action="store_true")
    graphs.add_argument("--format", choices=("dot", "json"), default="dot")

    check = sub.add_parser("check", help="run the law checkers")
    check.add_argument("--law", choices=(*laws.LAWS, "all"), default="all")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--random-count", type=int, default=laws.DEFAULT_RANDOM_COUNT)
    check.add_argument("--output", choices=("pretty", "json"), default="pretty")
    return parser


def _read_vertex(path: str) -> Vertex:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return Vertex.from_json(handle.read())
    except (OSError, ValueError) as exc:
        raise QftAlgError(f"bad vertex file: {exc}") from exc


def _run_check(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("QFTALG_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise QftAlgError(f"QFTALG_SEED must be an integer, got {env_seed!r}") from None
    count = args.random_count
    if count < 0:
        raise QftAlgError(f"--random-count must be >= 0, got {count}")
    if args.law == "all":
        reports = laws.run_all_checks(seed, count)
    else:
        reports = laws.LAWS[args.law](seed, count)

    if args.output == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for report in reports:
            print(report.summary())
            for failure in report.failures[:3]:
                print(f"  {failure.law} on {', '.join(str(u) for u in failure.inputs)}")
            if len(report.failures) > 3:
                print(f"  ... and {len(report.failures) - 3} more failures")
    return 0 if all(r.passed for r in reports) else LAW_FAILURE


def _run(args) -> int:
    if args.command in _CHRONOLOGICAL and args.mode != "feynman":
        raise ModeError(
            f"chronological operations ({'/'.join(_CHRONOLOGICAL)}) require --mode feynman"
        )
    if args.command == "delta":
        _emit(coproduct(parse(args.expr)), args.output)
    elif args.command == "delta-prime":
        _emit(coproduct_prime(parse(args.expr)), args.output)
    elif args.command == "counit":
        _emit(parse(args.expr).counit(), args.output)
    elif args.command == "wick":
        product = twisted_product(parse(args.lhs), parse(args.rhs), RMode(args.mode))
        _emit(product, args.output)
    elif args.command == "T":
        _emit(chronological(parse(args.expr)), args.output)
    elif args.command == "t":
        _emit(t_functional(parse(args.expr)), args.output)
    elif args.command == "Tc":
        _emit(connected_T(_warn_off_kernel(parse(args.expr)), strict=False), args.output)
    elif args.command == "tc":
        _emit(t_c_functional(_warn_off_kernel(parse(args.expr)), strict=False), args.output)
    elif args.command == "TR":
        vertex = _read_vertex(args.vertex)
        expr = _warn_off_kernel(parse(args.expr))
        _emit(renormalized_T(expr, vertex, strict=False), args.output)
    elif args.command == "graphs":
        terms = parse(args.expr).sorted_terms()
        if len(terms) != 1 or not terms[0][1].is_one():
            raise QftAlgError("graphs requires a single monomial with coefficient 1")
        print(export_graphs(terms[0][0], args.connected, args.format))
    elif args.command == "check":
        return _run_check(args)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; every usage error ends here as one stderr line and exit 2."""
    try:
        return _run(build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize the type
        return int(exc.code or 0)
    except (ExprSyntaxError, PowerError) as exc:
        message = f"bad expression: {exc}"
    except QftAlgError as exc:
        message = str(exc)
    except RecursionError:
        message = "input too deep to evaluate (recursion limit exceeded)"
    except ValueError as exc:
        message = str(exc)
        if "integer string conversion" in message:
            # a result past Python's int-to-string limit; Python's own advice
            # names a call, which a command-line user cannot make
            limit = sys.get_int_max_str_digits()
            message = (f"a number in the result is longer than Python's limit of {limit} digits;"
                       " raise it with the PYTHONINTMAXSTRDIGITS environment variable (0 for none)")
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
