"""Command-line front end.

Exit codes: 0 success, 1 law failures, 2 usage errors (bad syntax, bad
mode, bad files, a bad ``QFTALG_SEED`` or ``--random-count``, input too
deep for the recursion limit).  Output
is deterministic for fixed inputs and seed; the environment variable
``QFTALG_SEED`` overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import laws
from .coqts import RMode, chronological, t_functional, twisted_product
from .errors import ExprSyntaxError, ModeError, PowerError, QftAlgError, UnsupportedFormat
from .expr import parse
from .graphs import export_graphs
from .hopf import coproduct, coproduct_prime
from .renorm import Vertex, connected_T, renormalized_T, t_c_functional

USAGE_ERROR = 2
LAW_FAILURE = 1


def _emit(obj, output: str) -> None:
    if output == "json":
        print(json.dumps(obj.to_json()))
    else:
        print(str(obj))


def _parse_expr(text: str):
    try:
        return parse(text)
    except (ExprSyntaxError, PowerError) as exc:
        raise SystemExit(_usage_error(f"bad expression: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _mode_from_args(args) -> RMode:
    return RMode.CHRONOLOGICAL if args.mode == "feynman" else RMode.OPERATOR


def _require_feynman(args) -> None:
    if args.mode != "feynman":
        raise SystemExit(
            _usage_error("chronological operations (T/t/Tc/tc/TR) require --mode feynman")
        )


def _kernel_lenient(expr):
    """CLI policy: project into the counit kernel, warning when it matters."""
    eps = expr.counit()
    if eps:
        print(
            "warning: expression has nonzero counit; projecting onto the counit kernel",
            file=sys.stderr,
        )
    return expr


def _add_expr_command(subparsers, name, help_text, with_mode=False):
    sub = subparsers.add_parser(name, help=help_text)
    sub.add_argument("--expr", required=True, help="field expression")
    sub.add_argument("--output", choices=("pretty", "json"), default="pretty")
    if with_mode:
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

    _add_expr_command(sub, "T", "chronological product", with_mode=True)
    _add_expr_command(sub, "t", "scalar part of the chronological product", with_mode=True)
    _add_expr_command(sub, "Tc", "connected chronological product", with_mode=True)
    _add_expr_command(sub, "tc", "connected scalar functional", with_mode=True)

    tr = _add_expr_command(sub, "TR", "renormalized chronological product", with_mode=True)
    tr.add_argument("--vertex", required=True, help="JSON vertex rule table")

    graphs = sub.add_parser("graphs", help="Feynman-graph expansion of a monomial")
    graphs.add_argument("--expr", required=True)
    graphs.add_argument("--connected", action="store_true")
    graphs.add_argument("--format", choices=("dot", "json"), default="dot")

    check = sub.add_parser("check", help="run the law checkers")
    check.add_argument(
        "--law",
        choices=("coalgebra", "bialgebra", "comodule", "antipode", "all"),
        default="all",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--random-count", type=int, default=laws.DEFAULT_RANDOM_COUNT)
    check.add_argument("--output", choices=("pretty", "json"), default="pretty")
    return parser


def _run_check(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("QFTALG_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            return _usage_error(f"QFTALG_SEED must be an integer, got {env_seed!r}")
    count = args.random_count
    if count < 0:
        return _usage_error(f"--random-count must be >= 0, got {count}")
    if args.law == "all":
        reports = laws.run_all_checks(seed, count)
    elif args.law == "coalgebra":
        fam = laws.default_family(seed, count)
        reports = [
            laws.check_coalgebra("delta", fam),
            laws.check_coalgebra("delta-prime", fam),
        ]
    elif args.law == "bialgebra":
        reports = [laws.check_bialgebra(laws.bialgebra_family(seed, count))]
    elif args.law == "comodule":
        reports = [laws.check_comodule_coalgebra(laws.comodule_family(seed, count))]
    else:
        reports = [laws.check_antipode(laws.default_family(seed, count))]

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize the type
        return int(exc.code or 0)

    try:
        if args.command == "delta":
            _emit(coproduct(_parse_expr(args.expr)), args.output)
        elif args.command == "delta-prime":
            _emit(coproduct_prime(_parse_expr(args.expr)), args.output)
        elif args.command == "counit":
            _emit(_parse_expr(args.expr).counit(), args.output)
        elif args.command == "wick":
            product = twisted_product(
                _parse_expr(args.lhs), _parse_expr(args.rhs), _mode_from_args(args)
            )
            _emit(product, args.output)
        elif args.command == "T":
            _require_feynman(args)
            _emit(chronological(_parse_expr(args.expr)), args.output)
        elif args.command == "t":
            _require_feynman(args)
            _emit(t_functional(_parse_expr(args.expr)), args.output)
        elif args.command == "Tc":
            _require_feynman(args)
            expr = _kernel_lenient(_parse_expr(args.expr))
            _emit(connected_T(expr, strict=False), args.output)
        elif args.command == "tc":
            _require_feynman(args)
            expr = _kernel_lenient(_parse_expr(args.expr))
            _emit(t_c_functional(expr, strict=False), args.output)
        elif args.command == "TR":
            _require_feynman(args)
            try:
                with open(args.vertex, "r", encoding="utf-8") as handle:
                    vertex = Vertex.from_json(handle.read())
            except (OSError, ValueError) as exc:
                return _usage_error(f"bad vertex file: {exc}")
            expr = _kernel_lenient(_parse_expr(args.expr))
            _emit(renormalized_T(expr, vertex, strict=False), args.output)
        elif args.command == "graphs":
            expr = _parse_expr(args.expr)
            terms = expr.sorted_terms()
            if len(terms) != 1 or not terms[0][1].is_one():
                return _usage_error("graphs requires a single monomial with coefficient 1")
            try:
                print(export_graphs(terms[0][0], args.connected, args.format))
            except UnsupportedFormat as exc:
                return _usage_error(str(exc))
        elif args.command == "check":
            return _run_check(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ModeError as exc:
        return _usage_error(str(exc))
    except QftAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        return _usage_error("input too deep to evaluate (recursion limit exceeded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
