"""Command-line interface.

Subcommands:

    solve     run one method from one starting point, print the trace
    bench     replay the bundled reference tables and score agreement
    coc       computational order of convergence for a method/function
    constant  Taylor coefficients and the fourth-order error constant
    list      enumerate methods and built-in functions

Numbers in text output use the tables' own 0.47200e-25 style (five
significant digits, leading-zero mantissa) so runs can be eyeballed
against the published rows; JSON and CSV carry full working precision.

Exit codes: 0 success, 1 numerical failure (non-convergence, breakdown,
benchmark below threshold, a root that cannot be refined or analysed,
such as a domain error at the root in ``constant``), 2 usage error. One
rule maps them: a ``ValueError`` is a usage error, ``InvalidPrecisionError``
and ``ParseError`` included, and any other ``StefbenchError`` is a
numerical failure. A reader that closes stdout early
(``stefbench ... | head``) also ends the run with exit 1, without a
traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .analysis import coc, error_constant
from .driver import MAX_ITERATIONS, MAX_STEPS, SUCCESS_STATUSES, SolveConfig, refine_root, solve
from .errors import StefbenchError
from .functions import BUILTINS, FUNCTION_NAMES, from_expression, get_function
from .methods import METHOD_TAGS, METHODS, MKDF_THETA, TABLE_METHODS, MethodKind, claimed_order
from .precision import DECIMAL, NON_FINITE, PrecisionContext
from .reference import DEFAULT_TOLERANCE_ORDERS, run_benchmark

DEFAULT_BITS = 512
ANALYSIS_ITERATIONS = 6
THETA_HELP = f"kou parameter (default {MKDF_THETA})"


def _number(convert):
    """An argparse type: ``convert`` (int or float) of text that ``PrecisionContext.mpf`` reads.

    Text that is neither ``precision.DECIMAL`` nor a name in NON_FINITE,
    such as " 64", "6_4" or a non-ASCII digit, is refused before ``convert``
    sees it, with argparse's own "invalid int value: '...'" message, as is
    text that ``convert`` refuses.
    """

    def read(text):
        if text.lower() not in NON_FINITE and DECIMAL.fullmatch(text) is None:
            raise ValueError(text)
        return convert(text)

    read.__name__ = convert.__name__  # the "int" or "float" of argparse's message
    return read


_INT, _FLOAT = _number(int), _number(float)


def _count(n, noun) -> str:
    """``n`` and ``noun``, plural unless n is 1: "1 iteration", "3 f-calls"."""
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _write(fmt, payload, rows, fields, text) -> None:
    """Print ``payload`` as JSON, its row list ``payload[rows]`` as CSV, or call ``text()``.

    ``fields`` names the CSV columns, so an empty row list still prints its header.
    CSV writes ``None`` as "", bools as true/false and floats by repr.
    """
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(fields)
        for row in payload[rows]:
            writer.writerow(
                [str(v).lower() if isinstance(v, bool) else v for v in map(row.get, fields)]
            )
    else:
        text()


def _resolve_function(args):
    if args.expr is not None:
        return from_expression(args.expr)
    return get_function(args.function)


def _resolve_x0(args, f) -> str:
    if args.x0 is not None:
        return args.x0
    if f.default_x0 is not None:
        return f.default_x0
    raise ValueError("--x0 is required when solving an --expr")


# -- solve --------------------------------------------------------------


def _solve_text(kind, f, x0, trace, ctx):
    print(f"{kind.label()} on {f.name} from x0 = {x0} at {ctx.bits} bits")
    print(f"{'n':>4}  {'x':<15}  {'|f(x)|':<15}")
    for n, t in enumerate(trace.iterates):
        print(f"{n:>4}  {ctx.paper_str(t.x):<15}  {ctx.paper_str(abs(t.fx)):<15}")
    # A run that stops while evaluating x0 has no iterate to count from.
    steps = max(len(trace.iterates) - 1, 0)
    jets = f", {_count(trace.jet_call_total, 'jet call')}" if trace.jet_call_total else ""
    print(
        f"status: {trace.status} after {_count(steps, 'iteration')} "
        f"({_count(trace.f_call_total, 'f-call')}{jets})"
    )
    if trace.detail:
        print(f"detail: {trace.detail}")


def cmd_solve(args) -> int:
    ctx = PrecisionContext(args.precision_bits)
    f = _resolve_function(args)
    kind = MethodKind(args.method, args.theta)
    x0 = _resolve_x0(args, f)
    cfg = SolveConfig(
        max_iterations=args.max_iterations,
        fixed_iterations=args.iterations,
        f_tolerance=args.tol,
    )
    trace = solve(kind, f, ctx.mpf(x0), cfg, ctx)
    payload = {
        "method": kind.label(),
        "function": f.name,
        "x0": x0,
        "precision_bits": ctx.bits,
        "status": trace.status,
        "detail": trace.detail,
        "f_call_total": trace.f_call_total,
        "jet_call_total": trace.jet_call_total,
        "iterates": [
            {"n": n, "x": ctx.full_str(t.x), "fx": ctx.full_str(t.fx)}
            for n, t in enumerate(trace.iterates)
        ],
    }
    fields = ("n", "x", "fx")  # named, not read off the rows: a run can stop before x0
    _write(args.fmt, payload, "iterates", fields, lambda: _solve_text(kind, f, x0, trace, ctx))
    return 0 if trace.status in SUCCESS_STATUSES else 1


# -- bench --------------------------------------------------------------


def _bench_text(report, threshold, ctx):
    header = (
        f"{'table':>5}  {'method':<11}  {'fn':<3}  {'paper':<13}  "
        f"{'computed':<13}  {'dlog':>7}  {'status':<22}  match"
    )
    print(header)
    for r in report.records:
        disc = "n/a" if r.log10_discrepancy is None else f"{float(r.log10_discrepancy):+7.2f}"
        print(
            f"{r.cell.table_id:>5}  {r.cell.method:<11}  {r.cell.function:<3}  "
            f"{r.cell.paper_value:<13}  {ctx.paper_str(r.computed_value):<13}  "
            f"{disc:>7}  {r.status:<22}  {'yes' if r.match else 'NO'}"
        )
    if report.diagnostics:
        print()
        print("mismatched cells:")
        for diag in report.diagnostics:
            c = diag.cell
            print(f"  table {c.table_id} {c.method} on {c.function}: paper {c.paper_value}")
            for n, disc in diag.better_counts:
                print(f"    closer at {_count(n, 'iteration')} (dlog {float(disc):+.2f})")
            for tag, disc in diag.alt_methods:
                print(f"    same-table agreement: {tag} computed matches this cell (dlog {float(disc):+.2f})")
            if not diag.better_counts and not diag.alt_methods:
                print("    no nearby iteration count or sibling method agrees")
    verdict = "PASS" if report.match_rate >= threshold else "FAIL"
    print()
    print(
        f"matched {report.matched}/{report.total} cells "
        f"({100 * report.match_rate:.1f}%); threshold {100 * threshold:.1f}%: {verdict}"
    )


def cmd_bench(args) -> int:
    ctx = PrecisionContext(args.precision_bits)
    if not 0 <= args.threshold <= 1:
        raise ValueError(f"--threshold must be in [0, 1], got {args.threshold}")
    report = run_benchmark(
        ctx,
        tables=args.table,
        methods=args.method,
        functions=args.function,
        tolerance_orders=args.tolerance_orders,
        # CSV has no place for the diagnostics.
        with_diagnostics=args.fmt != "csv",
    )
    if not report.records:
        raise ValueError("selection matches no reference cells")
    payload = {
        "records": [
            {
                "table": r.cell.table_id,
                "method": r.cell.method,
                "function": r.cell.function,
                "x0": r.cell.x0,
                "paper_value": r.cell.paper_value,
                "computed_value": ctx.full_str(r.computed_value),
                "log10_discrepancy": None
                if r.log10_discrepancy is None
                else float(r.log10_discrepancy),
                "status": r.status,
                "match": r.match,
            }
            for r in report.records
        ],
        "diagnostics": [
            {
                "table": d.cell.table_id,
                "method": d.cell.method,
                "function": d.cell.function,
                "better_counts": [[n, float(disc)] for n, disc in d.better_counts],
                "alt_methods": [[tag, float(disc)] for tag, disc in d.alt_methods],
            }
            for d in report.diagnostics
        ],
        "matched": report.matched,
        "total": report.total,
        "match_rate": report.match_rate,
        "threshold": args.threshold,
    }
    fields = list(payload["records"][0])
    _write(args.fmt, payload, "records", fields, lambda: _bench_text(report, args.threshold, ctx))
    return 0 if report.match_rate >= args.threshold else 1


# -- coc and constant ---------------------------------------------------


def _analysis_run(kind, f, x0, seed, iterations, ctx):
    """Run ``iterations`` steps from x0, then refine f's root from ``seed`` for it.

    The run comes first, so a step count that ``solve`` refuses costs no refinement.
    """
    trace = solve(kind, f, ctx.mpf(x0), SolveConfig(fixed_iterations=iterations), ctx)
    return trace._replace(root=refine_root(f, seed, ctx))


def cmd_coc(args) -> int:
    ctx = PrecisionContext(args.precision_bits)
    f = get_function(args.function)
    kind = MethodKind(args.method, args.theta)
    x0 = _resolve_x0(args, f)
    trace = _analysis_run(kind, f, x0, f.reference_root, args.iterations, ctx)
    est = coc(trace, ctx)
    print(
        f"coc for {kind.label()} on {f.name} from x0 = {x0} "
        f"at {ctx.bits} bits ({args.iterations} iterations, status {trace.status})"
    )
    for i, rho in enumerate(est.per_step, start=1):
        print(f"  rho[{i}] = {ctx.nstr(rho, 5)}")
    print(f"final rho = {ctx.nstr(est.final, 5)} from {est.usable_steps} usable steps")
    print(f"claimed order: {claimed_order(kind)}")
    return 0


def cmd_constant(args) -> int:
    ctx = PrecisionContext(args.precision_bits)
    f = _resolve_function(args)
    seed = args.x0 if args.x0 is not None else (f.default_x0 or "0.1")
    trace = _analysis_run(MethodKind("mkdf"), f, seed, seed, args.iterations, ctx)
    report = error_constant(f, ctx, trace=trace)
    print(f"error constant report for {f.name} ({f.source}), method mkdf")
    print(f"refined root = {ctx.nstr(trace.root, 30)}")
    for k, ck in enumerate(report.c, start=1):
        print(f"  c{k} = {ctx.paper_str(ck)}")
    print(f"formula value = {ctx.paper_str(report.formula_value)}")
    rendered = ", ".join(ctx.paper_str(r) for r in report.empirical_ratios)
    print(f"empirical e(n+1)/e(n)^{METHODS['mkdf'].order} ratios: {rendered or 'none usable'}")
    if report.agreement is None:
        print("agreement |empirical/formula|: n/a")
    else:
        print(f"agreement |empirical/formula|: {ctx.nstr(report.agreement, 5)}")
    return 0


# -- list ---------------------------------------------------------------


def cmd_list(args) -> int:
    print("methods (benchmark tables use the first seven):")
    for tag, method in METHODS.items():
        marker = "table" if method.in_tables else "extra"
        print(f"  {tag:<11}  claimed order {method.order}  [{marker}]")
    print()
    print("built-in functions:")
    for name in FUNCTION_NAMES:
        f = BUILTINS[name]
        print(f"  {name}: {f.source}   x0 = {f.default_x0}, root ~ {f.reference_root}")
    return 0


# -- parser -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--precision-bits",
        type=_INT,
        default=DEFAULT_BITS,
        metavar="BITS",
        help=f"working precision in bits (default {DEFAULT_BITS})",
    )

    parser = argparse.ArgumentParser(
        prog="stefbench",
        description="Derivative-free root finding: solver, benchmark, and order diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve", parents=[shared], help="run one method from one point")
    p.add_argument("--method", required=True, choices=METHOD_TAGS)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--function", choices=FUNCTION_NAMES)
    target.add_argument("--expr", help="expression in x, e.g. 'x^2 - 2'")
    p.add_argument("--x0", help="starting point (default: the built-in's table value)")
    p.add_argument(
        "--iterations",
        type=_INT,
        help=f"run N steps (N <= {MAX_STEPS}), fewer if |f| reaches the convergence floor",
    )
    p.add_argument("--tol", help="residual tolerance (default: the convergence floor)")
    p.add_argument(
        "--max-iterations",
        type=_INT,
        help=f"step limit in tolerance mode (default {MAX_ITERATIONS})",
    )
    p.add_argument("--theta", help=THETA_HELP)
    p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", parents=[shared], help="replay the reference tables")
    p.add_argument("--table", type=_INT, action="append", help="table id 2..8 (repeatable)")
    p.add_argument("--method", action="append", choices=TABLE_METHODS)
    p.add_argument("--function", action="append", choices=FUNCTION_NAMES)
    p.add_argument("--output", dest="fmt", choices=("text", "csv", "json"), default="text")
    p.add_argument(
        "--tolerance-orders",
        type=_FLOAT,
        default=DEFAULT_TOLERANCE_ORDERS,
        help="orders of magnitude within which a cell counts as matched",
    )
    p.add_argument(
        "--threshold",
        type=_FLOAT,
        default=0.8,
        help="minimum match rate for exit code 0",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("coc", parents=[shared], help="computational order of convergence")
    p.add_argument("--method", required=True, choices=METHOD_TAGS)
    p.add_argument("--function", required=True, choices=FUNCTION_NAMES)
    p.add_argument("--x0", help="starting point (default: the table value)")
    p.add_argument("--iterations", type=_INT, default=ANALYSIS_ITERATIONS)
    p.add_argument("--theta", help=THETA_HELP)
    p.set_defaults(func=cmd_coc)

    p = sub.add_parser("constant", parents=[shared], help="error-constant report (mkdf)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--function", choices=FUNCTION_NAMES)
    target.add_argument("--expr", help="expression in x with a root near --x0")
    p.add_argument("--x0", help="root seed (default: table value, or 0.1 for --expr)")
    p.add_argument("--iterations", type=_INT, default=ANALYSIS_ITERATIONS)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("list", help="enumerate methods and functions")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so a closed pipe raises inside this try.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StefbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
