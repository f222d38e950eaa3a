"""Acceptance suite.

One test per acceptance criterion, in order. Every test prints a single
verdict line (run pytest with -s to see them all; failing tests show
theirs in the captured-output section). Tolerances are stated inline and
asserted as written.

One check, criterion 01, is expected to fail against the bundled
reference data: 27 of the 49 published cells are not reproduced by a
three-step replay of the method filed under their label. Most of them
follow from which formula each Dehghan label is bound to, which the
printed labels and formulas do not settle; the rest are properties of the
data (a binary64 floor, a starting residual, cordero cells of unknown
origin). The README lists them, and tests/test_reference.py reproduces
the figures. The check is kept honest rather than loosened: it computes
everything, prints its verdict, and asserts the published requirement
last. Criterion 02 passes: the one published cell among its anchors that
no three-step replay reaches is the starting residual |f(x0)|, and it is
checked as such.
"""

import random
import time

import pytest

from stefbench import (
    BUILTINS,
    CONVERGED,
    DENOMINATOR_BREAKDOWN,
    DIVERGED,
    DOMAIN_ERROR,
    FIXED_COUNT_COMPLETED,
    MAX_ITERATIONS_REACHED,
    MethodKind,
    SolveConfig,
    coc,
    cordero_step,
    dehghan1_step,
    dehghan2_step,
    dehghan3_step,
    error_constant,
    jain_step,
    kou_fd_step,
    kou_step,
    mkdf_step,
    run_benchmark,
    solve,
    steffensen_step,
)
from stefbench.precision import PrecisionContext
from stencil import stencil_coefficients

DOCUMENTED_STATUSES = {
    CONVERGED,
    FIXED_COUNT_COMPLETED,
    MAX_ITERATIONS_REACHED,
    DENOMINATOR_BREAKDOWN,
    DIVERGED,
    DOMAIN_ERROR,
}

FUNCTIONS = tuple(sorted(BUILTINS))


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _convergent(trace, ctx):
    return trace.status == CONVERGED or abs(trace.final.fx) < ctx.mpf("1e-40")


def _order_trace(tag, name, ctx, roots, theta=None):
    kind = MethodKind(tag, theta) if theta is not None else MethodKind(tag)
    f = BUILTINS[name]
    return solve(
        kind, f, ctx.mpf(f.default_x0), SolveConfig(fixed_iterations=8), ctx,
        reference_root=roots[name],
    )


def test_criterion_01_reference_table_match_rate(ctx):
    started = time.perf_counter()
    report = run_benchmark(ctx)
    elapsed = time.perf_counter() - started
    mismatched = {(r.cell.table_id, r.cell.method) for r in report.records if not r.match}
    diagnosed = {(d.cell.table_id, d.cell.method) for d in report.diagnostics}
    rate = report.match_rate
    ok = elapsed < 10.0 and diagnosed == mismatched and rate >= 0.8
    _verdict(
        1,
        "reference table match rate",
        ok,
        f"{report.matched}/{report.total} cells within 2 orders, rate {rate:.3f} "
        f"vs 0.80 required, {elapsed:.2f}s, {len(diagnosed)} mismatches diagnosed",
    )
    assert elapsed < 10.0
    assert diagnosed == mismatched
    assert rate >= 0.8


def test_criterion_02_published_residual_anchors(ctx):
    report = run_benchmark(ctx, with_diagnostics=False)
    by_key = {(r.cell.table_id, r.cell.method): r for r in report.records}
    steff_f6 = by_key[(7, "steffensen")]
    dehghan1_f5 = by_key[(6, "dehghan1")]
    statuses_ok = all(r.status in DOCUMENTED_STATUSES for r in report.records)
    steff_ok = abs(steff_f6.log10_discrepancy) <= 2
    # The published dehghan1/f5 value 0.43288e+0 is |f5(x0)|, the residual
    # before any step, so it anchors the cell's starting point and is held
    # to half a unit in its fifth printed digit. Reading it that way needs
    # the replay to have left x0: a breakdown in the first step would end
    # the trace at x0 and make 0.43288e+0 a genuine three-step outcome.
    cell = dehghan1_f5.cell
    start = abs(BUILTINS[cell.function](ctx.mpf(cell.x0), ctx))
    start_gap = abs(start - ctx.mpf(cell.paper_value))
    start_ok = start_gap <= ctx.mpf("5e-6")
    completed = dehghan1_f5.status == FIXED_COUNT_COMPLETED
    _verdict(
        2,
        "published residual anchors",
        statuses_ok and steff_ok and start_ok and completed,
        f"steffensen/f6 dlog {float(steff_f6.log10_discrepancy):+.2f}; "
        f"dehghan1/f5 paper {cell.paper_value} vs |f(x0)| {ctx.nstr(start, 8)}, "
        f"gap {ctx.nstr(start_gap, 3)} vs 5e-6 allowed, three-step replay "
        f"{dehghan1_f5.status}, dlog {float(dehghan1_f5.log10_discrepancy):+.2f}; "
        f"statuses documented: {statuses_ok}",
    )
    assert statuses_ok
    assert steff_ok
    assert start_ok
    assert completed


def test_criterion_03_fourth_order_convergence(ctx, roots):
    failures = []
    finals = []
    for tag, theta in (("mkdf", None), ("cordero", None), ("kou", -1)):
        for name in FUNCTIONS:
            trace = _order_trace(tag, name, ctx, roots, theta)
            rho = coc(trace, ctx).final
            finals.append(rho)
            if not _convergent(trace, ctx) or not 3.5 <= rho <= 4.5:
                failures.append(f"{tag}/{name} rho {ctx.nstr(rho, 5)} status {trace.status}")
    ok = not failures
    _verdict(
        3,
        "fourth order convergence",
        ok,
        f"21 runs, rho in [{ctx.nstr(min(finals), 5)}, {ctx.nstr(max(finals), 5)}]"
        + ("" if ok else "; " + "; ".join(failures)),
    )
    assert not failures


def test_criterion_04_kou_forward_difference_order(ctx, roots):
    in_band = []
    out_of_band = []
    for name in FUNCTIONS:
        trace = _order_trace("kou_fd", name, ctx, roots)
        if not _convergent(trace, ctx):
            out_of_band.append(f"{name} non-convergent")
            continue
        rho = coc(trace, ctx).final
        if 2.5 <= rho <= 3.5:
            in_band.append(name)
        else:
            out_of_band.append(f"{name} rho {ctx.nstr(rho, 5)}")
    ok = len(in_band) >= 5
    _verdict(
        4,
        "kou forward difference order",
        ok,
        f"{len(in_band)}/7 functions in [2.5, 3.5] (need 5); excluded: "
        + ("; ".join(out_of_band) or "none"),
    )
    assert len(in_band) >= 5


def test_criterion_05_lower_order_methods(ctx, roots):
    bands = {
        "steffensen": (1.5, 2.5),
        "jain": (2.5, 3.5),
        "dehghan1": (2.5, 3.5),
        "dehghan2": (2.5, 3.5),
    }
    failures = []
    counts = {}
    for tag, (lo, hi) in bands.items():
        convergent = 0
        for name in FUNCTIONS:
            trace = _order_trace(tag, name, ctx, roots)
            if not _convergent(trace, ctx):
                continue
            convergent += 1
            rho = coc(trace, ctx).final
            if not lo <= rho <= hi:
                failures.append(f"{tag}/{name} rho {ctx.nstr(rho, 5)}")
        counts[tag] = convergent
        if convergent < 5:
            failures.append(f"{tag} only {convergent} convergent runs")
    ok = not failures
    _verdict(
        5,
        "lower order methods",
        ok,
        "convergent runs "
        + ", ".join(f"{tag} {n}/7" for tag, n in counts.items())
        + ("" if ok else "; " + "; ".join(failures)),
    )
    assert not failures


def test_criterion_06_affine_one_step_exactness(ctx):
    kernels = (
        steffensen_step,
        jain_step,
        dehghan1_step,
        dehghan2_step,
        cordero_step,
        mkdf_step,
        kou_fd_step,
    )
    rng = random.Random(20210 + 6)
    checked = 0
    failures = []
    while checked < 200:
        exponent = rng.randint(-3, 3)
        a = ctx.mpf(rng.choice((-1, 1))) * ctx.mpf(2) ** exponent
        b = ctx.mpf(rng.randint(-(2**20), 2**20)) / ctx.mpf(2) ** rng.randint(0, 10)
        x0 = ctx.mpf(rng.randint(-(2**10), 2**10)) / ctx.mpf(2) ** rng.randint(0, 6)
        if a * x0 + b == 0:
            continue
        root = -b / a

        def f(x, c, a=a, b=b):
            return a * x + b

        for step in kernels:
            got = step(f, x0, f(x0, ctx), ctx)
            if got != root:
                failures.append(f"{step.__name__} a={a} b={b} x0={x0}")
        for theta in (-1, 1, 2):
            got = kou_step(f, x0, f(x0, ctx), theta, a, ctx)
            if got != root:
                failures.append(f"kou theta={theta} a={a} b={b} x0={x0}")
        checked += 1
    probe = dehghan3_step(lambda x, c: x, ctx.mpf(1), ctx.mpf(1), ctx)
    if probe != ctx.mpf(3) / 4:
        failures.append(f"dehghan3 identity probe gave {ctx.nstr(probe, 10)}")
    ok = not failures
    _verdict(
        6,
        "affine one step exactness",
        ok,
        f"{checked} seeded problems x 10 kernels bit-exact"
        + ("" if ok else f"; first failures: {failures[:3]}"),
    )
    assert not failures


def test_criterion_07_mkdf_equals_kou_theta_minus_one(ctx, roots):
    rng = random.Random(20210 + 7)
    failures = []
    for i in range(50):
        name = FUNCTIONS[i % len(FUNCTIONS)]
        f = BUILTINS[name]
        root = roots[name]
        delta = ctx.mpf(rng.choice((-1, 1)) * rng.randint(1, 1024)) / ctx.mpf(2) ** 20
        x = root * (1 + delta)
        fx = f(x, ctx)
        slope = (f(x + fx, ctx) - f(x - fx, ctx)) / (2 * fx)
        via_kou = kou_step(f, x, fx, -1, slope, ctx)
        via_mkdf = mkdf_step(f, x, fx, ctx)
        if via_mkdf != via_kou:
            failures.append(f"{name} delta {ctx.nstr(delta, 5)}")
    ok = not failures
    _verdict(
        7,
        "mkdf equals kou at theta -1",
        ok,
        "50 near-root points bit-identical on the next iterate"
        + ("" if ok else "; " + "; ".join(failures[:3])),
    )
    assert not failures


def test_criterion_08_error_constant_ratios(ctx, roots):
    failures = []
    details = []
    for name in ("f1", "f3", "f7"):
        f = BUILTINS[name]
        trace = solve(
            "mkdf", f, ctx.mpf(f.default_x0), SolveConfig(fixed_iterations=6), ctx,
            reference_root=roots[name],
        )
        report = error_constant(f, ctx, trace=trace)
        ratios = report.empirical_ratios
        if len(ratios) < 2:
            failures.append(f"{name} only {len(ratios)} usable ratios")
            continue
        drift = abs(ratios[-1] - ratios[-2]) / abs(ratios[-1])
        details.append(
            f"{name} ratio {ctx.nstr(ratios[-1], 5)} drift {ctx.nstr(drift, 3)} "
            f"formula {ctx.nstr(report.formula_value, 5)}"
        )
        if drift > ctx.mpf("0.15"):
            failures.append(f"{name} drift {ctx.nstr(drift, 5)}")
    ok = not failures
    _verdict(8, "error constant ratios", ok, "; ".join(details + failures))
    assert not failures


def test_criterion_09_verdicts_stable_across_precision(ctx):
    def verdicts(bits):
        report = run_benchmark(PrecisionContext(bits), with_diagnostics=False)
        return {(r.cell.table_id, r.cell.method): r.match for r in report.records}

    at_512 = verdicts(512)
    at_1024 = verdicts(1024)
    differing = [k for k in at_512 if at_512[k] != at_1024.get(k)]
    ok = at_512 == at_1024
    _verdict(
        9,
        "verdicts stable across precision",
        ok,
        f"{len(at_512)} cells at 512 vs 1024 bits"
        + ("" if ok else f"; differing: {differing}"),
    )
    assert at_512 == at_1024


def test_criterion_10_stencil_matches_jets(ctx, roots):
    worst = ctx.mpf(0)
    failures = []
    for name in FUNCTIONS:
        f = BUILTINS[name]
        jet = f.eval_jet(roots[name], 4, ctx)
        stencil = stencil_coefficients(f, roots[name], ctx)
        for k, approx in enumerate(stencil, start=1):
            rel = abs(approx - jet[k]) / abs(jet[k])
            worst = max(worst, rel)
            if rel > ctx.mpf("1e-10"):
                failures.append(f"{name} c{k} rel {ctx.nstr(rel, 3)}")
    ok = not failures
    _verdict(
        10,
        "stencil matches jets",
        ok,
        f"worst relative difference {ctx.nstr(worst, 3)} vs 1e-10 allowed"
        + ("" if ok else "; " + "; ".join(failures)),
    )
    assert not failures
