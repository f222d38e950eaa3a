"""Driver behaviour: termination statuses, call accounting, trace data,
and root refinement."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expr import _ast_strategy

from stefbench import (
    BUILTINS,
    CONVERGED,
    DENOMINATOR_BREAKDOWN,
    DIVERGED,
    DOMAIN_ERROR,
    DomainError,
    FIXED_COUNT_COMPLETED,
    MAX_ITERATIONS_REACHED,
    METHOD_TAGS,
    IterationTrace,
    MethodKind,
    RefinementError,
    SUCCESS_STATUSES,
    SolveConfig,
    TraceEntry,
    from_expression,
    refine_root,
    solve,
)
from stefbench.driver import MAX_ITERATIONS, MAX_STEPS, _rungs
from stefbench.expr import unparse
from stefbench.methods import METHODS
from stefbench.precision import PrecisionContext


# -- termination statuses ---------------------------------------------------


def test_diverges_on_flat_functions_far_from_any_root(ctx):
    trace = solve("steffensen", from_expression("arctan(x)"), ctx.mpf(3), SolveConfig(), ctx)
    assert trace.status == DIVERGED
    assert abs(trace.final.x) > ctx.mpf("1e10")


def _nan_above_five(x, c):
    return c.mp.nan if x > 5 else x * x - 2


@pytest.mark.parametrize(
    "tag, cfg",
    [("steffensen", SolveConfig()), ("mkdf", SolveConfig(fixed_iterations=3))],
    ids=["tolerance", "fixed"],
)
def test_a_nan_iterate_diverges(tag, cfg):
    # |nan| > bound is False, so a bound test that only asks that would let
    # the run go on: to max_iterations_reached, or to a "completed" x = nan.
    ctx = PrecisionContext(128)
    trace = solve(tag, _nan_above_five, ctx.mpf(100), cfg, ctx)
    assert trace.status == DIVERGED
    assert trace.detail == "x_1 is NaN"
    assert len(trace.iterates) == 2 and ctx.mp.isnan(trace.final.x)


def test_domain_error_during_a_step(ctx):
    # From 0.5 the first probe point is 0.5 + ln(0.5) < 0.
    trace = solve("steffensen", from_expression("ln(x)"), ctx.mpf("0.5"), SolveConfig(), ctx)
    assert trace.status == DOMAIN_ERROR
    assert len(trace.iterates) == 1
    assert trace.f_call_total == 2


def test_domain_error_at_the_starting_point(ctx):
    trace = solve("steffensen", from_expression("ln(x)"), ctx.mpf(-1), SolveConfig(), ctx)
    assert trace.status == DOMAIN_ERROR
    assert trace.iterates == []
    assert trace.f_call_total == 1


def test_breakdown_is_a_status_not_an_exception(ctx):
    trace = solve("mkdf", from_expression("x^2 + 1"), ctx.mpf(0), SolveConfig(), ctx)
    assert trace.status == DENOMINATOR_BREAKDOWN
    assert len(trace.iterates) == 1
    assert trace.f_call_total == 3
    assert trace.detail.startswith("denominator f(x+f(x)) - f(x-f(x)) fell below")


def test_the_trace_keeps_the_domain_error_message(ctx):
    trace = solve("steffensen", from_expression("ln(x)"), ctx.mpf("0.5"), SolveConfig(), ctx)
    assert trace.status == DOMAIN_ERROR
    assert trace.detail.startswith("ln of non-positive value")


def test_clean_runs_carry_no_detail(ctx):
    trace = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(), ctx)
    assert trace.status == CONVERGED
    assert trace.detail is None


def test_max_iterations_reached(ctx):
    cfg = SolveConfig(max_iterations=5)
    trace = solve("steffensen", BUILTINS["f6"], ctx.mpf(1), cfg, ctx)
    assert trace.status == MAX_ITERATIONS_REACHED
    assert len(trace.iterates) == 6


def test_starting_at_the_root_short_circuits(ctx):
    trace = solve(
        "mkdf",
        from_expression("x*(x^2 + 1)"),
        ctx.mpf(0),
        SolveConfig(),
        ctx,
        reference_root=ctx.mpf(0),
    )
    assert trace.status == CONVERGED
    assert len(trace.iterates) == 1
    assert trace.f_call_total == 1
    assert trace.errors() == [0]


_STATUSES = {
    CONVERGED,
    FIXED_COUNT_COMPLETED,
    MAX_ITERATIONS_REACHED,
    DENOMINATOR_BREAKDOWN,
    DIVERGED,
    DOMAIN_ERROR,
}


@settings(max_examples=600, deadline=None)
@given(
    ast=_ast_strategy(),
    x0=st.floats(-4, 4),
    tag=st.sampled_from(METHOD_TAGS),
    cfg=st.sampled_from([SolveConfig(fixed_iterations=3), SolveConfig(max_iterations=8)]),
)
def test_every_run_ends_in_a_documented_status(ast, x0, tag, cfg):
    ctx = PrecisionContext(64)
    trace = solve(tag, from_expression(unparse(ast)), x0, cfg, ctx)
    assert trace.status in _STATUSES
    steps = cfg.fixed_iterations or cfg.max_iterations
    assert trace.f_call_total <= 1 + steps * METHODS[tag].evals
    if trace.status in SUCCESS_STATUSES:
        assert ctx.mp.isfinite(trace.final.x)


# -- fixed-count mode ---------------------------------------------------------


def test_fixed_mode_runs_exactly_n_steps(ctx):
    trace = solve("mkdf", BUILTINS["f1"], ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    assert trace.status == FIXED_COUNT_COMPLETED
    assert len(trace.iterates) == 4
    # 1 starting residual + 3 steps * 4 evaluations, f(x_n) included.
    assert trace.f_call_total == 13


def test_fixed_mode_call_count_scales_with_the_kernel(ctx):
    trace = solve("steffensen", BUILTINS["f1"], ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    assert trace.f_call_total == 7


def test_fixed_mode_still_stops_at_the_convergence_floor(ctx):
    # Differencing pure roundoff would only manufacture breakdowns, so a
    # residual at the floor ends the run early even in benchmark mode.
    trace = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(fixed_iterations=8), ctx)
    assert trace.status == CONVERGED
    assert len(trace.iterates) == 5


def test_each_point_is_evaluated_once(ctx):
    # The kernel receives f(x_n) from the trace instead of recomputing it,
    # so every f-call lands on a distinct point.
    seen = []

    def f(x, c):
        seen.append(x)
        return BUILTINS["f1"](x, c)

    solve("mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    assert len(seen) == len(set(seen)) == 13


@pytest.mark.parametrize(
    "tag, expr, x0, stop",
    [
        # breaks down in step 4, after x_3 was completed
        ("mkdf", "ln(x) - 1", "1.5", DENOMINATOR_BREAKDOWN),
        # leaves the domain in step 5, after x_4 was completed
        ("dehghan3", "ln(x)", "5", DOMAIN_ERROR),
        # reaches the convergence floor at step 4
        ("mkdf", "cos(x) - x", "1", CONVERGED),
    ],
)
def test_one_more_step_from_a_completed_run_continues_it(tag, expr, x0, stop):
    # The replay's rule for n + 1 steps: a completed n-step run takes one
    # more fixed step from x_n; any other status means it already stopped,
    # so its final |f| is the longer run's too.
    ctx = PrecisionContext(128)
    f = from_expression(expr)
    stopped = set()
    for n in range(1, 6):
        run = solve(tag, f, ctx.mpf(x0), SolveConfig(fixed_iterations=n), ctx)
        longer = solve(tag, f, ctx.mpf(x0), SolveConfig(fixed_iterations=n + 1), ctx)
        if run.status == FIXED_COUNT_COMPLETED:
            run = solve(tag, f, run.final.x, SolveConfig(fixed_iterations=1), ctx)
        else:
            stopped.add(run.status)
        assert abs(run.final.fx) == abs(longer.final.fx), n
    assert stopped == {stop}


def test_jet_calls_are_counted_apart_from_f_calls(ctx):
    cfg = SolveConfig(fixed_iterations=1)
    kou = solve("kou", BUILTINS["f3"], ctx.mpf(1), cfg, ctx)
    assert (kou.f_call_total, kou.jet_call_total) == (1 + 2, 1)
    mkdf = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), cfg, ctx)
    assert (mkdf.f_call_total, mkdf.jet_call_total) == (1 + 4, 0)


def test_benchmark_anchor_residuals(ctx):
    # Two spot values pinned from independent high-precision runs of the
    # same formulas; they also back the cross-method benchmark diagnostics.
    f3 = BUILTINS["f3"]
    trace = solve("dehghan2", f3, ctx.mpf(f3.default_x0), SolveConfig(fixed_iterations=3), ctx)
    assert abs(abs(trace.final.fx) - ctx.mpf("1.7099183e-24")) < ctx.mpf("1e-30")
    f1 = BUILTINS["f1"]
    trace = solve("cordero", f1, ctx.mpf(f1.default_x0), SolveConfig(fixed_iterations=3), ctx)
    assert abs(abs(trace.final.fx) - ctx.mpf("1.3108805e-43")) < ctx.mpf("1e-49")


# -- tolerance mode ------------------------------------------------------------


def test_tolerance_mode_stops_at_the_first_passing_residual(ctx):
    cfg = SolveConfig(f_tolerance="1e-6")
    trace = solve("steffensen", BUILTINS["f3"], ctx.mpf(1), cfg, ctx)
    assert trace.status == CONVERGED
    assert len(trace.iterates) == 4
    assert abs(trace.iterates[-1].fx) <= ctx.mpf("1e-6")
    assert abs(trace.iterates[-2].fx) > ctx.mpf("1e-6")


def test_default_tolerance_is_the_convergence_floor(ctx):
    trace = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(), ctx)
    assert trace.status == CONVERGED
    assert abs(trace.final.fx) <= ctx.convergence_floor


def test_far_field_start_still_converges(ctx):
    # From 1e9 the iterates contract steadily back into the basin; the run
    # is slow but legitimate, so it must be reported as convergence.
    trace = solve("mkdf", BUILTINS["f1"], ctx.mpf("1e9"), SolveConfig(), ctx)
    assert trace.status == CONVERGED
    assert len(trace.iterates) == 22


# -- config validation ----------------------------------------------------------


def test_tolerance_mode_defaults_to_max_iterations(ctx):
    assert SolveConfig().max_iterations is None
    trace = solve("mkdf", from_expression("x^2 + 1"), ctx.mpf(1), SolveConfig(), ctx)
    assert trace.status == MAX_ITERATIONS_REACHED
    assert len(trace.iterates) == 1 + MAX_ITERATIONS


def test_max_iterations_with_fixed_iterations_is_rejected(ctx):
    # A fixed-count run takes its own step count; a step limit beside it
    # would be silently ignored.
    cfg = SolveConfig(fixed_iterations=3, max_iterations=1)
    with pytest.raises(ValueError, match="max_iterations does not apply to a fixed-count run"):
        solve("mkdf", BUILTINS["f1"], ctx.mpf(1), cfg, ctx)


def test_config_validation(ctx):
    f = BUILTINS["f3"]
    with pytest.raises(ValueError):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=0), ctx)
    with pytest.raises(ValueError):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(max_iterations=0), ctx)
    # Step counts are bounded as precision is, before any step is taken.
    assert MAX_STEPS == 10_000
    for field in ("fixed_iterations", "max_iterations"):
        cfg = SolveConfig(**{field: MAX_STEPS + 1})
        with pytest.raises(ValueError, match=f"^{field} must be at most 10000, got 10001$"):
            solve("mkdf", f, ctx.mpf(1), cfg, ctx)
        # The bound itself is a valid count; this run stops at the floor.
        trace = solve("mkdf", f, ctx.mpf(1), SolveConfig(**{field: MAX_STEPS}), ctx)
        assert trace.status == CONVERGED
    with pytest.raises(ValueError):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(f_tolerance="1e-200"), ctx)
    # A fixed-count run has no tolerance to stop at.
    with pytest.raises(ValueError, match="fixed-count"):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=3, f_tolerance="1e-3"), ctx)


@pytest.mark.parametrize(
    "bad", [pytest.param(float(v), id=v) for v in ("nan", "inf", "-inf", "1e400")]
)
def test_non_finite_start_and_tolerance_are_rejected(ctx, bad):
    f = BUILTINS["f3"]
    with pytest.raises(ValueError, match="x0 must be finite"):
        solve("mkdf", f, bad, SolveConfig(), ctx)
    with pytest.raises(ValueError, match="f_tolerance must be finite"):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(f_tolerance=bad), ctx)


# -- trace data -------------------------------------------------------------------


def test_errors_require_a_reference_root(ctx, roots):
    f = BUILTINS["f1"]
    cfg = SolveConfig(fixed_iterations=3)
    without = solve("mkdf", f, ctx.mpf(1), cfg, ctx)
    assert without.errors() is None
    assert len(without.iterates) == 4
    with_root = solve("mkdf", f, ctx.mpf(1), cfg, ctx, reference_root=roots["f1"])
    errs = with_root.errors()
    assert errs is not None
    assert errs == sorted(errs, reverse=True)
    assert errs[3] < ctx.mpf("1e-20")


TRACE_FIELDS = ("iterates", "status", "f_call_total", "jet_call_total", "detail", "root")


@pytest.mark.parametrize("field", TRACE_FIELDS)
def test_a_solved_trace_cannot_be_assigned(ctx, field):
    trace = solve("mkdf", BUILTINS["f1"], ctx.mpf(1), SolveConfig(fixed_iterations=2), ctx)
    with pytest.raises(AttributeError):
        setattr(trace, field, getattr(trace, field))


def test_a_solved_trace_is_its_fields(ctx, roots):
    cfg = SolveConfig(fixed_iterations=2)
    trace = solve("kou", BUILTINS["f3"], ctx.mpf(1), cfg, ctx, reference_root=roots["f3"])
    assert trace == IterationTrace(*trace)
    assert trace._fields == TRACE_FIELDS


def test_a_trace_can_be_built_by_keyword(ctx):
    entries = [TraceEntry(ctx.mpf(1), ctx.mpf(1)), TraceEntry(ctx.mpf(0), ctx.mpf(0))]
    trace = IterationTrace(iterates=entries, status=CONVERGED, f_call_total=0, root=0)
    assert trace.final == entries[-1]
    assert trace.errors() == [1, 0]
    assert trace.jet_call_total == 0
    assert trace.detail is None
    assert IterationTrace().iterates == ()


def test_method_accepts_tag_or_kind(ctx):
    cfg = SolveConfig(fixed_iterations=2)
    a = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), cfg, ctx)
    b = solve(MethodKind("mkdf"), BUILTINS["f3"], ctx.mpf(1), cfg, ctx)
    assert [t.x for t in a.iterates] == [t.x for t in b.iterates]


def test_runs_are_deterministic(ctx):
    cfg = SolveConfig(fixed_iterations=4)
    a = solve("cordero", BUILTINS["f5"], ctx.mpf(1), cfg, ctx)
    b = solve("cordero", BUILTINS["f5"], ctx.mpf(1), cfg, ctx)
    assert a.status == b.status
    assert a.f_call_total == b.f_call_total
    assert [t.x for t in a.iterates] == [t.x for t in b.iterates]
    assert [t.fx for t in a.iterates] == [t.fx for t in b.iterates]


def test_iterates_agree_across_precisions(ctx):
    wide = PrecisionContext(1024)
    cfg = SolveConfig(fixed_iterations=3)
    t512 = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), cfg, ctx)
    t1024 = solve("mkdf", BUILTINS["f3"], wide.mpf(1), cfg, wide)
    bound = wide.mpf(2) ** -500
    for a, b in zip(t512.iterates, t1024.iterates):
        assert abs(wide.mpf(a.x) - b.x) < bound


def test_kou_theta_one_with_jet_slope_converges(ctx):
    trace = solve(MethodKind("kou", 1), BUILTINS["f3"], ctx.mpf(1), SolveConfig(), ctx)
    assert trace.status == CONVERGED
    assert len(trace.iterates) == 6


# -- root refinement -----------------------------------------------------------------


def test_refined_roots_reach_the_convergence_floor(ctx, roots):
    for name, f in BUILTINS.items():
        root = roots[name]
        assert abs(f(root, ctx)) <= ctx.convergence_floor
        assert abs(root - ctx.mpf(f.reference_root)) < ctx.mpf("1e-5")


def test_refined_root_agrees_with_bisection(ctx, roots):
    # Independent oracle: 540 bisection steps on a sign bracket of f3.
    f = BUILTINS["f3"]
    lo, hi = ctx.mpf("0.73"), ctx.mpf("0.75")
    for _ in range(540):
        mid = (lo + hi) / 2
        if f(mid, ctx) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(roots["f3"] - (lo + hi) / 2) < ctx.mpf(2) ** -500


def test_refinement_fails_cleanly_without_a_root(ctx):
    with pytest.raises(RefinementError, match="ended max_iterations_reached"):
        refine_root(from_expression("x^2 + 1"), ctx.mpf(1), ctx)


def test_refinement_error_says_why_it_stopped(ctx):
    with pytest.raises(RefinementError, match="ended domain_error: sqrt of negative value"):
        refine_root(from_expression("sqrt(x) - 3"), "0.1", ctx)
    with pytest.raises(RefinementError, match="ended denominator_breakdown: denominator"):
        refine_root(from_expression("x^2 + 1"), ctx.mpf(0), ctx)


# -- the precision ladder -------------------------------------------------------------


@pytest.mark.parametrize("bits", [64, 256, 512, 768, 1024, 1792, 2048, 4096, 16384, 50000])
def test_rungs_climb_by_at_most_a_fourth_order_step(bits):
    rungs = _rungs(bits)
    if bits <= 512:
        assert rungs == []
    assert rungs == sorted(set(rungs))
    assert all(r > 256 for r in rungs)
    for r, nxt in zip(rungs, rungs[1:] + [bits]):
        assert 3 * r - 64 >= nxt


def test_rungs_of_the_documented_precisions():
    assert _rungs(2048) == [704]
    assert _rungs(4096) == [484, 1387]
    assert _rungs(16384) == [638, 1849, 5483]


@pytest.mark.parametrize(
    "name, seed, bits",
    # Each broke down at fixed precision: mkdf reached a residual between
    # the convergence and breakdown floors, then divided by it.
    [("f2", "0.7", 1792), ("f6", "1", 3328), ("f3", "1", 3840)],
)
def test_refinement_converges_where_fixed_precision_broke_down(name, seed, bits):
    ctx = PrecisionContext(bits)
    f = BUILTINS[name]
    root = refine_root(f, seed, ctx)
    assert abs(f(root, ctx)) <= ctx.convergence_floor


def test_ladder_roots_are_within_two_ulp_of_a_triple_precision_root():
    ctx, wide = PrecisionContext(4096), PrecisionContext(12288)
    for name, f in BUILTINS.items():
        oracle = refine_root(f, f.reference_root, wide)
        for seed in (f.reference_root, f.default_x0):
            root = refine_root(f, seed, ctx)
            ulp = ctx.mp.ldexp(1, ctx.mp.mag(root) - ctx.bits)
            assert abs(wide.mpf(root) - oracle) <= 2 * ulp, (name, seed)


@pytest.mark.parametrize("bits", [1024, 3072, 4096])
def test_the_full_precision_solve_takes_one_step(bits):
    # Each rung stops at its breakdown floor; one that ran on to its
    # convergence floor would break down on some of these and fall back.
    ctx = PrecisionContext(bits)
    for name, f in BUILTINS.items():
        for seed in (f.reference_root, f.default_x0):
            calls = Counter()

            def counted(x, c, f=f):
                calls[c.bits] += 1
                return f(x, c)

            refine_root(counted, seed, ctx)
            # f(x_0), then one mkdf step's four evaluations, f(x_1) included.
            assert calls[ctx.bits] == 5, (name, seed)
            assert set(calls) == {*_rungs(ctx.bits), ctx.bits}


def test_a_failed_rung_drops_the_whole_ladder():
    # The 484-bit rung converges and the 1387-bit one fails, so the
    # full-precision solve starts from the seed, not from the first rung.
    ctx = PrecisionContext(4096)
    low, high = _rungs(ctx.bits)
    f3 = BUILTINS["f3"]
    starts = []

    def f(x, c):
        if c.bits == high:
            raise DomainError("refused at the second rung")
        if c.bits == ctx.bits:
            starts.append(x)
        return f3(x, c)

    root = refine_root(f, "0.739085", ctx)
    assert starts[0] == ctx.mpf("0.739085")
    assert abs(f3(root, ctx)) <= ctx.convergence_floor


def test_a_failed_rung_falls_back_to_the_seed():
    # At 2048 bits there is a rung; a failure on it gives the same error,
    # message and all, as a refinement at the working precision alone.
    ctx = PrecisionContext(2048)
    cases = [
        ("x^2 + 1", ctx.mpf(1), "refinement from 1.0 ended max_iterations_reached"),
        (
            "sqrt(x) - 3",
            "0.1",
            "refinement from 0.1 ended domain_error: "
            "sqrt of negative value -2.5837722339831621 in 'sqrt(x)'",
        ),
        (
            "x^2 + 1",
            ctx.mpf(0),
            "refinement from 0.0 ended denominator_breakdown: denominator "
            "f(x+f(x)) - f(x-f(x)) fell below the breakdown floor (|0.0| < 2^(-0.9*2048))",
        ),
    ]
    for expr, seed, message in cases:
        with pytest.raises(RefinementError) as info:
            refine_root(from_expression(expr), seed, ctx)
        assert str(info.value) == message
