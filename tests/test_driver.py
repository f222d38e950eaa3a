"""Driver behaviour: termination statuses, call accounting, trace data,
and root refinement."""

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
    RefinementError,
    SolveConfig,
    from_expression,
    refine_root,
    solve,
)
from stefbench.precision import PrecisionContext


# -- termination statuses ---------------------------------------------------


def test_diverges_on_flat_functions_far_from_any_root(ctx):
    trace = solve("steffensen", from_expression("arctan(x)"), ctx.mpf(3), SolveConfig(), ctx)
    assert trace.status == DIVERGED
    assert abs(trace.final.x) > ctx.mpf("1e10")


def test_domain_error_during_a_step(ctx):
    # From 0.5 the first probe point is 0.5 + ln(0.5) < 0.
    trace = solve("steffensen", from_expression("ln(x)"), ctx.mpf("0.5"), SolveConfig(), ctx)
    assert trace.status == DOMAIN_ERROR
    assert len(trace.iterates) == 1
    assert trace.f_call_total == 3


def test_domain_error_at_the_starting_point(ctx):
    trace = solve("steffensen", from_expression("ln(x)"), ctx.mpf(-1), SolveConfig(), ctx)
    assert trace.status == DOMAIN_ERROR
    assert trace.iterates == []
    assert trace.f_call_total == 1


def test_breakdown_is_a_status_not_an_exception(ctx):
    trace = solve("mkdf", from_expression("x^2 + 1"), ctx.mpf(0), SolveConfig(), ctx)
    assert trace.status == DENOMINATOR_BREAKDOWN
    assert len(trace.iterates) == 1
    assert trace.f_call_total == 4
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


# -- fixed-count mode ---------------------------------------------------------


def test_fixed_mode_runs_exactly_n_steps(ctx):
    trace = solve("mkdf", BUILTINS["f1"], ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    assert trace.status == FIXED_COUNT_COMPLETED
    assert [t.n for t in trace.iterates] == [0, 1, 2, 3]
    # 1 starting residual + 3 * (4 kernel calls + 1 residual).
    assert trace.f_call_total == 16


def test_fixed_mode_call_count_scales_with_the_kernel(ctx):
    trace = solve("steffensen", BUILTINS["f1"], ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    assert trace.f_call_total == 10


def test_fixed_mode_still_stops_at_the_convergence_floor(ctx):
    # Differencing pure roundoff would only manufacture breakdowns, so a
    # residual at the floor ends the run early even in benchmark mode.
    trace = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(fixed_iterations=8), ctx)
    assert trace.status == CONVERGED
    assert len(trace.iterates) == 5


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
    residuals = trace.residuals()
    assert residuals[-1] <= ctx.mpf("1e-6")
    assert residuals[-2] > ctx.mpf("1e-6")


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


def test_custom_divergence_bound(ctx):
    cfg = SolveConfig(divergence_bound="1e5")
    trace = solve("steffensen", from_expression("arctan(x)"), ctx.mpf(3), cfg, ctx)
    assert trace.status == DIVERGED


# -- config validation ----------------------------------------------------------


def test_config_validation(ctx):
    f = BUILTINS["f3"]
    with pytest.raises(ValueError):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=0), ctx)
    with pytest.raises(ValueError):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(max_iterations=0), ctx)
    with pytest.raises(ValueError):
        solve("mkdf", f, ctx.mpf(1), SolveConfig(f_tolerance="1e-200"), ctx)


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
    assert len(without.residuals()) == 4
    with_root = solve("mkdf", f, ctx.mpf(1), cfg, ctx, reference_root=roots["f1"])
    errs = with_root.errors()
    assert errs is not None
    assert errs == sorted(errs, reverse=True)
    assert errs[3] < ctx.mpf("1e-20")


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
