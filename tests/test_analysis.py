"""Order estimation and the error-constant report."""

import pytest

from stefbench import (
    BUILTINS,
    InsufficientDataError,
    SimpleRootError,
    SolveConfig,
    coc,
    empirical_ratio,
    error_constant,
    from_expression,
    solve,
    stencil_coefficients,
)
from stefbench.driver import IterationTrace, TraceEntry


def _trace_from_errors(ctx, errors):
    # Iterates x_n = e_n against the root 0.
    entries = [TraceEntry(ctx.mpf(e), ctx.mpf(e)) for e in errors]
    return IterationTrace(
        iterates=entries, status="fixed_count_completed", f_call_total=0, root=0
    )


# -- coc ---------------------------------------------------------------------


def test_coc_on_a_clean_quartic_sequence(ctx, close):
    trace = _trace_from_errors(ctx, ["1e-1", "1e-4", "1e-16", "1e-64"])
    est = coc(trace, ctx)
    assert len(est.per_step) == 2
    assert est.usable_steps == 4
    for rho in est.per_step:
        assert close(rho, 4, ulps=64)
    assert est.final == est.per_step[-1]


def test_coc_on_a_clean_quadratic_sequence(ctx, close):
    est = coc(_trace_from_errors(ctx, ["1e-2", "1e-4", "1e-8", "1e-16"]), ctx)
    for rho in est.per_step:
        assert close(rho, 2, ulps=64)


def test_coc_is_bitwise_invariant_under_power_of_two_scaling(ctx):
    errors = ["1e-1", "1e-4", "1e-16", "1e-64"]
    base = coc(_trace_from_errors(ctx, errors), ctx)
    scale = ctx.mpf(2) ** 40
    scaled = coc(_trace_from_errors(ctx, [ctx.mpf(e) * scale for e in errors]), ctx)
    # Scaling by a power of two leaves every quotient e_{n+1}/e_n the same
    # mpf, so the estimates agree to the bit, not just approximately.
    assert scaled.per_step == base.per_step


def test_coc_is_stable_under_small_integer_scaling(ctx, close):
    errors = ["1e-1", "1e-4", "1e-16", "1e-64"]
    base = coc(_trace_from_errors(ctx, errors), ctx)
    scaled = coc(_trace_from_errors(ctx, [ctx.mpf(e) * 3 for e in errors]), ctx)
    for a, b in zip(base.per_step, scaled.per_step):
        assert close(a, b, ulps=64)


def test_coc_requires_error_data(ctx):
    trace = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    with pytest.raises(InsufficientDataError):
        coc(trace, ctx)


def test_coc_requires_three_usable_errors(ctx):
    with pytest.raises(InsufficientDataError):
        coc(_trace_from_errors(ctx, ["1e-1", "1e-4"]), ctx)
    # The third error sits below the usability floor and does not count.
    with pytest.raises(InsufficientDataError):
        coc(_trace_from_errors(ctx, ["1e-1", "1e-4", "1e-150"]), ctx)


def test_coc_requires_a_clean_consecutive_triple(ctx):
    # Four usable errors, but the stagnant pair zeroes the denominator.
    with pytest.raises(InsufficientDataError):
        coc(_trace_from_errors(ctx, ["1e-5", "1e-5", "1e-5", "1e-5"]), ctx)
    # Usable count passes but no three usable errors are consecutive.
    with pytest.raises(InsufficientDataError):
        coc(_trace_from_errors(ctx, ["1e-1", "1e-3", "1e-130", "1e-9", "1e-27"]), ctx)


def test_usable_floor_exponent(ctx):
    floor = ctx.usable_floor
    log2 = ctx.mp.log(floor, 2)
    assert abs(log2 + ctx.mpf(4 * 512) / 5) < ctx.mpf("1e-20")


# -- empirical ratios -----------------------------------------------------------


def test_ratio_of_a_single_pair(ctx, close):
    ratios = empirical_ratio(_trace_from_errors(ctx, ["1e-1", "2e-4"]), 4, ctx)
    assert len(ratios) == 1
    assert close(ratios[0], 2, ulps=8)


def test_affine_trace_has_no_usable_pairs(ctx):
    trace = _trace_from_errors(ctx, ["0.1", "0"])
    assert empirical_ratio(trace, 4, ctx) == []


def test_floor_noise_cannot_enter_the_ratios(ctx):
    # The trailing error is representable-noise scale; a pair ending there
    # would divide garbage by 1e-256 and report nonsense.
    errors = ["1e-1", "1e-4", "1e-16", "1e-64", "1e-150"]
    ratios = empirical_ratio(_trace_from_errors(ctx, errors), 4, ctx)
    assert len(ratios) == 3


def test_ratio_validation(ctx):
    trace = _trace_from_errors(ctx, ["1e-1", "1e-4"])
    with pytest.raises(ValueError):
        empirical_ratio(trace, 0, ctx)
    no_errors = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(fixed_iterations=2), ctx)
    with pytest.raises(InsufficientDataError):
        empirical_ratio(no_errors, 4, ctx)


# -- error constant ----------------------------------------------------------------


def test_error_constant_formula_on_a_polynomial(ctx):
    # c = (1, 1, 0, 0) collapses the formula to -2 c2^3 / c1^3 = -2 exactly.
    report = error_constant(from_expression("x + x^2"), ctx, root=ctx.mpf(0))
    assert report.c[0] == 1
    assert report.c[1] == 1
    assert report.c[2] == 0
    assert report.c[3] == 0
    assert report.formula_value == -2
    assert report.empirical_ratios == []
    assert report.agreement is None


def test_error_constant_is_zero_for_the_identity(ctx):
    report = error_constant(from_expression("x"), ctx, root=ctx.mpf(0))
    assert report.formula_value == 0
    assert report.agreement is None


def test_error_constant_rejects_multiple_roots(ctx):
    with pytest.raises(SimpleRootError):
        error_constant(from_expression("x^2"), ctx, root=ctx.mpf(0))


def test_error_constant_needs_some_root_source(ctx):
    with pytest.raises(ValueError):
        error_constant(from_expression("x - 2"), ctx)
    # A trace solved without a reference_root carries no root either.
    f = BUILTINS["f3"]
    trace = solve("mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=3), ctx)
    with pytest.raises(ValueError):
        error_constant(f, ctx, trace=trace)
    # A built-in's 6-decimal reference_root is a seed, not a root; the
    # analysis layer does not solve for one.
    with pytest.raises(ValueError):
        error_constant(f, ctx)


def test_error_constant_root_resolution(ctx, roots):
    f = BUILTINS["f3"]
    trace = solve(
        "mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=6), ctx, reference_root=roots["f3"]
    )
    from_trace = error_constant(f, ctx, trace=trace)
    explicit = error_constant(f, ctx, trace=trace, root=roots["f3"])
    assert from_trace.c == explicit.c
    assert explicit.agreement == abs(explicit.empirical_ratios[-1]) / abs(
        explicit.formula_value
    )


def test_error_constant_reports_both_sides_for_mkdf(ctx, roots):
    f = BUILTINS["f1"]
    trace = solve(
        "mkdf", f, ctx.mpf(1), SolveConfig(fixed_iterations=6), ctx, reference_root=roots["f1"]
    )
    report = error_constant(f, ctx, trace=trace)
    assert len(report.empirical_ratios) >= 2
    # Diagnostic, not asserted in general; for f1 the two sides happen to
    # sit within a factor of two, pinned here as a regression canary.
    assert ctx.mpf("0.5") < report.agreement < ctx.mpf("2")


# -- stencil cross-check ----------------------------------------------------------


def test_stencil_matches_jets_on_f3(ctx, roots):
    f = BUILTINS["f3"]
    root = roots["f3"]
    jet = f.eval_jet(root, 4, ctx)
    stencil = stencil_coefficients(f, root, ctx)
    for k, approx in enumerate(stencil, start=1):
        rel = abs(approx - jet.coeffs[k]) / abs(jet.coeffs[k])
        assert rel < ctx.mpf("1e-10")
