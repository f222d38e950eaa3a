"""Order estimation and the error-constant report."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stefbench import (
    BUILTINS,
    METHOD_TAGS,
    InsufficientDataError,
    MethodKind,
    PrecisionContext,
    SimpleRootError,
    SolveConfig,
    coc,
    empirical_ratio,
    error_constant,
    from_expression,
    refine_root,
    solve,
)
from stefbench.driver import IterationTrace, TraceEntry
from stencil import stencil_coefficients


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


def test_coc_counts_no_errors_for_a_run_that_stops_at_x0(ctx):
    # ln is undefined at x0, so the run records no iterate. Its root is
    # known, so the trace has error data: an empty list, with no usable error.
    trace = solve(
        "mkdf", from_expression("ln(x)"), ctx.mpf(-1), SolveConfig(fixed_iterations=3), ctx,
        reference_root=1,
    )
    assert trace.status == "domain_error"
    assert trace.errors() == []
    with pytest.raises(InsufficientDataError, match="usability floor, got 0"):
        coc(trace, ctx)
    assert empirical_ratio(trace, 4, ctx) == []


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


def _coc_two_logs_per_triple(errs, ctx, ln=None):
    """Reference: each triple takes both of its logarithms itself.

    ``ln`` defaults to coc's logarithm, mpmath's ln of the working-precision
    quotient at min(bits, 128) bits.
    """
    if ln is None:
        ln = partial(ctx.mp.ln, prec=min(ctx.bits, 128))
    floor = ctx.usable_floor
    usable = [e > floor for e in errs]
    if sum(usable) < 3:
        return None
    per_step = []
    for i in range(1, len(errs) - 1):
        if not (usable[i - 1] and usable[i] and usable[i + 1]):
            continue
        den = ln(errs[i] / errs[i - 1])
        if den == 0:
            continue
        per_step.append(ln(errs[i + 1] / errs[i]) / den)
    return per_step or None


# Decimal exponents around the 512-bit usability floor (about 1e-123), with
# repeats so that stagnant pairs give zero denominators.
_ERRORS = st.lists(
    st.tuples(st.sampled_from(["1", "3", "7"]), st.integers(min_value=1, max_value=140)),
    min_size=1,
    max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(_ERRORS)
# A zero denominator, then a triple that cannot reuse the skipped one's ratio.
@example([("1", 5), ("1", 5), ("1", 10), ("1", 20), ("1", 40)])
# An unusable gap between two usable runs.
@example([("1", 1), ("1", 2), ("1", 4), ("1", 130), ("1", 3), ("1", 6), ("1", 12)])
def test_coc_takes_the_reference_logarithms_bit_for_bit(ctx, digits):
    errs = [ctx.mpf(f"{m}e-{k}") for m, k in digits]
    expected = _coc_two_logs_per_triple(errs, ctx)
    if expected is None:
        with pytest.raises(InsufficientDataError):
            coc(_trace_from_errors(ctx, errs), ctx)
        return
    est = coc(_trace_from_errors(ctx, errs), ctx)
    assert [r._mpf_ for r in est.per_step] == [r._mpf_ for r in expected]
    assert est.final._mpf_ == expected[-1]._mpf_
    assert est.usable_steps == sum(e > ctx.usable_floor for e in errs)


def test_coc_takes_each_logarithm_once(monkeypatch):
    c = PrecisionContext(4096)
    calls = []
    ln = c.mp.ln

    def counting_ln(x, **kwargs):
        calls.append(kwargs)
        return ln(x, **kwargs)

    # Six usable errors and one below the floor: four triples, five ratios.
    errors = ["1e-1", "1e-2", "1e-4", "1e-16", "1e-64", "1e-256", "1e-1024"]
    trace = _trace_from_errors(c, errors)
    monkeypatch.setattr(c.mp, "ln", counting_ln)
    est = coc(trace, c)
    assert est.usable_steps == 6
    assert len(est.per_step) == 4
    # Five logarithms, none of them at the 4096-bit working precision.
    assert calls == [{"prec": 128}] * 5


# coc's 128-bit logarithms leave each rho a relative error near 2^-127 from
# the rho of working-precision logarithms; 2^-120 is the bound held to.
RHO_BOUND = 2 ** -120


def _rhos_near_working_precision(kind, name, root, ctx):
    """Check coc's rho for six steps from f's table x0 against working-precision logarithms.

    Returns the number of rho values compared.
    """
    f = BUILTINS[name]
    trace = solve(
        kind, f, ctx.mpf(f.default_x0), SolveConfig(fixed_iterations=6), ctx, reference_root=root
    )
    oracle = _coc_two_logs_per_triple(trace.errors(), ctx, ln=ctx.mp.ln)
    if oracle is None:
        with pytest.raises(InsufficientDataError):
            coc(trace, ctx)
        return 0
    per_step = coc(trace, ctx).per_step
    assert len(per_step) == len(oracle), (kind, name)
    for rho, exact in zip(per_step, oracle):
        assert abs(rho - exact) <= RHO_BOUND * max(1, abs(exact)), (kind, name)
    return len(oracle)


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_coc_matches_working_precision_logarithms_at_512_bits(ctx, roots, tag):
    compared = sum(
        _rhos_near_working_precision(MethodKind(tag), name, roots[name], ctx) for name in BUILTINS
    )
    assert compared > 0


@pytest.fixture(scope="module")
def roots_4096():
    c = PrecisionContext(4096)
    return c, {name: refine_root(f, c.mpf(f.reference_root), c) for name, f in BUILTINS.items()}


# Three methods only: all nine at 4096 bits would add seconds to the suite.
@pytest.mark.parametrize(
    "kind", [MethodKind("mkdf"), MethodKind("cordero"), MethodKind("kou", -1)], ids=MethodKind.label
)
def test_coc_matches_working_precision_logarithms_at_4096_bits(roots_4096, kind):
    c, roots = roots_4096
    compared = sum(_rhos_near_working_precision(kind, name, roots[name], c) for name in BUILTINS)
    assert compared > 0


@pytest.mark.parametrize("bits", [64, 128])
def test_coc_takes_working_precision_logarithms_up_to_128_bits(bits):
    c = PrecisionContext(bits)
    errs = [c.mpf(e) for e in ("3e-1", "7e-3", "2e-6", "9e-15")]
    expected = _coc_two_logs_per_triple(errs, c, ln=c.mp.ln)
    assert len(expected) == 2
    est = coc(_trace_from_errors(c, errs), c)
    assert [r._mpf_ for r in est.per_step] == [r._mpf_ for r in expected]


def test_coc_resolves_a_quotient_next_to_one():
    c = PrecisionContext(4096)
    e0 = c.mpf(2) ** -10
    q = 1 + c.mpf(2) ** -300
    # Rounded to 128 bits first, this quotient would be 1, its logarithm 0,
    # and the pair would be skipped as stalled.
    assert PrecisionContext(128).mpf(q) == 1
    errs = [e0, e0 * q, e0 * q / 2]
    est = coc(_trace_from_errors(c, errs), c)
    # rho = ln(1/2) / ln(q), so the logarithm of q was taken and is nonzero.
    (rho,) = est.per_step
    exact = -c.mp.ln(2) / c.mp.ln(q)
    assert abs(rho - exact) <= RHO_BOUND * abs(exact)


def test_usable_floor_exponent(ctx):
    # 2^-ceil(0.8 * 512): the largest power of two at or below 2^(-409.6).
    assert ctx.usable_floor == ctx.mpf(2) ** -410


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


def _ratios_pair_by_pair(errs, order, ctx):
    """Reference: each consecutive pair tests both of its errors itself."""
    floor = ctx.usable_floor
    ratios = []
    for i in range(len(errs) - 1):
        if errs[i] > floor and errs[i + 1] > floor:
            ratios.append(errs[i + 1] / errs[i] ** order)
    return ratios


@settings(max_examples=200, deadline=None)
@given(_ERRORS, st.integers(min_value=1, max_value=4))
# An unusable gap between two usable runs.
@example([("1", 1), ("1", 2), ("1", 4), ("1", 130), ("1", 3), ("1", 6), ("1", 12)], 4)
def test_empirical_ratio_takes_the_reference_quotients_bit_for_bit(ctx, digits, order):
    errs = [ctx.mpf(f"{m}e-{k}") for m, k in digits]
    ratios = empirical_ratio(_trace_from_errors(ctx, errs), order, ctx)
    expected = _ratios_pair_by_pair(errs, order, ctx)
    assert [r._mpf_ for r in ratios] == [r._mpf_ for r in expected]


def test_ratio_validation(ctx):
    trace = _trace_from_errors(ctx, ["1e-1", "1e-4"])
    with pytest.raises(ValueError):
        empirical_ratio(trace, 0, ctx)
    no_errors = solve("mkdf", BUILTINS["f3"], ctx.mpf(1), SolveConfig(fixed_iterations=2), ctx)
    with pytest.raises(InsufficientDataError):
        empirical_ratio(no_errors, 4, ctx)


# -- error constant ----------------------------------------------------------------


def test_error_constant_formula_on_a_polynomial(ctx):
    # c = (1, 1, 0, 0) collapses mkdf's K to 3 c2^3 / c1^3 = 3 exactly.
    report = error_constant(from_expression("x + x^2"), ctx, root=ctx.mpf(0))
    assert report.c[0] == 1
    assert report.c[1] == 1
    assert report.c[2] == 0
    assert report.c[3] == 0
    assert report.formula_value == 3
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
    # Six mkdf steps from each built-in's table x0, as `constant` runs them:
    # the last e(n+1)/e(n)^4 has reached K. The widest gap is f2's 1.9e-7.
    for name, f in BUILTINS.items():
        trace = solve(
            "mkdf", f, ctx.mpf(f.default_x0), SolveConfig(fixed_iterations=6), ctx,
            reference_root=roots[name],
        )
        report = error_constant(f, ctx, trace=trace)
        assert len(report.empirical_ratios) >= 2, name
        assert abs(report.agreement - 1) < ctx.mpf("1e-6"), name


# -- stencil cross-check ----------------------------------------------------------


def test_stencil_matches_jets_on_f3(ctx, roots):
    f = BUILTINS["f3"]
    root = roots["f3"]
    jet = f.eval_jet(root, 4, ctx)
    stencil = stencil_coefficients(f, root, ctx)
    for k, approx in enumerate(stencil, start=1):
        rel = abs(approx - jet[k]) / abs(jet[k])
        assert rel < ctx.mpf("1e-10")
