"""Jet arithmetic against exact Taylor coefficients, and the compiled jet
path against the tests' coefficient-list oracle.

Dyadic inputs make most of these oracles exact to the bit: every operation
on the way to the expected coefficients is a power-of-two scaling, so both
the jet and the hand-derived value round identically.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stefbench import DomainError, PrecisionContext, from_expression
from stefbench.expr import parse, unparse
from stefbench.jets import JetOps
from jet_ops import JetListOps
from test_expr import _CONTEXTS, _WIDE, _ast_strategy, _Bounded, _outcome, evaluate


def test_seed_and_constant_shapes(ctx):
    ops = JetOps(ctx, 4)
    j = ops.var(ctx.mpf(3))
    assert j == (3, 1, 0, 0, 0)
    assert len(ops.wrap(j)) == 5
    assert JetOps(ctx, 2).const("7") == (7, 0, 0)


def test_cube_at_two_is_exact(ctx):
    ops = JetOps(ctx, 3)
    assert ops.pow(ops.var(ctx.mpf(2)), 3) == (8, 12, 6, 1)


def test_reciprocal_at_two_is_exact(ctx):
    ops = JetOps(ctx, 3)
    r = ops.div(ops.const("1"), ops.var(ctx.mpf(2)))
    half = ctx.mpf(1) / 2
    assert r == (half, -(half ** 2), half ** 3, -(half ** 4))


def test_division_inverts_multiplication_exactly_for_dyadics(ctx):
    ops = JetOps(ctx, 3)
    j = ops.var(ctx.mpf(2))
    assert ops.div(ops.mul(j, j), j) == j


def test_negative_power_matches_reciprocal(ctx):
    ops = JetOps(ctx, 4)
    j = ops.var(ctx.mpf("1.5"))
    assert ops.pow(j, -2) == ops.div(ops.const("1"), ops.mul(j, j))


def test_sqrt_at_four_is_exact(ctx):
    ops = JetOps(ctx, 3)
    v = ops.sqrt(ops.var(ctx.mpf(4)))
    one = ctx.mpf(1)
    assert v == (2, one / 4, -one / 64, one / 512)


def test_exp_at_zero(ctx, close):
    ops = JetOps(ctx, 4)
    v = ops.exp(ops.var(ctx.mpf(0)))
    assert v[0] == 1
    assert v[1] == 1
    assert v[2] == ctx.mpf(1) / 2
    assert close(v[3], ctx.mpf(1) / 6, ulps=4)
    assert close(v[4], ctx.mpf(1) / 24, ulps=4)


def test_ln_at_two(ctx, close):
    ops = JetOps(ctx, 4)
    v = ops.ln(ops.var(ctx.mpf(2)))
    one = ctx.mpf(1)
    assert v[0] == ctx.mp.ln(2)
    assert v[1] == one / 2
    assert v[2] == -one / 8
    assert close(v[3], one / 24, ulps=4)
    assert close(v[4], -one / 64, ulps=4)


def test_atan_at_one(ctx, close):
    ops = JetOps(ctx, 3)
    v = ops.arctan(ops.var(ctx.mpf(1)))
    one = ctx.mpf(1)
    assert v[0] == ctx.mp.atan(one)
    assert v[1] == one / 2
    assert v[2] == -one / 4
    assert close(v[3], one / 12, ulps=4)


def test_ln_and_sqrt_domain_guards(ctx):
    ops = JetOps(ctx, 3)
    with pytest.raises(DomainError):
        ops.ln(ops.var(ctx.mpf(0)))
    # JetOps.ln's guard is PrecisionContext.ln's, so the message is the scalar path's.
    with pytest.raises(DomainError) as raised:
        from_expression("ln(x)").eval_jet(ctx.mpf(-1), 2, ctx)
    assert str(raised.value) == "ln of non-positive value -1.0 in 'ln(x)'"
    with pytest.raises(DomainError):
        ops.sqrt(ops.var(ctx.mpf(-1)))


def test_pythagorean_identity(ctx):
    ops = JetOps(ctx, 6)
    s, c = ops.sin_cos(ops.var(ctx.mpf("0.7")))
    total = ops.add(ops.mul(s, s), ops.mul(c, c))
    tiny = ctx.mpf(2) ** -500
    assert abs(total[0] - 1) < tiny
    for coeff in total[1:]:
        assert abs(coeff) < tiny


def test_sin_cos_split_helpers_agree(ctx):
    ops = JetOps(ctx, 4)
    u = ops.var(ctx.mpf("0.3"))
    s, c = ops.sin_cos(u)
    assert ops.sin(u) == s
    assert ops.cos(u) == c


@pytest.mark.parametrize("bits", [512, 2048, 4096])
def test_sin_cos_jets_match_separate_sin_and_cos(bits):
    c = PrecisionContext(bits)
    for text in ("0.3", "-2.7", "1e-30", "1234.5"):
        u = from_expression("x^2/3 + x").eval_jet(c.mpf(text), 5, c)
        s, co = JetOps(c, 5).sin_cos(u)
        # The same recurrence started from separate sin and cos calls.
        expected_s, expected_c = [c.mp.sin(u[0])], [c.mp.cos(u[0])]
        for k in range(1, len(u)):
            acc_s, acc_c = c.mpf(0), c.mpf(0)
            for j in range(1, k + 1):
                acc_s += j * u[j] * expected_c[k - j]
                acc_c += j * u[j] * expected_s[k - j]
            expected_s.append(acc_s / k)
            expected_c.append(-acc_c / k)
        assert [a._mpf_ for a in s] == [b._mpf_ for b in expected_s]
        assert [a._mpf_ for a in co] == [b._mpf_ for b in expected_c]


def test_sin_cos_and_exp_jets_refuse_huge_arguments(ctx):
    ops = JetOps(ctx, 3)
    u = ops.var(ctx.mpf(2) ** 600)
    for jet_fn in (ops.sin, ops.cos, ops.exp):
        with pytest.raises(DomainError):
            jet_fn(u)


def test_abs_by_sign_of_constant_term(ctx):
    ops = JetOps(ctx, 3)
    u = ops.var(ctx.mpf(2))
    assert ops.abs(u) == u
    assert ops.abs(ops.neg(u)) == u
    with pytest.raises(DomainError):
        ops.abs(ops.var(ctx.mpf(0)))


def test_division_by_zero_constant_term(ctx):
    ops = JetOps(ctx, 3)
    with pytest.raises(DomainError):
        ops.div(ops.var(ctx.mpf(1)), ops.var(ctx.mpf(0)))


def test_chain_rule_through_an_expression(ctx, close):
    f = from_expression("exp(sin(x))")
    p = ctx.mpf("0.3")
    slope = f.eval_jet(p, 1, ctx)[1]
    expected = ctx.mp.cos(p) * ctx.mp.exp(ctx.mp.sin(p))
    assert close(slope, expected, ulps=4)


def test_f3_jet_at_zero(ctx, close):
    # cos(x) - x at 0: coefficients 1, -1, -1/2, 0, 1/24.
    c0, c1, c2, c3, c4 = from_expression("cos(x) - x").eval_jet(ctx.mpf(0), 4, ctx)
    assert c0 == 1
    assert c1 == -1
    assert c2 == -ctx.mpf(1) / 2
    assert c3 == 0
    assert close(c4, ctx.mpf(1) / 24, ulps=4)


def test_eval_jet_requires_positive_order(ctx):
    with pytest.raises(ValueError):
        from_expression("x").eval_jet(ctx.mpf(1), 0, ctx)


@pytest.mark.parametrize("order", [1, 4, 7])
def test_eval_jet_returns_a_tuple_of_order_plus_one_mpfs(ctx, order):
    jet = from_expression("exp(x) + sin(x)").eval_jet(ctx.mpf("0.5"), order, ctx)
    assert type(jet) is tuple
    assert len(jet) == order + 1
    assert all(type(c) is ctx.mp.mpf for c in jet)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    num=st.integers(-64, 64),
    den_pow=st.integers(0, 3),
)
def test_polynomial_jets_match_binomial_expansion(ctx, coeffs, num, den_pow):
    # Taylor coefficients of sum c_k x^k at a dyadic point p, computed two
    # ways: Horner on jets, and exact Fraction arithmetic via the binomial
    # theorem. Every quantity is dyadic, so the match is bit-for-bit.
    order = 4
    p_frac = Fraction(num, 2 ** den_pow)
    p = ctx.mpf(num) / ctx.mpf(2 ** den_pow)

    ops = JetOps(ctx, order)
    jet = ops.const(str(coeffs[-1]))
    x = ops.var(p)
    for c in reversed(coeffs[:-1]):
        jet = ops.add(ops.mul(jet, x), ops.const(str(c)))

    for i in range(order + 1):
        expected = sum(
            Fraction(c) * math.comb(k, i) * p_frac ** (k - i)
            for k, c in enumerate(coeffs)
            if k >= i
        )
        as_mpf = ctx.mpf(expected.numerator) / ctx.mpf(expected.denominator)
        assert jet[i] == as_mpf


@settings(max_examples=150, deadline=None)
# Series with no zero coefficients, so each convolution sums rounded terms
# and a change in the order of the operations changes the bits.
@example(ast=parse("exp(x)*sin(x)*ln(x)"), bits=64, order=4, x="0.5")
@example(ast=parse("sqrt(x)/cos(x) - arctan(x)*x^-3"), bits=113, order=4, x="0.1")
@example(ast=parse("arctan(sin(x) + x)"), bits=113, order=4, x="0.5")
@given(
    ast=_ast_strategy(),
    bits=st.sampled_from([64, 113, 512, 2048, 4096]),
    order=st.sampled_from([1, 4]),
    x=st.sampled_from(["0", "0.5", "-1.25", "3", "0.1", "inf", "-inf", "nan"]),
)
def test_compiled_jets_equal_the_coefficient_list_oracle_bit_for_bit(ast, bits, order, x):
    ctx = _CONTEXTS[bits]
    f = from_expression(unparse(ast))
    x = _WIDE.mpf(x)
    oracle = _Bounded(JetListOps(ctx, order))
    expected = _outcome(lambda: oracle.wrap(evaluate(ast, oracle.var(x), oracle)))
    assert _outcome(lambda: f.eval_jet(x, order, ctx)) == expected
