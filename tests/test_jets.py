"""Jet arithmetic against exact Taylor coefficients.

Dyadic inputs make most of these oracles exact to the bit: every operation
on the way to the expected coefficients is a power-of-two scaling, so both
the jet and the hand-derived value round identically.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefbench import DomainError, TaylorJet, from_expression, jet_eval
from stefbench.jets import (
    constant_jet,
    jet_abs,
    jet_atan,
    jet_cos,
    jet_exp,
    jet_ln,
    jet_sin,
    jet_sin_cos,
    jet_sqrt,
    seed_jet,
)


def test_seed_and_constant_shapes(ctx):
    j = seed_jet(ctx.mpf(3), 4, ctx)
    assert j.coeffs == (3, 1, 0, 0, 0)
    assert j.order == 4
    assert len(j) == 5
    c = constant_jet(ctx.mpf(7), 2, ctx)
    assert c.coeffs == (7, 0, 0)


def test_cube_at_two_is_exact(ctx):
    j = seed_jet(ctx.mpf(2), 3, ctx)
    cube = j ** 3
    assert cube.coeffs == (8, 12, 6, 1)


def test_reciprocal_at_two_is_exact(ctx):
    j = seed_jet(ctx.mpf(2), 3, ctx)
    r = 1 / j
    half = ctx.mpf(1) / 2
    assert r.coeffs == (half, -(half ** 2), half ** 3, -(half ** 4))


def test_division_inverts_multiplication_exactly_for_dyadics(ctx):
    j = seed_jet(ctx.mpf(2), 3, ctx)
    assert ((j * j) / j).coeffs == j.coeffs


def test_negative_power_matches_reciprocal(ctx):
    j = seed_jet(ctx.mpf("1.5"), 4, ctx)
    assert (j ** -2).coeffs == (1 / (j * j)).coeffs


def test_power_rejects_non_integer_exponents(ctx):
    j = seed_jet(ctx.mpf(2), 3, ctx)
    with pytest.raises(DomainError):
        j ** 2.0
    with pytest.raises(DomainError):
        j ** True


def test_mismatched_orders_refuse_to_combine(ctx):
    with pytest.raises(ValueError):
        seed_jet(ctx.mpf(1), 3, ctx) + seed_jet(ctx.mpf(1), 4, ctx)


def test_sqrt_at_four_is_exact(ctx):
    v = jet_sqrt(seed_jet(ctx.mpf(4), 3, ctx))
    one = ctx.mpf(1)
    assert v.coeffs == (2, one / 4, -one / 64, one / 512)


def test_exp_at_zero(ctx, close):
    v = jet_exp(seed_jet(ctx.mpf(0), 4, ctx))
    assert v.coeffs[0] == 1
    assert v.coeffs[1] == 1
    assert v.coeffs[2] == ctx.mpf(1) / 2
    assert close(v.coeffs[3], ctx.mpf(1) / 6, ulps=4)
    assert close(v.coeffs[4], ctx.mpf(1) / 24, ulps=4)


def test_ln_at_two(ctx, close):
    v = jet_ln(seed_jet(ctx.mpf(2), 4, ctx))
    one = ctx.mpf(1)
    assert v.coeffs[0] == ctx.ln(ctx.mpf(2))
    assert v.coeffs[1] == one / 2
    assert v.coeffs[2] == -one / 8
    assert close(v.coeffs[3], one / 24, ulps=4)
    assert close(v.coeffs[4], -one / 64, ulps=4)


def test_atan_at_one(ctx, close):
    v = jet_atan(seed_jet(ctx.mpf(1), 3, ctx))
    one = ctx.mpf(1)
    assert v.coeffs[0] == ctx.atan(one)
    assert v.coeffs[1] == one / 2
    assert v.coeffs[2] == -one / 4
    assert close(v.coeffs[3], one / 12, ulps=4)


def test_ln_and_sqrt_domain_guards(ctx):
    with pytest.raises(DomainError):
        jet_ln(seed_jet(ctx.mpf(0), 3, ctx))
    with pytest.raises(DomainError):
        jet_sqrt(seed_jet(ctx.mpf(-1), 3, ctx))


def test_pythagorean_identity(ctx):
    s, c = jet_sin_cos(seed_jet(ctx.mpf("0.7"), 6, ctx))
    total = s * s + c * c
    tiny = ctx.mpf(2) ** -500
    assert abs(total.coeffs[0] - 1) < tiny
    for coeff in total.coeffs[1:]:
        assert abs(coeff) < tiny


def test_sin_cos_split_helpers_agree(ctx):
    u = seed_jet(ctx.mpf("0.3"), 4, ctx)
    s, c = jet_sin_cos(u)
    assert jet_sin(u).coeffs == s.coeffs
    assert jet_cos(u).coeffs == c.coeffs


def test_abs_by_sign_of_constant_term(ctx):
    u = seed_jet(ctx.mpf(2), 3, ctx)
    assert jet_abs(u).coeffs == u.coeffs
    assert jet_abs(-u).coeffs == u.coeffs
    with pytest.raises(DomainError):
        jet_abs(seed_jet(ctx.mpf(0), 3, ctx))


def test_division_by_zero_constant_term(ctx):
    u = seed_jet(ctx.mpf(1), 3, ctx)
    with pytest.raises(DomainError):
        u / seed_jet(ctx.mpf(0), 3, ctx)


def test_chain_rule_through_an_expression(ctx, close):
    f = from_expression("exp(sin(x))")
    p = ctx.mpf("0.3")
    jet = jet_eval(f, p, 1, ctx)
    expected = ctx.cos(p) * ctx.exp(ctx.sin(p))
    assert close(jet.coeffs[1], expected, ulps=4)


def test_f3_jet_at_zero(ctx, close):
    # cos(x) - x at 0: coefficients 1, -1, -1/2, 0, 1/24.
    jet = jet_eval(from_expression("cos(x) - x"), ctx.mpf(0), 4, ctx)
    assert jet.coeffs[0] == 1
    assert jet.coeffs[1] == -1
    assert jet.coeffs[2] == -ctx.mpf(1) / 2
    assert jet.coeffs[3] == 0
    assert close(jet.coeffs[4], ctx.mpf(1) / 24, ulps=4)


def test_jet_eval_requires_positive_order(ctx):
    with pytest.raises(ValueError):
        jet_eval(from_expression("x"), ctx.mpf(1), 0, ctx)


def test_jet_needs_a_constant_coefficient(ctx):
    with pytest.raises(ValueError):
        TaylorJet([], ctx)


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

    jet = constant_jet(ctx.mpf(coeffs[-1]), order, ctx)
    x = seed_jet(p, order, ctx)
    for c in reversed(coeffs[:-1]):
        jet = jet * x + ctx.mpf(c)

    for i in range(order + 1):
        expected = sum(
            Fraction(c) * math.comb(k, i) * p_frac ** (k - i)
            for k, c in enumerate(coeffs)
            if k >= i
        )
        as_mpf = ctx.mpf(expected.numerator) / ctx.mpf(expected.denominator)
        assert jet.coeffs[i] == as_mpf
