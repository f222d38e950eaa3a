"""PrecisionContext: validation, floors, eps, domain guards, rendering."""

import pytest

from stefbench import DomainError, InvalidPrecisionError, PrecisionContext


@pytest.mark.parametrize("bad", [63, 0, -512, "512", 512.0, True, None])
def test_rejects_bad_bit_counts(bad):
    with pytest.raises(InvalidPrecisionError):
        PrecisionContext(bad)


def test_minimum_precision_accepted():
    c = PrecisionContext(64)
    assert c.bits == 64
    assert c.mp.prec == 64


def test_floors_exact_when_exponents_are_integers():
    # 640 bits makes both exponents integral: 0.9*640 = 576, 0.95*640 = 608.
    c = PrecisionContext(640)
    two = c.mpf(2)
    assert c.breakdown_floor == two ** -576
    assert c.convergence_floor == two ** -608


def test_floor_ordering_and_magnitude(ctx):
    two = ctx.mpf(2)
    assert two ** -461 < ctx.breakdown_floor < two ** -460
    assert two ** -487 < ctx.convergence_floor < two ** -486
    assert ctx.convergence_floor < ctx.breakdown_floor


def test_eps_is_one_ulp_at_one(ctx):
    assert ctx.eps == ctx.mpf(2) ** (1 - 512)
    one = ctx.mpf(1)
    assert one + ctx.eps != one
    # Half an ulp ties to even and rounds back down.
    assert one + ctx.eps / 2 == one


def test_contexts_are_independent(ctx):
    low = PrecisionContext(128)
    assert ctx.mp.prec == 512
    assert low.mp.prec == 128
    wide = ctx.mp.sqrt(2)
    narrow = low.mp.sqrt(2)
    assert ctx.mpf(narrow) != wide


def test_string_literals_avoid_binary64(ctx):
    # 0.1 as text is converted at 512 bits; 0.1 as a float arrives
    # pre-rounded to 53 bits and the difference is visible.
    assert ctx.mpf("0.1") != ctx.mpf(0.1)


def test_domain_guards(ctx):
    zero = ctx.mpf(0)
    with pytest.raises(DomainError):
        ctx.ln(zero)
    with pytest.raises(DomainError):
        ctx.ln(ctx.mpf(-1))
    with pytest.raises(DomainError):
        ctx.sqrt(ctx.mpf(-1))
    assert ctx.sqrt(zero) == 0
    assert ctx.atan(ctx.mpf(-3)) < 0
    assert ctx.fabs(ctx.mpf(-3)) == 3


def test_full_str_round_trips_exactly(ctx):
    x = ctx.mp.sqrt(2)
    assert ctx.mpf(ctx.full_str(x)) == x
    y = -ctx.mp.exp(ctx.mpf(1)) / 7
    assert ctx.mpf(ctx.full_str(y)) == y


def test_decimal_digits_cover_the_mantissa(ctx):
    # Round-tripping 512 bits of mantissa needs ceil(512 log10 2) + 1 = 155
    # significant decimal digits.
    assert ctx.decimal_digits >= 155


def test_nstr_digit_control(ctx):
    x = ctx.mpf("0.7390851332151606")
    assert ctx.nstr(x, 5) == "0.73909"
