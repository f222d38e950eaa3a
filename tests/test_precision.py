"""PrecisionContext: validation, floors, unit roundoff, domain guards, rendering."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from stefbench import (
    BUILTINS,
    MAX_BITS,
    DomainError,
    InvalidPrecisionError,
    PrecisionContext,
    SolveConfig,
    solve,
)
from conftest import eps


# Above MAX_BITS, refused before the context is built, which at 2^20 bits alone takes minutes.
@pytest.mark.parametrize("bad", [63, 0, -512, "512", 512.0, True, None, MAX_BITS + 1, 10**9])
def test_rejects_bad_bit_counts(bad):
    with pytest.raises(InvalidPrecisionError):
        PrecisionContext(bad)


def test_minimum_precision_accepted():
    c = PrecisionContext(64)
    assert c.bits == 64
    assert c.mp.prec == 64


def test_maximum_precision_accepted():
    assert PrecisionContext(MAX_BITS).bits == MAX_BITS


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
    unit = eps(ctx)
    assert unit == ctx.mpf(2) ** (1 - 512)
    one = ctx.mpf(1)
    assert one + unit != one
    # Half an ulp ties to even and rounds back down.
    assert one + unit / 2 == one


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
    for name, bad, message in (
        ("ln", zero, "ln of non-positive value 0.0"),
        ("ln", ctx.mpf(-1), "ln of non-positive value -1.0"),
        ("sqrt", ctx.mpf(-1), "sqrt of negative value -1.0"),
    ):
        with pytest.raises(DomainError) as raised:
            getattr(ctx, name)(bad._mpf_)
        assert str(raised.value) == message
    for bad in (zero, ctx.mpf(-1), -eps(ctx), -ctx.mp.inf):
        with pytest.raises(DomainError):
            ctx.log10(bad)
    assert ctx.sqrt(zero._mpf_) == zero._mpf_
    assert ctx.atan(ctx.mpf(-3)._mpf_) == ctx.mp.atan(-3)._mpf_


@pytest.mark.parametrize("name", ["sin", "cos", "cos_sin", "exp", "ln", "atan", "sqrt"])
def test_elementary_functions_take_raw_values_only(ctx, name):
    with pytest.raises(TypeError):
        getattr(ctx, name)(ctx.mpf(2))


def test_usable_floor_is_computed_on_first_use():
    c = PrecisionContext(1024)
    solve("mkdf", BUILTINS["f3"], c.mpf(1), SolveConfig(), c)
    assert "usable_floor" not in c.__dict__
    floor = c.usable_floor
    assert floor._mpf_ == (c.mpf(2) ** (-c.mpf(4 * 1024) / 5))._mpf_
    assert c.__dict__["usable_floor"] is floor


_LOG10_CONTEXTS = {bits: PrecisionContext(bits) for bits in (64, 512, 2048)}


@pytest.mark.parametrize("bits", sorted(_LOG10_CONTEXTS))
@settings(max_examples=150, deadline=None)
@given(
    mantissa=st.integers(min_value=1, max_value=2**2048 - 1),
    exponent=st.integers(min_value=-9000, max_value=9000),
    power=st.integers(min_value=-400, max_value=400),
    ulps=st.integers(min_value=-64, max_value=64),
)
@example(mantissa=1, exponent=0, power=0, ulps=1)
@example(mantissa=1, exponent=0, power=0, ulps=-1)
@example(mantissa=10, exponent=0, power=1, ulps=0)
def test_log10_is_mpmaths_bit_for_bit(bits, mantissa, exponent, power, ulps):
    # A binary value anywhere in range, and a power of ten (1 when power
    # is 0) moved by a few units in the last place, where the quotient of
    # the two logarithms is nearest an integer.
    c = _LOG10_CONTEXTS[bits]
    ten = c.mpf(10) ** power
    for x in (c.mp.ldexp(c.mpf(mantissa), exponent), ten + ulps * eps(c) * ten):
        assert c.log10(x) == c.mp.log10(x)


def _raw(value):
    """The raw value of an mpf, or of each mpf in a tuple."""
    return tuple(v._mpf_ for v in value) if isinstance(value, tuple) else value._mpf_


@pytest.mark.parametrize("name", ["exp", "sin", "cos", "cos_sin"])
def test_magnitude_guard_at_two_to_the_bits(ctx, name):
    call = getattr(ctx, name)
    shown = "sin and cos" if name == "cos_sin" else name
    limit = ctx.mpf(2) ** 512
    for x in (limit, -limit, 3 * limit, ctx.mp.inf):
        with pytest.raises(DomainError) as raised:
            call(x._mpf_)
        assert str(raised.value) == (
            f"{shown} of {ctx.nstr(x)}: |argument| >= 2^512 "
            "has no fractional bits at working precision"
        )
    # The largest magnitude below the limit is still evaluated.
    below = limit - 1
    assert below < limit
    assert call(below._mpf_) == _raw(getattr(ctx.mp, name)(below))
    assert call((-below)._mpf_) == _raw(getattr(ctx.mp, name)(-below))


def test_full_str_round_trips_exactly(ctx):
    x = ctx.mp.sqrt(2)
    assert ctx.mpf(ctx.full_str(x)) == x
    y = -ctx.mp.exp(ctx.mpf(1)) / 7
    assert ctx.mpf(ctx.full_str(y)) == y


_ROUND_TRIP_CONTEXTS = {
    bits: PrecisionContext(bits) for bits in (64, 512, 1024, 1330, 1792, 12288, 16384)
}


@settings(max_examples=300, deadline=None)
@example(bits=512, num=1, den=9, scale=0)
@example(bits=64, num=1, den=66, scale=0)
# Texts longer than the 4300 digits CPython's int() reads by default: 4935
# significant digits at 16384 bits, and at 12288 bits 3700 digits after
# the 1174 zeros that full_str's fixed notation puts before a tiny value.
@example(bits=16384, num=1, den=3, scale=0)
@example(bits=12288, num=1, den=3, scale=-3900)
@given(
    bits=st.sampled_from(sorted(_ROUND_TRIP_CONTEXTS)),
    num=st.integers(-(10**40), 10**40),
    den=st.integers(1, 10**40),
    scale=st.integers(-400, 400),
)
def test_full_str_round_trips_random_values(bits, num, den, scale):
    ctx = _ROUND_TRIP_CONTEXTS[bits]
    x = ctx.mp.ldexp(ctx.mpf(num) / den, scale)
    assert ctx.mpf(ctx.full_str(x)) == x


@settings(max_examples=300, deadline=None)
@example(bits=64, sign="", digits="", point=0, exponent="")
@example(bits=64, sign="-", digits="", point=-1, exponent="e5")
@example(bits=64, sign="-", digits="00", point=0, exponent="e5")
@given(
    bits=st.sampled_from([64, 113, 512]),
    sign=st.sampled_from(["", "-", "+"]),
    digits=st.text("0123456789", max_size=60),
    point=st.integers(-1, 60),
    exponent=st.one_of(st.just(""), st.integers(-300, 300).map(lambda k: f"e{k}")),
)
def test_short_decimal_text_reads_as_mpmath_reads_it(bits, sign, digits, point, exponent):
    # Below a decimal exponent of 400 mpmath's reader is exact, so the two
    # readers agree bit for bit, and on which texts are errors ("."). The
    # one exception: text whose only digits are zeros after the point
    # (".0", "-.00e5") reads as zero, where mpmath raises.
    ctx = PrecisionContext(bits)
    body = digits if point < 0 else f"{digits[:point]}.{digits[point:]}"
    text = sign + body + exponent

    def outcome(read):
        try:
            return read(text)._mpf_
        except ValueError:
            return "ValueError"

    if point == 0 and digits and not digits.strip("0"):
        assert outcome(ctx.mpf) == ctx.mpf(0)._mpf_
    else:
        assert outcome(ctx.mpf) == outcome(ctx.mp.mpf)


@pytest.mark.parametrize("text", [".0", "-.00", "+.0", ".0e7", "-.000e-5"])
def test_zeros_after_a_bare_point_read_as_zero(ctx, text):
    assert ctx.mpf(text) == 0


@settings(max_examples=200, deadline=None)
@example(bits=113, man=781, k=-1562)
@example(bits=64, man=-(10**60) + 1, k=3000)
@given(
    bits=st.sampled_from([64, 113, 512]),
    man=st.integers(-(10**60), 10**60),
    k=st.integers(-3000, 3000),
)
def test_decimal_text_is_correctly_rounded_at_any_exponent(bits, man, k):
    ctx = PrecisionContext(bits)
    exact = Fraction(man) * Fraction(10) ** k
    got = ctx.mpf(f"{man}e{k}")
    # No neighbour one ulp either side is nearer to the exact value.
    ulp = ctx.mp.ldexp(1, ctx.mp.mag(got) - bits) if got else 0
    err = abs(Fraction(*to_rational(got._mpf_)) - exact)
    for neighbour in (got - ulp, got + ulp):
        assert err <= abs(Fraction(*to_rational(neighbour._mpf_)) - exact)


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_an_exponent_longer_than_int_reads_is_refused_in_its_own_words(ctx, sign):
    # CPython's int() reads at most 4300 digits by default.
    with pytest.raises(ValueError) as info:
        ctx.mpf(f"1e{sign}{'9' * 5000}")
    assert str(info.value) == "exponent of 5000 digits is too long"


@pytest.mark.parametrize("value", [" 1", "1_0", "inf", "-inf", "1/3", 3, 0.1])
def test_other_values_take_mpmaths_conversion(ctx, value):
    assert ctx.mpf(value)._mpf_ == ctx.mp.mpf(value)._mpf_


def test_decimal_digits_cover_the_mantissa(ctx):
    # Round-tripping 512 bits of mantissa needs ceil(512 log10 2) + 1 = 156
    # significant decimal digits; full_str prints them all.
    text = ctx.full_str(ctx.mpf(1) / 3)
    assert text.startswith("0.3")
    assert len(text) - len("0.") >= 156


def test_nstr_digit_control(ctx):
    x = ctx.mpf("0.7390851332151606")
    assert ctx.nstr(x, 5) == "0.73909"
