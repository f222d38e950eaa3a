"""PrecisionContext: validation, floors, unit roundoff, domain guards, rendering."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_rational

from stefbench import (
    MAX_BITS,
    DomainError,
    InvalidPrecisionError,
    PrecisionContext,
    from_expression,
)
from stefbench.precision import MAX_DECIMAL_EXPONENT
from stefbench.reference import _LOG_GUARD_BITS, _discrepancy
from conftest import eps


# Above MAX_BITS, refused before the context is built.
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


# (name, k, d) of each floor, nominally 2^(-k*bits/d).
_FLOORS = (("breakdown_floor", 9, 10), ("convergence_floor", 19, 20), ("usable_floor", 4, 5))


# Every exponent is integral at 640 bits. A verdict lies within half a bit
# of a floor at 83, 159 and 1128 bits, and a residual between two floors at
# 1792. libmp's d-th root misrounds 2^(-k*bits/d) at 3037, 6164, 12288 and
# 12312 bits, and rounds it correctly at every precision up to 1499.
@pytest.mark.parametrize(
    "bits", [64, 83, 159, 512, 640, 1128, 1499, 1792, 3037, 6164, 12288, 12312, 16384, MAX_BITS]
)
def test_floors_are_the_largest_powers_of_two_at_or_below_nominal(bits):
    c = PrecisionContext(bits)
    wide = MPContext()
    wide.prec = bits + 64
    for name, k, d in _FLOORS:
        floor = getattr(c, name)
        assert floor._mpf_ == (0, 1, -math.ceil(Fraction(k * bits, d)), 1), name
        assert floor <= wide.mpf(2) ** (-wide.mpf(k * bits) / d) < 2 * floor, name


def test_floor_ordering_and_magnitude(ctx):
    two = ctx.mpf(2)
    assert ctx.breakdown_floor == two ** -461
    assert ctx.convergence_floor == two ** -487
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
    assert ctx.sqrt(zero._mpf_) == zero._mpf_
    assert ctx.atan(ctx.mpf(-3)._mpf_) == ctx.mp.atan(-3)._mpf_


@pytest.mark.parametrize("name", ["sin", "cos", "cos_sin", "exp", "ln", "atan", "sqrt"])
def test_elementary_functions_take_raw_values_only(ctx, name):
    with pytest.raises(TypeError):
        getattr(ctx, name)(ctx.mpf(2))


_LOG10_CONTEXTS = {bits: PrecisionContext(bits) for bits in (64, 512, 2048)}
# ln 10 as run_benchmark takes it.
_LN10 = {bits: c.mp.ln(10, prec=bits + _LOG_GUARD_BITS) for bits, c in _LOG10_CONTEXTS.items()}


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
    # The replay's logarithm, a discrepancy against 1, on a binary value
    # anywhere in range and on a power of ten (1 when power is 0) moved by
    # a few units in the last place, where the quotient of the two
    # logarithms is nearest an integer.
    c = _LOG10_CONTEXTS[bits]
    one, ten = c.mpf(1), c.mpf(10) ** power
    for x in (c.mp.ldexp(c.mpf(mantissa), exponent), ten + ulps * eps(c) * ten):
        assert _discrepancy(x, one, c, _LN10[bits]) == c.mp.log10(x)


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


def _assert_correctly_rounded(ctx, got, man, k):
    """No neighbour one ulp either side of ``got`` is nearer to man * 10^k.

    The distances are compared as integers over one common denominator:
    Fraction's gcds take seconds at |k| = 362144.
    """
    n, d = (man * 10**k, 1) if k >= 0 else (man, 10**-k)
    ulp = ctx.mp.ldexp(1, ctx.mp.mag(got) - ctx.bits) if got else 0
    values = [to_rational(v._mpf_) for v in (got, got - ulp, got + ulp)]
    top = max(q for _, q in values)  # each q is a power of two
    err = [abs(p * (top // q) * d - n * top) for p, q in values]
    assert err[0] <= min(err[1:])


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
    _assert_correctly_rounded(ctx, ctx.mpf(f"{man}e{k}"), man, k)


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_an_exponent_longer_than_int_reads_is_refused_in_its_own_words(ctx, sign):
    # CPython's int() reads at most 4300 digits by default.
    with pytest.raises(ValueError) as info:
        ctx.mpf(f"1e{sign}{'9' * 5000}")
    assert str(info.value) == "exponent of 5000 digits is too long"


# mpmath's reader rounds 2515e-362144 to the wrong neighbour at 64 bits.
@pytest.mark.parametrize("man, k", [(7, -362144), (7, 362144), (2515, -362144)])
def test_decimal_text_at_the_exponent_bound_is_correctly_rounded(man, k):
    assert MAX_DECIMAL_EXPONENT == 10**5 + 4 * MAX_BITS == abs(k)
    ctx = PrecisionContext(64)
    _assert_correctly_rounded(ctx, ctx.mpf(f"{man}e{k}"), man, k)


@pytest.mark.parametrize("text", ["1e-400000", "1e362145", "-7e-362145", "1e" + "9" * 4000,
                                  "0." + "0" * MAX_DECIMAL_EXPONENT + "1"])
def test_decimal_text_beyond_the_exponent_bound_is_refused(ctx, text):
    # mpmath would read it, in a time that grows with the exponent:
    # 41 s for an exponent of 4000 digits.
    with pytest.raises(ValueError, match=r"^decimal exponent beyond \+-362144$"):
        ctx.mpf(text)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "INF", 3, 0.1])
def test_other_values_take_mpmaths_conversion(ctx, value):
    assert ctx.mpf(value)._mpf_ == ctx.mp.mpf(value)._mpf_


# mpmath's reader would strip the space and drop the underscore, and read
# the fraction, the L suffix, the Unicode digit and the long name; after a
# space, it takes seconds over an exponent of 1000 digits.
@pytest.mark.parametrize(
    "text",
    [" 1", "1_0", "1/3", "1e5L", "٣", "Infinity", pytest.param(" 1e" + "9" * 1000, id="long")],
)
def test_other_text_is_not_a_decimal_number(ctx, text):
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        ctx.mpf(text)
    assert time.perf_counter() - start < 1
    # Longer text is echoed by its first 40 characters and its length.
    shown = repr(text) if len(text) <= 40 else f"' 1e{'9' * 37}'... (1003 characters)"
    assert str(info.value) == f"not a decimal number: {shown}"


def test_decimal_digits_cover_the_mantissa(ctx):
    # Round-tripping 512 bits of mantissa needs ceil(512 log10 2) + 1 = 156
    # significant decimal digits; full_str prints them all.
    text = ctx.full_str(ctx.mpf(1) / 3)
    assert text.startswith("0.3")
    assert len(text) - len("0.") >= 156


def test_nstr_digit_control(ctx):
    x = ctx.mpf("0.7390851332151606")
    assert ctx.nstr(x, 5) == "0.73909"


def test_nstr_prints_a_full_mantissa_at_the_top_precisions():
    # mpmath's own nstr scales 1e-1100 by a power of ten chosen from the
    # exponent of all 16384 mantissa bits, and then str() of an int of
    # 4932 digits exceeds CPython's limit of 4300.
    ctx = PrecisionContext(16384)
    assert ctx.nstr(ctx.mpf("1e-1100"), 5) == "1.0e-1100"


_NSTR_CONTEXTS = {bits: PrecisionContext(bits) for bits in (64, 113, 512, 2048, 8192)}


@settings(max_examples=300, deadline=None)
@example(bits=8192, num=1, scale=-20000, digits=5)
@example(bits=512, num=2**512 - 1, scale=-3700, digits=17)
@given(
    bits=st.sampled_from(sorted(_NSTR_CONTEXTS)),
    num=st.integers(-(2**8192), 2**8192),
    scale=st.integers(-20000, 20000),
    digits=st.sampled_from([5, 17, 30]),
)
def test_nstr_prints_mpmaths_digits(bits, num, scale, digits):
    # Below 14,400 bits mpmath's nstr prints every value, so it is the oracle,
    # on both sides of the binary exponent 3500 where it starts to scale.
    ctx = _NSTR_CONTEXTS[bits]
    x = ctx.mp.ldexp(ctx.mpf(num), scale)
    assert ctx.nstr(x, digits) == ctx.mp.nstr(x, digits)


def test_nstr_keeps_its_result_for_its_callers_values(ctx):
    wide = PrecisionContext(2048)
    third = ctx.mpf(1) / 3
    values = [third, -third, ctx.mpf(0), ctx.mp.inf, -ctx.mp.inf, ctx.mp.nan, wide.mpf(1) / 7]
    for x in values:
        assert ctx.nstr(x) == ctx.mp.nstr(x, 17)
        for digits in (3, 5, 8, 10, 15, 20, 30):
            assert ctx.nstr(x, digits) == ctx.mp.nstr(x, digits)


def test_paper_str_rounds_a_tie_half_up(ctx):
    # 1.03125 = 33/32: the sixth digit is an exact tie.
    assert ctx.paper_str(ctx.mpf("1.03125")) == "0.10313e+1"
    assert ctx.paper_str(ctx.mpf("-1.03125")) == "-0.10313e+1"
    assert ctx.nstr(ctx.mpf("0.00390625"), 5) == "0.0039063"
    assert ctx.paper_str(ctx.mpf("0.00390625")) == "0.39063e-2"


def test_paper_str_prints_a_decimal_exponent_longer_than_the_precision():
    # |f(44.3)| = 5.7435...e+7534073619514022120424, a decimal exponent of
    # 22 digits: a 64-bit log10 of it carries too few digits to place them.
    ctx = PrecisionContext(64)
    fx = from_expression("exp(exp(x))^1000")(ctx.mpf("44.3"), ctx)
    assert ctx.paper_str(fx) == "0.57435e+7534073619514022120425"
    assert ctx.paper_str(ctx.mpf(2) ** (10**20)) == "0.23653e+30102999566398119522"
