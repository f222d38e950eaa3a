"""Arbitrary-precision scalar arithmetic.

Each :class:`PrecisionContext` owns an independent mpmath context, so two
precision contexts never interfere with each other (and there is no global
precision state to mutate). Values produced by a context are plain ``mpf``
numbers of that context; arithmetic on them uses the usual operators.

The context's ``sin``, ``cos``, ``cos_sin``, ``exp``, ``ln``, ``atan`` and
``sqrt`` are the program's one set of elementary functions: the compiled
scalar path and the jets both call them, on raw libmp values (``_mpf_``
tuples). Each is a domain check, then the libmp call that mpmath's
function makes at working precision and rounding. The checks signal
:class:`DomainError` where bare mpmath would return a complex value or an
infinity (``ln``, ``sqrt``), and for ``sin``, ``cos`` or ``exp`` of a
magnitude of 2^bits or more: such an argument has no fractional bits
left, and mpmath's time for it grows with the magnitude.

``mpf`` reads decimal text itself, correctly rounded at any length, so the
text ``full_str`` prints reads back at every precision for every value
within 10^(+-10^5); mpmath's reader gets only the names in NON_FINITE.
"""

from __future__ import annotations

import math
import re

from mpmath.ctx_mp import MPContext
from mpmath.libmp import finf, fninf, from_int, from_rational, fzero, mpf_pos, mpf_shift
from mpmath.libmp import round_down, to_str
from mpmath.libmp import mpf_atan, mpf_cos, mpf_cos_sin, mpf_exp, mpf_log, mpf_sin, mpf_sqrt

from .errors import DomainError, InvalidPrecisionError

MIN_BITS = 64
# One mkdf step on f3 takes about 1.5 s at this size on a 2-core Xeon, 4.4
# times as long as at 32768 bits, so the bound keeps each step within seconds.
MAX_BITS = 65536

# The one syntax of a number: ASCII digits, at least one, with at most one
# point, and an optional exponent. The tokenizer reads it; DECIMAL adds a
# sign, for ``mpf`` and every number on the command line.
NUMBER = r"(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?"
DECIMAL = re.compile(r"([+-]?)" + NUMBER)
NON_FINITE = frozenset({"inf", "+inf", "-inf", "nan"})  # mpmath's names, in any case
# Digits per int() call, below CPython's default limit of 4300.
_CHUNK_DIGITS = 4000
# The largest |k| of decimal text m * 10^k that ``mpf`` reads, at every
# precision: above the k of the text ``full_str`` prints for any value
# within 10^(+-10^5). Text at the bound reads in about 0.05 s at 64 bits
# and 0.15 s at MAX_BITS.
MAX_DECIMAL_EXPONENT = 10**5 + 4 * MAX_BITS


def read_exponent(text: str) -> int:
    """The integer of an exponent's digits, or ValueError if it has more
    digits than CPython's int() reads (4300 by default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise ValueError(f"exponent of {digits} digits is too long") from None


def shown(text: str) -> str:
    """repr(text) for an error message; past 40 characters, its first 40 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def split_decimal(text: str):
    """(m, k) of decimal text, whose value is the integer m times 10^k.

    m of any length is read in chunks that CPython's int() accepts.
    ValueError for any other text, if the exponent is too long for int()
    (see ``read_exponent``), or if |k| > MAX_DECIMAL_EXPONENT.
    """
    match = DECIMAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a decimal number: {shown(text)}")
    sign, whole, frac, exp = match.groups()
    frac = frac or ""
    digits = whole + frac
    k = read_exponent(exp or "0") - len(frac)
    if abs(k) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    man = 0
    for start in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[start : start + _CHUNK_DIGITS]
        man = man * 10 ** len(chunk) + int(chunk)
    return (-man if sign == "-" else man), k


class PrecisionContext:
    """Working precision plus the tolerances derived from it.

    Each floor is the largest power of two at or below its nominal value:
    ``breakdown_floor`` = 2^-ceil(0.9 * bits), the smallest admissible
    magnitude for a method denominator;
    ``convergence_floor`` = 2^-ceil(0.95 * bits), the residual magnitude
    treated as "at the root";
    ``usable_floor`` = 2^-ceil(0.8 * bits), the smallest error |e_n| that
    still carries order information.
    """

    def __init__(self, bits: int):
        if not isinstance(bits, int) or isinstance(bits, bool) or bits < MIN_BITS:
            raise InvalidPrecisionError(
                f"precision must be an integer >= {MIN_BITS} bits, got {bits!r}"
            )
        if bits > MAX_BITS:
            raise InvalidPrecisionError(f"precision must be at most {MAX_BITS} bits, got {bits}")
        self.bits = bits
        # The underlying mpmath context, for callers needing the full API.
        self.mp = mp = MPContext()
        mp.prec = bits
        # The precision and rounding that mpf operators and mpmath's functions read.
        self._prec, self._rnd = mp._prec_rounding
        # 2^-ceil(k*bits/d), exact: -k*bits // d is -ceil(k*bits/d), and
        # ldexp shifts the exponent of 1.
        self.breakdown_floor = mp.ldexp(1, -9 * bits // 10)
        self.convergence_floor = mp.ldexp(1, -19 * bits // 20)
        self.usable_floor = mp.ldexp(1, -4 * bits // 5)
        # Expressions compiled for this context, filled by ScalarFunction;
        # the code lives exactly as long as the context does.
        self.compiled = {}

    # -- construction -------------------------------------------------

    def mpf(self, value):
        """Convert ``value`` (string, int, float or mpf) at working precision.

        Prefer strings over floats, so literals are never staged through
        binary64. Decimal text m * 10^k (see ``split_decimal``) becomes
        m * 5^k or m / 5^-k rounded once, then scaled by 2^k: m * 10^k
        correctly rounded however many digits it has, as mpmath reads it
        for |k| <= 400. Above that mpmath scales by 10^k with 10 guard bits
        and no rounding guarantee, in a time that grows with |k| without
        bound, so it reads only the names in NON_FINITE. Other text is a
        ValueError. Values that are not text go through mpmath's conversion.
        """
        if not isinstance(value, str) or value.lower() in NON_FINITE:
            return self.mp.mpf(value)
        man, k = split_decimal(value)
        if k >= 0:
            raw = from_int(man * 5**k, self._prec, self._rnd)
        else:
            raw = from_rational(man, 5**-k, self._prec, self._rnd)
        return self.mp.make_mpf(mpf_shift(raw, k))

    # -- domain checks on raw values ------------------------------------
    #
    # Each takes a libmp ``_mpf_`` tuple (sign, mantissa, exponent, bit
    # count) and returns None or raises DomainError. Raw values have no
    # negative zero, and NaN has sign 0, so NaN passes every check, as it
    # passes the comparisons ``x <= 0`` and ``x < 0``.

    def check_bounded(self, name: str, v):
        """DomainError if |v| >= 2^bits, infinities included."""
        # A finite nonzero value has magnitude exponent + bit count.
        if (v[2] + v[3] > self.bits) if v[1] else (v == finf or v == fninf):
            raise DomainError(
                f"{name} of {self._str(v, 17)}: |argument| >= 2^{self.bits} "
                "has no fractional bits at working precision"
            )

    def check_positive(self, name: str, v):
        """DomainError if v <= 0."""
        if v[0] or v == fzero:
            raise DomainError(f"{name} of non-positive value {self._str(v, 17)}")

    def check_nonnegative(self, name: str, v):
        """DomainError if v < 0."""
        if v[0]:
            raise DomainError(f"{name} of negative value {self._str(v, 17)}")

    # -- elementary functions on raw values -----------------------------
    #
    # Each takes and returns an ``_mpf_`` tuple; an mpf argument is a
    # TypeError.

    def sin(self, v):
        self.check_bounded("sin", v)
        return mpf_sin(v, self._prec, self._rnd)

    def cos(self, v):
        self.check_bounded("cos", v)
        return mpf_cos(v, self._prec, self._rnd)

    def cos_sin(self, v):
        """(cos v, sin v) from one call, bit for bit as ``cos`` and ``sin`` give them."""
        self.check_bounded("sin and cos", v)
        return mpf_cos_sin(v, self._prec, self._rnd)

    def exp(self, v):
        self.check_bounded("exp", v)
        return mpf_exp(v, self._prec, self._rnd)

    def ln(self, v):
        self.check_positive("ln", v)
        return mpf_log(v, self._prec, self._rnd)

    def atan(self, v):
        return mpf_atan(v, self._prec, self._rnd)

    def sqrt(self, v):
        self.check_nonnegative("sqrt", v)
        return mpf_sqrt(v, self._prec, self._rnd)

    # -- rendering -----------------------------------------------------

    def _str(self, v, digits: int, **options) -> str:
        """The one conversion: libmp's ``to_str`` of the raw value v, cut toward
        zero to 4 * digits + 64 bits first. The cut changes no digit; uncut, a
        mantissa of 14,400 bits or more can overflow CPython's int str()."""
        return to_str(mpf_pos(v, 4 * digits + 64, round_down), digits, **options)

    def nstr(self, x, digits: int = 17) -> str:
        return self._str(x._mpf_, digits)

    def full_str(self, x) -> str:
        """All carried digits, for machine-readable output.

        ceil(bits * log10(2)) + 1 significant digits tell apart any two
        values of a bits-bit mantissa, so ``mpf`` of the text at this
        precision gives back the same value.
        """
        return self.nstr(x, math.ceil(self.bits * math.log10(2)) + 1)

    def paper_str(self, x) -> str:
        """The mpf x as 0.ddddde+N, the notation of the reference tables.

        The five digits are ``nstr``'s: a tie at the sixth digit rounds half-up.
        """
        v = x._mpf_
        if not v[1]:  # zero, an infinity or NaN
            return "0.00000e+0" if v == fzero else self._str(v, 5)
        text = self._str(v, 5, strip_zeros=False, min_fixed=0, max_fixed=0, show_zero_exponent=True)
        mantissa, _, exponent = text.partition("e")
        lead, _, tail = mantissa.partition(".")
        return f"{lead[:-1]}0.{lead[-1]}{tail}e{int(exponent) + 1:+d}"

    def __repr__(self) -> str:
        return f"PrecisionContext(bits={self.bits})"
