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
left, and mpmath's time for it grows with the magnitude. Only ``log10``
takes and returns mpf values.

``mpf`` reads plain decimal text itself, correctly rounded at any length,
so the text ``full_str`` prints reads back at every precision.
"""

from __future__ import annotations

import math
import re
from functools import cached_property

from mpmath.ctx_mp import MPContext
from mpmath.libmp import finf, fninf, from_int, from_rational, fzero, mpf_shift
from mpmath.libmp import mpf_atan, mpf_cos, mpf_cos_sin, mpf_exp, mpf_log, mpf_sin, mpf_sqrt

from .errors import DomainError, InvalidPrecisionError

MIN_BITS = 64
# Building a context takes about 0.6 s at this size on a 2-core machine,
# and the time grows faster than bits^2 above it.
MAX_BITS = 65536

# Plain decimal text: a sign, digits with at most one point, an exponent.
_DECIMAL = re.compile(r"([+-]?)([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")
# Digits per int() call, below CPython's default limit of 4300.
_CHUNK_DIGITS = 4000


def read_exponent(text: str) -> int:
    """The integer of an exponent's digits, or ValueError if it has more
    digits than CPython's int() reads (4300 by default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise ValueError(f"exponent of {digits} digits is too long") from None


class PrecisionContext:
    """Working precision plus the tolerances derived from it.

    ``breakdown_floor``  = 2^(-0.9 * bits): smallest admissible magnitude
    for a method denominator.
    ``convergence_floor`` = 2^(-0.95 * bits): residual magnitude treated
    as "at the root".
    ``usable_floor`` = 2^(-0.8 * bits): smallest error |e_n| that still
    carries order information. Only the order analysis reads it, so it is
    computed on first use.
    ``ln10`` = ln 10 at bits + 20, the guard precision of mpmath's
    ``log(x, 10)``: the divisor of ``log10``, also computed on first use.
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
        two = mp.mpf(2)
        # Exact rational exponents: 0.9*bits = 9*bits/10, 0.95*bits = 19*bits/20,
        # and 0.8*bits = 4*bits/5 in usable_floor.
        self.breakdown_floor = two ** (-mp.mpf(9 * bits) / 10)
        self.convergence_floor = two ** (-mp.mpf(19 * bits) / 20)
        # Expressions compiled for this context, filled by ScalarFunction;
        # the code lives exactly as long as the context does.
        self.compiled = {}

    @cached_property
    def usable_floor(self):
        mp = self.mp
        return mp.mpf(2) ** (-mp.mpf(4 * self.bits) / 5)

    @cached_property
    def ln10(self):
        return self.mp.ln(10, prec=self.bits + 20)

    # -- construction -------------------------------------------------

    def mpf(self, value):
        """Convert ``value`` (string, int, float or mpf) at working precision.

        Decimal text is parsed directly at this context's precision; prefer
        strings over floats so literals are never staged through binary64.
        Plain decimal text is rounded once and correctly, however many
        digits it has (see ``_read_decimal``); every other value goes
        through mpmath's own conversion.
        """
        if isinstance(value, str):
            raw = self._read_decimal(value)
            if raw is not None:
                return self.mp.make_mpf(raw)
        return self.mp.mpf(value)

    def _read_decimal(self, text: str):
        """The raw value of plain decimal text, or None for any other text.

        The text is m * 10^k with an integer m of any length, read in
        chunks that CPython's int() accepts. The result is m * 5^k or
        m / 5^-k rounded once, then scaled by 2^k: m * 10^k correctly
        rounded, as mpmath reads it for |k| <= 400. Above that mpmath
        scales by 10^k with 10 guard bits and no rounding guarantee.
        5^|k| takes about 5 ms at |k| = 10^5 (from_rational normalises a
        divisor 10^|k| in time |k|^2), so text with |k| beyond
        10^5 + 4 * bits, far outside anything ``full_str`` prints, is
        left to mpmath, as is text with no digit (".", "-e5"). An exponent
        that int() cannot read is a ValueError (see ``read_exponent``).
        """
        match = _DECIMAL.fullmatch(text)
        if match is None:
            return None
        sign, whole, frac, exp = match.groups()
        frac = frac or ""
        digits = whole + frac
        k = read_exponent(exp or "0") - len(frac)
        if not digits or abs(k) > 10**5 + 4 * self.bits:
            return None
        man = 0
        for start in range(0, len(digits), _CHUNK_DIGITS):
            chunk = digits[start : start + _CHUNK_DIGITS]
            man = man * 10 ** len(chunk) + int(chunk)
        if sign == "-":
            man = -man
        if k >= 0:
            raw = from_int(man * 5**k, self._prec, self._rnd)
        else:
            raw = from_rational(man, 5**-k, self._prec, self._rnd)
        return mpf_shift(raw, k)

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
                f"{name} of {self._show(v)}: |argument| >= 2^{self.bits} "
                "has no fractional bits at working precision"
            )

    def check_positive(self, name: str, v):
        """DomainError if v <= 0."""
        if v[0] or v == fzero:
            raise DomainError(f"{name} of non-positive value {self._show(v)}")

    def check_nonnegative(self, name: str, v):
        """DomainError if v < 0."""
        if v[0]:
            raise DomainError(f"{name} of negative value {self._show(v)}")

    def _show(self, v) -> str:
        return self.nstr(self.mp.make_mpf(v))

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

    def log10(self, x):
        """log10 x of an mpf, bit for bit as ``mp.log10`` gives it, with ln 10 computed once.

        mpmath defines it as ln(x) / ln(10), both taken 20 bits above the
        working precision; its own ``log10`` recomputes ln(10) every call.
        """
        x = self.mp.convert(x)
        self.check_positive("log10", x._mpf_)
        return self.mp.ln(x, prec=self.bits + 20) / self.ln10

    # -- rendering -----------------------------------------------------

    def nstr(self, x, digits: int = 17) -> str:
        return self.mp.nstr(x, digits)

    def full_str(self, x) -> str:
        """All carried digits, for machine-readable output.

        ceil(bits * log10(2)) + 1 significant digits tell apart any two
        values of a bits-bit mantissa, so ``mpf`` of the text at this
        precision gives back the same value.
        """
        return self.mp.nstr(x, math.ceil(self.bits * math.log10(2)) + 1)

    def __repr__(self) -> str:
        return f"PrecisionContext(bits={self.bits})"
