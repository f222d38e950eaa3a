"""Arbitrary-precision scalar arithmetic.

Each :class:`PrecisionContext` owns an independent mpmath context, so two
precision contexts never interfere with each other (and there is no global
precision state to mutate). Values produced by a context are plain ``mpf``
numbers of that context; arithmetic on them uses the usual operators.

The elementary functions provided here signal :class:`DomainError` for
arguments outside the real domain instead of silently returning complex
values or infinities, which is what bare mpmath does for ``ln``/``sqrt``.
They also signal it for an argument of ``sin``, ``cos`` or ``exp`` whose
magnitude reaches 2^bits: such a number has no fractional bits left, so the
result carries no information, and mpmath's time for it grows with the
magnitude. The checks themselves work on raw libmp values (``_mpf_``
tuples), so the compiled scalar path, which never builds an mpf between
entry and exit, applies the same checks with the same messages.
"""

from __future__ import annotations

from functools import cached_property

from mpmath.ctx_mp import MPContext
from mpmath.libmp import finf, fninf, fzero

from .errors import DomainError, InvalidPrecisionError

MIN_BITS = 64


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
        self.bits = bits
        # The underlying mpmath context, for callers needing the full API.
        self.mp = mp = MPContext()
        mp.prec = bits
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
        """
        return self.mp.mpf(value)

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

    # -- elementary functions on mpf values -------------------------------

    def _checked(self, check, name: str, x):
        """``x`` converted as mpmath's functions convert it, once ``check`` passes it."""
        x = self.mp.convert(x)
        check(name, x._mpf_)
        return x

    def sin(self, x):
        return self.mp.sin(self._checked(self.check_bounded, "sin", x))

    def cos(self, x):
        return self.mp.cos(self._checked(self.check_bounded, "cos", x))

    def cos_sin(self, x):
        """(cos x, sin x) from one call, bit for bit as ``cos`` and ``sin`` give them."""
        return self.mp.cos_sin(self._checked(self.check_bounded, "sin and cos", x))

    def exp(self, x):
        return self.mp.exp(self._checked(self.check_bounded, "exp", x))

    def ln(self, x):
        return self.mp.ln(self._checked(self.check_positive, "ln", x))

    def log10(self, x):
        """log10 x, bit for bit as ``mp.log10`` gives it, with ln 10 computed once.

        mpmath defines it as ln(x) / ln(10), both taken 20 bits above the
        working precision; its own ``log10`` recomputes ln(10) every call.
        """
        x = self._checked(self.check_positive, "log10", x)
        return self.mp.ln(x, prec=self.bits + 20) / self.ln10

    def atan(self, x):
        return self.mp.atan(x)

    def sqrt(self, x):
        return self.mp.sqrt(self._checked(self.check_nonnegative, "sqrt", x))

    # -- rendering -----------------------------------------------------

    def nstr(self, x, digits: int = 17) -> str:
        return self.mp.nstr(x, digits)

    def full_str(self, x) -> str:
        """All carried digits, for machine-readable output.

        mpmath's ``dps`` is one below bits * log10(2), rounded; two digits
        more make the text convert back to the same value.
        """
        return self.mp.nstr(x, self.mp.dps + 2)

    def __repr__(self) -> str:
        return f"PrecisionContext(bits={self.bits})"
