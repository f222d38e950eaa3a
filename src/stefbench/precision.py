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
magnitude.
"""

from __future__ import annotations

from functools import cached_property

from mpmath.ctx_mp import MPContext

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

    @property
    def eps(self):
        """Unit roundoff scale, 2^(1-bits)."""
        return self.mp.mpf(2) ** (1 - self.bits)

    @property
    def decimal_digits(self) -> int:
        """Number of significant decimal digits carried, rounded up."""
        return self.mp.dps + 2

    # -- elementary functions -----------------------------------------

    def _bounded(self, name: str, x):
        # mag(x) > bits exactly when |x| >= 2^bits (infinities included).
        if self.mp.mag(x) > self.bits:
            raise DomainError(
                f"{name} of {self.nstr(x)}: |argument| >= 2^{self.bits} "
                "has no fractional bits at working precision"
            )
        return x

    def sin(self, x):
        return self.mp.sin(self._bounded("sin", x))

    def cos(self, x):
        return self.mp.cos(self._bounded("cos", x))

    def cos_sin(self, x):
        """(cos x, sin x) from one call, bit for bit as ``cos`` and ``sin`` give them."""
        return self.mp.cos_sin(self._bounded("sin and cos", x))

    def exp(self, x):
        return self.mp.exp(self._bounded("exp", x))

    def ln(self, x):
        if x <= 0:
            raise DomainError(f"ln of non-positive value {self.nstr(x)}")
        return self.mp.ln(x)

    def log10(self, x):
        """log10 x, bit for bit as ``mp.log10`` gives it, with ln 10 computed once.

        mpmath defines it as ln(x) / ln(10), both taken 20 bits above the
        working precision; its own ``log10`` recomputes ln(10) every call.
        """
        if x <= 0:
            raise DomainError(f"log10 of non-positive value {self.nstr(x)}")
        return self.mp.ln(x, prec=self.bits + 20) / self.ln10

    def atan(self, x):
        return self.mp.atan(x)

    def sqrt(self, x):
        if x < 0:
            raise DomainError(f"sqrt of negative value {self.nstr(x)}")
        return self.mp.sqrt(x)

    # -- rendering -----------------------------------------------------

    def nstr(self, x, digits: int = 17) -> str:
        return self.mp.nstr(x, digits)

    def full_str(self, x) -> str:
        """All carried digits, for machine-readable output."""
        return self.mp.nstr(x, self.decimal_digits)

    def __repr__(self) -> str:
        return f"PrecisionContext(bits={self.bits})"
