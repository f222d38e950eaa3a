"""Arbitrary-precision scalar arithmetic.

Each :class:`PrecisionContext` owns an independent mpmath context, so two
precision contexts never interfere with each other (and there is no global
precision state to mutate). Values produced by a context are plain ``mpf``
numbers of that context; arithmetic on them uses the usual operators.

The elementary functions provided here signal :class:`DomainError` for
arguments outside the real domain instead of silently returning complex
values or infinities, which is what bare mpmath does for ``ln``/``sqrt``.
"""

from __future__ import annotations

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
    carries order information.
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
        # 0.8*bits = 4*bits/5.
        self.breakdown_floor = two ** (-mp.mpf(9 * bits) / 10)
        self.convergence_floor = two ** (-mp.mpf(19 * bits) / 20)
        self.usable_floor = two ** (-mp.mpf(4 * bits) / 5)
        # Expressions compiled for this context, filled by ScalarFunction;
        # the code lives exactly as long as the context does.
        self.compiled = {}

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

    def sin(self, x):
        return self.mp.sin(x)

    def cos(self, x):
        return self.mp.cos(x)

    def exp(self, x):
        return self.mp.exp(x)

    def ln(self, x):
        if x <= 0:
            raise DomainError(f"ln of non-positive value {self.nstr(x)}")
        return self.mp.ln(x)

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
