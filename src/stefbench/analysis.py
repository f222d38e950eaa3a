"""Convergence diagnostics: COC, error ratios, and mkdf's asymptotic constant.

Order information comes only from usable error pairs: a consecutive pair
(e_n, e_{n+1}) is usable when both errors sit above the usability floor
2^-ceil(0.8*bits). Below it, cancellation noise dominates and the quotients
are meaningless; the 0.2*bits margin over the arithmetic floor keeps at
least two clean triples for a fourth-order method started near a simple
root at 512 bits. The computational order of convergence (COC) is

    rho_n = ln(|e_{n+1}| / |e_n|) / ln(|e_n| / |e_{n-1}|)

over each two neighbouring usable pairs, and the error ratios are
e_{n+1} / e_n**order over each usable pair. Each quotient e_{n+1}/e_n is
formed at working precision, since the errors need all their bits, but its
logarithm is taken at min(bits, LOG_BITS): rho is printed to 5 digits, and
128 bits leave it a relative error near 2^-127.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InsufficientDataError, SimpleRootError
from .methods import METHODS
from .precision import PrecisionContext

# Precision of coc's logarithms: rho's relative error near 2^-127 against 5 printed digits.
LOG_BITS = 128


class CocEstimate(NamedTuple):
    per_step: list
    usable_steps: int

    @property
    def final(self):
        return self.per_step[-1]


class ErrorConstantReport(NamedTuple):
    c: list
    formula_value: object  # mkdf's K
    empirical_ratios: list

    @property
    def agreement(self):
        """|last empirical ratio| / |formula_value|, or None without a ratio or with K = 0."""
        if not self.empirical_ratios or self.formula_value == 0:
            return None
        return abs(self.empirical_ratios[-1]) / abs(self.formula_value)


def _usable_pairs(trace, ctx: PrecisionContext) -> tuple:
    """The count of ``trace``'s usable errors, and its consecutive pairs.

    Each pair is (e_n, e_{n+1}) when both errors are usable and None
    otherwise. A trace without error data cannot be analysed.
    """
    errs = trace.errors()
    if errs is None:
        raise InsufficientDataError(
            "trace carries no error values; solve with a reference_root"
        )
    floor = ctx.usable_floor
    usable = [e > floor for e in errs]
    pairs = [
        (a, b) if ok_a and ok_b else None
        for a, b, ok_a, ok_b in zip(errs, errs[1:], usable, usable[1:])
    ]
    return sum(usable), pairs


def coc(trace, ctx: PrecisionContext) -> CocEstimate:
    """Per-step computational order of convergence for a solved trace."""
    count, pairs = _usable_pairs(trace, ctx)
    if count < 3:
        raise InsufficientDataError(
            f"need at least 3 errors above the usability floor, got {count}"
        )
    # Quotient first, then ln: the ratio of two representable errors is
    # exact whenever they differ by a power-of-two scale, and well
    # conditioned otherwise. The quotient keeps working precision and only
    # its ln is taken at min(bits, LOG_BITS): mpmath's ln with prec= is
    # accurate near q = 1, where rounding q to 128 bits first would give
    # ln 0 for q = 1 + 2^-300 and read a moving pair as stalled. Each
    # pair's logarithm is taken once and serves as one rho's numerator and
    # the next one's denominator.
    prec = min(ctx.bits, LOG_BITS)
    logs = [None if p is None else ctx.mp.ln(p[1] / p[0], prec=prec) for p in pairs]
    # A rho is skipped where its denominator is missing (None) or 0: both are falsy.
    per_step = [num / den for den, num in zip(logs, logs[1:]) if den and num is not None]
    if not per_step:
        raise InsufficientDataError("no well-conditioned consecutive error triple")
    return CocEstimate(per_step=per_step, usable_steps=count)


def empirical_ratio(trace, order: int, ctx: PrecisionContext) -> list:
    """e_{n+1} / e_n**order for every usable consecutive pair.

    The floor matters on both sides: the final error of a fast run is often
    pure iterate roundoff (its true value is far below 2^(-bits)), and
    dividing that noise by a tiny e_n**order manufactures astronomically
    wrong ratios. The list may come back empty (an affine problem reaches
    the root in one step and leaves nothing to measure); only a trace
    without error data at all is an error.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    _, pairs = _usable_pairs(trace, ctx)
    return [b / a**order for a, b in filter(None, pairs)]


def error_constant(f, ctx: PrecisionContext, trace=None, root=None) -> ErrorConstantReport:
    """Taylor coefficients at the root and mkdf's fourth-order constant K.

    With c_k = f^(k)(x*) / k!, expanding mkdf's update about the root
    gives e_{n+1} = K e_n^4 + O(e_n^5) with

        K = -c2*(c1^3*c3 + c1*c3 - 3*c2^2) / c1^3

    K has no c4 term; c4 is reported beside it. The empirical side, when a
    trace is supplied, is e_{n+1}/e_n^4 per usable step, and for an mkdf
    run its last ratio tends to K, so the agreement tends to 1.

    The root is ``root``, else the trace's reference root; this function
    never solves for one, so a caller without a root refines it first.
    """
    if root is None and trace is not None:
        root = trace.root
    if root is None:
        raise ValueError(
            "no root available: pass root= or a trace solved with a reference_root"
        )
    _, c1, c2, c3, c4 = f.eval_jet(root, 4, ctx)
    if abs(c1) < ctx.breakdown_floor:
        raise SimpleRootError(
            f"|f'(root)| = {ctx.nstr(abs(c1))} is below the breakdown floor; "
            "the root is not simple at working precision"
        )
    formula = -c2 * (c1 ** 3 * c3 + c1 * c3 - 3 * c2 ** 2) / c1 ** 3
    return ErrorConstantReport(
        c=[c1, c2, c3, c4],
        formula_value=formula,
        empirical_ratios=(
            [] if trace is None else empirical_ratio(trace, METHODS["mkdf"].order, ctx)
        ),
    )
