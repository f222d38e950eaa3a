"""Convergence diagnostics: COC, error ratios, and the asymptotic constant.

The computational order of convergence for a trace with errors e_n is

    rho_n = ln(|e_{n+1}| / |e_n|) / ln(|e_n| / |e_{n-1}|)

computed only where all three errors sit above 2^(-0.8*bits): below that,
cancellation noise dominates and the quotients are meaningless. The 0.2*bits
margin over the arithmetic floor keeps at least two clean triples for a
fourth-order method started near a simple root at 512 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientDataError, SimpleRootError
from .precision import PrecisionContext


@dataclass
class CocEstimate:
    per_step: list
    final: object
    usable_steps: int


@dataclass
class ErrorConstantReport:
    c: list
    formula_value: object
    empirical_ratios: list
    agreement: object  # |last empirical ratio| / |formula_value|, or None


def _errors(trace) -> list:
    """|e_n| of ``trace``; a trace without error data cannot be analysed."""
    errs = trace.errors()
    if errs is None:
        raise InsufficientDataError(
            "trace carries no error values; solve with a reference_root"
        )
    return errs


def coc(trace, ctx: PrecisionContext) -> CocEstimate:
    """Per-step computational order of convergence for a solved trace."""
    errs = _errors(trace)
    floor = ctx.usable_floor
    usable = [e > floor for e in errs]
    count = sum(usable)
    if count < 3:
        raise InsufficientDataError(
            f"need at least 3 errors above the usability floor, got {count}"
        )
    ln = ctx.mp.ln
    per_step = []
    for i in range(1, len(errs) - 1):
        if not (usable[i - 1] and usable[i] and usable[i + 1]):
            continue
        # Quotient first, then ln: the ratio of two representable errors is
        # exact whenever they differ by a power-of-two scale, and well
        # conditioned otherwise.
        den = ln(errs[i] / errs[i - 1])
        if den == 0:
            continue
        per_step.append(ln(errs[i + 1] / errs[i]) / den)
    if not per_step:
        raise InsufficientDataError("no well-conditioned consecutive error triple")
    return CocEstimate(per_step=per_step, final=per_step[-1], usable_steps=count)


def empirical_ratio(trace, order: int, ctx: PrecisionContext) -> list:
    """e_{n+1} / e_n**order for every usable consecutive pair.

    A pair is usable when both errors sit above the usability floor, the
    same rule the COC triples follow. The floor matters on both sides: the
    final error of a fast run is often pure iterate roundoff (its true
    value is far below 2^(-bits)), and dividing that noise by a tiny
    e_n**order manufactures astronomically wrong ratios. The list may come
    back empty (an affine problem reaches the root in one step and leaves
    nothing to measure); only a trace without error data at all is an
    error.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    errs = _errors(trace)
    floor = ctx.usable_floor
    return [
        errs[i + 1] / errs[i] ** order
        for i in range(len(errs) - 1)
        if errs[i] > floor and errs[i + 1] > floor
    ]


def error_constant(f, ctx: PrecisionContext, trace=None, root=None) -> ErrorConstantReport:
    """Taylor coefficients at the root and the fourth-order constant.

    With c_k = f^(k)(x*) / k! the reported formula value is

        -4*c1*c4 - 3*c2*c3 - 11*c4/c1 - 2*c2^3/c1^3 - 17*c2*c3/c1^2

    The empirical side, when a trace is supplied, is e_{n+1}/e_n^4 per
    usable step. The two are reported side by side as a diagnostic; nothing
    here asserts they agree, and for the test functions they generally do
    not. The robust, asserted claim is the order itself (see coc).

    The root is ``root``, else the trace's reference root; this function
    never solves for one, so a caller without a root refines it first.
    """
    if root is None and trace is not None:
        root = trace.root
    if root is None:
        raise ValueError(
            "no root available: pass root= or a trace solved with a reference_root"
        )
    jet = f.eval_jet(root, 4, ctx)
    c1, c2, c3, c4 = jet.coeffs[1], jet.coeffs[2], jet.coeffs[3], jet.coeffs[4]
    if abs(c1) < ctx.breakdown_floor:
        raise SimpleRootError(
            f"|f'(root)| = {ctx.nstr(abs(c1))} is below the breakdown floor; "
            "the root is not simple at working precision"
        )
    formula = (
        -4 * c1 * c4
        - 3 * c2 * c3
        - 11 * c4 / c1
        - 2 * c2 ** 3 / c1 ** 3
        - 17 * c2 * c3 / c1 ** 2
    )
    ratios = [] if trace is None else empirical_ratio(trace, 4, ctx)
    agreement = None
    if ratios and formula != 0:
        agreement = abs(ratios[-1]) / abs(formula)
    return ErrorConstantReport(
        c=[c1, c2, c3, c4],
        formula_value=formula,
        empirical_ratios=ratios,
        agreement=agreement,
    )


def stencil_coefficients(f, x, ctx: PrecisionContext) -> list:
    """c_1..c_4 at x by central differences, step 2^(-bits/4).

    Independent of the jet path: five function values and classical
    stencils. The power-of-two step keeps x +/- h exactly representable.

    The five evaluations run in an internal context at 2*bits + 64 bits.
    That headroom is not optional: the fourth-difference numerator is
    honestly of size h**4 * f'''' = 2^(-bits) * f'''', which at the
    caller's own precision coincides with evaluation roundoff and would
    return noise. Doubling the working precision pushes roundoff far
    below the numerator while the step, and therefore the truncation
    error of about 2^(-bits/2) relative, stays tied to the caller's
    context. Results are rounded back to the caller's precision.
    """
    wide = PrecisionContext(2 * ctx.bits + 64)
    h = wide.mpf(2) ** -(ctx.bits // 4)
    x = wide.mpf(x)
    fm2 = f(x - 2 * h, wide)
    fm1 = f(x - h, wide)
    f0 = f(x, wide)
    fp1 = f(x + h, wide)
    fp2 = f(x + 2 * h, wide)
    d1 = (fp1 - fm1) / (2 * h)
    d2 = (fp1 - 2 * f0 + fm1) / h ** 2
    d3 = (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * h ** 3)
    d4 = (fp2 - 4 * fp1 + 6 * f0 - 4 * fm1 + fm2) / h ** 4
    return [ctx.mpf(d1), ctx.mpf(d2 / 2), ctx.mpf(d3 / 6), ctx.mpf(d4 / 24)]
