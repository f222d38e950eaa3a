"""The tests' oracle for the jets: Taylor coefficients by central differences."""

from stefbench import PrecisionContext


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
