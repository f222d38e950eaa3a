"""Shared fixtures: one 512-bit context and refined roots for the built-ins,
and the unit roundoff helper ``eps``."""

import pytest

from stefbench import BUILTINS, PrecisionContext, refine_root


def eps(ctx):
    """Unit roundoff scale of ``ctx``, 2^(1-bits)."""
    return ctx.mpf(2) ** (1 - ctx.bits)


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(512)


@pytest.fixture(scope="session")
def roots(ctx):
    """Fully refined roots of the seven built-ins, keyed by name."""
    return {
        name: refine_root(f, ctx.mpf(f.reference_root), ctx)
        for name, f in BUILTINS.items()
    }


@pytest.fixture(scope="session")
def close(ctx):
    """Comparison helper: |a - b| within a few units of rounding at scale."""

    def _close(a, b, ulps=8):
        a = ctx.mpf(a)
        b = ctx.mpf(b)
        unit = eps(ctx)
        scale = max(abs(a), abs(b), unit)
        return abs(a - b) <= ulps * unit * scale

    return _close
