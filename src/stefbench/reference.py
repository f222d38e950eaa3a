"""Bundled reference residuals and the benchmark runner.

The shipped CSV holds one row per (table, function, method) cell with the
published |f(x_3)| after three iterations, kept as the literal mantissa-
exponent strings so the dataset stays auditable against its source. The
runner replays every cell at working precision and scores agreement on a
log10 scale.

A cell "matches" when the computed residual is within ``tolerance_orders``
(default 2) orders of magnitude of the reference value. That is a loose
net on purpose: at fourth order, a last-place difference in x_2 moves
|f(x_3)| by orders of magnitude, so exact reproduction is not a reasonable
bar. Cells that still miss it get diagnostics: the residual at nearby
iteration counts, and the same table's other columns, are compared with
the reference value, which localizes transcription-style anomalies in the
reference data without editing it. They are kept on the cell's own
record, and a report's ``diagnostics`` are its diagnosed records. A
diagnostic probe is scored only where its value could be kept: when the
binary exponent of residual / reference alone puts a probe beyond its
test (the tolerance for a sibling, the cell's own discrepancy for a
nearby count), it is dropped before its logarithm is taken, so no
emitted value changes.

Every published table uses ``TABLE_ITERATIONS`` = 3 steps. Each cell is
solved once, as a fixed-count run of 3 steps, and its trace kept: the
record's residual and status are that run's own. A shorter fixed-count
run is a prefix of a longer one, so a diagnosed cell reads its residuals
at n = 1 and 2 off that trace's first n + 1 entries; the read lives
here, because only the replay knows its traces are such runs. For n = 4
it takes one more fixed step from x_3, but only when its run completed;
any other status means the run already stopped, and its final |f| is
the answer. Each (table, method) three-step run, a cell's own or a
sibling column that a diagnosed cell compares, is solved once, on first
use: a column the selection left out is solved only for a diagnosed cell.

Each point is evaluated once per replay. The methods of a table start
from the same x0, many take the same first-step points, and the n = 4
step starts at x_3 again, so ``run_benchmark`` passes each function
through a memo keyed by the point's exact bits, made for that call
alone. ``f_call_total`` keeps its meaning: every trace counts its
formulas' f-calls, as a direct run of the same cell would.
"""

from __future__ import annotations

import csv
from typing import NamedTuple

from .driver import FIXED_COUNT_COMPLETED, SolveConfig, solve
from .functions import get_function
from .methods import TABLE_METHODS
from .precision import PrecisionContext

_DATA_PACKAGE = "stefbench.data"
_DATA_NAME = "reference_tables.csv"
DEFAULT_TOLERANCE_ORDERS = 2.0
TABLE_ITERATIONS = 3
# The iteration counts a mismatched cell's diagnostics compare.
_NEARBY_COUNTS = (1, 2, 4)
_LOG_GUARD_BITS = 20  # mpmath's log(x, b) takes both logarithms this far above working precision


class ReferenceCell(NamedTuple):
    table_id: int
    function: str
    method: str
    x0: str  # source text, converted at the run's precision
    paper_value: str  # literal published string, e.g. "0.47200e-25"


class BenchmarkRecord(NamedTuple):
    """One replayed cell, scored, and diagnosed if it missed.

    ``better_counts`` lists (n, discrepancy) for nearby iteration counts
    that land closer to the reference value than n=3 did; ``alt_methods``
    lists same-table methods whose own n=3 residual agrees with this
    cell's reference value. Either one is strong evidence the reference
    row does not describe a three-step run of the method it is filed
    under. Both are None for a cell that was not diagnosed, and lists,
    possibly empty, for one that was.
    """

    cell: ReferenceCell
    computed_value: object
    log10_discrepancy: object  # log10(computed) - log10(paper), None if degenerate
    status: str
    match: bool
    better_counts: list | None
    alt_methods: list | None


class BenchReport(NamedTuple):
    """The scored records; every other figure derives from them.

    ``diagnostics`` is the diagnosed records, in record order.
    """

    records: list

    @property
    def diagnostics(self) -> list:
        return [r for r in self.records if r.better_counts is not None]

    @property
    def matched(self) -> int:
        return sum(1 for r in self.records if r.match)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 0.0


def load_reference_cells() -> list:
    """All 49 cells in the file's order: by table, methods in published row order."""
    # Imported here, so only a replay pays for it.
    from importlib import resources

    with resources.files(_DATA_PACKAGE).joinpath(_DATA_NAME).open(newline="") as fh:
        return [
            ReferenceCell(
                table_id=int(row["table"]),
                function=row["function"],
                method=row["method"],
                x0=row["x0"],
                paper_value=row["paper_value"],
            )
            for row in csv.DictReader(fh)
        ]


class _PointMemo:
    """``fn`` evaluated once per point: values are kept by x's exact bits.

    f(x, ctx) depends only on those bits at one context's precision, so a
    memo serves one context; ``run_benchmark`` makes one per function for
    a single call. A point where ``fn`` raises stores nothing and raises
    again when asked again. No table method evaluates a jet, so the memo
    offers none.
    """

    def __init__(self, fn):
        self.fn = fn
        self.values = {}

    def __call__(self, x, ctx):
        value = self.values.get(x._mpf_)
        if value is None:
            value = self.values[x._mpf_] = self.fn(x, ctx)
        return value


def _discrepancy(computed, paper, ctx, ln10, beyond=None):
    """log10(computed / paper), or None if either is 0.

    The logarithm of the quotient q is ``mp.log10``'s bit for bit: ln q over
    ``ln10``, ln 10 as ``run_benchmark`` takes it once, both at
    ``_LOG_GUARD_BITS`` above working precision.

    With ``beyond`` given, also None when the binary exponent of the
    quotient q alone shows that |log10 q| > ``beyond``. With m = mag(q),
    2^(m-1) <= q < 2^m, so |log10 q| >= (|m| - 1) log10 2. The test asks
    (|m| - 2) log10 2 > ``beyond``, a bit short of that bound: a margin that
    no rounding of the test or of the logarithm crosses while |m| < 2^(bits-4).
    """
    if computed == 0 or paper == 0:
        return None
    q = computed / paper
    if beyond is not None:
        m = abs(ctx.mp.mag(q))
        if m < 2 ** (ctx.bits - 4) and (m - 2) * ctx.mp.ln2 > beyond * ln10:
            return None
    return ctx.mp.ln(q, prec=ctx.bits + _LOG_GUARD_BITS) / ln10


def run_benchmark(
    ctx: PrecisionContext,
    tables=None,
    methods=None,
    functions=None,
    tolerance_orders=DEFAULT_TOLERANCE_ORDERS,
    with_diagnostics: bool = True,
) -> BenchReport:
    """Replay the selected reference cells and score them.

    tables/methods/functions are optional collections restricting the cell
    set. ``tolerance_orders`` must be finite and non-negative.
    """
    tol = ctx.mpf(tolerance_orders)
    if not ctx.mp.isfinite(tol) or tol < 0:
        raise ValueError(f"tolerance_orders must be finite and >= 0, got {tolerance_orders}")
    # Taken once: mpmath's own log10 takes ln 10 again at every call.
    ln10 = ctx.mp.ln(10, prec=ctx.bits + _LOG_GUARD_BITS)
    cells = load_reference_cells()
    if tables is not None:
        wanted = set(int(t) for t in tables)
        cells = [c for c in cells if c.table_id in wanted]
    if methods is not None:
        wanted = set(methods)
        cells = [c for c in cells if c.method in wanted]
    if functions is not None:
        wanted = set(functions)
        cells = [c for c in cells if c.function in wanted]

    # The methods of a table share x0 and many first-step points. The memos
    # live for this call only; one kept past it would outlive its context.
    memos = {name: _PointMemo(get_function(name)) for name in {c.function for c in cells}}
    traces = {}

    def three_steps(cell, tag):
        """The three-step run of ``tag`` on ``cell``'s table, solved on first use."""
        key = cell.table_id, cell.function, cell.x0, tag
        if key not in traces:
            cfg = SolveConfig(fixed_iterations=TABLE_ITERATIONS)
            traces[key] = solve(tag, memos[cell.function], cell.x0, cfg, ctx)
        return traces[key]

    records = []
    for cell in cells:
        paper = ctx.mpf(cell.paper_value)
        own = three_steps(cell, cell.method)
        computed = abs(own.final.fx)
        disc = _discrepancy(computed, paper, ctx, ln10)
        match = disc is not None and abs(disc) <= tol
        better = alts = None
        if not match and with_diagnostics:
            base = abs(disc) if disc is not None else None
            better = []
            for n in _NEARBY_COUNTS:
                # Up to x_3, the n-step run is a prefix of this one. Past x_3,
                # a completed run takes more steps from x_3; any other status
                # means it stopped, so its final |f| is the answer.
                residual = abs(own.iterates[: n + 1][-1].fx)
                if n > TABLE_ITERATIONS and own.status == FIXED_COUNT_COMPLETED:
                    cfg = SolveConfig(fixed_iterations=n - TABLE_ITERATIONS)
                    more = solve(cell.method, memos[cell.function], own.final.x, cfg, ctx)
                    residual = abs(more.final.fx)
                alt_disc = _discrepancy(residual, paper, ctx, ln10, beyond=base)
                if alt_disc is not None and (base is None or abs(alt_disc) < base):
                    better.append((n, alt_disc))
            alts = []
            for tag in TABLE_METHODS:
                if tag == cell.method:
                    continue
                alt = abs(three_steps(cell, tag).final.fx)
                alt_disc = _discrepancy(alt, paper, ctx, ln10, beyond=tol)
                if alt_disc is not None and abs(alt_disc) <= tol:
                    alts.append((tag, alt_disc))
        records.append(BenchmarkRecord(cell, computed, disc, own.status, match, better, alts))

    return BenchReport(records)
