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
reference data without editing it.

Every published table uses ``TABLE_ITERATIONS`` = 3 steps. Each cell is
solved once and its trace kept. With diagnostics on, that is one
fixed-count run of 4 steps; a shorter fixed-count run is a prefix of a
longer one, so the record's residual and status and the residuals at
n = 1, 2 and 4 are all read from that one trace, and a sibling column is
read from the trace of a cell already run. A sibling is solved only when
the selection filtered its cell out.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources

from .driver import IterationTrace, SolveConfig, solve
from .functions import get_function
from .methods import TABLE_METHODS, MethodKind
from .precision import PrecisionContext

_DATA_PACKAGE = "stefbench.data"
_DATA_NAME = "reference_tables.csv"
_METHOD_ROW_ORDER = {tag: i for i, tag in enumerate(TABLE_METHODS)}
DEFAULT_TOLERANCE_ORDERS = 2.0
TABLE_ITERATIONS = 3
# The iteration counts a mismatched cell's diagnostics compare.
_NEARBY_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class ReferenceCell:
    table_id: int
    function: str
    method: str
    x0: str  # source text, converted at the run's precision
    paper_value: str  # literal published string, e.g. "0.47200e-25"


@dataclass
class BenchmarkRecord:
    cell: ReferenceCell
    computed_value: object
    log10_discrepancy: object  # log10(computed) - log10(paper), None if degenerate
    status: str
    match: bool


@dataclass
class CellDiagnostic:
    """Context for a mismatched cell.

    better_counts lists (n, discrepancy) for nearby iteration counts that
    land closer to the reference value than n=3 did; alt_methods lists
    same-table methods whose own n=3 residual agrees with this cell's
    reference value. Either one is strong evidence the reference row does
    not describe a three-step run of the method it is filed under.
    """

    cell: ReferenceCell
    better_counts: list = field(default_factory=list)
    alt_methods: list = field(default_factory=list)


@dataclass
class BenchReport:
    records: list
    diagnostics: list
    matched: int
    total: int

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 0.0


def load_reference_cells() -> list:
    """All 49 cells in table order, methods in published row order."""
    cells = []
    with resources.files(_DATA_PACKAGE).joinpath(_DATA_NAME).open(newline="") as fh:
        for row in csv.DictReader(fh):
            cells.append(
                ReferenceCell(
                    table_id=int(row["table"]),
                    function=row["function"],
                    method=row["method"],
                    x0=row["x0"],
                    paper_value=row["paper_value"],
                )
            )
    cells.sort(key=lambda c: (c.table_id, _METHOD_ROW_ORDER[c.method]))
    return cells


def _run(cell: ReferenceCell, method: str, steps: int, ctx: PrecisionContext) -> IterationTrace:
    """One fixed-count run of ``method`` from ``cell``'s start."""
    f = get_function(cell.function)
    cfg = SolveConfig(fixed_iterations=steps)
    return solve(MethodKind(method), f, ctx.mpf(cell.x0), cfg, ctx)


def _residual_at(trace: IterationTrace, n: int):
    """|f(x_n)| of the n-step prefix of a fixed-count trace."""
    return abs(trace.iterates[: n + 1][-1].fx)


def _key(cell: ReferenceCell, method: str):
    return cell.table_id, cell.function, cell.x0, method


def _discrepancy(computed, paper, ctx):
    if computed == 0 or paper == 0:
        return None
    return ctx.mp.log10(computed / paper)


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

    steps = max(TABLE_ITERATIONS, *_NEARBY_COUNTS) if with_diagnostics else TABLE_ITERATIONS
    # The fixed-count trace of every cell run, per (table, function, x0, method).
    traces = {}
    records = []
    for cell in cells:
        trace = traces[_key(cell, cell.method)] = _run(cell, cell.method, steps, ctx)
        computed = _residual_at(trace, TABLE_ITERATIONS)
        disc = _discrepancy(computed, ctx.mpf(cell.paper_value), ctx)
        match = disc is not None and abs(disc) <= tol
        records.append(
            BenchmarkRecord(
                cell=cell,
                computed_value=computed,
                log10_discrepancy=disc,
                status=trace.status_at(TABLE_ITERATIONS),
                match=match,
            )
        )

    diagnostics = []
    if with_diagnostics:
        for record in records:
            if record.match:
                continue
            cell = record.cell
            paper = ctx.mpf(cell.paper_value)
            base = abs(record.log10_discrepancy) if record.log10_discrepancy is not None else None
            own = traces[_key(cell, cell.method)]
            better = []
            for n in _NEARBY_COUNTS:
                alt_disc = _discrepancy(_residual_at(own, n), paper, ctx)
                if alt_disc is None:
                    continue
                if base is None or abs(alt_disc) < base:
                    better.append((n, alt_disc))
            alts = []
            for tag in TABLE_METHODS:
                if tag == cell.method:
                    continue
                key = _key(cell, tag)
                if key not in traces:
                    traces[key] = _run(cell, tag, TABLE_ITERATIONS, ctx)
                alt_disc = _discrepancy(_residual_at(traces[key], TABLE_ITERATIONS), paper, ctx)
                if alt_disc is not None and abs(alt_disc) <= tol:
                    alts.append((tag, alt_disc))
            diagnostics.append(
                CellDiagnostic(cell=cell, better_counts=better, alt_methods=alts)
            )

    matched = sum(1 for r in records if r.match)
    return BenchReport(
        records=records,
        diagnostics=diagnostics,
        matched=matched,
        total=len(records),
    )
