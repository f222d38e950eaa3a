"""Spans around the calls into each stefbench layer, and the per-layer
metrics derived from them.

The tracer swaps instrumented callables into the package while it is
installed and restores the originals afterwards; the program itself is
not modified. A span records its id, its parent's id, its name, start and
end in nanoseconds, and how it ended. Spans stay in memory, in flat
integer arrays, until the run writes them out.

Wrapped boundaries (span name in brackets):

    stefbench.run_benchmark                         [reference.run_benchmark]
    solve, as the package and reference export it   [driver.solve]
    refine_root, as the package and analysis do     [driver.refine_root]
    the callable MethodKind.stepper returns, and
      the mkdf kernel refine_root steps with        [methods.step]
    stefbench.coc / stefbench.error_constant        [analysis.coc / .error_constant]
    ScalarFunction.__call__ / .eval_jet             [functions.f / jets.eval]
    HPOps.const                                     [expr.const]
    PrecisionContext.sin/cos/exp/ln/atan            [precision.elem]

A boundary that no longer exists is skipped and reported on stderr, so a
refactor of the program degrades one metric instead of the whole run.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict

import stefbench
from stefbench import MethodKind, PrecisionContext, ScalarFunction
from stefbench import analysis, driver, expr, reference

ROOT = 0  # id of the run itself, the parent of every op span

OK = "ok"

LAYER_UNITS = {
    "reference.solves_per_cell": "solves/cell",
    "reference.diag_share": "fraction",
    "driver.solves": "count/pass",
    "driver.steps": "count/pass",
    "driver.f_evals_per_step": "evals/step",
    "driver.self_share": "fraction",
    "driver.success_ratio": "fraction",
    "driver.refine_share": "fraction",
    "driver.refine_steps": "count/pass",
    "methods.step_self_share": "fraction",
    "methods.breakdowns": "count/pass",
    "functions.f_evals": "count/pass",
    "functions.f_us": "us",
    "functions.f_share": "fraction",
    "expr.const_per_f": "consts/eval",
    "expr.const_share": "fraction",
    "expr.interp_share": "fraction",
    "precision.elem_calls": "count/pass",
    "precision.elem_share": "fraction",
    "jets.jet_evals": "count/pass",
    "jets.jet_us": "us",
    "jets.share": "fraction",
    "analysis.coc_share": "fraction",
    "analysis.constant_share": "fraction",
    "trace.overhead": "fraction",
}


def _solve_status(trace):
    return OK if trace.status in stefbench.SUCCESS_STATUSES else trace.status


class Tracer:
    def __init__(self):
        self._names = []
        self._codes = {}
        self._code("run")  # code 0, the name of ROOT
        self._next_id = itertools.count(ROOT + 1).__next__
        self._stack = [ROOT]
        self.ids = array("q")
        self.parents = array("q")
        self.name_codes = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.ends_how = array("l")
        self._patches = None

    def _code(self, label: str) -> int:
        if label not in self._codes:
            self._codes[label] = len(self._names)
            self._names.append(label)
        return self._codes[label]

    def wrap(self, name: str, fn, classify=None):
        """``fn`` inside a span; ``classify`` labels a normal return."""
        code = self._code(name)
        ok = self._code(OK)
        next_id, stack, clock = self._next_id, self._stack, time.perf_counter_ns
        a_id, a_parent, a_name = self.ids.append, self.parents.append, self.name_codes.append
        a_start, a_end, a_how = self.starts.append, self.ends.append, self.ends_how.append
        label = self._code

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            how = ok
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    how = label(classify(result))
                return result
            except BaseException as exc:
                how = label(type(exc).__name__)
                raise
            finally:
                t1 = clock()
                stack.pop()
                a_id(sid)
                a_parent(parent)
                a_name(code)
                a_start(t0)
                a_end(t1)
                a_how(how)

        return traced

    # -- install / uninstall --------------------------------------------

    def _boundaries(self):
        """(owner, attribute, span name, classify) of every wrapped callable."""
        yield stefbench, "run_benchmark", "reference.run_benchmark", None
        for owner in (stefbench, reference):
            yield owner, "solve", "driver.solve", _solve_status
        for owner in (stefbench, analysis):
            yield owner, "refine_root", "driver.refine_root", None
        yield driver, "mkdf_step", "methods.step", None
        yield stefbench, "coc", "analysis.coc", None
        yield stefbench, "error_constant", "analysis.error_constant", None
        yield ScalarFunction, "__call__", "functions.f", None
        yield ScalarFunction, "eval_jet", "jets.eval", None
        yield expr.HPOps, "const", "expr.const", None
        for attr in ("sin", "cos", "exp", "ln", "atan"):
            yield PrecisionContext, attr, "precision.elem", None

    def _build_patches(self):
        patches, missing = [], []
        for owner, attr, name, classify in self._boundaries():
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
            else:
                patches.append((owner, attr, original, self.wrap(name, original, classify)))
        stepper = vars(MethodKind).get("stepper")
        if stepper is None:
            missing.append("MethodKind.stepper")
        else:
            wrap = self.wrap

            def traced_stepper(kind):
                return wrap("methods.step", stepper(kind))

            patches.append((MethodKind, "stepper", stepper, traced_stepper))
        if missing:
            print(f"trace: not traced, no longer in the program: {', '.join(missing)}", file=sys.stderr)
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path):
        """All spans as gzip'd JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns", "ended"],
                                 "names": self._names}) + "\n")
            for row in zip(self.ids, self.parents, self.name_codes, self.starts, self.ends, self.ends_how):
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, passes: int, cells: int, overhead: float) -> dict:
        """Per-layer metrics over every span; counts are per pass.

        ``cells`` is the number of reference cells the traced replays
        scored; ``overhead`` is traced over untraced op time, minus 1.
        """
        code = self._code
        n = len(self.ids)
        # Ids run 1..n in order of entry, so a parent's id is below its
        # children's and one pass in id order sees every parent first.
        name, parent, how = (array("l", bytes(8 * (n + 1))) for _ in range(3))
        dur, end = (array("q", bytes(8 * (n + 1))) for _ in range(2))
        child = array("q", bytes(8 * (n + 1)))
        for sid, p, c, t0, t1, h in zip(self.ids, self.parents, self.name_codes,
                                        self.starts, self.ends, self.ends_how):
            name[sid], parent[sid], how[sid] = c, p, h
            dur[sid], end[sid] = t1 - t0, t1
            child[p] += t1 - t0

        SOLVE, REFINE, STEP = code("driver.solve"), code("driver.refine_root"), code("methods.step")
        F, REPLAY, BREAK, OKC = code("functions.f"), code("reference.run_benchmark"), code("BreakdownError"), code(OK)
        in_solve, in_refine = bytearray(n + 1), bytearray(n + 1)
        count, total, self_total = defaultdict(int), defaultdict(int), defaultdict(int)
        solve_steps = solve_f = refine_steps = breakdowns = solves_ok = 0
        replay_solves = defaultdict(list)
        for sid in range(1, n + 1):
            c, p = name[sid], parent[sid]
            in_solve[sid] = in_solve[p] or name[p] == SOLVE
            in_refine[sid] = in_refine[p] or name[p] == REFINE
            count[c] += 1
            total[c] += dur[sid]
            self_total[c] += dur[sid] - child[sid]
            if c == STEP:
                solve_steps += in_solve[sid]
                refine_steps += in_refine[sid]
                breakdowns += how[sid] == BREAK
            elif c == F:
                solve_f += in_solve[sid]
            elif c == SOLVE:
                solves_ok += how[sid] == OKC
                if p and name[p] == REPLAY:
                    replay_solves[p].append(end[sid])

        # The part of each replay after its first cells-per-replay solves
        # end: the diagnostics, however run_benchmark arranges them.
        replays = count[REPLAY]
        cells_per_replay = cells // replays if replays else 0
        diag_ns = sum(
            end[r] - sorted(ends)[:cells_per_replay][-1]
            for r, ends in replay_solves.items()
            if cells_per_replay
        )

        op_ns = total[code("op")] or 1

        def ratio(a, b):
            return a / b if b else 0.0

        def share(label):
            return total[code(label)] / op_ns

        def per_pass(label):
            return count[code(label)] / passes

        def mean_us(label):
            return ratio(total[code(label)], count[code(label)]) / 1e3

        return {
            "reference.solves_per_cell": ratio(sum(map(len, replay_solves.values())), cells),
            "reference.diag_share": ratio(diag_ns, total[REPLAY]),
            "driver.solves": per_pass("driver.solve"),
            "driver.steps": solve_steps / passes,
            "driver.f_evals_per_step": ratio(solve_f, solve_steps),
            "driver.self_share": self_total[SOLVE] / op_ns,
            "driver.success_ratio": ratio(solves_ok, count[SOLVE]),
            "driver.refine_share": share("driver.refine_root"),
            "driver.refine_steps": refine_steps / passes,
            "methods.step_self_share": self_total[STEP] / op_ns,
            "methods.breakdowns": breakdowns / passes,
            "functions.f_evals": per_pass("functions.f"),
            "functions.f_us": mean_us("functions.f"),
            "functions.f_share": share("functions.f"),
            "expr.const_per_f": ratio(count[code("expr.const")], count[F]),
            "expr.const_share": share("expr.const"),
            "expr.interp_share": self_total[F] / op_ns,
            "precision.elem_calls": per_pass("precision.elem"),
            "precision.elem_share": share("precision.elem"),
            "jets.jet_evals": per_pass("jets.eval"),
            "jets.jet_us": mean_us("jets.eval"),
            "jets.share": share("jets.eval"),
            "analysis.coc_share": share("analysis.coc"),
            "analysis.constant_share": share("analysis.error_constant"),
            "trace.overhead": overhead,
        }
