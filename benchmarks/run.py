"""stefbench benchmark: one workload, one client, a closed loop.

Run from the root of a stefbench checkout:

    python3 benchmarks/run.py --workload replay-512 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory, never
from an installed copy. Each op (see workloads.py) is timed alone; the
next starts when the previous one returns. Its outcome is then checked
against benchmarks/expected.json outside the timed region. Measurement
runs whole seeded passes, each op once per pass, until ``--seconds`` have
passed, after a warm-up that fills mpmath's constant caches.

``--trace 0`` reports the end-to-end metrics. Their times are given at
the speed of a reference host: after every op the run also times a fixed
mpmath kernel that shares no code with the program (workloads.host_kernel)
and scales the op by the reference kernel time over the kernel times
around it; the times as measured are printed beside them. ``--trace 1`` alternates
untraced and traced passes for the same time, reports the per-layer
metrics of tracing.py and writes the spans to
.bench_out/spans-<workload>.jsonl.gz. Both print readable lines, then as
the last line of stdout one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
WARMUP_S = 1.0
SETUP_PROBES = 25  # fresh processes per run; setup_s is their median

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: time import + workload preparation in this fresh process.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(root: Path, args, pycache: Path):
    """Set-up time of a fresh process, and its own host kernel time, in s.

    The process reads and writes bytecode under ``pycache`` only, so what
    earlier runs or tests left in __pycache__ directories is never read.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    setup_s, kernel_s = out.stdout.split()
    return float(setup_s), float(kernel_s)


@contextlib.contextmanager
def bytecode_cache(root: Path):
    """An empty bytecode cache for this run's set-up probes, removed on exit."""
    pycache = root / OUT_DIR / f"pycache-{os.getpid()}"
    shutil.rmtree(pycache, ignore_errors=True)
    pycache.mkdir(parents=True)
    try:
        yield pycache
    finally:
        shutil.rmtree(pycache)


def _git_commit(root: Path):
    """The commit checked out at ``root``, read from .git, or None.

    An exported checkout has no .git; src_sha256 still names the code.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, workload, seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    digest = hashlib.sha256()
    src = root / "src" / "stefbench"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "bits": workload.bits,
        "seed": seed,
    }


class Tally:
    """Attempted and failed ops; an op fails if it raises or its check does."""

    def __init__(self, workloads, expected):
        self.workloads = workloads
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.cells = 0  # reference cells scored by replay ops

    def run(self, op, call):
        """Time ``call()`` (the op, maybe traced) and check its result."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            seconds = time.perf_counter() - start
            self.failed += 1
            print(f"op {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return seconds
        seconds = time.perf_counter() - start
        problem = self.workloads.check(op, result, self.expected[op.key])
        if problem is not None:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)
        if op.kind == "replay":
            self.cells += result[1].total
        return seconds


def _warm_up(first_pass):
    start = time.perf_counter()
    for op in first_pass:
        op.run()
        if time.perf_counter() - start >= WARMUP_S:
            return


def measure(passes, tally, seconds, kernel, probe):
    """Whole passes until ``seconds`` have elapsed, timing the host kernel
    after every op and starting SETUP_PROBES set-up probes evenly through
    the run. Returns the op times and kernel times, in s, and the probes'
    results.

    The host's speed drifts over tens of seconds; probes spread over the
    whole run see the same mix of speeds as the ops. The time spent in
    probes does not count towards ``seconds``.
    """
    times, kernel_times, probes = [], [], []
    start = time.perf_counter()
    probe_s = 0.0
    while True:
        for op in next(passes):
            times.append(tally.run(op, op.run))
            kernel_times.append(kernel())
            probe_start = time.perf_counter()
            measured_s = probe_start - start - probe_s
            if len(probes) < SETUP_PROBES and measured_s >= len(probes) * seconds / SETUP_PROBES:
                probes.append(probe())
                probe_s += time.perf_counter() - probe_start
        if time.perf_counter() - start - probe_s >= seconds and len(probes) == SETUP_PROBES:
            return times, kernel_times, probes


def at_reference_speed(times, kernel_times, reference_kernel_s):
    """Each time scaled by the reference kernel time over the median of the
    five kernel times nearest it.

    Other tenants move this host's speed by tens of percent within
    seconds, and the ops and the kernel slow down together. Scaling each
    op by the kernel timed around it removes most of that; scaling a whole
    run by one median does not, because the speed changes within a run.
    """
    return [
        t * reference_kernel_s / statistics.median(kernel_times[max(0, i - 2):i + 3])
        for i, t in enumerate(times)
    ]


def measure_traced(workload, passes, tally, seconds, tracer):
    """Alternate untraced and traced passes.

    Returns the traced passes, the reference cells they scored, and the
    tracing overhead: traced over untraced op time, minus 1.
    """
    traced_calls = {op.key: tracer.wrap("op", op.run) for op in workload.ops}
    plain_s = traced_s = 0.0
    pairs = cells = 0
    start = time.perf_counter()
    while True:
        plain_s += sum(tally.run(op, op.run) for op in next(passes))
        cells_before = tally.cells
        tracer.install()
        try:
            traced_s += sum(tally.run(op, traced_calls[op.key]) for op in next(passes))
        finally:
            tracer.uninstall()
        cells += tally.cells - cells_before
        pairs += 1
        if time.perf_counter() - start >= seconds:
            return pairs, cells, traced_s / plain_s - 1


def _p90_ms(times):
    """The 90th percentile of the op times in ms (exclusive method)."""
    if len(times) < 2:
        return times[0] * 1e3
    return statistics.quantiles(times, n=10)[8] * 1e3


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "stefbench" / "__init__.py").is_file():
        print(f"error: no stefbench sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    if args.setup_probe:
        # Bytecode goes to this run's own cache (PYTHONPYCACHEPREFIX).
        sys.dont_write_bytecode = False
    setup_start = time.perf_counter()
    import stefbench
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(workloads.NAMES)})",
              file=sys.stderr)
        return 2
    workload = workloads.prepare(args.workload)
    passes = workload.passes(args.seed)
    first_pass = next(passes)
    setup_s = time.perf_counter() - setup_start
    if args.setup_probe:
        # The kernel is timed in this process too: the parent may be
        # running on another CPU whose speed differs.
        kernel = workloads.host_kernel(workload.bits)
        kernel()  # fills mpmath's caches at these bits
        print(repr(setup_s), repr(statistics.median(kernel() for _ in range(7))))
        return 0

    if not Path(stefbench.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: stefbench was imported from {stefbench.__file__}, not {src}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())[workload.name]
    env = environment(root, workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    _warm_up(first_pass)
    tally = Tally(workloads, expected)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        traced_passes, traced_cells, overhead = measure_traced(
            workload, passes, tally, args.seconds, tracer)
        metrics = tracer.layer_metrics(traced_passes, traced_cells, overhead)
        units = tracing.LAYER_UNITS
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{workload.name}.jsonl.gz"
        tracer.write(spans_path)
        print(f"{workload.name} seed {args.seed}: {traced_passes} traced passes of "
              f"{len(workload.ops)} ops; {len(tracer.ids)} spans in {spans_path.relative_to(root)}")
    else:
        kernel = workloads.host_kernel(workload.bits)
        kernel()  # fills mpmath's caches at these bits
        with bytecode_cache(root) as pycache:
            probe = functools.partial(_setup_probe, root, args, pycache)
            probe()  # compiles every module a probe imports into the cache; not timed
            times, kernel_times, probes = measure(passes, tally, args.seconds, kernel, probe)
        setups, setup_kernel_times = zip(*probes)
        ref = workload.reference_kernel_s
        scaled = at_reference_speed(times, kernel_times, ref)
        metrics = {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_ms_p50": statistics.median(scaled) * 1e3,
            "op_ms_p90": _p90_ms(scaled),
            "setup_s": statistics.median(t * ref / k for t, k in zip(setups, setup_kernel_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"{workload.name} seed {args.seed}: {len(times)} ops in "
              f"{len(times) // len(workload.ops)} passes, {sum(times):.2f} s of op time; "
              f"op_ms_p50/p90 over all {len(times)} ops; setup_s median of {len(setups)} fresh processes "
              f"started through the run")
        print(f"  times at the reference speed (kernel {ref * 1e3:.4g} ms; here median "
              f"{statistics.median(kernel_times) * 1e3:.4g} ms); as timed: ops_per_s "
              f"{len(times) / sum(times):.6g}, op_ms_p50 {statistics.median(times) * 1e3:.6g}, "
              f"op_ms_p90 {_p90_ms(times):.6g}, setup_s {statistics.median(setups):.6g}")

    for name, value in metrics.items():
        print(f"  {name:<28} {value:<14.6g} {units[name]}")
    failed_frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':<28} {failed_frac:<14.6g} ({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # Write no bytecode caches into the checkout's sources; set-up probes
    # keep theirs under .bench_out (see bytecode_cache).
    sys.dont_write_bytecode = True
    sys.exit(main())
