"""Self-test of the benchmark: one op per workload, every metric printed.

    python3 -m pytest benchmarks -q

Runs from the root of a checkout in a few seconds. It is not part of the
program's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def one_op(monkeypatch):
    """Each workload cut down to its first op, with no warm-up to speak of."""
    prepare = workloads.prepare
    monkeypatch.setattr(workloads, "prepare", lambda name: (w := prepare(name))._replace(ops=w.ops[:1]))
    monkeypatch.setattr(run, "WARMUP_S", 0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_prints_every_metric(one_op, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    failed_frac = [line.split() for line in lines if line.split()[:1] == ["failed_frac"]]
    assert failed_frac and float(failed_frac[0][1]) == 0.0


def _tally(expected):
    return run.Tally(workloads, expected)


def _op(workload, key):
    return next(op for op in workloads.prepare(workload).ops if op.key == key)


def test_check_fails_an_op_whose_outcome_changed():
    recorded = json.loads((BENCH_DIR / "expected.json").read_text())
    op = _op("solve-2048", "mkdf/f3")
    tally = _tally({op.key: {"status": "diverged"}})
    tally.run(op, op.run)
    assert (tally.attempted, tally.failed) == (1, 1)

    op = _op("order-4096", "coc/mkdf/f6")
    rho = recorded["order-4096"][op.key]["rho"]
    near = [str(float(r) + 5e-4) for r in rho]
    far = rho[:-1] + [str(float(rho[-1]) + 2e-3)]
    tally = _tally({op.key: {"rho": near}})
    tally.run(op, op.run)
    assert tally.failed == 0
    tally = _tally({op.key: {"rho": far}})
    tally.run(op, op.run)
    assert tally.failed == 1

    op = _op("order-4096", "constant/f2")
    c = recorded["order-4096"][op.key]["c"]
    for changed, failed in ((c, 0), (c[:-1], 1), (c[:-1] + [str(float(c[-1]) * (1 + 1e-8))], 1)):
        tally = _tally({op.key: {"c": changed}})
        tally.run(op, op.run)
        assert tally.failed == failed


def test_check_fails_an_op_that_raises():
    op = workloads.Op("broken", "solve", lambda: 1 / 0)
    tally = _tally({})
    tally.run(op, op.run)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "replay-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
