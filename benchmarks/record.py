"""Record the outcome of every op of every workload into expected.json.

    python3 benchmarks/record.py

Run from the root of a checkout, only at a commit whose outputs are the
reference: the benchmark counts every later difference as a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(BENCH_DIR), str(Path.cwd() / "src")]
    import workloads

    expected = {}
    for name in workloads.NAMES:
        workload = workloads.prepare(name)
        expected[name] = {op.key: workloads.OUTCOME[op.kind](op.run()) for op in workload.ops}
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
