"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/spread.py --runs 10 [--trace 1] [--out FILE]

Run from the root of a checkout. For every workload of BENCHMARK.json it
runs the benchmark command for run_seconds once per seed, one run at a
time, and prints each metric's median, quartiles and spread: the
distance between the first and third quartile as a share of the median,
from ``statistics.quantiles(values, n=4)``. An end-to-end metric is
steady when its spread is under a third of its bound. ``--out FILE`` also
writes the medians and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    medians = {}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values, units, attempted, failed = {}, {}, 0, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            env = {k: v for k, v in env.items() if k not in ("workload", "bits", "seed")}
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"{workload}: {args.runs} runs, failed_frac {failed / attempted:.6g} "
              f"({failed} of {attempted} ops)")
        medians[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            medians[workload][name] = {"value": med, "unit": units[name]}
            line = (f"  {name:<28} median {med:<12.6g} {units[name]:<12} "
                    f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")
            if name in bounds:
                ok = spread < bounds[name] / 3
                steady &= ok
                line += f"  bound {bounds[name]}  {'steady' if ok else 'NOT STEADY'}"
            print(line, flush=True)
    if args.out:
        # One file holds both kinds: runs with --trace 0 fill "end_to_end",
        # runs with --trace 1 fill "per_layer".
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["env"] = env
        data["per_layer" if args.trace else "end_to_end"] = {
            "runs": args.runs, "seconds": spec["run_seconds"], "first_seed": args.first_seed,
            "medians": medians,
        }
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
