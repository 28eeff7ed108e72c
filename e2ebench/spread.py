"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 e2ebench/spread.py --workload join_process --seeds 1-10 --seconds 20

For every end-to-end metric it prints the median over the runs, and the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A steady benchmark keeps every spread well below
its bound.  ``--out`` also writes the raw per-run values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        probe = [line.split()[1] for line in lines if line.startswith("host_probe_ms")]
        result["host_probe_ms"] = float(probe[0]) if probe else None
        runs.append(result)
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} host_probe_ms={result['host_probe_ms']} "
            + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True,
        )
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        bound = bounds.get(name)
        text = f"  {name:28s} median {statistics.median(values):.6g}"
        if len(values) >= 2 and statistics.median(values):
            text += f"  spread {spread(values):.4f}"
            if bound is not None:
                text += f"  bound {bound}  (a third: {bound / 3:.4f})"
        print(text)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
