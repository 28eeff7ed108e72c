"""End-to-end benchmark of the HMTS engine on the paper's query shapes.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload chain_gts --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``throughput_eps``, ``latency_p50_ms``,
``latency_p90_ms``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` it
carries the per-layer metrics of a traced run instead.  Lines before it
are a human-readable report: sample counts, every rep, the host-speed
probe and (traced) the full per-layer table.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.

A run generates its inputs from ``--seed``, does one warm-up rep in this
interpreter (discarded), then runs forked reps until ``--seconds`` have
passed.  Every rep's sink output is checked against a reference
computed from the same inputs; a mismatch, an engine failure or a
timeout counts as a failed operation and is never retried.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Measured reps stop being started once --seconds have passed, but a
#: run always has at least this many, unless HARD_STOP_S have passed
#: since it started (so even a run of hung reps ends in time).
MIN_REPS = 3
HARD_STOP_S = 110.0

END_TO_END_UNITS = {
    "throughput_eps": "el/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", type=int, default=None, help="inputs per rep (default: the workload's own)"
    )
    return parser.parse_args(argv)


def _say(text: str = "") -> None:
    print(text, flush=True)


def end_to_end(reps) -> dict:
    import harness

    good = [r for r in reps if r.error is None]
    values = {
        "throughput_eps": harness.median([r.throughput_eps for r in good]),
        "latency_p50_ms": harness.median([r.latency_ms["p50"] for r in good]),
        "latency_p90_ms": harness.median([r.latency_ms["p90"] for r in good]),
        "peak_rss_mb": harness.median([r.peak_rss_mb for r in good]),
        "setup_s": harness.median([s for r in good for s in r.setup_s]),
    }
    _say(
        f"throughput_eps {values['throughput_eps']:.1f} el/s "
        f"(median of {len(good)} reps: "
        + ", ".join(f"{r.throughput_eps:.0f}" for r in good)
        + ")"
    )
    samples = sorted(r.results for r in good) or [0]
    for name, key in (("latency_p50_ms", "p50"), ("latency_p90_ms", "p90")):
        _say(
            f"{name} {values[name]:.4f} ms (median over {len(good)} reps of each rep's {key}; "
            f"{samples[0]}-{samples[-1]} samples per rep)"
        )
    _say(
        f"peak_rss_mb {values['peak_rss_mb']:.2f} MiB (median of {len(good)} reps: "
        + ", ".join(f"{r.peak_rss_mb:.1f}" for r in good)
        + ")"
    )
    _say(
        f"setup_s {values['setup_s']:.6f} s "
        f"(median of {sum(len(r.setup_s) for r in good)} set-ups)"
    )
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the engine sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    started = time.monotonic()
    inputs = workload.inputs(args.seed, args.size)
    expected = workload.reference(inputs)
    _say(
        f"workload {workload.name} seed {args.seed}: {len(inputs)} inputs, "
        f"{len(expected)} expected results, backend={workload.backend}"
    )

    reps = []
    warmup = harness.run_rep(workload, inputs, expected)
    _say(f"rep 0 (warm-up, discarded): {_describe(warmup)}")
    harness.prepare_parent()
    deadline = time.monotonic() + args.seconds
    traced_turn = False
    while (
        len(reps) < MIN_REPS * (2 if args.trace else 1) or time.monotonic() < deadline
    ) and time.monotonic() - started < HARD_STOP_S:
        # A traced run alternates untraced and traced reps, so the
        # tracing overhead is measured between neighbouring reps.
        rep = harness.run_rep_forked(workload, inputs, expected, traced=traced_turn)
        reps.append(rep)
        _say(f"rep {len(reps)}{' (traced)' if rep.traced else ''}: {_describe(rep)}")
        if args.trace:
            traced_turn = not traced_turn

    everything = [warmup, *reps]
    failed = sum(1 for r in everything if r.error is not None)
    probes = [r.probe_s * 1e3 for r in everything if r.probe_s]
    _say(f"host_probe_ms {harness.median(probes):.3f} (median of {len(probes)}; outside the gated metrics)")
    _say(f"failed {failed} of {len(everything)} reps ({100.0 * failed / len(everything):.1f}%)")

    if args.trace:
        import layers

        metrics = layers.report(reps, _say, harness.median(probes))
    else:
        metrics = end_to_end(reps)
    result = {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
    }
    _stop_resource_tracker()
    print(json.dumps(result), flush=True)
    return 0


def _stop_resource_tracker() -> None:
    """Reap the helper process multiprocessing starts on first shared-memory use.

    The process backend's rings are shared memory, so the warm-up rep of
    a process workload starts the tracker as a child of this process;
    stopping it here leaves no process of the benchmark running.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:  # a private method, missing on some Python versions
        stop()


def _describe(rep) -> str:
    if rep.error is not None:
        return f"FAILED: {rep.error}"
    text = f"{rep.throughput_eps:.0f} el/s in {rep.wall_s:.3f} s, setup {min(rep.setup_s) * 1e3:.2f} ms"
    if rep.peak_rss_mb:
        text += f", peak rss {rep.peak_rss_mb:.1f} MiB"
    return text + f", probe {rep.probe_s * 1e3:.1f} ms"


if __name__ == "__main__":
    sys.exit(main())
