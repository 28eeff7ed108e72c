"""Runs workload repetitions in isolated, forked children.

One *rep* is one complete engine run of a workload: set the query up
(several times, to time set-up), run it, check the sink output against
the reference, and report what was measured.  Each measured rep runs in
a child forked from a parent that has already done one warm-up rep, so
every rep starts from the same interpreter state, and the child's peak
resident memory (``wait4`` rusage, which folds in the peaks of the
engine's own worker processes) is that rep's alone.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from workloads import Workload

#: Set-ups per rep; the last one is the engine that runs.
SETUPS_PER_REP = 5
#: The engine aborts a run after this long; the parent kills the child
#: after REP_KILL_S.  A normal rep takes a few seconds.
RUN_TIMEOUT_S = 30.0
REP_KILL_S = 45.0


def host_probe_s() -> float:
    """Time a fixed pure-Python loop: a yardstick for the host's speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - started


@dataclass
class RepResult:
    """What one rep measured.  ``error`` is None on a correct run."""

    traced: bool = False
    error: Optional[str] = None
    wall_s: float = 0.0
    inputs: int = 0
    graph_s: List[float] = field(default_factory=list)
    engine_s: List[float] = field(default_factory=list)
    #: Result-latency percentiles of this rep: {"p50": ms, "p90": ms}.
    latency_ms: Dict[str, float] = field(default_factory=dict)
    results: int = 0
    probe_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: Dict[str, Any] = field(default_factory=dict)

    @property
    def setup_s(self) -> List[float]:
        return [g + e for g, e in zip(self.graph_s, self.engine_s)]

    @property
    def throughput_eps(self) -> float:
        return self.inputs / self.wall_s


def _setup(workload: Workload, inputs, result: RepResult):
    """Build and construct the engine SETUPS_PER_REP times; keep the last."""
    for attempt in range(SETUPS_PER_REP):
        built = workload.build(inputs)
        started = time.perf_counter()
        engine = workload.engine(built)
        result.engine_s.append(time.perf_counter() - started)
        result.graph_s.append(built.graph_s)
        if attempt < SETUPS_PER_REP - 1:
            engine.close()  # releases shared-memory rings on the process backend
    return built, engine


def latencies_ms(workload: Workload, built, run_started_ns: int) -> List[float]:
    """Sink arrival minus due time for every result, in milliseconds.

    Paced: an input is due at pacing origin + timestamp * time_scale.
    Unpaced: the source replays at full speed, so every input is due
    when ``run()`` is called.
    """
    if workload.paced:
        origin = built.source.origin_ns
        scale = workload.knobs.get("time_scale", 1.0)
        return [(arrival - (origin + ts * scale)) / 1e6 for ts, _, arrival in built.sink.elements]
    return [(arrival - run_started_ns) / 1e6 for _, _, arrival in built.sink.elements]


def run_rep(workload: Workload, inputs, expected, traced: bool = False) -> RepResult:
    """One rep in the current process."""
    result = RepResult(traced=traced, inputs=len(inputs))
    result.probe_s = host_probe_s()
    built, engine = _setup(workload, inputs, result)
    try:
        if traced:
            import layers

            run_started_ns = time.monotonic_ns()
            result.wall_s, result.layers, error = layers.traced_run(
                workload, built, engine, RUN_TIMEOUT_S
            )
            result.error = error
        else:
            run_started_ns = time.monotonic_ns()
            started = time.perf_counter()
            report = engine.run(timeout=RUN_TIMEOUT_S, raise_on_failure=False)
            result.wall_s = time.perf_counter() - started
            if report.failure:
                result.error = f"engine failure: {report.failure}"
            elif report.aborted:
                result.error = f"engine timed out after {RUN_TIMEOUT_S} s"
    except Exception as exc:  # noqa: BLE001 - a failed rep is reported, not raised
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        engine.close()
    if result.error is None:
        mismatch = workload.check(built.sink, expected)
        if mismatch is not None:
            result.error = f"output mismatch: {mismatch}"
    if result.error is None:
        # Percentiles are taken here so the parent does not accumulate
        # every result of every rep (its heap is each child's baseline).
        samples = latencies_ms(workload, built, run_started_ns)
        result.results = len(samples)
        result.latency_ms = {"p50": percentile(samples, 50), "p90": percentile(samples, 90)}
    return result


def run_rep_forked(workload: Workload, inputs, expected, traced: bool = False) -> RepResult:
    """One rep in a forked child; its peak RSS comes from ``wait4``."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(read_fd)
            os.setpgid(0, 0)  # own group, so a hung rep can be killed whole
            payload = pickle.dumps(run_rep(workload, inputs, expected, traced))
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        except BaseException:  # noqa: BLE001 - the child must never return
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + REP_KILL_S
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([pipe], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        _kill_group(pid)
    _, status, usage = os.wait4(pid, 0)
    if timed_out:
        return RepResult(traced=traced, error=f"rep killed after {REP_KILL_S} s")
    if status != 0 or not chunks:
        return RepResult(traced=traced, error=f"rep process exited with status {status}")
    result: RepResult = pickle.loads(b"".join(chunks))
    result.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return result


def _kill_group(pid: int) -> None:
    """SIGKILL a rep's process group and wait until it is empty."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def prepare_parent() -> None:
    """Freeze the parent's heap so children's collections skip it."""
    gc.collect()
    gc.freeze()


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
