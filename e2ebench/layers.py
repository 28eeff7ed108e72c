"""The traced run: per-layer time and counts, measured from outside the engine.

Tracing wraps the public calls into each layer of ``src/repro`` — the
dispatcher's ``inject``/``inject_batch``/``inject_end``/``run_queue``/
``plan_out``, every operator's ``process``/``process_batch``/``end_port``,
the queues' push and pop methods, the level-2 strategy's ``select``, the
level-3 scheduler's ``acquire``/``release``, the shared-memory ring's
push and pop, and the benchmark's own source and sink — and changes no
engine code.  Each wrapper times its call and subtracts the time of the
wrapped calls nested inside it, so every layer gets its *self* time.

Accounting is per worker: every engine thread (via ``Thread.run``) and,
on the process backend, every worker process (via ``Process.run``) gets
a ledger.  A worker's idle time is its lifetime minus the time spent in
layer calls, so layer self-times plus idle add up to the worker's wall
time; :func:`traced_run` checks that they do, within
``ADD_UP_TOLERANCE``, and reports the remainder.  Worker processes send
their ledgers back through a pipe created before the engine forks them.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from harness import median, percentile
from repro.core.dataflow import Dispatcher
from repro.mp.ring import ShmRing
from repro.operators.queue_op import QueueOperator
from repro.operators.window import TimeWindow

#: A worker's layer self-times plus idle must equal its wall time to
#: within this share of the wall time (plus ADD_UP_FLOOR_S).
ADD_UP_TOLERANCE = 0.001
ADD_UP_FLOOR_S = 1e-4
#: How long to wait for worker processes' ledgers after the run.
LEDGER_WAIT_S = 10.0

_clock = time.perf_counter_ns


class Ledger:
    """Layer self-times and counts of one worker thread or process."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind  # "thread" | "process"
        self.start_ns = _clock()
        self.end_ns = 0
        self.stack: List[int] = []  # child time accumulated per open span
        self.top_ns = 0  # time inside outermost layer calls
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        self.select_end_ns = 0
        #: (timestamp, monotonic ns) of each input: when it was pulled
        #: from the source and when the source thread injected it.
        self.pulls: List[Tuple[int, int]] = []
        self.injects: List[Tuple[int, int]] = []
        self.origin_ns = 0
        #: Final state of operators this worker ran: node -> {stat: value}.
        self.operators: Dict[str, Dict[str, int]] = {}

    def summary(self) -> dict:
        state = dict(self.__dict__)
        del state["stack"]
        for key in ("self_ns", "counts", "peaks"):
            state[key] = dict(state[key])
        return state


class Tracer:
    """Installs the wrappers for one traced run and collects the ledgers."""

    def __init__(self, graph, permit_gaps: bool) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.ledgers: List[Ledger] = []
        #: On the process backend the level-3 permit is a pipe round trip
        #: between a partition's strategy.select and its run_queue.
        self.permit_gaps = permit_gaps
        self.units: set = set()
        self.graph = graph
        ctx = multiprocessing.get_context("fork")
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._write_lock = ctx.Lock()

    # -- ledgers ---------------------------------------------------------
    def begin(self, name: str, kind: str) -> Ledger:
        ledger = Ledger(name, kind)
        self._tls.ledger = ledger
        with self._lock:
            self.ledgers.append(ledger)
        return ledger

    def current(self) -> Optional[Ledger]:
        return getattr(self._tls, "ledger", None)

    def _process_run(self, original: Callable) -> Callable:
        tracer = self

        def run(process_self) -> None:
            # A forked worker inherits the parent's ledgers; it reports
            # only its own.
            tracer.ledgers = []
            ledger = tracer.begin(process_self.name, "process")
            try:
                original(process_self)
            finally:
                ledger.end_ns = _clock()
                ledger.operators = operator_stats(
                    tracer.graph, lambda name: ledger.counts.get(f"op:{name}:calls")
                )
                with tracer._write_lock:
                    tracer._writer.send(ledger.summary())

        return run

    def _thread_run(self, original: Callable) -> Callable:
        tracer = self

        def run(thread_self) -> None:
            ledger = tracer.begin(thread_self.name, "thread")
            try:
                original(thread_self)
            finally:
                ledger.end_ns = _clock()

        return run

    def collect(self, expected_processes: int) -> Optional[str]:
        """Receive the worker processes' ledgers; an error text if some are missing."""
        received = 0
        deadline = time.monotonic() + LEDGER_WAIT_S
        while received < expected_processes:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._reader.poll(remaining):
                return f"only {received} of {expected_processes} worker ledgers arrived"
            summary = self._reader.recv()
            ledger = Ledger(summary["name"], summary["kind"])
            ledger.__dict__.update(summary)
            self.ledgers.append(ledger)
            received += 1
        return None

    def close(self) -> None:
        self._reader.close()
        self._writer.close()

    # -- wrappers --------------------------------------------------------
    def timed(
        self,
        key: str,
        fn: Callable,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so its self time is charged to ``key``.

        ``pre(ledger, args)`` runs before the call (outside the span);
        ``post(ledger, args, result)`` runs inside it, so counting is
        charged to the layer it counts.
        """
        tls = self._tls

        def wrapper(*args, **kwargs):
            ledger = getattr(tls, "ledger", None)
            if ledger is None:  # a thread that is not an engine worker
                return fn(*args, **kwargs)
            if pre is not None:
                pre(ledger, args)
            stack = ledger.stack
            stack.append(0)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(ledger, args, result)
                return result
            finally:
                elapsed = _clock() - started
                ledger.self_ns[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    ledger.top_ns += elapsed

        return wrapper

    def pull_iterator(self, elements) -> Iterator:
        """The traced source: each pull is a ``source`` span, stamped."""
        ledger = self.current()
        if ledger is not None:
            ledger.origin_ns = time.monotonic_ns()
        return _TimedPulls(self, elements)


class _TimedPulls:
    def __init__(self, tracer: Tracer, elements) -> None:
        self._next = tracer.timed("source", iter(elements).__next__, post=_note_pull)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _note_pull(ledger: Ledger, args, element) -> None:
    ledger.pulls.append((element.timestamp, time.monotonic_ns()))


# ----------------------------------------------------------------------
# Per-layer hooks
# ----------------------------------------------------------------------
def _source_inject_pre(ledger: Ledger, args) -> None:
    # Only the outermost inject of a source worker hands inputs over.
    if not ledger.stack and ledger.name.startswith("source:"):
        ledger.injects.append((args[2].timestamp, time.monotonic_ns()))


def _source_inject_batch_pre(ledger: Ledger, args) -> None:
    if not ledger.stack and ledger.name.startswith("source:"):
        now = time.monotonic_ns()
        ledger.injects.extend((element.timestamp, now) for element in args[2])


def _count_inject(ledger: Ledger, args, result) -> None:
    ledger.counts["inject_calls"] += 1
    ledger.counts["inject_elements"] += 1


def _count_inject_batch(ledger: Ledger, args, result) -> None:
    ledger.counts["inject_calls"] += 1
    ledger.counts["inject_elements"] += len(args[2])


def _count_run_queue(ledger: Ledger, args, processed) -> None:
    ledger.counts["run_queue_calls"] += 1
    ledger.counts["run_queue_elements"] += processed
    if not processed:
        ledger.counts["empty_grants"] += 1


def _count_select(ledger: Ledger, args, result) -> None:
    ledger.counts["select_calls"] += 1
    ledger.select_end_ns = _clock()


def _ring_push_pre(ledger: Ledger, args) -> None:
    if args[0].empty:
        ledger.counts["ring_empty_pushes"] += 1


def _count_ring_push(ledger: Ledger, args, pushed) -> None:
    if pushed:
        ledger.counts["ring_envelopes"] += 1
    else:
        ledger.counts["ring_full_retries"] += 1


def _count_ring_bytes(ledger: Ledger, args, pushed) -> None:
    if pushed:
        ledger.counts["ring_bytes"] += len(args[1])


def _operator_hooks(name: str):
    calls, n_in, n_out = f"op:{name}:calls", f"op:{name}:in", f"op:{name}:out"

    def one(ledger: Ledger, args, outputs) -> None:
        ledger.counts[calls] += 1
        ledger.counts[n_in] += 1
        ledger.counts[n_out] += len(outputs)

    def batch(ledger: Ledger, args, outputs) -> None:
        ledger.counts[calls] += 1
        ledger.counts[n_in] += len(args[0])
        ledger.counts[n_out] += len(outputs)

    def end(ledger: Ledger, args, outputs) -> None:
        ledger.counts[n_out] += len(outputs)

    return one, batch, end


def _queue_hooks(queue: QueueOperator, ring: bool):
    def push_pre(ledger: Ledger, args) -> None:
        # The producer side of a ring must not read its length (that
        # would consume the consumer's envelopes); rings count empty
        # pushes at the ring itself.
        if not ring and len(queue) == 0:
            ledger.counts["queue_empty_pushes"] += 1

    def pushed(ledger: Ledger, args, result) -> None:
        ledger.counts["queue_push_calls"] += 1
        ledger.peaks["queue_depth"] = max(ledger.peaks["queue_depth"], queue.peak_size)

    def popped(ledger: Ledger, args, result) -> None:
        ledger.counts["queue_pop_calls"] += 1
        ledger.peaks["queue_depth"] = max(ledger.peaks["queue_depth"], queue.peak_size)

    return push_pre, pushed, popped


def _count_acquire(tracer: Tracer):
    def post(ledger: Ledger, args, granted) -> None:
        tracer.units.add(args[0])
        if not granted:
            ledger.counts["ts_timeouts"] += 1

    return post


def _permit_gap_pre(ledger: Ledger, args) -> None:
    if ledger.select_end_ns and ledger.kind == "process":
        ledger.counts["permit_wait_ns"] += _clock() - ledger.select_end_ns
    ledger.select_end_ns = 0


def operator_stats(graph, ran: Callable[[str], Any]) -> Dict[str, Dict[str, int]]:
    """Final state size (and join probe work) of the operators ``ran`` selects."""
    stats = {}
    for node in graph.operators(include_queues=False):
        if ran(node.name):
            op = node.payload
            stats[node.name] = {"state": op.state_size()}
            if hasattr(op, "total_probe_work"):
                stats[node.name]["probe_work"] = op.total_probe_work
    return stats


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
@contextmanager
def installed(tracer: Tracer, built, engine):
    """Install every wrapper for one run; restore the originals on exit."""
    undo: List[Tuple[Any, str, Any, bool]] = []

    def patch(target, name: str, replacement) -> None:
        own = name in vars(target)
        undo.append((target, name, vars(target).get(name), own))
        setattr(target, name, replacement)

    timed = tracer.timed

    # core.dataflow (class level: process workers build their own dispatcher)
    patch(Dispatcher, "inject", timed("dataflow", Dispatcher.inject, _source_inject_pre, _count_inject))
    patch(
        Dispatcher,
        "inject_batch",
        timed("dataflow", Dispatcher.inject_batch, _source_inject_batch_pre, _count_inject_batch),
    )
    patch(Dispatcher, "inject_end", timed("dataflow", Dispatcher.inject_end))
    patch(
        Dispatcher,
        "run_queue",
        timed(
            "dataflow",
            Dispatcher.run_queue,
            _permit_gap_pre if tracer.permit_gaps else None,
            _count_run_queue,
        ),
    )
    patch(Dispatcher, "plan_out", timed("dataflow", Dispatcher.plan_out))

    # mp: the shared-memory ring transport
    patch(ShmRing, "try_push_batch", timed("mp.ring.push", ShmRing.try_push_batch, _ring_push_pre, _count_ring_push))
    patch(ShmRing, "try_push_bytes", timed("mp.ring.push", ShmRing.try_push_bytes, post=_count_ring_bytes))
    patch(ShmRing, "pop_batches", timed("mp.ring.pop", ShmRing.pop_batches))

    # operators: window scans of the sliding aggregate
    scan_iter = TimeWindow.__iter__

    def counted_iter(window):
        ledger = tracer.current()
        if ledger is not None:
            ledger.counts["window_scanned"] += len(window)
        return scan_iter(window)

    patch(TimeWindow, "__iter__", counted_iter)

    # operators and operators.queue_op (instance level)
    for node in built.graph.operators():
        op = node.payload
        if node.is_queue:
            ring = hasattr(op, "flush_pending")
            push_pre, pushed, popped = _queue_hooks(op, ring)
            patch(op, "process", timed("queue", op.process, push_pre, pushed))
            patch(op, "process_batch", timed("queue", op.process_batch, push_pre, pushed))
            patch(op, "end_port", timed("queue", op.end_port))
            patch(op, "try_pop", timed("queue", op.try_pop, post=popped))
            patch(op, "pop_many", timed("queue", op.pop_many, post=popped))
            if ring:
                patch(op, "flush_pending", timed("mp.ring.push", op.flush_pending))
            continue
        one, batch, end = _operator_hooks(node.name)
        key = f"op:{node.name}"
        patch(op, "process", timed(key, op.process, post=one))
        patch(op, "process_batch", timed(key, op.process_batch, post=batch))
        patch(op, "end_port", timed(key, op.end_port, post=end))

    # core.strategies and core.thread_scheduler
    for spec in engine.config.partitions:
        patch(spec.strategy, "select", timed("strategy", spec.strategy.select, post=_count_select))
    ts = engine.thread_scheduler
    if ts is not None:
        patch(ts, "acquire", timed("thread_scheduler", ts.acquire, post=_count_acquire(tracer)))
        patch(ts, "release", timed("thread_scheduler", ts.release))

    # streams: the benchmark's own source and sink
    built.source.pull_hook = tracer.pull_iterator
    patch(built.sink, "receive", timed("sink", built.sink.receive))

    # worker lifetimes
    patch(threading.Thread, "run", tracer._thread_run(threading.Thread.run))
    process_cls = multiprocessing.process.BaseProcess
    patch(process_cls, "run", tracer._process_run(process_cls.run))
    try:
        yield
    finally:
        built.source.pull_hook = None
        for target, name, original, own in reversed(undo):
            if own:
                setattr(target, name, original)
            else:
                delattr(target, name)


def traced_run(workload, built, engine, timeout: float) -> Tuple[float, dict, Optional[str]]:
    """Run ``engine`` traced; returns (wall seconds, layer values, error)."""
    tracer = Tracer(
        built.graph,
        permit_gaps=workload.backend == "process" and engine.thread_scheduler is not None,
    )
    error = None
    try:
        with installed(tracer, built, engine):
            started = time.perf_counter()
            engine.start()
            finished = engine.join(timeout)
            wall_s = time.perf_counter() - started
            if not finished:
                engine.abort()
                error = f"engine timed out after {timeout} s"
            elif workload.backend == "process":
                expected = len(built.graph.sources()) + len(engine.config.partitions)
                error = tracer.collect(expected)
            engine.close()
        values, add_up_error = summarize(workload, built, engine, tracer)
        return wall_s, values, error or add_up_error
    finally:
        tracer.close()


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def _p99(values: List[float]) -> float:
    return percentile(values, 99) if values else 0.0


def summarize(workload, built, engine, tracer: Tracer) -> Tuple[dict, Optional[str]]:
    """Fold the ledgers of one traced rep into named per-layer values."""
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    peaks: Dict[str, int] = defaultdict(int)
    operators: Dict[str, Dict[str, int]] = {}
    if workload.backend == "thread":  # every operator ran in this process
        operators.update(operator_stats(built.graph, lambda name: True))
    pulls: Dict[int, int] = {}
    injects: List[Tuple[int, int]] = []
    origin_ns = 0
    values: Dict[str, float] = {}
    unattributed = 0.0
    add_up_error = None
    for ledger in tracer.ledgers:
        for key, ns in ledger.self_ns.items():
            self_s[key] += ns / 1e9
        for key, n in ledger.counts.items():
            counts[key] += n
        for key, n in ledger.peaks.items():
            peaks[key] = max(peaks[key], n)
        operators.update(ledger.operators)
        pulls.update(ledger.pulls)
        injects.extend(ledger.injects)
        origin_ns = origin_ns or ledger.origin_ns
        wall = (ledger.end_ns - ledger.start_ns) / 1e9
        layer_time = sum(ledger.self_ns.values()) / 1e9
        idle = wall - ledger.top_ns / 1e9
        unit = ledger.name.replace(":", "-")
        values[f"engine.{unit}.idle_s"] = idle
        values[f"engine.{unit}.layers_s"] = layer_time
        values[f"engine.{unit}.wall_s"] = wall
        remainder = wall - layer_time - idle
        unattributed += abs(remainder)
        if abs(remainder) > ADD_UP_TOLERANCE * wall + ADD_UP_FLOOR_S and add_up_error is None:
            add_up_error = (
                f"trace accounting: worker {ledger.name} layers {layer_time:.6f} s + idle "
                f"{idle:.6f} s != wall {wall:.6f} s"
            )

    # Due time of each input: paced = origin + timestamp * time_scale;
    # unpaced = when the engine pulled it.
    if workload.paced:
        scale = workload.knobs.get("time_scale", 1.0)

        def due(ts: int) -> float:
            return origin_ns + ts * scale

    else:

        def due(ts: int) -> float:
            return pulls[ts]

    op_names = [n.name for n in built.graph.operators(include_queues=False)]
    values.update(
        {
            # streams
            "source.pull_s": self_s["source"],
            "source.lag_p99_ms": _p99([(t - due(ts)) / 1e6 for ts, t in injects]),
            "sink.busy_s": self_s["sink"],
            "sink.latency_p99_ms": _p99(
                [(arrival - due(ts)) / 1e6 for ts, _, arrival in built.sink.elements]
            ),
            "sink.results": len(built.sink.elements),
            # core.dataflow
            "dataflow.self_s": self_s["dataflow"],
            "dataflow.inject_calls": counts["inject_calls"],
            "dataflow.inject_elements": counts["inject_elements"],
            "dataflow.run_queue_calls": counts["run_queue_calls"],
            "dataflow.run_queue_elements": counts["run_queue_elements"],
            # operators
            "operators.busy_s": sum(self_s[f"op:{name}"] for name in op_names),
            "operators.in": sum(counts[f"op:{name}:in"] for name in op_names),
            "operators.out": sum(counts[f"op:{name}:out"] for name in op_names),
            "operators.aggregate.scan_per_out": (
                counts["window_scanned"] / counts["op:aggregate:out"]
                if counts["op:aggregate:out"]
                else 0.0
            ),
            "operators.join.probe_work": operators.get("join", {}).get("probe_work", 0),
            "operators.join.state": operators.get("join", {}).get("state", 0),
            # operators.queue_op
            "queue.busy_s": self_s["queue"],
            "queue.push_calls": counts["queue_push_calls"],
            "queue.pop_calls": counts["queue_pop_calls"],
            "queue.peak_depth": peaks["queue_depth"],
            "queue.signal_ratio": _signal_ratio(counts),
            # core.strategies
            "strategy.select_calls": counts["select_calls"],
            "strategy.select_s": self_s["strategy"],
            # core.engine
            "engine.empty_grants": counts["empty_grants"],
            # core.thread_scheduler
            "thread_scheduler.call_s": self_s["thread_scheduler"],
            "thread_scheduler.timeouts": counts["ts_timeouts"],
            # mp
            "mp.ring.envelopes": counts["ring_envelopes"],
            "mp.ring.bytes": counts["ring_bytes"],
            "mp.ring.push_s": self_s["mp.ring.push"],
            "mp.ring.pop_s": self_s["mp.ring.pop"],
            "mp.ring.full_retries": counts["ring_full_retries"],
            "mp.permit.wait_s": counts["permit_wait_ns"] / 1e9,
            "trace.unattributed_s": unattributed,
        }
    )
    for name in op_names:
        values[f"operators.{name}.busy_s"] = self_s[f"op:{name}"]
        values[f"operators.{name}.in"] = counts[f"op:{name}:in"]
        values[f"operators.{name}.out"] = counts[f"op:{name}:out"]
    values["engine.idle_s"] = sum(
        v for k, v in values.items() if k.startswith("engine.") and k.endswith(".idle_s")
    )
    ts = engine.thread_scheduler
    units = sorted(tracer.units)
    values["thread_scheduler.grants"] = sum(ts.grants(u) for u in units) if ts else 0
    values["thread_scheduler.wait_s"] = sum(ts.total_wait_ns(u) for u in units) / 1e9 if ts else 0.0
    return values, add_up_error


def _signal_ratio(counts: Dict[str, int]) -> float:
    """Pushes onto an empty queue (or ring) over all pushes."""
    if counts["ring_envelopes"] or counts["ring_full_retries"]:
        pushes = counts["ring_envelopes"] + counts["ring_full_retries"]
        return counts["ring_empty_pushes"] / pushes
    if counts["queue_push_calls"]:
        return counts["queue_empty_pushes"] / counts["queue_push_calls"]
    return 0.0


# ----------------------------------------------------------------------
# Report over the reps of one traced run
# ----------------------------------------------------------------------
#: The per-layer metrics of the final JSON line (BENCHMARK.json lists the
#: same names).  Every other per-layer value is printed in the table
#: only: per-node and per-worker values (their names differ between
#: workloads), and times of layers that some workload never enters.
PER_LAYER = (
    "source.pull_s",
    "source.lag_p99_ms",
    "sink.busy_s",
    "sink.latency_p99_ms",
    "sink.results",
    "dataflow.self_s",
    "dataflow.inject_calls",
    "dataflow.inject_elements",
    "dataflow.run_queue_calls",
    "dataflow.run_queue_elements",
    "operators.busy_s",
    "operators.in",
    "operators.out",
    "operators.aggregate.scan_per_out",
    "operators.join.probe_work",
    "operators.join.state",
    "queue.push_calls",
    "queue.pop_calls",
    "queue.peak_depth",
    "queue.signal_ratio",
    "strategy.select_calls",
    "engine.idle_s",
    "engine.empty_grants",
    "thread_scheduler.grants",
    "thread_scheduler.timeouts",
    "mp.ring.envelopes",
    "mp.ring.bytes",
    "mp.ring.full_retries",
    "setup.graph_s",
    "setup.engine_s",
    "trace.overhead",
    "host.probe_ms",
)

_RATIOS = ("queue.signal_ratio", "trace.overhead")


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in _RATIOS:
        return "ratio"
    if name == "mp.ring.bytes":
        return "bytes"
    return "count"


def report(reps, say, probe_ms: float) -> dict:
    """Print the per-layer table of a traced run; return its JSON metrics.

    Each value is the median over the traced reps.  ``trace.overhead``
    is the median traced wall time over the median untraced wall time
    of the run's interleaved untraced reps.
    """
    traced = [r for r in reps if r.traced and r.error is None]
    untraced = [r for r in reps if not r.traced and r.error is None]
    good = traced + untraced
    values: Dict[str, float] = {}
    for name in sorted({k for r in traced for k in r.layers}):
        values[name] = median([r.layers.get(name, 0) for r in traced])
    values["setup.graph_s"] = median([g for r in good for g in r.graph_s])
    values["setup.engine_s"] = median([e for r in good for e in r.engine_s])
    untraced_wall = median([r.wall_s for r in untraced])
    values["trace.overhead"] = (
        median([r.wall_s for r in traced]) / untraced_wall if untraced_wall else 0.0
    )
    values["host.probe_ms"] = probe_ms
    say(f"per-layer metrics, median of {len(traced)} traced reps ({len(untraced)} untraced beside them):")
    for name in sorted(values):
        say(f"  {name:40s} {values[name]:.6g} {unit_of(name)}")
    unbalanced = [r for r in reps if r.traced and (r.error or "").startswith("trace accounting")]
    say(
        "add-up check per worker (layers + idle = wall within "
        f"{ADD_UP_TOLERANCE:.1%} + {ADD_UP_FLOOR_S * 1e3:g} ms): "
        + (f"FAILED in {len(unbalanced)} reps" if unbalanced else "passed in every traced rep")
    )
    return {name: {"value": values.get(name, 0), "unit": unit_of(name)} for name in PER_LAYER}
