"""Worker-process main loops for the process backend.

Each worker is forked by :class:`repro.mp.process_engine.ProcessEngine`
with a context object built in the parent:

* a **source worker** drives one autonomous source: it replays the
  source's schedule (optionally paced) and injects micro-batches into
  the forked graph copy; the DI chain reaction ends at the ring-backed
  decoupling queues (:class:`repro.mp.queues.RingQueue`), whose
  producer side serializes whole batches into shared memory.
* a **partition worker** is one level-2 unit: it drains the rings of
  the queues it owns through the unchanged ``Dispatcher.run_queue`` /
  strategy machinery, brackets each grant with the parent-served permit
  pipe when ``max_concurrency`` is set, and answers the control plane
  (pause/resume/assign/set_priority/stop — see :mod:`repro.mp.control`).

Because workers are *forked*, the child inherits the parent's graph,
ring mappings, and pipe ends by copy-on-write — no graph pickling, and
operator closures work unchanged.  Cross-process state then flows only
through three explicit channels: ring envelopes (data), the command
pipe (control + migrated operator state), and the permit pipe
(level-3 scheduling).
"""

from __future__ import annotations

import pickle
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.dataflow import Dispatcher
from repro.core.engine import run_grant, source_batches
from repro.core.partition import di_region
from repro.core.strategies import SchedulingStrategy, make_strategy
from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph
from repro.mp.control import Assignment, sink_state
from repro.mp.queues import RingQueue
from repro.streams.sources import Source

__all__ = [
    "SourceContext",
    "PartitionContext",
    "source_worker_main",
    "partition_worker_main",
]

_POLL_SECONDS = 0.002


@dataclass
class SourceContext:
    """Everything a source worker needs (inherited via fork)."""

    graph: QueryGraph
    node: Node
    conn: Any  # multiprocessing.Connection (child end)
    name: str
    pace: bool = False
    time_scale: float = 1.0
    batch_size: int = 1
    observe: bool = False


@dataclass
class PartitionContext:
    """Everything a partition worker needs (inherited via fork)."""

    graph: QueryGraph
    queue_nodes: List[Node]
    strategy: SchedulingStrategy
    priority: float
    conn: Any  # multiprocessing.Connection (child end)
    name: str
    batch_limit: Optional[int] = None
    batch_size: int = 1
    permit_conn: Any = None  # permit pipe child end, when bounded
    initial_assignment: Optional[Assignment] = None
    observe: bool = False
    # Parent-end pipe objects of *other* workers leak into forked
    # children; the engine nulls what it can before forking, the rest
    # is harmless (children never touch them).


def _send(conn: Any, message: tuple) -> None:
    """Best-effort send: a vanished parent must not crash the worker."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass


def source_worker_main(ctx: SourceContext) -> None:
    """Process entry point for one autonomous source."""
    try:
        _SourceWorker(ctx).run()
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        _send(ctx.conn, ("error", traceback.format_exc()))
        sys.exit(1)


def partition_worker_main(ctx: PartitionContext) -> None:
    """Process entry point for one level-2 partition."""
    try:
        _PartitionWorker(ctx).run()
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        _send(ctx.conn, ("error", traceback.format_exc()))
        sys.exit(1)


class _WorkerBase:
    """Shared control-plane handling for both worker kinds."""

    def __init__(
        self, graph: QueryGraph, conn: Any, name: str, observe: bool = False
    ) -> None:
        self.graph = graph
        self.conn = conn
        self.name = name
        #: Per-worker metrics registry when observing; each worker counts
        #: only what *it* processed, so the parent's merged view sums to
        #: the run totals (see repro.obs.registry.merge_snapshots).
        self.metrics = None
        if observe:
            from repro.obs import MetricsRegistry

            self.metrics = MetricsRegistry()
        # Single-threaded inside the worker: no dispatcher locking.
        self.dispatcher = Dispatcher(
            graph, stats=None, locking=False, observer=self.metrics
        )
        self.paused = False
        self.stopping = False
        self.priority = 0.0

    # -- control ---------------------------------------------------------
    def handle_control(self, wait_seconds: float = 0.0) -> None:
        """Drain pending commands; optionally block up to ``wait_seconds``.

        Blocking on the command pipe doubles as the idle sleep, so a
        control message wakes the worker immediately.
        """
        timeout = wait_seconds
        while True:
            try:
                if not self.conn.poll(timeout):
                    return
                message = self.conn.recv()
            except (EOFError, OSError):
                # Parent is gone; exit instead of spinning forever.
                self.stopping = True
                return
            timeout = 0.0
            kind = message[0]
            if kind == "pause":
                self.on_pause(bool(message[1]))
            elif kind == "resume":
                self.paused = False
            elif kind == "set_priority":
                self.priority = float(message[1])
            elif kind == "assign":
                self.on_assign(message[1])
            elif kind == "metrics":
                _send(self.conn, ("metrics", self.metrics_snapshot()))
            elif kind == "stop":
                self.stopping = True

    def on_pause(self, collect_state: bool) -> None:
        self.paused = True
        _send(self.conn, ("paused", self.snapshot() if collect_state else None))

    def on_assign(self, assignment: Assignment) -> None:  # pragma: no cover
        raise NotImplementedError  # partition workers only

    def snapshot(self) -> Optional[dict]:
        return None

    def metrics_snapshot(self) -> Optional[dict]:
        """This worker's registry snapshot (None when not observing).

        Called between grants (the control plane is only drained at
        batch boundaries), so within this single-threaded worker the
        snapshot is exact, not torn.
        """
        if self.metrics is None:
            return None
        self._sync_queue_metrics()
        return self.metrics.snapshot()

    def _sync_queue_metrics(self) -> None:
        """Fold queue counters into the registry (kind-specific)."""

    def wait_while_paused(self) -> None:
        while self.paused and not self.stopping:
            self.handle_control(_POLL_SECONDS * 5)


class _SourceWorker(_WorkerBase):
    def __init__(self, ctx: SourceContext) -> None:
        super().__init__(ctx.graph, ctx.conn, ctx.name, observe=ctx.observe)
        self.ctx = ctx
        self.node = ctx.node
        members, boundary = di_region(self.graph, self.node)
        self._region_sinks = [n for n in members if n.is_sink]
        self._boundary_rings: List[RingQueue] = []
        for queue_node in boundary:
            payload = queue_node.payload
            assert isinstance(payload, RingQueue)
            self._boundary_rings.append(payload)

    def _flush_spills(self) -> bool:
        flushed = True
        for ring_queue in self._boundary_rings:
            if not ring_queue.flush_pending():
                flushed = False
        return flushed

    def run(self) -> None:
        _send(self.conn, ("ready",))
        node = self.node
        source = node.payload
        assert isinstance(source, Source)
        ctx = self.ctx
        for batch in source_batches(
            source, ctx.batch_size, ctx.pace, ctx.time_scale, self._stopped
        ):
            self._flush_spills()
            self.dispatcher._deliver(node, batch)
        if not self.stopping:
            for edge in self.graph.out_edges(node):
                self.dispatcher.inject_end(edge.consumer, edge.port)
        # END markers (and any spilled batches) must reach the rings
        # before we exit, else downstream partitions wait forever.
        while not self._flush_spills() and not self.stopping:
            self.handle_control(_POLL_SECONDS)
        _send(self.conn, ("done", self._stats()))

    def _stopped(self) -> bool:
        """Serve the control plane between elements; True once stopping."""
        self.handle_control()
        self.wait_while_paused()
        return self.stopping

    def _sync_queue_metrics(self) -> None:
        # Producer side only: NEVER call len()/stats_view() on a
        # boundary ring from here — the consumer-side _sync() would
        # steal envelopes that belong to the owning partition.  The
        # producer's contribution is the monotone pushed counter.
        assert self.metrics is not None
        for ring_queue in self._boundary_rings:
            self.metrics.queue(ring_queue.name).sync(
                0, 0, ring_queue.total_enqueued
            )

    def _stats(self) -> Dict[str, Any]:
        return {
            "worker": self.name,
            "kind": "source",
            "invocations": self.dispatcher.invocations,
            "sink_states": {
                n.name: sink_state(n.payload) for n in self._region_sinks
            },
            "queue_peaks": {},
            "ends_seen": {},
            "aborted": self.stopping,
            "metrics": self.metrics_snapshot(),
        }


class _PartitionWorker(_WorkerBase):
    def __init__(self, ctx: PartitionContext) -> None:
        super().__init__(ctx.graph, ctx.conn, ctx.name, observe=ctx.observe)
        self.ctx = ctx
        self.queue_nodes: List[Node] = list(ctx.queue_nodes)
        self.strategy = ctx.strategy
        self.priority = ctx.priority
        self.permit = ctx.permit_conn
        self.retired = False
        self.queues_by_name = {n.name: n for n in self.graph.queues()}
        self.nodes_by_name = {n.name: n for n in self.graph.nodes}
        # Cumulative across reassignments (a queue may move away before
        # the final stats are reported).
        self._peak_acc: Dict[str, int] = {}
        self._ends_acc: Dict[str, bool] = {}
        self._touched_sinks: Set[Node] = set()
        self._boundary_rings: List[RingQueue] = []
        if ctx.initial_assignment is not None:
            self.on_assign(ctx.initial_assignment)
        self._prepare()

    # -- assignment ------------------------------------------------------
    def _prepare(self) -> None:
        if self.queue_nodes:
            self.strategy.prepare(self.graph, self.queue_nodes)
        boundary_ops: List[RingQueue] = []
        for queue_node in self.queue_nodes:
            members, boundary = di_region(self.graph, queue_node)
            self._touched_sinks.update(n for n in members if n.is_sink)
            for b in boundary:
                payload = b.payload
                assert isinstance(payload, RingQueue)
                if payload not in boundary_ops:
                    boundary_ops.append(payload)
        self._boundary_rings = boundary_ops

    def on_assign(self, assignment: Assignment) -> None:
        self._record_owned()
        self.queue_nodes = [
            self.queues_by_name[name] for name in assignment.queue_names
        ]
        self.priority = assignment.priority
        if not self.queue_nodes:
            self.retired = True
            return
        self.strategy = make_strategy(assignment.strategy_name)
        for node_name, blob in assignment.states.items():
            node = self.nodes_by_name[node_name]
            node.payload = pickle.loads(blob)
        for queue_name, (items, end_popped) in assignment.staging.items():
            ring_queue = self.queues_by_name[queue_name].payload
            assert isinstance(ring_queue, RingQueue)
            ring_queue.import_staging(items, end_popped)
        # Plan entries cache payloads; migrated state must be re-read.
        self.dispatcher.invalidate_plan()
        self._prepare()

    def snapshot(self) -> dict:
        """Reconfigure snapshot: operator states + staged elements."""
        self._record_owned()
        states: Dict[str, bytes] = {}
        for queue_node in self.queue_nodes:
            members, _ = di_region(self.graph, queue_node)
            for node in members:
                if node.is_sink:
                    continue
                states[node.name] = pickle.dumps(
                    node.payload, pickle.HIGHEST_PROTOCOL
                )
        staging: Dict[str, Tuple[list, bool]] = {}
        for queue_node in self.queue_nodes:
            ring_queue = queue_node.payload
            assert isinstance(ring_queue, RingQueue)
            staging[queue_node.name] = ring_queue.export_staging()
        return {"states": states, "staging": staging}

    def _record_owned(self) -> None:
        for queue_node in self.queue_nodes:
            op = queue_node.payload
            assert isinstance(op, RingQueue)
            previous = self._peak_acc.get(queue_node.name, 0)
            self._peak_acc[queue_node.name] = max(previous, op.peak_size)
            self._ends_acc[queue_node.name] = (
                self._ends_acc.get(queue_node.name, False) or op.closed
            )

    # -- spills ----------------------------------------------------------
    def _flush_spills(self) -> bool:
        flushed = True
        for ring_queue in self._boundary_rings:
            if not ring_queue.flush_pending():
                flushed = False
        return flushed

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        _send(self.conn, ("ready",))
        partition_metrics = (
            self.metrics.partition(self.name) if self.metrics is not None else None
        )
        idle = 0.0
        while True:
            self.handle_control(idle)
            idle = 0.0
            if self.stopping or self.retired:
                break
            if self.paused:
                idle = _POLL_SECONDS * 5
                continue
            flushed = self._flush_spills()
            ops = [node.payload for node in self.queue_nodes]
            ready = [
                node
                for node, op in zip(self.queue_nodes, ops)
                if len(op) > 0
            ]
            if not ready:
                if flushed and all(op.closed for op in ops):
                    break  # every owned edge acked END and spills drained
                idle = _POLL_SECONDS
                continue
            target = self.strategy.select(ready)
            if self.permit is not None and not self._acquire_permit():
                continue
            try:
                run_grant(
                    self.dispatcher,
                    target,
                    self.ctx.batch_limit,
                    self.ctx.batch_size,
                    partition_metrics,
                )
            finally:
                if self.permit is not None:
                    _send(self.permit, "rel")
        self._record_owned()
        _send(self.conn, ("done", self._stats()))

    def _acquire_permit(self) -> bool:
        """One ``acq``/``ok`` round with the parent's permit server."""
        try:
            self.permit.send("acq")
            reply = self.permit.recv()
        except (EOFError, OSError):
            self.stopping = True
            return False
        return reply == "ok"

    def _sync_queue_metrics(self) -> None:
        assert self.metrics is not None
        # Owned queues: this worker is their consumer, so the full
        # stats_view (depth/high-water/pushed) is safe to read.
        owned = set()
        for queue_node in self.queue_nodes:
            ring_queue = queue_node.payload
            assert isinstance(ring_queue, RingQueue)
            owned.add(ring_queue)
            depth, high_water, pushed = ring_queue.stats_view()
            self.metrics.queue(queue_node.name).sync(depth, high_water, pushed)
        # Downstream boundary rings this worker produces into but does
        # not own: contribute only the producer-side pushed counter —
        # touching the consumer side here would steal envelopes.
        for ring_queue in self._boundary_rings:
            if ring_queue not in owned:
                self.metrics.queue(ring_queue.name).sync(
                    0, 0, ring_queue.total_enqueued
                )

    def _stats(self) -> Dict[str, Any]:
        return {
            "worker": self.name,
            "kind": "partition",
            "invocations": self.dispatcher.invocations,
            "sink_states": {
                n.name: sink_state(n.payload) for n in self._touched_sinks
            },
            "queue_peaks": dict(self._peak_acc),
            "ends_seen": dict(self._ends_acc),
            "aborted": self.stopping,
            "metrics": self.metrics_snapshot(),
        }

