"""The benchmark's workloads: seeded inputs, query graphs, engine knobs, references.

Every workload is one of the paper's query shapes run through the public
engine surface (``Engine.from_graph`` with ``Source``/``Sink``
subclasses).  Inputs are generated from the seed before any clock
starts; the engine only ever sees the pre-generated elements.  Each
workload also computes its expected sink output from the same inputs
with a plain-Python reference that shares no code with the engine.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import Engine
from repro.graph.query_graph import QueryGraph
from repro.operators.aggregate import WindowedAggregate
from repro.operators.joins import SymmetricHashJoin
from repro.operators.projection import MapOperator
from repro.operators.queue_op import QueueOperator
from repro.operators.selection import Selection
from repro.streams.elements import StreamElement
from repro.streams.sinks import Sink
from repro.streams.sources import Source

NANOS = 1_000_000_000


class ReplaySource(Source):
    """Replays pre-generated elements and notes when the engine first pulls.

    ``origin_ns`` (``time.monotonic_ns``) is read when the engine starts
    iterating, which is the pacing origin of a paced run.  A traced run
    sets ``pull_hook``, which then supplies the iterator the engine pulls
    from; otherwise iteration is the bare list iterator.
    """

    def __init__(self, elements: List[StreamElement], name: str = "source") -> None:
        self.name = name
        self._elements = elements
        self.origin_ns: Optional[int] = None
        self.pull_hook: Optional[Callable[[List[StreamElement]], Iterator]] = None

    def schedule(self):
        for element in self._elements:
            yield element.timestamp, element.value

    def __iter__(self):
        self.origin_ns = time.monotonic_ns()
        if self.pull_hook is None:
            return iter(self._elements)
        return self.pull_hook(self._elements)

    def __len__(self) -> int:
        return len(self._elements)


class RecordingSink(Sink):
    """Keeps ``(timestamp, value, arrival_ns)`` for every result.

    The list is named ``elements`` so the process backend ships it back
    from the worker that owns the sink (its sink-state merge copies any
    ``elements`` list).
    """

    def __init__(self, name: str = "sink") -> None:
        super().__init__(name)
        self.elements: List[Tuple[int, Any, int]] = []

    def receive(self, element: StreamElement) -> None:
        self.elements.append((element.timestamp, element.value, time.monotonic_ns()))


@dataclass
class Built:
    """One freshly built query, ready to run."""

    graph: QueryGraph
    source: ReplaySource
    sink: RecordingSink
    partitioning: Any
    graph_s: float


@dataclass(frozen=True)
class Workload:
    """A named workload: how to make its inputs, query and reference."""

    name: str
    why: str
    backend: str
    paced: bool
    #: Inputs per rep.
    size: int
    #: (seed, size) -> pre-generated input elements.
    make_inputs: Callable[[int, int], List[StreamElement]]
    #: inputs -> a fresh graph with queues placed (timed as set-up).
    build: Callable[[List[StreamElement]], Built]
    #: Keyword knobs for ``Engine.from_graph``.
    knobs: Dict[str, Any]
    #: inputs -> expected ``(timestamp, value)`` results.
    reference: Callable[[List[StreamElement]], List[Tuple[int, Any]]]
    #: True when the sink order is part of the contract; False compares
    #: the results as a multiset.
    ordered: bool = True

    def inputs(self, seed: int, size: Optional[int] = None) -> List[StreamElement]:
        return self.make_inputs(seed, size or self.size)

    def engine(self, built: Built) -> Engine:
        return Engine.from_graph(
            built.graph,
            built.partitioning,
            backend=self.backend,
            sanitize=False,
            observe=False,
            **self.knobs,
        )

    def check(self, sink: RecordingSink, expected: List[Tuple[int, Any]]) -> Optional[str]:
        """None when the sink holds exactly the expected results, else why not."""
        got = [(ts, value) for ts, value, _ in sink.elements]
        if self.ordered:
            if got == expected:
                return None
        elif Counter(got) == Counter(expected):
            return None
        return f"{len(got)} results, expected {len(expected)}" + (
            "" if len(got) != len(expected) else " (contents differ)"
        )


def _elements(values: List[Any], timestamps: List[int]) -> List[StreamElement]:
    return [StreamElement(value=v, timestamp=t) for v, t in zip(values, timestamps)]


def _timed_build(make: Callable[[List[StreamElement]], Tuple]) -> Callable:
    def build(inputs: List[StreamElement]) -> Built:
        started = time.perf_counter()
        graph, source, sink, partitioning = make(inputs)
        return Built(graph, source, sink, partitioning, time.perf_counter() - started)

    return build


def _chain(graph: QueryGraph, source_node, operators, sink: Sink) -> List[Any]:
    """Connect ``source -> operators... -> sink``; returns the operator nodes."""
    nodes = [graph.add_operator(operator) for operator in operators]
    path = [source_node, *nodes, graph.add_sink(sink, name="sink")]
    for producer, consumer in zip(path, path[1:]):
        graph.connect(producer, consumer)
    return nodes


# ----------------------------------------------------------------------
# chain_gts: the Fig. 7 chain of five cheap selections, fully decoupled.
# Runnable, but not listed in BENCHMARK.json: its run medians jump
# between levels the host-speed probe does not explain (README.md).
# ----------------------------------------------------------------------
CHAIN_INPUTS = 20_000
#: The paper's selectivities 0.998, 0.996, ..., 0.990: selection i drops
#: a value whose residue mod 1000 (after shifting by 5*i bits) is below
#: 2*(i+1).
CHAIN_STAGES = tuple((5 * i, 2 * (i + 1)) for i in range(5))


def _keep_residue(shift: int, threshold: int, value: int) -> bool:
    return (value >> shift) % 1000 >= threshold


def chain_inputs(seed: int, size: int) -> List[StreamElement]:
    rng = random.Random(seed)
    values = [rng.getrandbits(40) for _ in range(size)]
    return _elements(values, [i * 1_000 for i in range(size)])


def _make_chain(inputs):
    graph = QueryGraph("chain_gts")
    source = ReplaySource(inputs)
    sink = RecordingSink()
    _chain(
        graph,
        graph.add_source(source, name="source"),
        [
            Selection(partial(_keep_residue, shift, threshold), name=f"sel{i + 1}")
            for i, (shift, threshold) in enumerate(CHAIN_STAGES)
        ],
        sink,
    )
    graph.decouple_all()
    return graph, source, sink, "gts"


def chain_reference(inputs):
    out = []
    for element in inputs:
        value = element.value
        if all((value >> s) % 1000 >= t for s, t in CHAIN_STAGES):
            out.append((element.timestamp, value))
    return out


# ----------------------------------------------------------------------
# window_agg / paced_hmts: the quickstart query (filter -> map -> count).
# ----------------------------------------------------------------------
THRESHOLD = 80  # keeps readings 80..99 of 0..99, i.e. about 20%
WINDOW_AGG_INPUTS = 40_000
WINDOW_AGG_GAP_NS = 100_000  # 10,000 el/s of application time
WINDOW_AGG_WINDOW_NS = 500_000_000  # ~1,000 filtered elements in the window

PACED_RATE = 5_000.0  # Poisson arrivals per second
PACED_INPUTS = 10_000  # two seconds of arrivals
PACED_WINDOW_NS = 200_000_000  # ~200 filtered elements in the window


def _at_least_threshold(reading: int) -> bool:
    return reading >= THRESHOLD


def _rescale(reading: int) -> float:
    return reading / 10.0


def _quickstart_ops(window_ns: int):
    return (
        Selection(_at_least_threshold, name="threshold"),
        MapOperator(_rescale, name="rescale"),
        WindowedAggregate(window_ns, "count", name="aggregate"),
    )


def window_agg_inputs(seed: int, size: int) -> List[StreamElement]:
    rng = random.Random(seed)
    values = [rng.randrange(100) for _ in range(size)]
    return _elements(values, [i * WINDOW_AGG_GAP_NS for i in range(size)])


def _make_window_agg(inputs):
    graph = QueryGraph("window_agg")
    source = ReplaySource(inputs)
    sink = RecordingSink()
    _chain(
        graph,
        graph.add_source(source, name="source"),
        _quickstart_ops(WINDOW_AGG_WINDOW_NS),
        sink,
    )
    return graph, source, sink, "di"


def paced_inputs(seed: int, size: int) -> List[StreamElement]:
    rng = random.Random(seed)
    values = [rng.randrange(100) for _ in range(size)]
    timestamps = []
    clock = 0.0
    for _ in range(size):
        clock += rng.expovariate(PACED_RATE) * NANOS
        timestamps.append(round(clock))
    return _elements(values, timestamps)


def _make_paced(inputs):
    graph = QueryGraph("paced_hmts")
    source = ReplaySource(inputs)
    sink = RecordingSink()
    threshold, rescale, aggregate = _quickstart_ops(PACED_WINDOW_NS)
    q_in, _, _, q_agg, _ = _chain(
        graph,
        graph.add_source(source, name="source"),
        [QueueOperator(name="q_in"), threshold, rescale, QueueOperator(name="q_agg"), aggregate],
        sink,
    )
    return graph, source, sink, [[q_in], [q_agg]]


def quickstart_reference(window_ns: int):
    def reference(inputs):
        kept = [e.timestamp for e in inputs if e.value >= THRESHOLD]
        out = []
        first = 0
        for index, ts in enumerate(kept):
            while kept[first] <= ts - window_ns:
                first += 1
            out.append((ts, index - first + 1))
        return out

    return reference


# ----------------------------------------------------------------------
# join_process: the Fig. 6 join on the process backend.
# ----------------------------------------------------------------------
JOIN_INPUTS = 60_000
JOIN_LEFT_KEYS = 100_000  # keys U[0, 1e5]
JOIN_RIGHT_KEYS = 10_000  # keys U[0, 1e4]
JOIN_GAP_NS = 1_000

_key = itemgetter(1)


def _is_left(value) -> bool:
    return value[0] == 0


def _is_right(value) -> bool:
    return value[0] == 1


def join_inputs(seed: int, size: int) -> List[StreamElement]:
    rng = random.Random(seed)
    values = []
    for i in range(size):
        side = i % 2
        values.append((side, rng.randint(0, JOIN_RIGHT_KEYS if side else JOIN_LEFT_KEYS)))
    return _elements(values, [i * JOIN_GAP_NS for i in range(size)])


def _make_join(inputs):
    graph = QueryGraph("join_process")
    source = ReplaySource(inputs)
    sink = RecordingSink()
    source_node = graph.add_source(source, name="source")
    # The window covers the whole run, so the result multiset does not
    # depend on how the two inputs interleave at the join.
    join = graph.add_operator(
        SymmetricHashJoin(
            (len(inputs) + 1) * JOIN_GAP_NS, key_fns=(_key, _key), name="join"
        )
    )
    queues = []
    for port, (predicate, side) in enumerate(((_is_left, "left"), (_is_right, "right"))):
        split = graph.add_operator(Selection(predicate, name=f"split_{side}"))
        queue = graph.add_operator(QueueOperator(name=f"q_{side}"))
        graph.connect(source_node, split)
        graph.connect(split, queue)
        graph.connect(queue, join, port)
        queues.append(queue)
    graph.connect(join, graph.add_sink(sink, name="sink"))
    return graph, source, sink, [queues]


def join_reference(inputs):
    left: Dict[int, List[StreamElement]] = {}
    for element in inputs:
        if element.value[0] == 0:
            left.setdefault(element.value[1], []).append(element)
    out = []
    for element in inputs:
        if element.value[0] == 1:
            for match in left.get(element.value[1], ()):
                ts = max(match.timestamp, element.timestamp)
                out.append((ts, (match.value, element.value)))
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chain_gts",
            why="five near-free selections with a queue on every edge: dispatch, "
            "queue transfer, wake-ups and strategy selection dominate",
            backend="thread",
            paced=False,
            size=CHAIN_INPUTS,
            make_inputs=chain_inputs,
            build=_timed_build(_make_chain),
            knobs={},
            reference=chain_reference,
        ),
        Workload(
            name="window_agg",
            why="quickstart query under DI at batch 64: the O(window) sliding "
            "count dominates; no queues or thread hand-offs",
            backend="thread",
            paced=False,
            size=WINDOW_AGG_INPUTS,
            make_inputs=window_agg_inputs,
            build=_timed_build(_make_window_agg),
            knobs={"batch_size": 64},
            reference=quickstart_reference(WINDOW_AGG_WINDOW_NS),
        ),
        Workload(
            name="join_process",
            why="Fig. 6 hash join on the process backend: ring transport, permit "
            "round trips and sink-state merge; large join state",
            backend="process",
            paced=False,
            size=JOIN_INPUTS,
            make_inputs=join_inputs,
            build=_timed_build(_make_join),
            knobs={"batch_size": 64, "max_concurrency": 2},
            reference=join_reference,
            ordered=False,
        ),
        Workload(
            name="paced_hmts",
            why="open-loop Poisson arrivals at 5,000 el/s through two HMTS "
            "partitions sharing one permit: result latency, not throughput",
            backend="thread",
            paced=True,
            size=PACED_INPUTS,
            make_inputs=paced_inputs,
            build=_timed_build(_make_paced),
            knobs={"max_concurrency": 1, "pace_sources": True, "time_scale": 1.0},
            reference=quickstart_reference(PACED_WINDOW_NS),
        ),
    )
}
