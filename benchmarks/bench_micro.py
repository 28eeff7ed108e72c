"""Micro-benchmarks of the substrate itself.

Not a paper figure — these measure the Python implementation's own
hot paths (operator kernels, DI dispatch, queue operations, the
simulator's event loop) so regressions in the substrate are visible
independently of the experiment-level numbers.  The dispatcher has one
batch path, so the unbatched dispatch benchmarks (the scalar side of
each scalar/batched pair) run it at batch size 1.
"""

from repro.core.dataflow import Dispatcher
from repro.graph.builder import QueryBuilder
from repro.operators.aggregate import WindowedAggregate
from repro.operators.joins import SymmetricHashJoin, SymmetricNestedLoopsJoin
from repro.operators.queue_op import QueueOperator
from repro.operators.selection import SimulatedSelection
from repro.sim.costs import CostModel
from repro.sim.machine import Machine
from repro.sim.requests import Compute, Pop, Push
from repro.streams.elements import StreamElement
from repro.streams.sinks import CountingSink
from repro.streams.sources import ListSource

N = 10_000
BATCH = 64


def test_selection_kernel_throughput(benchmark):
    op = SimulatedSelection(0.5)
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        op.reset()
        total = 0
        for element in elements:
            total += len(op.process(element))
        return total

    assert benchmark(run) == N // 2


def test_selection_kernel_batch_throughput(benchmark):
    """Batched counterpart of test_selection_kernel_throughput."""
    op = SimulatedSelection(0.5)
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        op.reset()
        total = 0
        for start in range(0, N, BATCH):
            total += len(op.process_batch(elements[start : start + BATCH]))
        return total

    assert benchmark(run) == N // 2


def test_hash_join_kernel_throughput(benchmark):
    # (i // 2) % 100 so consecutive elements on opposite ports share keys.
    elements = [StreamElement(value=(i // 2) % 100, timestamp=i) for i in range(N)]

    def run():
        join = SymmetricHashJoin(window_ns=1_000)
        total = 0
        for index, element in enumerate(elements):
            total += len(join.process(element, index % 2))
        return total

    assert benchmark(run) > 0


def test_hash_join_kernel_batch_throughput(benchmark):
    """Batched counterpart of test_hash_join_kernel_throughput.

    Feeds the same arrival sequence as per-port runs of length BATCH —
    what the engine's per-port batch dispatch produces.
    """
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(N)]

    def run():
        join = SymmetricHashJoin(window_ns=1_000)
        total = 0
        for start in range(0, N, BATCH):
            port = (start // BATCH) % 2
            total += len(
                join.process_batch(elements[start : start + BATCH], port)
            )
        return total

    assert benchmark(run) > 0


def test_hash_join_expiry_skewed_keys(benchmark):
    """Regression guard for O(bucket) expiry.

    Only 4 distinct keys and a window covering half the stream: every
    hash bucket holds hundreds of elements, so victim removal must be
    a deque popleft, not a list scan (`bucket.remove(victim)` made this
    quadratic in bucket size).  Disjoint probe keys keep the output
    empty so expiry dominates the measurement.
    """
    elements = [StreamElement(value=i % 4, timestamp=i) for i in range(N)]

    def run():
        join = SymmetricHashJoin(
            window_ns=N // 2,
            key_fns=(lambda v: v, lambda v: -v - 1),
        )
        total = 0
        for index, element in enumerate(elements):
            total += len(join.process(element, index % 2))
        return total

    assert benchmark(run) == 0


def test_nested_loops_join_kernel_throughput(benchmark):
    elements = [
        StreamElement(value=(i // 2) % 100, timestamp=i) for i in range(2_000)
    ]

    def run():
        join = SymmetricNestedLoopsJoin(window_ns=1_000)
        total = 0
        for index, element in enumerate(elements):
            total += len(join.process(element, index % 2))
        return total

    assert benchmark(run) > 0


def test_windowed_aggregate_throughput(benchmark):
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(N)]

    def run():
        op = WindowedAggregate(window_ns=1_000, aggregate="sum")
        total = 0
        for element in elements:
            total += len(op.process(element))
        return total

    assert benchmark(run) == N


def test_windowed_aggregate_batch_throughput(benchmark):
    """Batched counterpart of test_windowed_aggregate_throughput."""
    elements = [StreamElement(value=i % 100, timestamp=i) for i in range(N)]

    def run():
        op = WindowedAggregate(window_ns=1_000, aggregate="sum")
        total = 0
        for start in range(0, N, BATCH):
            total += len(op.process_batch(elements[start : start + BATCH]))
        return total

    assert benchmark(run) == N


def _fused_vo_chain():
    """An 8-stage straight-line VO: maps interleaved with filters."""
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for stage in range(4):
        stream = stream.map(lambda v, _s=stage: v + _s)
        stream = stream.where_fraction(0.99 - stage * 0.01)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    return Dispatcher(graph), first


def test_fused_vo_chain_throughput(benchmark):
    """Element-wise DI through an 8-stage straight-line VO."""
    dispatcher, first = _fused_vo_chain()
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        for element in elements:
            dispatcher.inject(first, element)
        return dispatcher.sink_deliveries

    assert benchmark(run) > 0


def test_fused_vo_chain_batched_throughput(benchmark):
    """Fused counterpart: one call per stage per batch (batch=64)."""
    dispatcher, first = _fused_vo_chain()
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        for start in range(0, N, BATCH):
            dispatcher.inject_batch(first, elements[start : start + BATCH])
        return dispatcher.sink_deliveries

    assert benchmark(run) > 0


def test_di_dispatch_throughput(benchmark):
    """Full DI chain reaction through 5 selections."""
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for selectivity in (0.998, 0.996, 0.994, 0.992, 0.990):
        stream = stream.where_fraction(selectivity)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    dispatcher = Dispatcher(graph)
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        for element in elements:
            dispatcher.inject(first, element)
        return dispatcher.sink_deliveries

    assert benchmark(run) > 0


def test_di_dispatch_batched_throughput(benchmark):
    """Batched counterpart of test_di_dispatch_throughput (batch=64)."""
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for selectivity in (0.998, 0.996, 0.994, 0.992, 0.990):
        stream = stream.where_fraction(selectivity)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    dispatcher = Dispatcher(graph)
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        for start in range(0, N, BATCH):
            dispatcher.inject_batch(first, elements[start : start + BATCH])
        return dispatcher.sink_deliveries

    assert benchmark(run) > 0


def test_queue_operator_roundtrip(benchmark):
    queue = QueueOperator()
    elements = [StreamElement(value=i) for i in range(N)]

    def run():
        for element in elements:
            queue.push(element)
        drained = 0
        while queue.try_pop() is not None:
            drained += 1
        return drained

    assert benchmark(run) == N


def test_queue_operator_bulk_roundtrip(benchmark):
    """Batched counterpart of test_queue_operator_roundtrip (batch=64)."""
    queue = QueueOperator()
    elements = [StreamElement(value=i) for i in range(N)]

    def run():
        for start in range(0, N, BATCH):
            queue.push_many(elements[start : start + BATCH])
        drained = 0
        while True:
            batch = queue.pop_many(BATCH)
            if not batch:
                return drained
            drained += len(batch)

    assert benchmark(run) == N


def test_run_queue_batched_throughput(benchmark):
    """Queue -> 5-selection chain drained via batched run_queue."""
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource([]))
    for selectivity in (0.998, 0.996, 0.994, 0.992, 0.990):
        stream = stream.where_fraction(selectivity)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    queue_node = graph.insert_queue(graph.in_edges(first)[0])
    queue_op = queue_node.payload
    dispatcher = Dispatcher(graph)
    elements = [StreamElement(value=i, timestamp=i) for i in range(N)]

    def run():
        queue_op.push_many(elements)
        return dispatcher.run_queue(queue_node, batch_size=BATCH)

    assert benchmark(run) == N


def test_simulator_event_loop_throughput(benchmark):
    """Producer/consumer ping-pong: ~4 events per element."""
    model = CostModel(per_thread_switch_ns=0.0)

    def run():
        machine = Machine(n_cores=2, cost_model=model)
        q = machine.new_queue()

        def producer():
            for i in range(5_000):
                yield Compute(100)
                yield Push(q, i)
            yield Push(q, None)

        def consumer():
            while True:
                item = yield Pop(q)
                if item is None:
                    return
                yield Compute(100)

        machine.spawn(producer())
        machine.spawn(consumer())
        return machine.run()

    assert benchmark(run) > 0
