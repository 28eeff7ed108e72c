"""Batch-path equivalence: process_batch, bulk queue transfer, engines.

The batch-at-a-time data path (``Operator.process_batch``,
``QueueOperator.push_many``/``pop_many``, ``Dispatcher.inject_batch`` /
``run_queue``, the engine's ``batch_size`` knob) must be
observationally identical to element-at-a-time processing: same
outputs, same per-port order, same END_OF_STREAM placement.  The
dispatcher tests compare against per-operator ``process()`` calls, so
batch size 1 is not only checked against itself.  These tests pin that
contract for every operator and for all four engine modes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataflow import Dispatcher
from repro.core.engine import ThreadedEngine
from repro.core.modes import di_config, gts_config, hmts_config, ots_config
from repro.graph.builder import QueryBuilder
from repro.operators.aggregate import WindowedAggregate
from repro.operators.dedup import WindowedDistinct
from repro.operators.joins import SymmetricHashJoin, SymmetricNestedLoopsJoin
from repro.operators.projection import FlatMapOperator, MapOperator, Projection
from repro.operators.queue_op import QueueOperator
from repro.operators.selection import Selection, SimulatedSelection
from repro.operators.union import Union
from repro.operators.window import TimeWindow
from repro.streams.elements import END_OF_STREAM, StreamElement, is_end
from repro.streams.sinks import CollectingSink
from repro.streams.sources import ListSource


def elements(values, stride_ns=1_000):
    return [
        StreamElement(value=v, timestamp=i * stride_ns)
        for i, v in enumerate(values)
    ]


def run_scalar(make_op, items):
    op = make_op()
    out = []
    for item in items:
        out.extend(op.process(item))
    return out


def run_batched(make_op, items, splits):
    """Feed ``items`` through process_batch in chunks cut at ``splits``."""
    op = make_op()
    out = []
    cuts = sorted({s % (len(items) + 1) for s in splits} | {0, len(items)})
    for lo, hi in zip(cuts, cuts[1:]):
        out.extend(op.process_batch(items[lo:hi]))
    return out


def assert_same_stream(got, expected):
    assert [(e.value, e.timestamp) for e in got] == [
        (e.value, e.timestamp) for e in expected
    ]


def tenth(value):
    return value / 10


OPERATORS = {
    "selection": lambda: Selection(lambda v: v % 3 != 0),
    "simulated-selection": lambda: SimulatedSelection(0.73),
    "map": lambda: MapOperator(lambda v: v * 2),
    "projection": lambda: Projection([0]),
    "flat-map": lambda: FlatMapOperator(lambda v: [v, -v]),
    "union": lambda: Union(arity=1),
    "distinct": lambda: WindowedDistinct(window_ns=5_000, key_fn=lambda v: v % 7),
    "aggregate": lambda: WindowedAggregate(window_ns=4_000, aggregate="count"),
    # Stateful batch kernels (PR 2): the hand-written process_batch
    # overrides must stay bit-identical to the scalar loop.
    "aggregate-sum": lambda: WindowedAggregate(window_ns=4_000, aggregate="sum"),
    "aggregate-max-grouped": lambda: WindowedAggregate(
        window_ns=4_000, aggregate="max", key_fn=lambda v: v % 3
    ),
    # Float values exercise the exact scaled-integer accumulator.
    "aggregate-float-sum": lambda: WindowedAggregate(
        window_ns=4_000, aggregate="sum", value_fn=tenth
    ),
    "aggregate-float-avg": lambda: WindowedAggregate(
        window_ns=4_000, aggregate="avg", value_fn=tenth
    ),
    "aggregate-float-count": lambda: WindowedAggregate(
        window_ns=4_000, aggregate="count", value_fn=tenth
    ),
}

JOINS = {
    "hash": lambda: SymmetricHashJoin(
        window_ns=10_000, key_fns=(lambda v: v % 3, lambda v: v % 3)
    ),
    "nested-loops": lambda: SymmetricNestedLoopsJoin(
        window_ns=10_000, predicate=lambda left, right: (left + right) % 2 == 0
    ),
}


class TestOperatorBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_whole_batch_matches_scalar(self, name):
        make_op = OPERATORS[name]
        if name == "projection":
            items = elements([(i, i + 1) for i in range(200)])
        else:
            items = elements([i % 11 for i in range(200)])
        scalar = run_scalar(make_op, items)
        batched = run_batched(make_op, items, splits=[])
        assert_same_stream(batched, scalar)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_batch_partition_matches_scalar(self, name, data):
        make_op = OPERATORS[name]
        values = data.draw(
            st.lists(st.integers(min_value=0, max_value=20), max_size=80)
        )
        splits = data.draw(
            st.lists(st.integers(min_value=0, max_value=200), max_size=8)
        )
        if name == "projection":
            items = elements([(v, v) for v in values])
        else:
            items = elements(values)
        scalar = run_scalar(make_op, items)
        batched = run_batched(make_op, items, splits)
        assert_same_stream(batched, scalar)

    @pytest.mark.parametrize("join_name", sorted(JOINS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_binary_join_batch_matches_scalar(self, join_name, data):
        make_join = JOINS[join_name]
        values = data.draw(
            st.lists(st.tuples(st.integers(0, 9), st.booleans()), max_size=60)
        )
        split = data.draw(st.integers(0, 60))
        items = elements([v for v, _ in values])
        ports = [int(p) for _, p in values]

        def feed_scalar():
            join = make_join()
            out = []
            for item, port in zip(items, ports):
                out.extend(join.process(item, port))
            return out, join

        def feed_batched():
            # Batch runs of same-port arrivals (what a per-port batch
            # dispatch produces), split at an arbitrary extra point.
            join = make_join()
            out = []
            run, run_port = [], None
            cut = split % (len(items) + 1)
            for index, (item, port) in enumerate(zip(items, ports)):
                if port != run_port or index == cut:
                    if run:
                        out.extend(join.process_batch(run, run_port))
                    run, run_port = [], port
                run.append(item)
            if run:
                out.extend(join.process_batch(run, run_port))
            return out, join

        scalar_out, scalar_join = feed_scalar()
        batched_out, batched_join = feed_batched()
        assert_same_stream(batched_out, scalar_out)
        # The batched kernels must keep the probe-work counters and the
        # window state exactly where the scalar loop leaves them.
        assert batched_join.total_probe_work == scalar_join.total_probe_work
        assert batched_join.last_probe_work == scalar_join.last_probe_work
        assert batched_join.window_sizes() == scalar_join.window_sizes()

    @settings(max_examples=40, deadline=None)
    @given(
        deltas=st.lists(st.integers(min_value=-6_000, max_value=3_000), max_size=50),
        splits=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
    )
    def test_time_window_insert_batch_matches_insert(self, deltas, splits):
        # Random walks in timestamp space exercise the ordered fast path,
        # tardy insertions, and drop-on-arrival alike.
        now = 50_000
        items = []
        for i, delta in enumerate(deltas):
            now = max(0, now + delta)
            items.append(StreamElement(value=i, timestamp=now))
        scalar = TimeWindow(size_ns=10_000)
        inserted_scalar = sum(1 for item in items if scalar.insert(item))
        batched = TimeWindow(size_ns=10_000)
        cuts = sorted({s % (len(items) + 1) for s in splits} | {0, len(items)})
        inserted_batched = sum(
            batched.insert_batch(items[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
        )
        assert inserted_batched == inserted_scalar
        assert [(e.value, e.timestamp) for e in batched] == [
            (e.value, e.timestamp) for e in scalar
        ]

    def test_simulated_selection_exact_counts_across_batches(self):
        import math

        op = SimulatedSelection(0.31)
        passed = 0
        fed = 0
        for size in (1, 7, 64, 128, 3):
            passed += len(op.process_batch(elements(range(size))))
            fed += size
            # After k inputs exactly floor(k*s) passed, however batched.
            assert passed == math.floor(fed * 0.31)

    def test_queue_operator_batch_buffers(self):
        q = QueueOperator()
        items = elements(range(10))
        assert q.process_batch(items, 0) == []
        assert len(q) == 10
        assert [e.value for e in q.pop_many(None)] == list(range(10))


class TestBulkQueueTransfer:
    def test_push_many_matches_scalar_order_and_counters(self):
        scalar, bulk = QueueOperator(), QueueOperator()
        items = elements(range(50))
        for item in items:
            scalar.push(item)
        bulk.push_many(items)
        assert len(bulk) == len(scalar)
        assert bulk.total_enqueued == scalar.total_enqueued
        assert bulk.peak_size == scalar.peak_size
        assert [e.value for e in bulk.pop_many(None)] == [
            e.value for e in scalar.pop_many(None)
        ]

    def test_pop_many_respects_limit_and_order(self):
        q = QueueOperator()
        q.push_many(elements(range(10)))
        assert [e.value for e in q.pop_many(3)] == [0, 1, 2]
        assert [e.value for e in q.pop_many(3)] == [3, 4, 5]
        assert len(q) == 4

    def test_push_many_wakes_listener_once(self):
        q = QueueOperator()
        hits = []
        q.push_listener = lambda: hits.append(1)
        q.push_many(elements(range(100)))
        assert len(hits) == 1

    def test_end_of_stream_position_preserved(self):
        q = QueueOperator()
        q.push_many(elements([1, 2]))
        q.end_port(0)
        popped = q.pop_many(None)
        assert [e.value for e in popped[:2]] == [1, 2]
        assert is_end(popped[2])

    def test_oldest_seq_cached_head(self):
        q = QueueOperator()
        q.push(END_OF_STREAM)
        assert q.oldest_seq() is None
        items = elements(range(3))
        q.push_many(items)
        assert q.oldest_seq() == items[0].seq
        q.try_pop()  # the punctuation
        assert q.oldest_seq() == items[0].seq
        q.try_pop()  # first data element
        assert q.oldest_seq() == items[1].seq
        q.pop_many(None)
        assert q.oldest_seq() is None

    def test_oldest_seq_after_partial_pop_many(self):
        q = QueueOperator()
        items = elements(range(6))
        q.push_many(items[:3])
        q.push(END_OF_STREAM)
        q.push_many(items[3:])
        q.pop_many(4)  # 3 data + the punctuation
        assert q.oldest_seq() == items[3].seq


def filter_chain(selectivities=(0.9, 0.7, 0.5)):
    build = QueryBuilder()
    sink = CollectingSink()
    stream = build.source(ListSource([]))
    for s in selectivities:
        stream = stream.where_fraction(s)
    stream.into(sink)
    graph = build.graph(validate=False)
    first = graph.successors(graph.sources()[0])[0]
    return graph, first, sink


def reference_chain(graph, first, items):
    """Element-at-a-time reference for the straight-line chain at ``first``.

    Every element runs through the chain's operators via per-operator
    ``process()`` calls, without the dispatcher.  Returns the values
    reaching the sink and the number of operator invocations.
    """
    stages = []
    node = first
    while not node.is_sink:
        stages.append(node.operator)
        (node,) = graph.successors(node)
    values, invocations = [], 0
    for item in items:
        wave = [item]
        for op in stages:
            invocations += len(wave)
            wave = [out for element in wave for out in op.process(element)]
        values.extend(element.value for element in wave)
    return values, invocations


class TestDispatcherBatch:
    def test_inject_batch_matches_inject(self):
        items = elements(range(500))
        expected, invocations = reference_chain(*filter_chain()[:2], items)
        for batch_size in (1, 64):
            graph, first, sink = filter_chain()
            dispatcher = Dispatcher(graph)
            if batch_size == 1:
                for item in items:
                    dispatcher.inject(first, item)
            else:
                for start in range(0, len(items), batch_size):
                    dispatcher.inject_batch(
                        first, items[start : start + batch_size]
                    )
            assert sink.values == expected
            assert dispatcher.sink_deliveries == len(expected)
            assert dispatcher.invocations == invocations

    def test_inject_batch_fan_out_preserves_interleaving(self):
        build = QueryBuilder()
        sink_a, sink_b = CollectingSink("a"), CollectingSink("b")
        shared = build.source(ListSource([])).map(lambda v: v)
        shared.into(sink_a)
        shared.into(sink_b)
        graph = build.graph(validate=False)
        dispatcher = Dispatcher(graph)
        dispatcher.inject_batch(shared.node, elements(range(8)))
        assert sink_a.values == list(range(8))
        assert sink_b.values == list(range(8))

    def test_run_queue_batched_matches_scalar(self):
        items = elements(range(300))
        expected, _ = reference_chain(*filter_chain()[:2], items)
        # The queue sits behind `first`, so it buffers what `first` passes.
        first_op = filter_chain()[1].operator
        queued = sum(len(first_op.process(item)) for item in items)
        for batch_size in (1, 7, 64):
            graph, first, sink = filter_chain()
            queue = graph.insert_queue(graph.out_edges(first)[0])
            dispatcher = Dispatcher(graph)
            dispatcher.inject_batch(first, items)
            assert dispatcher.run_queue(queue, batch_size=batch_size) == queued
            assert sink.values == expected

    def test_run_queue_mid_batch_end(self):
        graph, first, sink = filter_chain(selectivities=(1.0,))
        queue = graph.insert_queue(graph.out_edges(first)[0])
        dispatcher = Dispatcher(graph)
        dispatcher.inject_batch(first, elements(range(5)))
        dispatcher.inject_end(first)
        # Queue now holds [d0..d4, END]; one bulk pop sees END mid-batch.
        processed = dispatcher.run_queue(queue, batch_size=64)
        assert processed == 5
        assert sink.values == list(range(5))
        assert sink.ended

    def test_run_queue_batched_respects_max_items(self):
        graph, first, sink = filter_chain(selectivities=(1.0,))
        queue = graph.insert_queue(graph.out_edges(first)[0])
        dispatcher = Dispatcher(graph)
        dispatcher.inject_batch(first, elements(range(100)))
        assert dispatcher.run_queue(queue, max_items=30, batch_size=8) == 30
        assert len(queue.payload) == 70

    def test_fused_chain_compiled_and_invalidated(self):
        # A straight-line VO segment compiles into one fused stage chain;
        # splicing a queue mid-chain must recompile a shorter one.
        graph, first, sink = filter_chain(selectivities=(0.9, 0.8, 0.7, 0.6))
        dispatcher = Dispatcher(graph)
        chain = dispatcher.fused_chain(first)
        assert len(chain) == 4  # `first` plus the three fused filters
        assert all(node.is_operator for node in chain)
        edge = graph.out_edges(chain[1])[0]
        graph.insert_queue(edge)
        assert [n.name for n in dispatcher.fused_chain(first)] == [
            chain[0].name,
            chain[1].name,
        ]  # the recompiled segment stops at the new queue

    @staticmethod
    def _joined_query():
        build = QueryBuilder()
        sink = CollectingSink()
        left = build.source(ListSource([]), name="left").map(
            lambda v: v, name="lmap"
        )
        right = build.source(ListSource([]), name="right").map(
            lambda v: v, name="rmap"
        )
        left.hash_join(right, window_ns=10**12).aggregate(
            10**12, "count"
        ).into(sink)
        graph = build.graph(validate=False)
        left_q = graph.insert_queue(graph.out_edges(left.node)[0])
        right_q = graph.insert_queue(graph.out_edges(right.node)[0])
        return graph, left.node, right.node, left_q, right_q, sink

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_run_queue_end_mid_batch_through_join_and_aggregate(
        self, batch_size
    ):
        # Queues feeding a stateful join hold [data..., END]; a bulk pop
        # sees END mid-batch and the batched kernels downstream must
        # produce the scalar stream and counters regardless.
        graph, left, right, left_q, right_q, sink = self._joined_query()
        dispatcher = Dispatcher(graph)
        dispatcher.inject_batch(left, elements(range(5)))
        dispatcher.inject_end(left)
        dispatcher.inject_batch(right, elements(range(5)))
        dispatcher.inject_end(right)
        processed = dispatcher.run_queue(left_q, batch_size=batch_size)
        processed += dispatcher.run_queue(right_q, batch_size=batch_size)
        assert processed == 10
        join = graph.successors(left_q)[0].operator
        # Left drains first against an empty right window, then right
        # probes the full left window: 5 matches, running count 1..5.
        assert sink.values == [1, 2, 3, 4, 5]
        assert sink.ended
        assert join.total_probe_work == 5
        assert join.window_sizes() == (5, 5)

    def test_dispatch_plan_invalidated_by_queue_splice(self):
        graph, first, sink = filter_chain(selectivities=(1.0, 1.0))
        dispatcher = Dispatcher(graph)
        dispatcher.inject(first, StreamElement(value=0))
        assert sink.values == [0]
        # Splice a queue mid-chain: the compiled plan must notice.
        edge = graph.out_edges(first)[0]
        queue = graph.insert_queue(edge)
        dispatcher.inject(first, StreamElement(value=1))
        assert sink.values == [0]  # stopped at the new queue
        dispatcher.run_queue(queue)
        assert sink.values == [0, 1]
        # And again after removal.
        graph.remove_queue(queue)
        dispatcher.inject(first, StreamElement(value=2))
        assert sink.values == [0, 1, 2]


def fig7_query(n=600):
    """Executable fig. 7 graph: five selections, 0.998..0.990."""
    build = QueryBuilder()
    sink = CollectingSink()
    stream = build.source(ListSource(range(n)))
    for s in (0.998, 0.996, 0.994, 0.992, 0.990):
        stream = stream.where_fraction(s)
    stream.into(sink)
    return build.graph(), sink


def fig9_query(n=600):
    """Executable fig. 9 graph: projection -> cheap filter -> expensive."""
    build = QueryBuilder()
    sink = CollectingSink()
    (
        build.source(ListSource(range(n)))
        .map(lambda v: v, name="projection")
        .where_fraction(0.21, name="cheap-filter")
        .where_fraction(0.3, name="expensive-filter")
        .into(sink)
    )
    return build.graph(), sink


def join_agg_query(n=120):
    """Two sources -> hash join -> windowed count, deterministic results.

    The windows never expire, so however the two source threads
    interleave, the join emits the same multiset of pairs (24 per key
    class x 5 keys x 24 partners = 2880) and the running count emits
    1..2880 — sorted sink values are mode- and batch-independent.
    """
    build = QueryBuilder()
    sink = CollectingSink()
    left = build.source(ListSource(range(n)), name="left")
    right = build.source(ListSource(range(n)), name="right")
    left.hash_join(
        right,
        window_ns=10**15,
        key_fns=(lambda v: v % 5, lambda v: v % 5),
    ).aggregate(10**15, "count").into(sink)
    return build.graph(), sink


MODE_FACTORIES = {
    "di": lambda graph, **kw: di_config(graph, **kw),
    "gts": lambda graph, **kw: gts_config(graph, "fifo", **kw),
    "ots": lambda graph, **kw: ots_config(graph, **kw),
    "hmts": lambda graph, **kw: hmts_config(
        graph,
        groups=[graph.queues()[:1], graph.queues()[1:]],
        strategies="fifo",
        max_concurrency=2,
        **kw,
    ),
}


class TestEngineBatchSizeEquivalence:
    @pytest.mark.parametrize("query", [fig7_query, fig9_query, join_agg_query])
    @pytest.mark.parametrize("mode", sorted(MODE_FACTORIES))
    def test_sink_counts_identical_batch_1_vs_64(self, query, mode):
        counts = {}
        values = {}
        for batch_size in (1, 64):
            graph, sink = query()
            if mode != "di":
                graph.decouple_all()
            config = MODE_FACTORIES[mode](graph, batch_size=batch_size)
            report = ThreadedEngine(graph, config).run(timeout=60)
            assert not report.aborted
            counts[batch_size] = report.total_results
            values[batch_size] = sorted(sink.values)
        assert counts[1] == counts[64]
        assert values[1] == values[64]

    def test_gts_order_identical_batch_1_vs_64(self):
        ordered = {}
        for batch_size in (1, 64):
            graph, sink = fig7_query()
            graph.decouple_all()
            config = gts_config(graph, "fifo", batch_size=batch_size)
            report = ThreadedEngine(graph, config).run(timeout=60)
            assert not report.aborted
            ordered[batch_size] = list(sink.values)
        assert ordered[1] == ordered[64]

    def test_invocation_counts_survive_multicore_races(self):
        # Two autonomous sources hammer a shared union under OTS: with
        # unsynchronized `+= 1` this under-counts (satellite fix).
        build = QueryBuilder()
        sink = CollectingSink()
        left = build.source(ListSource(range(400)), name="left")
        right = build.source(ListSource(range(400)), name="right")
        left.union(right).map(lambda v: v).into(sink)
        graph = build.graph()
        graph.decouple_all()
        config = ots_config(graph, batch_size=1)
        report = ThreadedEngine(graph, config).run(timeout=60)
        assert not report.aborted
        assert report.total_results == 800
        # union + map each see every element exactly once.
        assert report.invocations == 1600
