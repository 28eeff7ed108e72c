"""Unit tests for engine configurations (modes.py)."""

import pytest

from repro.core.modes import (
    EngineConfig,
    PartitionSpec,
    SchedulingMode,
    di_config,
    gts_config,
    hmts_config,
    ots_config,
)
from repro.core.strategies import ChainStrategy, FifoStrategy, make_strategy
from repro.errors import SchedulingError
from repro.graph.builder import QueryBuilder
from repro.streams.sinks import CountingSink
from repro.streams.sources import ListSource


def graph_with_queues(n_ops=3):
    build = QueryBuilder()
    sink = CountingSink()
    stream = build.source(ListSource(range(10)))
    for i in range(n_ops):
        stream = stream.where(lambda v: True, name=f"op{i}")
    stream.into(sink)
    graph = build.graph()
    graph.decouple_all()
    return graph


class TestFactories:
    def test_gts_one_partition_all_queues(self):
        graph = graph_with_queues()
        config = gts_config(graph)
        assert config.mode is SchedulingMode.GTS
        assert len(config.partitions) == 1
        assert set(config.partitions[0].queue_nodes) == set(graph.queues())

    def test_gts_strategy_by_name_or_instance(self):
        graph = graph_with_queues()
        assert isinstance(
            gts_config(graph, "chain").partitions[0].strategy, ChainStrategy
        )
        strategy = FifoStrategy()
        assert gts_config(graph, strategy).partitions[0].strategy is strategy

    def test_ots_one_partition_per_queue(self):
        graph = graph_with_queues()
        config = ots_config(graph)
        assert config.mode is SchedulingMode.OTS
        assert len(config.partitions) == len(graph.queues())
        for spec in config.partitions:
            assert len(spec.queue_nodes) == 1

    def test_di_requires_queue_free_graph(self):
        graph = graph_with_queues()
        with pytest.raises(SchedulingError):
            di_config(graph)

    def test_gts_requires_a_queue(self):
        build = QueryBuilder()
        sink = CountingSink()
        build.source(ListSource([1])).where(lambda v: True).into(sink)
        graph = build.graph()
        with pytest.raises(SchedulingError):
            gts_config(graph)

    def test_hmts_strategies_broadcast(self):
        graph = graph_with_queues()
        queues = graph.queues()
        config = hmts_config(graph, groups=[queues[:1], queues[1:]],
                             strategies="chain")
        assert all(
            isinstance(spec.strategy, ChainStrategy)
            for spec in config.partitions
        )

    def test_hmts_per_group_strategies(self):
        graph = graph_with_queues()
        queues = graph.queues()
        config = hmts_config(
            graph,
            groups=[queues[:1], queues[1:]],
            strategies=["fifo", "chain"],
        )
        assert isinstance(config.partitions[0].strategy, FifoStrategy)
        assert isinstance(config.partitions[1].strategy, ChainStrategy)

    def test_hmts_strategy_count_mismatch(self):
        graph = graph_with_queues()
        queues = graph.queues()
        with pytest.raises(SchedulingError, match="strategies"):
            hmts_config(graph, groups=[queues], strategies=["fifo", "fifo"])

    def test_hmts_priority_count_mismatch(self):
        graph = graph_with_queues()
        queues = graph.queues()
        with pytest.raises(SchedulingError, match="priorities"):
            hmts_config(graph, groups=[queues], priorities=[1.0, 2.0])

    def test_hmts_must_cover_all_queues(self):
        graph = graph_with_queues()
        queues = graph.queues()
        with pytest.raises(SchedulingError, match="cover"):
            hmts_config(graph, groups=[queues[:1]])


class TestSpecValidation:
    def test_partition_needs_queues(self):
        with pytest.raises(SchedulingError, match="owns no queues"):
            PartitionSpec(queue_nodes=[], strategy=make_strategy("fifo"))

    def test_partition_rejects_non_queue_nodes(self):
        graph = graph_with_queues()
        operator = graph.operators(include_queues=False)[0]
        with pytest.raises(SchedulingError, match="non-queue"):
            PartitionSpec(
                queue_nodes=[operator], strategy=make_strategy("fifo")
            )

    def test_config_rejects_duplicate_names(self):
        graph = graph_with_queues()
        queues = graph.queues()
        specs = [
            PartitionSpec([queues[0]], make_strategy("fifo"), name="same"),
            PartitionSpec(queues[1:], make_strategy("fifo"), name="same"),
        ]
        with pytest.raises(SchedulingError, match="duplicate"):
            EngineConfig(mode=SchedulingMode.HMTS, partitions=specs)

    def test_config_rejects_shared_queue(self):
        graph = graph_with_queues()
        queues = graph.queues()
        specs = [
            PartitionSpec([queues[0]], make_strategy("fifo"), name="a"),
            PartitionSpec([queues[0]], make_strategy("fifo"), name="b"),
        ]
        with pytest.raises(SchedulingError, match="two partitions"):
            EngineConfig(mode=SchedulingMode.HMTS, partitions=specs)

    @pytest.mark.parametrize("batch_size", [None, 0, -1, 1.5])
    def test_config_rejects_invalid_batch_size(self, batch_size):
        with pytest.raises(SchedulingError, match="batch_size"):
            EngineConfig(mode=SchedulingMode.DI, batch_size=batch_size)

    def test_config_batch_size_defaults_to_one(self):
        assert EngineConfig(mode=SchedulingMode.DI).batch_size == 1

    def test_owned_queues(self):
        graph = graph_with_queues()
        config = ots_config(graph)
        assert config.owned_queues() == set(graph.queues())
