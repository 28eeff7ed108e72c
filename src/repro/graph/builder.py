"""Fluent construction of query graphs.

The raw :class:`~repro.graph.query_graph.QueryGraph` API is explicit but
verbose; this builder provides the compact pipeline style used by the
examples::

    from repro.graph import QueryBuilder
    from repro.streams import ConstantRateSource, CollectingSink

    build = QueryBuilder("demo")
    stream = build.source(ConstantRateSource(1000, 500.0))
    (stream
        .where(lambda v: v % 2 == 0)
        .map(lambda v: v * 10)
        .into(CollectingSink()))
    graph = build.graph()

Each fluent step adds one node and one edge; :meth:`Stream.node` exposes
the underlying node so the result interoperates with partitioning and
the execution engines.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.graph.node import Node
from repro.graph.query_graph import QueryGraph
from repro.operators.aggregate import WindowedAggregate
from repro.operators.base import Operator
from repro.operators.joins import SymmetricHashJoin, SymmetricNestedLoopsJoin
from repro.operators.projection import FlatMapOperator, MapOperator, Projection
from repro.operators.queue_op import QueueOperator
from repro.operators.selection import Selection, SimulatedSelection
from repro.operators.union import Union
from repro.streams.sinks import Sink
from repro.streams.sources import Source

__all__ = ["QueryBuilder", "Stream"]


class Stream:
    """A fluent handle on one node's output within a builder."""

    def __init__(self, builder: "QueryBuilder", node: Node) -> None:
        self._builder = builder
        self._node = node

    @property
    def node(self) -> Node:
        """The graph node whose output this handle represents."""
        return self._node

    # ------------------------------------------------------------------
    # Unary transforms
    # ------------------------------------------------------------------
    def through(self, operator: Operator, port: int = 0) -> "Stream":
        """Route this stream through an explicit operator instance."""
        node = self._builder._graph.add_operator(operator)
        self._builder._graph.connect(self._node, node, port)
        return Stream(self._builder, node)

    def where(
        self,
        predicate: Callable[[Any], bool],
        cost_ns: float | None = None,
        selectivity: float | None = None,
        name: str | None = None,
    ) -> "Stream":
        """Filter by a payload predicate."""
        return self.through(
            Selection(
                predicate,
                name=name,
                declared_cost_ns=cost_ns,
                declared_selectivity=selectivity,
            )
        )

    def where_fraction(
        self, selectivity: float, cost_ns: float | None = None, name: str | None = None
    ) -> "Stream":
        """Filter to an exact deterministic selectivity (payload-blind)."""
        return self.through(
            SimulatedSelection(selectivity, name=name, declared_cost_ns=cost_ns)
        )

    def map(
        self, fn: Callable[[Any], Any], cost_ns: float | None = None, name: str | None = None
    ) -> "Stream":
        """Transform every payload with ``fn``."""
        return self.through(MapOperator(fn, name=name, declared_cost_ns=cost_ns))

    def flat_map(
        self,
        fn: Callable[[Any], Any],
        cost_ns: float | None = None,
        selectivity: float | None = None,
        name: str | None = None,
    ) -> "Stream":
        """Expand every payload into zero or more payloads."""
        return self.through(
            FlatMapOperator(
                fn,
                name=name,
                declared_cost_ns=cost_ns,
                declared_selectivity=selectivity,
            )
        )

    def project(
        self, attributes: Sequence[Any], cost_ns: float | None = None
    ) -> "Stream":
        """Keep a subset of attributes of dict/tuple payloads."""
        return self.through(Projection(attributes, declared_cost_ns=cost_ns))

    def aggregate(
        self,
        window_ns: int,
        aggregate: str | Callable[[list[Any]], Any] = "count",
        key_fn: Callable[[Any], Any] | None = None,
        value_fn: Callable[[Any], Any] | None = None,
        cost_ns: float | None = None,
    ) -> "Stream":
        """Continuous sliding-window aggregate, one output per element.

        Built-in aggregates (``count``, ``sum``, ``avg``, ``min``,
        ``max``) are kept incrementally per group, O(1) amortized per
        element; a callable is recomputed over its group's in-window
        values.  See :class:`~repro.operators.aggregate.WindowedAggregate`
        for the float-sum exactness contract.
        """
        return self.through(
            WindowedAggregate(
                window_ns,
                aggregate,
                key_fn=key_fn,
                value_fn=value_fn,
                declared_cost_ns=cost_ns,
            )
        )

    def decouple(self, name: str | None = None) -> "Stream":
        """Insert an explicit decoupling queue here (stops DI)."""
        return self.through(QueueOperator(name=name))

    # ------------------------------------------------------------------
    # Binary combinators
    # ------------------------------------------------------------------
    def union(self, *others: "Stream") -> "Stream":
        """Merge this stream with ``others``."""
        operator = Union(arity=1 + len(others))
        node = self._builder._graph.add_operator(operator)
        self._builder._graph.connect(self._node, node, 0)
        for port, other in enumerate(others, start=1):
            self._builder._graph.connect(other._node, node, port)
        return Stream(self._builder, node)

    def hash_join(
        self,
        other: "Stream",
        window_ns: int,
        key_fns: tuple[Callable[[Any], Any], Callable[[Any], Any]] | None = None,
        combine: Callable[[Any, Any], Any] | None = None,
        cost_ns: float | None = None,
        selectivity: float | None = None,
    ) -> "Stream":
        """Symmetric hash join with ``other`` over sliding windows."""
        operator = SymmetricHashJoin(
            window_ns,
            key_fns=key_fns,
            combine=combine,
            declared_cost_ns=cost_ns,
            declared_selectivity=selectivity,
        )
        node = self._builder._graph.add_operator(operator)
        self._builder._graph.connect(self._node, node, 0)
        self._builder._graph.connect(other._node, node, 1)
        return Stream(self._builder, node)

    def nested_loops_join(
        self,
        other: "Stream",
        window_ns: int,
        predicate: Callable[[Any, Any], bool] | None = None,
        combine: Callable[[Any, Any], Any] | None = None,
        cost_ns: float | None = None,
        selectivity: float | None = None,
    ) -> "Stream":
        """Symmetric nested-loops join with ``other`` over windows."""
        operator = SymmetricNestedLoopsJoin(
            window_ns,
            predicate=predicate,
            combine=combine,
            declared_cost_ns=cost_ns,
            declared_selectivity=selectivity,
        )
        node = self._builder._graph.add_operator(operator)
        self._builder._graph.connect(self._node, node, 0)
        self._builder._graph.connect(other._node, node, 1)
        return Stream(self._builder, node)

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def into(self, sink: Sink) -> Node:
        """Terminate the stream in ``sink``; returns the sink node."""
        node = self._builder._graph.add_sink(sink)
        self._builder._graph.connect(self._node, node, 0)
        return node


class QueryBuilder:
    """Accumulates a query graph through fluent :class:`Stream` handles."""

    def __init__(self, name: str = "query") -> None:
        self._graph = QueryGraph(name)

    def source(self, source: Source, name: str | None = None) -> Stream:
        """Register a data source and return its stream handle."""
        node = self._graph.add_source(source, name=name)
        return Stream(self, node)

    def stream_of(self, node: Node) -> Stream:
        """Wrap an existing node of this builder's graph in a handle."""
        if node not in self._graph:
            raise ValueError(f"node {node.name!r} does not belong to this builder")
        return Stream(self, node)

    def graph(self, validate: bool = True) -> QueryGraph:
        """Return the built graph, validating it by default."""
        if validate:
            self._graph.validate()
        return self._graph
