"""Push-based physical operators (level 1 of the HMTS architecture)."""

from repro.operators.aggregate import WindowedAggregate
from repro.operators.base import Operator, StatelessOperator
from repro.operators.dedup import WindowedDistinct
from repro.operators.costed import (
    CostedOperator,
    constant_cost,
    probe_work_cost,
)
from repro.operators.joins import SymmetricHashJoin, SymmetricNestedLoopsJoin
from repro.operators.projection import FlatMapOperator, MapOperator, Projection
from repro.operators.queue_op import QueueOperator
from repro.operators.selection import Selection, SimulatedSelection
from repro.operators.union import Union
from repro.operators.window import CountWindow, TimeWindow

__all__ = [
    "Operator",
    "StatelessOperator",
    "Selection",
    "SimulatedSelection",
    "Projection",
    "MapOperator",
    "FlatMapOperator",
    "Union",
    "WindowedAggregate",
    "SymmetricHashJoin",
    "SymmetricNestedLoopsJoin",
    "QueueOperator",
    "WindowedDistinct",
    "CostedOperator",
    "constant_cost",
    "probe_work_cost",
    "TimeWindow",
    "CountWindow",
]
