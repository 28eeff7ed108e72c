"""Mid-stream pickle round-trips for every shipped operator class.

The process backend migrates operator state between worker address
spaces by pickling whole payloads (``repro.mp``, reconfigure), so every
shipped operator must survive ``pickle.dumps``/``loads`` *mid-stream*:
after restoring, the copy must produce output identical to the original
for the remainder of the stream.  AN009 lints the same property
statically; this is the dynamic proof.

``QueueOperator`` is deliberately absent: queues are region boundaries,
never region members, so their (Condition-holding) payloads are never
pickled — the process backend replaces them with ring proxies outright.
"""

import pickle

import pytest

from repro.operators.aggregate import WindowedAggregate
from repro.operators.dedup import WindowedDistinct
from repro.operators.joins import SymmetricHashJoin, SymmetricNestedLoopsJoin
from repro.operators.projection import FlatMapOperator, MapOperator, Projection
from repro.operators.selection import Selection, SimulatedSelection
from repro.operators.union import Union
from repro.streams.elements import StreamElement


def keep_small(value):
    return value < 60


def double(value):
    return value * 2


def fan_out(value):
    return [value, value + 100]


def bucket(value):
    return value % 7


OPERATOR_FACTORIES = {
    "selection": lambda: Selection(keep_small),
    "simulated_selection": lambda: SimulatedSelection(0.37),
    "map": lambda: MapOperator(double),
    "flat_map": lambda: FlatMapOperator(fan_out),
    "projection": lambda: Projection([0]),
    "union": lambda: Union(arity=2),
    "windowed_aggregate": lambda: WindowedAggregate(
        window_ns=40, aggregate="sum", key_fn=bucket
    ),
    "windowed_aggregate_avg": lambda: WindowedAggregate(window_ns=40, aggregate="avg"),
    "windowed_distinct": lambda: WindowedDistinct(window_ns=25, key_fn=bucket),
    "symmetric_hash_join": lambda: SymmetricHashJoin(window_ns=30),
    "symmetric_nested_loops_join": lambda: SymmetricNestedLoopsJoin(window_ns=30),
}


def _elements(name):
    payload = (
        (lambda i: (i % 11, i))  # sequence payloads for the projection
        if name == "projection"
        else (lambda i: i % 11)
    )
    return [StreamElement(value=payload(i), timestamp=i) for i in range(100)]


def _port_for(operator, index):
    return index % operator.arity


def _feed(operator, elements, start, stop):
    outputs = []
    for index in range(start, stop):
        outputs.extend(
            (out.value, out.timestamp)
            for out in operator.process(elements[index], _port_for(operator, index))
        )
    return outputs


@pytest.mark.parametrize("name", sorted(OPERATOR_FACTORIES))
def test_mid_stream_round_trip_preserves_output(name):
    elements = _elements(name)
    original = OPERATOR_FACTORIES[name]()
    _feed(original, elements, 0, 55)

    restored = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))

    tail_original = _feed(original, elements, 55, 100)
    tail_restored = _feed(restored, elements, 55, 100)
    assert tail_restored == tail_original

    # End-of-stream behavior must survive the round trip too.
    end_original = []
    end_restored = []
    for port in range(original.arity):
        end_original.extend(
            (out.value, out.timestamp) for out in original.end_port(port)
        )
        end_restored.extend(
            (out.value, out.timestamp) for out in restored.end_port(port)
        )
    assert end_restored == end_original


@pytest.mark.parametrize("name", sorted(OPERATOR_FACTORIES))
def test_default_construction_is_picklable(name):
    operator = OPERATOR_FACTORIES[name]()
    blob = pickle.dumps(operator, pickle.HIGHEST_PROTOCOL)
    assert type(pickle.loads(blob)) is type(operator)
