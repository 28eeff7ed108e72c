"""Tests for windowed aggregation.

``RescanAggregate`` is the naive operator the incremental one replaced:
it keeps the window as a sorted list and recomputes the aggregate over
the arriving element's group for every arrival.  It is the oracle the
incremental state is checked against, value *and* type, with float
sums compared against ``math.fsum`` (the exactness contract in
``repro.operators.aggregate``).
"""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.operators.aggregate import WindowedAggregate
from repro.streams.elements import StreamElement


def element(value, timestamp):
    return StreamElement(value=value, timestamp=timestamp)


def rounded_sum(values):
    """The exact sum of ``values`` rounded once to a float."""
    if all(type(v) is float or -(2**53) <= v <= 2**53 for v in values):
        try:
            return math.fsum(values)
        except OverflowError:  # fsum gives up on intermediate overflow
            pass
    exact = sum(map(Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def oracle_sum(values):
    plain = all(
        type(v) in (int, bool) or (type(v) is float and math.isfinite(v))
        for v in values
    )
    if plain and any(type(v) is float for v in values):
        return rounded_sum(values)
    return sum(values)


def oracle_avg(values):
    return oracle_sum(values) / len(values) if values else None


ORACLE_FUNCTIONS = {
    "count": len,
    "sum": oracle_sum,
    "avg": oracle_avg,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


class RescanAggregate:
    """Test oracle: ``TimeWindow`` expiry plus a full rescan per arrival."""

    def __init__(self, window_ns, aggregate, key_fn=None, value_fn=None):
        self.window_ns = window_ns
        self.fn = ORACLE_FUNCTIONS.get(aggregate, aggregate)
        self.key_fn = key_fn
        self.value_fn = value_fn or (lambda value: value)
        self.window = []

    def process(self, item):
        window = self.window
        if not window or item.timestamp >= window[-1].timestamp:
            window.append(item)
            cutoff = item.timestamp - self.window_ns
            while window[0].timestamp <= cutoff:
                window.pop(0)
        elif item.timestamp > window[-1].timestamp - self.window_ns:
            position = len(window) - 1
            while position > 0 and window[position - 1].timestamp > item.timestamp:
                position -= 1
            window.insert(position, item)
        if self.key_fn is None:
            return self.fn([self.value_fn(m.value) for m in window])
        group = self.key_fn(item.value)
        members = [m for m in window if self.key_fn(m.value) == group]
        return (group, self.fn([self.value_fn(m.value) for m in members]))


def same(got, expected):
    """Equal value and equal type, recursively; NaN matches NaN."""
    if type(got) is not type(expected):
        return False
    if isinstance(got, tuple):
        return len(got) == len(expected) and all(map(same, got, expected))
    if isinstance(got, float) and math.isnan(got):
        return math.isnan(expected)
    return got == expected


def assert_matches_oracle(outputs, expected):
    for index, (out, want) in enumerate(zip(outputs, expected)):
        assert same(out, want), (index, out, want)
    assert len(outputs) == len(expected)


def pair_key(value):
    return value[0]


def pair_value(value):
    return value[1]


def ends(values):
    """Order-sensitive custom aggregate; must see values in window order."""
    return (values[0], values[-1]) if values else None


class TestWindowedAggregate:
    def test_count_over_window(self):
        agg = WindowedAggregate(window_ns=100, aggregate="count")
        outs = [agg.process(element(i, t))[0].value for i, t in enumerate((0, 10, 20))]
        assert outs == [1, 2, 3]

    def test_expiry_shrinks_aggregate(self):
        agg = WindowedAggregate(window_ns=100, aggregate="count")
        agg.process(element(1, 0))
        out = agg.process(element(2, 150))
        assert out[0].value == 1

    def test_sum(self):
        agg = WindowedAggregate(window_ns=1000, aggregate="sum")
        agg.process(element(10, 0))
        assert agg.process(element(5, 1))[0].value == 15

    def test_avg(self):
        agg = WindowedAggregate(window_ns=1000, aggregate="avg")
        agg.process(element(10, 0))
        assert agg.process(element(20, 1))[0].value == 15.0

    def test_min_max(self):
        mn = WindowedAggregate(window_ns=1000, aggregate="min")
        mx = WindowedAggregate(window_ns=1000, aggregate="max")
        for v, t in ((5, 0), (3, 1), (9, 2)):
            out_min = mn.process(element(v, t))
            out_max = mx.process(element(v, t))
        assert out_min[0].value == 3
        assert out_max[0].value == 9

    def test_group_by(self):
        agg = WindowedAggregate(
            window_ns=1000,
            aggregate="sum",
            key_fn=lambda v: v[0],
            value_fn=lambda v: v[1],
        )
        agg.process(element(("a", 1), 0))
        agg.process(element(("b", 10), 1))
        out = agg.process(element(("a", 2), 2))
        assert out[0].value == ("a", 3)

    def test_custom_callable(self):
        agg = WindowedAggregate(window_ns=1000, aggregate=lambda vs: sorted(vs)[0])
        agg.process(element(4, 0))
        assert agg.process(element(2, 1))[0].value == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(OperatorError):
            WindowedAggregate(window_ns=10, aggregate="median")

    def test_non_positive_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedAggregate(window_ns=0)

    def test_state_size(self):
        agg = WindowedAggregate(window_ns=1000)
        agg.process(element(1, 0))
        agg.process(element(2, 1))
        assert agg.state_size() == 2

    def test_reset(self):
        agg = WindowedAggregate(window_ns=1000)
        agg.process(element(1, 0))
        agg.reset()
        assert agg.state_size() == 0


class TestIncrementalState:
    """Cases the removed O(1) sum/count/avg operator was tested for."""

    def test_sum_matches_rescan(self):
        rng = random.Random(3)
        agg = WindowedAggregate(window_ns=50, aggregate="sum")
        oracle = RescanAggregate(50, "sum")
        t = 0
        for _ in range(300):
            t += rng.randint(0, 20)
            item = element(rng.randint(-5, 5), t)
            assert same(agg.process(item)[0].value, oracle.process(item))

    def test_avg_matches_rescan(self):
        agg = WindowedAggregate(window_ns=30, aggregate="avg")
        oracle = RescanAggregate(30, "avg")
        for v, t in ((1, 0), (2, 10), (30, 40), (4, 45)):
            item = element(v, t)
            assert same(agg.process(item)[0].value, oracle.process(item))

    def test_count(self):
        agg = WindowedAggregate(window_ns=100, aggregate="count")
        agg.process(element(1, 0))
        assert agg.process(element(1, 10))[0].value == 2

    def test_reset_forgets_the_running_sum(self):
        agg = WindowedAggregate(window_ns=100, aggregate="sum")
        agg.process(element(5, 0))
        agg.reset()
        assert same(agg.process(element(3, 0))[0].value, 3)

    def test_float_sum_is_correctly_rounded(self):
        agg = WindowedAggregate(window_ns=10**9, aggregate="sum")
        values = [0.1] * 10
        outs = [agg.process(element(v, i))[0].value for i, v in enumerate(values)]
        assert outs[-1] == math.fsum(values) == 1.0
        assert sum(values) != 1.0  # the left fold the rescan used

    def test_float_sum_survives_cancellation(self):
        agg = WindowedAggregate(window_ns=2, aggregate="sum")
        outs = [
            agg.process(element(v, t))[0].value
            for t, v in enumerate((1e16, 1.0, -1e16, 1.0, 1.0))
        ]
        # The last window (2, 4] holds the two trailing 1.0s; a float
        # running sum with subtract-on-evict would read 1.0 here.
        assert outs[-1] == 2.0

    def test_sum_beyond_float_range_is_infinite(self):
        agg = WindowedAggregate(window_ns=10**9, aggregate="sum")
        outs = [agg.process(element(v, i))[0].value for i, v in enumerate((1e308, 1e308))]
        assert outs == [1e308, math.inf]
        # fsum raises on this intermediate overflow; the exact sum does not.
        assert agg.process(element(-1e308, 2))[0].value == 1e308
        agg = WindowedAggregate(window_ns=10**9, aggregate="avg")
        outs = [agg.process(element(-1e308, i))[0].value for i in range(2)]
        assert outs == [-1e308, -math.inf]

    def test_large_ints_mix_exactly_with_floats(self):
        agg = WindowedAggregate(window_ns=10**9, aggregate="sum")
        agg.process(element(2**53 + 1, 0))
        # Exact 2**53 + 1.5 rounds to 2**53 + 2; fsum rounds the int first.
        assert agg.process(element(0.5, 1))[0].value == 2.0**53 + 2

    def test_ties_resolve_to_the_earliest_member(self):
        for aggregate in ("max", "min"):
            agg = WindowedAggregate(window_ns=100, aggregate=aggregate)
            outs = [agg.process(element(v, t))[0].value for t, v in enumerate((1, 1.0, True))]
            assert [type(out) for out in outs] == [int, int, int], aggregate
        agg = WindowedAggregate(window_ns=100, aggregate="max")
        outs = [agg.process(element(v, t))[0].value for t, v in enumerate((True, 1.0, 1, 0))]
        assert [type(out) for out in outs] == [bool, bool, bool, bool]

    def test_empty_group_on_drop(self):
        # A drop-on-arrival element changes no state but emits its group.
        for aggregate, empty in (
            ("count", 0),
            ("sum", 0),
            ("avg", None),
            ("min", None),
            ("max", None),
            (ends, None),
        ):
            agg = WindowedAggregate(10, aggregate, key_fn=pair_key, value_fn=pair_value)
            agg.process(element(("a", 1), 100))
            out = agg.process(element(("b", 2), 50))[0].value
            assert same(out, ("b", empty)), aggregate
            assert agg.state_size() == 1

    def test_key_and_value_functions_run_once_per_element(self):
        calls = {"key": 0, "value": 0}

        def key(value):
            calls["key"] += 1
            return value % 4

        def value_of(value):
            calls["value"] += 1
            return value

        agg = WindowedAggregate(500, "max", key_fn=key, value_fn=value_of)
        agg.process_batch([element(i, i) for i in range(1000)])
        assert calls == {"key": 1000, "value": 1000}
        assert agg.state_size() == 500

    def test_group_state_is_bounded_by_the_window(self):
        agg = WindowedAggregate(10, "sum", key_fn=lambda v: v)
        agg.process_batch([element(i, i) for i in range(1000)])
        assert len(agg._groups) == agg.state_size() == 10


TIES = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2, 2.0])

VALUES = {
    "int": st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64)),
    "float": st.one_of(
        st.sampled_from([0.1, 0.2, 1e16, -1e16, 1e308, -1e308, 5e-324]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    "mixed": st.one_of(TIES, st.integers(-3, 3), st.floats(-4, 4, width=16)),
    "other": st.one_of(
        TIES,
        st.floats(),
        st.fractions(max_denominator=4, min_value=-3, max_value=3),
    ),
}


@st.composite
def streams(draw, values):
    """Elements with in-order, tardy, drop-on-arrival and expiring stamps."""
    items = draw(
        st.lists(
            st.tuples(st.integers(0, 3), values, st.integers(-8, 12)), max_size=60
        )
    )
    clock = 0
    out = []
    for key, value, step in items:
        clock += step
        out.append(element((key, value), clock))
    return out


@pytest.mark.parametrize("kind", sorted(VALUES))
@pytest.mark.parametrize("aggregate", ["count", "sum", "avg", "min", "max", ends])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), grouped=st.booleans(), window_ns=st.integers(1, 30))
def test_matches_rescan_oracle(aggregate, kind, data, grouped, window_ns):
    items = data.draw(streams(VALUES[kind]))
    splits = data.draw(st.lists(st.integers(0, 60), max_size=8))
    pickle_at = data.draw(st.integers(0, 60))
    key_fn = pair_key if grouped else None
    oracle = RescanAggregate(window_ns, aggregate, key_fn, pair_value)
    expected = [oracle.process(item) for item in items]

    agg = WindowedAggregate(window_ns, aggregate, key_fn=key_fn, value_fn=pair_value)
    cuts = sorted({s % (len(items) + 1) for s in splits} | {0, pickle_at % (len(items) + 1)})
    cuts.append(len(items))
    outputs = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == pickle_at % (len(items) + 1):
            agg = pickle.loads(pickle.dumps(agg, pickle.HIGHEST_PROTOCOL))
        outputs.extend(out.value for out in agg.process_batch(items[lo:hi]))
    assert_matches_oracle(outputs, expected)

    agg.reset()
    replay = [out.value for item in items for out in agg.process(item)]
    assert_matches_oracle(replay, expected)
