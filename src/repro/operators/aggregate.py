"""Continuous sliding-window aggregation.

The paper's stall-avoidance example (Section 5.1.1, Fig. 5) features an
"expensive aggregation" downstream of cheap unary operators.  This
module implements continuous windowed aggregation: the operator
maintains a sliding time window and, for each arriving element, emits
the aggregate over the current window contents (per group when a key
function is given).

:class:`WindowedAggregate` keeps incremental per-group state, so an
arrival costs O(1) amortized for the built-in aggregates and never
rescans the window: each evicted member updates only its own group.
Custom callables are recomputed over their group's own members.

Exactness contract (relative to recomputing the aggregate over the
window's values, in window order):

* ``count``, ``min``, ``max``, custom callables, and ``sum``/``avg``
  over int and bool values are bit-identical: same value, same type.
  ``min``/``max`` ties resolve to the earliest member, as the builtins
  do.
* ``sum``/``avg`` over a group holding at least one float (and
  otherwise ints and bools) are correctly rounded: the sum is the exact
  sum of the members rounded once, so it equals ``math.fsum(values)``
  whenever every int member is exactly representable as a float, and
  ``avg`` is that sum divided by the member count.  A sum beyond the
  float range is ``±inf``.  This is not the left fold ``sum(values)``.
* Groups holding any other value (non-finite floats, Decimal, Fraction,
  numpy scalars, ...) are recomputed with the builtins ``sum``, ``min``
  and ``max`` while such a value is in the group, so their results are
  the rescan's.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Sequence, Tuple

from repro.errors import OperatorError
from repro.operators.base import Operator
from repro.streams.elements import StreamElement

__all__ = ["WindowedAggregate"]

#: A window member: ``(timestamp, value_fn(payload))``.
_Member = Tuple[int, Any]

# Floats are summed exactly as integers scaled by 2**1074, which makes
# every finite double (the smallest subnormal is 2**-1074) an integer.
_SCALE_BITS = 1074
_SCALE = 1 << _SCALE_BITS


def _insert_sorted(members: Deque[Any], member: Any) -> None:
    """Insert ``member`` after every entry whose timestamp is not newer."""
    timestamp = member[0]
    position = len(members)
    while position > 0 and members[position - 1][0] > timestamp:
        position -= 1
    members.insert(position, member)


class _Group:
    """One group's in-window members, oldest first; aggregates ``count``.

    Subclasses keep a summary of the members up to date through
    :meth:`add` (a new newest member), :meth:`insert` (a tardy member,
    already placed in ``members``) and :meth:`discard` (the oldest
    member, already removed from ``members``).
    """

    __slots__ = ("members",)

    def __init__(self) -> None:
        self.members: Deque[_Member] = deque()

    def add(self, member: _Member) -> None:
        pass

    def insert(self, member: _Member) -> None:
        self.add(member)

    def discard(self, member: _Member) -> None:
        pass

    def values(self) -> List[Any]:
        return [value for _, value in self.members]

    def result(self) -> Any:
        return len(self.members)


class _Sum(_Group):
    """Exact running sum: an int total and a scaled-integer float total."""

    __slots__ = ("ints", "scaled", "floats", "others")

    def __init__(self) -> None:
        super().__init__()
        self.ints = 0
        self.scaled = 0
        self.floats = 0
        self.others = 0

    def _update(self, value: Any, sign: int) -> None:
        kind = type(value)
        if kind is int or kind is bool:
            self.ints += sign * value
        elif kind is float and math.isfinite(value):
            numerator, denominator = value.as_integer_ratio()
            shift = _SCALE_BITS + 1 - denominator.bit_length()
            self.scaled += sign * (numerator << shift)
            self.floats += sign
        else:
            self.others += sign

    def add(self, member: _Member) -> None:
        self._update(member[1], 1)

    def discard(self, member: _Member) -> None:
        self._update(member[1], -1)

    def result(self) -> Any:
        if self.others:
            return sum(self.values())
        if not self.floats:
            return self.ints
        exact = (self.ints << _SCALE_BITS) + self.scaled
        try:
            return exact / _SCALE
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


class _Avg(_Sum):
    __slots__ = ()

    def result(self) -> Any:
        count = len(self.members)
        return super().result() / count if count else None


class _Max(_Group):
    """Monotonic deque: members no later member beats, oldest first.

    Its head is the earliest extreme member, which is what the builtin
    returns on ties.  While the group holds a value outside int, bool
    and non-NaN float, the builtin recomputes instead, and the deque is
    rebuilt once the last such value leaves.
    """

    __slots__ = ("mono", "others")
    _beats = operator.lt  # mono[-1] is dropped when it is < the newcomer
    _builtin = max

    def __init__(self) -> None:
        super().__init__()
        self.mono: Deque[_Member] = deque()
        self.others = 0

    @staticmethod
    def _ordered(value: Any) -> bool:
        kind = type(value)
        return kind is int or kind is bool or (kind is float and value == value)

    def _push(self, member: _Member) -> None:
        mono = self.mono
        beats = self._beats
        value = member[1]
        while mono and beats(mono[-1][1], value):
            mono.pop()
        mono.append(member)

    def _rebuild(self) -> None:
        self.mono.clear()
        if not self.others:
            for member in self.members:
                self._push(member)

    def add(self, member: _Member) -> None:
        if not self._ordered(member[1]):
            self.others += 1
        elif not self.others:
            self._push(member)

    def insert(self, member: _Member) -> None:
        if not self._ordered(member[1]):
            self.others += 1
        self._rebuild()

    def discard(self, member: _Member) -> None:
        if not self._ordered(member[1]):
            self.others -= 1
            if not self.others:
                self._rebuild()
        elif not self.others and self.mono[0] is member:
            self.mono.popleft()

    def result(self) -> Any:
        if self.others:
            return self._builtin(self.values())
        return self.mono[0][1] if self.mono else None


class _Min(_Max):
    __slots__ = ()
    _beats = operator.gt
    _builtin = min


class _Custom(_Group):
    """Recomputes a callable over the group's own values, in window order."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[list[Any]], Any]) -> None:
        super().__init__()
        self.fn = fn

    def result(self) -> Any:
        return self.fn(self.values())


_GROUPS: Dict[str, Callable[[], _Group]] = {
    "count": _Group,
    "sum": _Sum,
    "avg": _Avg,
    "min": _Min,
    "max": _Max,
}


class WindowedAggregate(Operator):
    """Continuous aggregate over a sliding time window.

    For every arriving element, expires the window to the element's
    timestamp, inserts the element, and emits one output whose payload
    is ``(group_key, aggregate)`` — or just the aggregate when no
    ``key_fn`` is given.  Expiry and out-of-order handling follow
    :class:`~repro.operators.window.TimeWindow`: members with timestamp
    ``<= newest - window_ns`` leave, a tardy element is inserted at its
    sorted position, and one already outside the window is dropped but
    still emits its group's current aggregate (``count``/``sum`` 0,
    ``avg``/``min``/``max`` None, a callable called with ``[]`` for an
    empty group).

    ``key_fn`` runs once per element and ``value_fn`` once per element
    that enters the window; neither runs again on members.  Group state
    lives only while the group has members, so state is bounded by the
    window contents.  See the module docstring for the exactness contract.

    Args:
        window_ns: Sliding window length in nanoseconds.
        aggregate: One of ``count``, ``sum``, ``avg``, ``min``, ``max``
            (kept incrementally), or a callable mapping the list of the
            group's in-window values to the aggregate (recomputed per
            arrival in O(group)).
        key_fn: Optional grouping function over payloads; keys must be
            hashable.
        value_fn: Optional extractor applied to payloads before
            aggregation (e.g. pick one attribute).
    """

    def __init__(
        self,
        window_ns: int,
        aggregate: str | Callable[[list[Any]], Any] = "count",
        key_fn: Callable[[Any], Any] | None = None,
        value_fn: Callable[[Any], Any] | None = None,
        name: str | None = None,
        declared_cost_ns: float | None = None,
    ) -> None:
        if window_ns <= 0:
            raise ValueError(f"window size must be positive, got {window_ns}")
        if isinstance(aggregate, str):
            try:
                new_group = _GROUPS[aggregate]
            except KeyError:
                raise OperatorError(
                    f"unknown aggregate {aggregate!r}; choose from {sorted(_GROUPS)}"
                ) from None
            aggregate_label = aggregate
        else:
            new_group = functools.partial(_Custom, aggregate)
            aggregate_label = getattr(aggregate, "__name__", "custom")
        super().__init__(
            name=name or f"aggregate({aggregate_label})",
            declared_cost_ns=declared_cost_ns,
            declared_selectivity=1.0,
        )
        self.window_ns = window_ns
        self._new_group = new_group
        self._key_fn = key_fn
        self._value_fn = value_fn
        # Ungrouped: one group whose members are the window.  Grouped:
        # ``_order`` holds ``(timestamp, key)`` per member, oldest first,
        # and each group holds its own members.
        self._all = new_group()
        self._order: Deque[Tuple[int, Any]] = deque()
        self._groups: Dict[Any, _Group] = {}

    def process(self, element: StreamElement, port: int = 0) -> List[StreamElement]:
        return self.process_batch((element,), port)

    # Covered by tests/test_batch_semantics.py (batch == scalar property)
    # and tests/test_aggregates.py (rescan oracle).
    batch_equivalence_tested = True

    def process_batch(
        self, elements: Sequence[StreamElement], port: int = 0
    ) -> List[StreamElement]:
        if not elements:
            return []
        self._guard(port)
        if self._key_fn is None:
            return self._ungrouped(elements)
        return self._grouped(elements, self._key_fn)

    def _ungrouped(self, elements: Sequence[StreamElement]) -> List[StreamElement]:
        group = self._all
        members = group.members
        add, discard, result = group.add, group.discard, group.result
        value_fn = self._value_fn
        window_ns = self.window_ns
        outputs: List[StreamElement] = []
        append = outputs.append
        for element in elements:
            timestamp = element.timestamp
            if not members or timestamp >= members[-1][0]:
                cutoff = timestamp - window_ns
                while members and members[0][0] <= cutoff:
                    discard(members.popleft())
                value = element.value
                member = (timestamp, value if value_fn is None else value_fn(value))
                members.append(member)
                add(member)
            elif timestamp > members[-1][0] - window_ns:
                value = element.value
                member = (timestamp, value if value_fn is None else value_fn(value))
                _insert_sorted(members, member)
                group.insert(member)
            append(element.with_value(result()))
        return outputs

    def _grouped(
        self, elements: Sequence[StreamElement], key_fn: Callable[[Any], Any]
    ) -> List[StreamElement]:
        order = self._order
        groups = self._groups
        new_group = self._new_group
        value_fn = self._value_fn
        window_ns = self.window_ns
        outputs: List[StreamElement] = []
        append = outputs.append
        for element in elements:
            timestamp = element.timestamp
            value = element.value
            key = key_fn(value)
            if not order or timestamp >= order[-1][0]:
                cutoff = timestamp - window_ns
                while order and order[0][0] <= cutoff:
                    old_key = order.popleft()[1]
                    old = groups[old_key]
                    old.discard(old.members.popleft())
                    if not old.members:
                        del groups[old_key]
                group = groups.get(key)
                if group is None:
                    group = groups[key] = new_group()
                member = (timestamp, value if value_fn is None else value_fn(value))
                order.append((timestamp, key))
                group.members.append(member)
                group.add(member)
            elif timestamp > order[-1][0] - window_ns:
                group = groups.get(key)
                if group is None:
                    group = groups[key] = new_group()
                member = (timestamp, value if value_fn is None else value_fn(value))
                _insert_sorted(order, (timestamp, key))
                _insert_sorted(group.members, member)
                group.insert(member)
            else:  # outside the window on arrival: no state change
                group = groups.get(key)
                if group is None:
                    group = new_group()
            append(element.with_value((key, group.result())))
        return outputs

    def state_size(self) -> int:
        return len(self._order) if self._key_fn is not None else len(self._all.members)

    def reset(self) -> None:
        super().reset()
        self._all = self._new_group()
        self._order.clear()
        self._groups.clear()
