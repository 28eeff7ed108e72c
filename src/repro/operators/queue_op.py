"""Queues modeled as operators (paper Section 2.4).

"We have modeled queues as separate operators.  It is worth mentioning
that queues do not have an impact on the semantics, but are only
introduced for performance reasons."

A :class:`QueueOperator` is the decoupling point of the architecture:
inserting one between two operators stops direct interoperability there
and creates a boundary where a scheduler (GTS/OTS/HMTS level 2) takes
over.  Its ``process`` method enqueues the element and returns nothing;
a scheduler later pops elements and feeds them to the successor.

The implementation is thread-safe (the real-thread engine has producer
and consumer threads on either side) and tracks the peak population,
which is the "queue memory usage" series plotted in Fig. 9.

Bulk transfer (paper Section 5: batch-wise queue processing): the
:meth:`push_many` / :meth:`pop_many` pair moves whole batches under a
single lock acquisition.  Schedulers always drain through
:meth:`pop_many`: at the engine's default ``batch_size`` of 1 that is
one element per pop (the paper's element-at-a-time processing), and
larger batch sizes pay off because per-element synchronization is the
dominant queue cost, not the deque operations.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence

from repro.operators.base import Operator
from repro.streams.elements import END_OF_STREAM, Punctuation, StreamElement

__all__ = ["QueueOperator"]


class QueueOperator(Operator):
    """An unbounded FIFO decoupling queue, modeled as an operator.

    The queue itself is semantically transparent: selectivity 1, no
    reordering.  END_OF_STREAM flows *through* the queue (it is enqueued
    like data) so the consumer drains all buffered elements before
    observing the end.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(
            name=name or "queue",
            declared_cost_ns=0.0,
            declared_selectivity=1.0,
        )
        self._items: Deque[StreamElement | Punctuation] = deque()
        # Sequence numbers of the buffered *data* elements, in FIFO
        # order, maintained on every push/pop so oldest_seq() is O(1)
        # instead of an O(n) scan under the lock.
        self._data_seqs: Deque[int] = deque()
        self._condition = threading.Condition()
        self._spsc = False
        self.peak_size = 0
        self.total_enqueued = 0
        #: Optional callback invoked (outside the lock) after every push;
        #: execution engines use it to wake the worker owning this queue.
        self.push_listener: Optional[callable] = None

    # ------------------------------------------------------------------
    # Operator protocol: process() enqueues, produces nothing directly.
    # ------------------------------------------------------------------
    def process(self, element: StreamElement, port: int = 0) -> List[StreamElement]:
        self._guard(port)
        self.push(element)
        return []

    # Covered by tests/test_batch_semantics.py (bulk transfer == per-element).
    batch_equivalence_tested = True

    def process_batch(
        self, elements: Sequence[StreamElement], port: int = 0
    ) -> List[StreamElement]:
        self._guard(port)
        self.push_many(elements)
        return []

    def end_port(self, port: int = 0) -> List[StreamElement]:
        # The end marker travels through the buffer, after buffered data.
        outputs = super().end_port(port)
        self.push(END_OF_STREAM)
        return outputs

    # ------------------------------------------------------------------
    # Queue interface used by schedulers
    # ------------------------------------------------------------------
    def push(self, item: StreamElement | Punctuation) -> None:
        """Enqueue a data element or punctuation and wake one consumer."""
        with self._condition:
            self._items.append(item)
            if isinstance(item, StreamElement):
                self._data_seqs.append(item.seq)
            self.total_enqueued += 1
            if len(self._items) > self.peak_size:
                self.peak_size = len(self._items)
            self._condition.notify()
        listener = self.push_listener
        if listener is not None:
            listener()

    def push_many(self, items: Iterable[StreamElement | Punctuation]) -> int:
        """Enqueue a batch under one lock acquisition; returns its size.

        Equivalent to pushing the items one by one (same FIFO order,
        same counters) but with a single synchronization round and a
        single listener wake-up.
        """
        batch = list(items)
        if not batch:
            return 0
        with self._condition:
            self._items.extend(batch)
            append_seq = self._data_seqs.append
            for item in batch:
                if isinstance(item, StreamElement):
                    append_seq(item.seq)
            self.total_enqueued += len(batch)
            if len(self._items) > self.peak_size:
                self.peak_size = len(self._items)
            self._condition.notify()
        listener = self.push_listener
        if listener is not None:
            listener()
        return len(batch)

    def try_pop(self) -> Optional[StreamElement | Punctuation]:
        """Dequeue the oldest item, or None if the queue is empty."""
        with self._condition:
            if not self._items:
                return None
            item = self._items.popleft()
            if isinstance(item, StreamElement):
                self._data_seqs.popleft()
            return item

    def pop(self, timeout: float | None = None) -> Optional[StreamElement | Punctuation]:
        """Blocking dequeue; returns None only on timeout."""
        with self._condition:
            if not self._condition.wait_for(lambda: bool(self._items), timeout):
                return None
            item = self._items.popleft()
            if isinstance(item, StreamElement):
                self._data_seqs.popleft()
            return item

    def pop_many(
        self, limit: int | None = None
    ) -> list[StreamElement | Punctuation]:
        """Dequeue up to ``limit`` items (all if None) without blocking.

        One lock acquisition for the whole batch; items come out in
        FIFO order, punctuations interleaved exactly where they were
        enqueued.
        """
        with self._condition:
            size = len(self._items)
            if size == 0:
                return []
            if limit is None or limit >= size:
                items = list(self._items)
                self._items.clear()
                self._data_seqs.clear()
                return items
            popleft = self._items.popleft
            items = [popleft() for _ in range(limit)]
            pop_seq = self._data_seqs.popleft
            for item in items:
                if isinstance(item, StreamElement):
                    pop_seq()
            return items

    def drain(self, limit: int | None = None) -> list[StreamElement | Punctuation]:
        """Dequeue up to ``limit`` items (all if None) without blocking."""
        return self.pop_many(limit)

    def stats_view(self) -> tuple[int, int, int]:
        """``(depth, high_water, total_pushed)`` in one lock round.

        The observability sampler reads all three queue instruments
        through this instead of three separate synchronized accesses;
        on the SPSC path the reads are unsynchronized by contract
        (producer-written counters, torn reads are a stale sample, not
        corruption).
        """
        if self._spsc:
            return (len(self._items), self.peak_size, self.total_enqueued)
        with self._condition:
            return (len(self._items), self.peak_size, self.total_enqueued)

    def __len__(self) -> int:
        if self._spsc:
            return len(self._items)
        with self._condition:
            return len(self._items)

    def state_size(self) -> int:
        return len(self)

    @property
    def empty(self) -> bool:
        """True when no item is buffered."""
        return len(self) == 0

    def oldest_seq(self) -> Optional[int]:
        """Sequence number of the oldest buffered data element.

        Used by the FIFO strategy to find the globally oldest element
        across queues.  Punctuations at the head are skipped; returns
        None if no data element is buffered.  O(1): the data-seq FIFO
        is maintained on push/pop.
        """
        with self._condition:
            if self._data_seqs:
                return self._data_seqs[0]
            return None

    def reset(self) -> None:
        super().reset()
        with self._condition:
            self._items.clear()
            self._data_seqs.clear()
            self.peak_size = 0
            self.total_enqueued = 0

    # ------------------------------------------------------------------
    # SPSC fast path
    # ------------------------------------------------------------------
    @property
    def is_spsc(self) -> bool:
        """True when the lock-free point-to-point path is active."""
        return self._spsc

    def enable_spsc(self) -> None:
        """Switch to the lock-free single-producer/single-consumer path.

        Caller contract (the engine proves it by graph analysis — AN006
        point-to-point shape plus a single producing DI region, see
        ``repro.core.engine.spsc_eligible_queues``): at most one thread
        pushes and at most one thread pops, concurrently.  Under that
        contract CPython's ``deque.append``/``popleft`` are already
        atomic, so the Condition round-trip per transfer — the dominant
        queue cost on the hot path — can be dropped entirely.

        Safety of the remaining cross-thread interactions:

        * the producer appends the data seq *before* the item and the
          consumer pops the item *before* its seq, so the seq FIFO never
          under-runs;
        * ``pop_many`` pops exactly the observed size one ``popleft`` at
          a time (never ``clear()``), so a concurrent append is never
          lost;
        * ``peak_size``/``total_enqueued`` are producer-written only,
          ``oldest_seq`` may observe the seq of an element whose item is
          not yet visible — a stale scheduling hint, never corruption.
        """
        self._spsc = True
        self.push = self._push_spsc  # type: ignore[method-assign]
        self.push_many = self._push_many_spsc  # type: ignore[method-assign]
        self.try_pop = self._try_pop_spsc  # type: ignore[method-assign]
        self.pop = self._pop_spsc  # type: ignore[method-assign]
        self.pop_many = self._pop_many_spsc  # type: ignore[method-assign]
        self.oldest_seq = self._oldest_seq_spsc  # type: ignore[method-assign]

    def disable_spsc(self) -> None:
        """Return to the locked path (only while provably quiescent).

        Engines call this under pause quiescence when a runtime
        reconfiguration makes a queue lose its single-producer proof
        (e.g. two queues feeding one join move to different workers).
        """
        if not self._spsc:
            return
        self._spsc = False
        for attr in ("push", "push_many", "try_pop", "pop", "pop_many", "oldest_seq"):
            self.__dict__.pop(attr, None)

    def _push_spsc(self, item: StreamElement | Punctuation) -> None:
        if isinstance(item, StreamElement):
            self._data_seqs.append(item.seq)
        self._items.append(item)
        self.total_enqueued += 1
        size = len(self._items)
        if size > self.peak_size:
            self.peak_size = size
        listener = self.push_listener
        if listener is not None:
            listener()

    def _push_many_spsc(
        self, items: Iterable[StreamElement | Punctuation]
    ) -> int:
        batch = list(items)
        if not batch:
            return 0
        append_seq = self._data_seqs.append
        for item in batch:
            if isinstance(item, StreamElement):
                append_seq(item.seq)
        self._items.extend(batch)
        self.total_enqueued += len(batch)
        size = len(self._items)
        if size > self.peak_size:
            self.peak_size = size
        listener = self.push_listener
        if listener is not None:
            listener()
        return len(batch)

    def _try_pop_spsc(self) -> Optional[StreamElement | Punctuation]:
        if not self._items:
            return None
        item = self._items.popleft()
        if isinstance(item, StreamElement):
            self._data_seqs.popleft()
        return item

    def _pop_spsc(
        self, timeout: float | None = None
    ) -> Optional[StreamElement | Punctuation]:
        # No Condition to wait on; poll with a short sleep.  Engines use
        # try_pop/pop_many plus the push listener, so this path is cold.
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            item = self._try_pop_spsc()
            if item is not None:
                return item
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(0.0005)

    def _pop_many_spsc(
        self, limit: int | None = None
    ) -> list[StreamElement | Punctuation]:
        size = len(self._items)
        if size == 0:
            return []
        take = size if limit is None or limit >= size else limit
        popleft = self._items.popleft
        items = [popleft() for _ in range(take)]
        pop_seq = self._data_seqs.popleft
        for item in items:
            if isinstance(item, StreamElement):
                pop_seq()
        return items

    def _oldest_seq_spsc(self) -> Optional[int]:
        seqs = self._data_seqs
        if seqs:
            return seqs[0]
        return None
