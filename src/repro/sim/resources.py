"""Shared-resource primitives built on the event kernel.

* :class:`Store` — an unbounded or bounded FIFO queue of items; ``get``
  blocks when empty, ``put`` blocks when full.
* :class:`PriorityStore` — like :class:`Store` but ``get`` returns the
  lowest-priority-value item first (ties FIFO).
* :class:`Resource` — a counted resource (e.g. CPU workers); ``acquire``
  blocks until a unit is free.

All blocking operations return events suitable for ``yield`` inside a
process.
"""

from __future__ import annotations

import heapq
import typing
from collections import deque

from .events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim, item):
        super().__init__(sim, name="store-put")
        self.item = item


class StoreGet(Event):
    __slots__ = ()


class Store:
    """A FIFO queue of items with blocking put/get.

    ``capacity=None`` means unbounded (puts never block).
    """

    def __init__(self, sim: "Simulator", capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list:
        """Snapshot of queued items (diagnostics only)."""
        return list(self._items)

    def put(self, item) -> StorePut:
        """Add ``item``; the returned event fires once the item is stored."""
        event = StorePut(self.sim, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item) -> None:
        """Add ``item`` when nothing awaits the put: on an unbounded
        store no :class:`StorePut` is allocated or dispatched (a bounded
        store falls back to :meth:`put`, whose event may have to wait)."""
        if self.capacity is not None:
            self.put(item)
            return
        self._store_item(item)
        self._dispatch()

    def get(self) -> StoreGet:
        """Remove the oldest item; the returned event carries the item."""
        event = StoreGet(self.sim, name="store-get")
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self):
        """Non-blocking get: return an item or None. Skips waiting getters
        only if there are none (preserves FIFO fairness)."""
        if self._getters or not self._items:
            return None
        item = self._pop_item()
        self._dispatch()
        return item

    def cancel(self, get_event: StoreGet) -> bool:
        """Withdraw a pending get so no item is consumed by an abandoned
        waiter (used when a timeout wins a race against a get)."""
        try:
            self._getters.remove(get_event)
            return True
        except ValueError:
            return False

    # -- internals ----------------------------------------------------------
    def _store_item(self, item) -> None:
        self._items.append(item)

    def _pop_item(self):
        return self._items.popleft()

    def _dispatch(self) -> None:
        # Admit pending puts while there is room.
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            put = self._putters.popleft()
            self._store_item(put.item)
            put.succeed()
        # Serve pending gets while there are items.
        while self._getters and self._items:
            get = self._getters.popleft()
            get.succeed(self._pop_item())
            # A freed slot may admit a blocked putter.
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                put = self._putters.popleft()
                self._store_item(put.item)
                put.succeed()


class PriorityStore(Store):
    """A store whose ``get`` returns the smallest ``key(item)`` first.

    Ties are broken FIFO. The default key is the item itself.
    """

    def __init__(self, sim: "Simulator", capacity: int | None = None, key=None):
        super().__init__(sim, capacity)
        self._key = key if key is not None else (lambda item: item)
        self._heap: list = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> list:
        return [entry[2] for entry in sorted(self._heap)]

    def _store_item(self, item) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (self._key(item), self._counter, item))

    def _pop_item(self):
        return heapq.heappop(self._heap)[2]

    def peek_max(self):
        """The worst-ranked item (largest key, youngest on ties), or None."""
        if not self._heap:
            return None
        return max(self._heap)[2]

    def pop_max(self):
        """Remove and return the worst-ranked item (largest key, youngest
        on ties). Raises IndexError when empty."""
        if not self._heap:
            raise IndexError("pop_max from empty PriorityStore")
        index = max(range(len(self._heap)), key=lambda i: self._heap[i])
        entry = self._heap.pop(index)
        heapq.heapify(self._heap)
        self._dispatch()
        return entry[2]

    def _dispatch(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._heap) < self.capacity
        ):
            put = self._putters.popleft()
            self._store_item(put.item)
            put.succeed()
        while self._getters and self._heap:
            get = self._getters.popleft()
            get.succeed(self._pop_item())
            while self._putters and (
                self.capacity is None or len(self._heap) < self.capacity
            ):
                put = self._putters.popleft()
                self._store_item(put.item)
                put.succeed()


class Resource:
    """A counted resource with ``capacity`` interchangeable units.

    Usage inside a process::

        grant = yield cpu.acquire()
        try:
            yield sim.timeout(service_time)
        finally:
            cpu.release(grant)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        #: Optional observer called with ``self`` after every acquire /
        #: release transition (None by default: zero overhead detached).
        self.monitor = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquire requests currently waiting."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request one unit; the event fires when the unit is granted."""
        event = Event(self.sim, name="resource-acquire")
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        if self.monitor is not None:
            self.monitor(self)
        return event

    def release(self, _grant=None) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1
        if self.monitor is not None:
            self.monitor(self)
