"""Event primitives for the discrete-event kernel.

Events follow a small, SimPy-inspired life cycle:

``PENDING`` (created) -> ``TRIGGERED`` (value decided, scheduled on the
event queue) -> ``PROCESSED`` (callbacks have run).

Processes (see :mod:`repro.sim.process`) wait on events by ``yield``-ing
them; the kernel resumes the process with the event's value once the event
is processed, or throws the event's exception into it if the event failed.
"""

from __future__ import annotations

import typing

from .errors import EventAlreadyTriggered

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Simulator

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event carries a *value* (on success) or an *exception* (on failure).
    Callbacks attached before processing run exactly once, in attachment
    order, when the kernel processes the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_state", "name")

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.callbacks: list = []
        self._value = None
        self._exception: BaseException | None = None
        self._state = PENDING
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event's outcome has been decided."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event was triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self):
        """The event's value. Only meaningful once triggered."""
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # -- triggering -------------------------------------------------------
    def succeed(self, value=None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        With ``delay`` > 0 the outcome is decided now but callbacks run
        after ``delay`` simulated seconds.
        """
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._value = value
        self.sim._enqueue_event(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._exception = exception
        self.sim._enqueue_event(self, delay)
        return self

    def trigger(self, outcome: "Event") -> "Event":
        """Copy another event's outcome onto this event (chaining helper)."""
        if outcome._exception is not None:
            return self.fail(outcome._exception)
        return self.succeed(outcome._value)

    # -- kernel hooks -------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called by the kernel exactly once."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    # -- composition --------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self):
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._state = TRIGGERED
        self._value = value
        sim._enqueue_event(self, delay)

    def __repr__(self):
        return f"<Timeout delay={self.delay} state={self._state}>"


class Deadline(Event):
    """Fires once ``event`` is processed or ``delay`` seconds pass,
    whichever comes first; fails if ``event`` fails first.

    The per-try deadline in place of ``any_of([event, timeout(delay)])``,
    with the same heap entries at the same sequence numbers (the timer
    first, then this event once it triggers), so dispatch order is
    unchanged.  Its value is ``None``: the waiter inspects ``event``
    itself.  The timer is a call entry bound to this event alone, so a
    stale timer left on the heap keeps neither ``event`` nor its value
    alive.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", event: Event, delay: float):
        super().__init__(sim)
        sim.call_later(delay, self._expire)
        if event.processed:
            self._on_event(event)
        else:
            event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed()

    def _expire(self) -> None:
        if self._state == PENDING:
            self.succeed()


class Condition(Event):
    """Base for events composed from several child events.

    The condition's value is a dict mapping each *triggered* child event to
    its value at the moment the condition fired. A failing child fails the
    condition immediately.
    """

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: list):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        self._pending_count = 0
        if self._evaluate_immediately():
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                self._pending_count += 1
                event.callbacks.append(self._on_child)

    def _evaluate_immediately(self) -> bool:
        """Trigger now for degenerate cases; return True if triggered."""
        if not self.events:
            self.succeed({})
            return True
        return False

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)
            return
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self.events
            if event.processed and event.ok
        }


class AllOf(Condition):
    """Fires once every child event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return all(event.processed for event in self.events)


class AnyOf(Condition):
    """Fires as soon as at least one child event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return any(event.processed for event in self.events)
