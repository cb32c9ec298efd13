"""Generator-based simulation processes.

A process is a Python generator that ``yield``-s :class:`~repro.sim.events.Event`
objects. The kernel suspends the generator until the yielded event is
processed, then resumes it with the event's value (or throws the event's
exception into it). A process is itself an event: it triggers when the
generator returns (value = the generator's return value) or when it raises.
"""

from __future__ import annotations

import types
import typing

from .errors import Interrupt, SimulationError
from .events import PROCESSED, TRIGGERED, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

#: The outcome every process's first resume receives (``send(None)``
#: starts a generator): one shared, pre-triggered event.
_START = Event(None, name="process-start")
_START._state = TRIGGERED


class Process(Event):
    """An executing simulation process.

    Created via :meth:`Simulator.process`; do not instantiate directly.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator, name: str | None = None):
        if not isinstance(generator, types.GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or generator.__name__)
        self._generator = generator
        self._waiting_on: Event | None = None
        # Kick off the process at the current simulation time.
        sim.call_later(0.0, self._resume, _START)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the event
        itself is unaffected and may still fire for other waiters).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        target = self._waiting_on
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        wakeup = Event(self.sim, name="interrupt")
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause))

    # -- kernel machinery ---------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of ``trigger``."""
        self.sim._active_process = self
        self._waiting_on = None
        try:
            if trigger._exception is None:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._exception)
        except StopIteration as stop:
            self.sim._active_process = None
            self._finish(stop.value, None)
            return
        except BaseException as exc:
            self.sim._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._finish(None, exc)
            return
        self.sim._active_process = None

        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                self._finish(stop.value, None)
            except BaseException as exc:
                self._finish(None, exc)
            return
        if target.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        if target.processed:
            # Already done: resume at the current time with its outcome.
            self.sim.call_later(0.0, self._resume, target)
            return
        self._waiting_on = target
        target.callbacks.append(self._resume)

    def _finish(self, value, exception: BaseException | None) -> None:
        """Settle the finished process.  With a waiter attached its
        outcome goes through the heap like any event's; with none it is
        processed in place, no heap entry (a later ``yield`` of it takes
        the replay path in :meth:`_resume`)."""
        if self.callbacks:
            if exception is None:
                self.succeed(value)
            else:
                self.fail(exception)
            return
        self._state = PROCESSED
        self._value = value
        self._exception = exception

    def __repr__(self):
        return f"<Process {self.name!r} state={self._state}>"
