"""Discrete-event simulation kernel (SimPy-style, implemented from scratch).

Public surface:

* :class:`Simulator` — the event loop and clock.
* :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`,
  :class:`Deadline` — events.
* :class:`Process` — generator-based processes (created via
  :meth:`Simulator.process`).
* :class:`Store`, :class:`PriorityStore`, :class:`Resource` — blocking
  shared-resource primitives.
* :class:`RngRegistry`, :class:`Distributions` — deterministic named random
  streams.
* :class:`Interrupt` — exception thrown into interrupted processes.
"""

from .core import Simulator
from .errors import EventAlreadyTriggered, Interrupt, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Deadline, Event, Timeout
from .process import Process
from .resources import PriorityStore, Resource, Store
from .rng import Distributions, RngRegistry, lognormal_params_from_quantiles

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadline",
    "Distributions",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "PriorityStore",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "lognormal_params_from_quantiles",
]
