"""Generator-coroutine processes for the simulation kernel.

A process wraps a generator that ``yield``\\ s :class:`~repro.sim.kernel.Event`
objects.  Each yield suspends the process until the event fires; the event's
value is sent back into the generator.  This mirrors the process-oriented
style of CSIM (and of SimPy), which the paper's simulator was written in.

Processes are themselves events: they trigger when the generator returns,
with the generator's return value as the payload, so one process can wait
for another simply by yielding it.
"""

from __future__ import annotations

from typing import Generator, Iterable

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator


class Process(Event):
    """A running generator, resumed each time its awaited event fires."""

    __slots__ = ("_generator", "name")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator for the first time "immediately".
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    # -- engine ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event.ok:
                target = self._generator.send(event.value)
            else:
                event._failure_consumed = True
                target = self._generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances"
            )
        if target.sim is not self.sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another simulator"
            )
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a dict mapping each already-fired event to its value, so
    a client can distinguish "page arrived" from "timeout elapsed".
    """

    __slots__ = ("_events",)

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            child._failure_consumed = True
            self.fail(child.value)
            return
        self.succeed({ev: ev.value for ev in self._events if ev.processed})
