"""Event heap and virtual clock for the simulation kernel.

The kernel follows the classic event-list design: a binary heap of
``(time, sequence, event)`` entries, popped in order, with each popped
event running its callbacks.  The sequence number breaks ties: events
scheduled for the same instant fire in the order they were scheduled.
Processes (see :mod:`repro.sim.process`) are implemented *on top of*
events: a process is just a callback chain that resumes a generator.

The paper measured everything in *broadcast units*; the kernel itself is
unit-agnostic and simply advances a floating-point clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (or when the simulator schedules it), and is
    *processed* once the simulator has run its callbacks.  Triggering an
    event twice is an error — the paper's client loop relies on each page
    arrival being a distinct occurrence.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_failure_consumed",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        # True once a waiter has taken responsibility for a failure value
        # (processes re-raise it inside the waiting generator).  Failed
        # events nobody consumes are dropped silently by step(); callers
        # that must observe failures use run_until_event().
        self._failure_consumed = True

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded, False if it failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception, for failed events)."""
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._enqueue(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._enqueue(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately; this keeps "wait on a past event" semantics simple
        for processes that race with broadcasts.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` units in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._enqueue(self, delay)


class Simulator:
    """The virtual clock and event queue.

    Typical use::

        sim = Simulator()
        sim.process(my_generator_function(sim))
        sim.run(until=100_000)

    The clock only advances when :meth:`run` or :meth:`step` pops events,
    so a simulation with no pending events is finished.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: Total number of events processed; useful for progress reporting.
        self.events_processed = 0
        #: High-water mark of the pending-event heap, for profiling.
        self.heap_peak = 0
        #: Optional :class:`repro.obs.trace.Tracer`.  When attached and
        #: enabled, :meth:`step` emits one ``sim.event`` record per
        #: dispatched event; ``None`` (the default) costs one branch.
        self.trace = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a generator as a concurrently-running process."""
        from repro.sim.process import Process

        return Process(self, generator)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
    ) -> Event:
        """Run ``callback()`` at ``now + delay``; returns the firing event."""
        event = Event(self)
        event.add_callback(lambda _ev: callback())
        event.succeed(delay=delay)
        return event

    # -- internals ---------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule an event {abs(delay)} units in the past"
            )
        heapq.heappush(
            self._heap, (self._now + delay, next(self._counter), event)
        )
        if len(self._heap) > self.heap_peak:
            self.heap_peak = len(self._heap)

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() called on an empty event queue")
        when, seq, event = heapq.heappop(self._heap)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        self.events_processed += 1
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.emit("sim.event", when, seq=seq)
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not getattr(event, "_failure_consumed", True):
            # A failed event nobody waited on: surface the error rather
            # than losing it silently.
            raise event._value

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or the event cap.

        Returns the simulation time when execution stopped.  ``until`` is
        inclusive in the sense that events scheduled exactly at ``until``
        do fire.
        """
        remaining = max_events
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                break
            if remaining is not None:
                if remaining == 0:
                    break
                remaining -= 1
            self.step()
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` has been processed; return its value.

        Raises :class:`SimulationError` if the queue drains or ``limit``
        passes without the event firing (a deadlock in the modelled
        system, e.g. waiting for a page that is never broadcast).
        """
        while not event.processed:
            if not self._heap:
                raise SimulationError(
                    "event queue drained before the awaited event fired"
                )
            if limit is not None and self._heap[0][0] > limit:
                raise SimulationError(
                    f"awaited event did not fire before t={limit}"
                )
            self.step()
        if not event.ok:
            raise event.value
        return event.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f} pending={len(self._heap)}>"
