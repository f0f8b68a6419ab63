"""The broadcast channel: a shared, contention-free delivery medium.

Clients interact with the channel in two ways, mirroring the paper's
client model:

* :meth:`BroadcastChannel.wait_for` — block until the *next* completion
  of a physical page ("the client monitors the broadcast and waits for
  the item to arrive").  A request issued exactly at a completion
  instant has missed that transmission and gets the following one.
* :meth:`BroadcastChannel.snoop` — observe *every* page completion
  (used by the prefetching extension, which opportunistically upgrades
  its cache as pages go by).

Deliveries are driven by :class:`~repro.server.server.BroadcastServer`,
which asks the channel what the next *interesting* instant is, sleeps to
it, and calls :meth:`deliver_at`.  Waiters are keyed by their exact due
time (computed from the periodic schedule at registration), so delivery
semantics are identical to the fast engine's bisection arithmetic — the
property the engine cross-validation tests rely on.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.schedule import BroadcastSchedule
from repro.sim.kernel import Event, Simulator


class BroadcastChannel:
    """Waiter registry and delivery fan-out for one broadcast schedule."""

    def __init__(self, sim: Simulator, schedule: BroadcastSchedule):
        self.sim = sim
        self.schedule = schedule
        # (due_time, physical_page) -> events to fire with that arrival.
        self._waiters: Dict[Tuple[float, int], List[Event]] = {}
        # Min-heap over the waiter keys, cleaned lazily: delivered keys
        # stay in the heap until they surface and are popped, so finding
        # the earliest due time is O(log n) instead of min() over all
        # keys on every server wake-up.
        self._waiter_heap: List[Tuple[float, int]] = []
        self._snoopers: List[Callable[[float, int], None]] = []
        self._demand_event: Optional[Event] = None
        #: Pages delivered so far (for reporting/tests).
        self.deliveries = 0
        #: Optional :class:`repro.obs.trace.Tracer`; when attached and
        #: enabled, every transmitted page emits a ``channel.deliver``
        #: record.  Attach a no-op snooper (see
        #: :meth:`observe_every_slot`) to force delivery of *every*
        #: non-empty slot for full-broadcast traces.
        self.tracer = None
        #: Row index when this channel is one of several in a
        #: multi-channel program; ``None`` (single-channel) keeps the
        #: ``channel.deliver`` record shape of 1.1 unchanged.
        self.channel_index: Optional[int] = None

    # -- client-facing API -----------------------------------------------------
    def wait_for(
        self, physical_page: int, *, not_before: Optional[float] = None
    ) -> Event:
        """Event firing at the next completion of ``physical_page``.

        The event's value is the arrival time.  ``not_before`` moves the
        earliest usable completion past ``sim.now`` — a retuning client
        cannot hear this channel until its tuner has settled.
        """
        start = self.sim.now if not_before is None else not_before
        due = self.next_arrival(physical_page, start)
        event = self.sim.event()
        key = (due, physical_page)
        pending = self._waiters.get(key)
        if pending is None:
            self._waiters[key] = [event]
            heapq.heappush(self._waiter_heap, key)
        else:
            pending.append(event)
        self._signal_demand()
        return event

    def next_arrival(self, physical_page: int, time: float) -> float:
        """Completion instant of the page's next transmission after ``time``.

        The due-time arithmetic behind :meth:`wait_for`: the schedule's
        own.  A channel that airs the program on another timeline (the
        hybrid push/pull channel) overrides it.
        """
        return self.schedule.next_arrival(physical_page, time)

    def snoop(self, callback: Callable[[float, int], None]) -> None:
        """Invoke ``callback(time, physical_page)`` for every completion."""
        self._snoopers.append(callback)
        self._signal_demand()

    def unsnoop(self, callback: Callable[[float, int], None]) -> None:
        """Remove a snooper registered with :meth:`snoop`."""
        self._snoopers.remove(callback)

    def observe_every_slot(self) -> Callable[[float, int], None]:
        """Force every non-empty slot to be delivered (for tracing).

        Registers a no-op snooper so the server stops sleeping through
        unobserved stretches; combined with an attached ``tracer`` the
        trace then carries one ``channel.deliver`` record per broadcast
        page.  Returns the snooper so callers can :meth:`unsnoop` it.
        """
        def _observe(_time: float, _page: int) -> None:
            return None

        self.snoop(_observe)
        return _observe

    # -- server-facing API -----------------------------------------------------
    def has_demand(self) -> bool:
        """True while anything requires the server to keep transmitting."""
        return bool(self._waiters) or bool(self._snoopers)

    def next_interesting_time(self, now: float) -> Optional[float]:
        """The earliest instant at which a delivery matters, or None.

        With snoopers attached every non-empty slot matters; otherwise
        only the earliest waiter due time does.
        """
        if self._snoopers:
            # One searchsorted over the precomputed sorted non-empty
            # slot offsets replaces the old O(period) forward probe.
            return self.schedule.next_nonempty_completion(now)
        heap = self._waiter_heap
        waiters = self._waiters
        while heap and heap[0] not in waiters:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def deliver_at(self, now: float) -> None:
        """Fire the completion at instant ``now`` (a slot boundary).

        The completing slot is the one covering ``[now-1, now)``.
        Padding slots deliver nothing.
        """
        page = self.schedule.page_at(now - 0.5)
        if page is None:
            return
        self.deliveries += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            if self.channel_index is None:
                tracer.emit("channel.deliver", now, page=int(page))
            else:
                tracer.emit("channel.deliver", now, page=int(page),
                            channel=self.channel_index)
        key = (now, page)
        waiters = self._waiters.pop(key, ())
        for event in waiters:
            event.succeed(now)
        for callback in list(self._snoopers):
            callback(now, page)

    def demand_event(self) -> Event:
        """Event the server parks on while the channel is idle."""
        if self._demand_event is None or self._demand_event.triggered:
            self._demand_event = self.sim.event()
        return self._demand_event

    def _signal_demand(self) -> None:
        if self._demand_event is not None and not self._demand_event.triggered:
            self._demand_event.succeed()
