"""The hybrid broadcast channel: interleaved push program and pull slots.

Real-time slot layout with ``pull_spacing = k``: every k-th slot
(real indices ``k-1, 2k-1, ...``) is a *pull slot*; all others carry the
push program in its usual cyclic order.  The mapping between push-slot
indices and real slots is closed-form, so push arrival queries stay
O(log occurrences) like the plain engine:

* push slot ``j`` airs at real slot ``g(j) = j + j // (k - 1)``;
* real slot ``r`` carries push slot ``r - (r + 1) // k`` when
  ``(r + 1) % k != 0``.

Pull slots serve a FIFO queue of requested physical pages; an empty
queue wastes the slot (the conservative model — a production server
would backfill with extra push).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.sim.kernel import Event, Simulator
from repro.sim.stats import TimeWeightedStat


class HybridChannel:
    """Push program + pull queue sharing one broadcast channel.

    Its server-facing methods are a plain channel's, so a
    :class:`~repro.server.server.BroadcastServer` drives it.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: BroadcastSchedule,
        pull_spacing: int,
    ):
        if pull_spacing < 2:
            raise ConfigurationError(
                f"pull_spacing must be >= 2 (k-th slot reserved), "
                f"got {pull_spacing}"
            )
        self.sim = sim
        self.schedule = schedule
        self.pull_spacing = pull_spacing
        # Pull queue: (physical_page, waiter event).
        self._pull_queue: Deque[Tuple[int, Event]] = deque()
        # Push waiters: (due_time, page) -> events (same shape as the
        # plain BroadcastChannel).
        self._push_waiters: Dict[Tuple[float, int], List[Event]] = {}
        self._demand_event: Optional[Event] = None
        self.pull_slots_used = 0
        self.pull_slots_wasted = 0
        #: Time-weighted pull-queue length (a load/utilisation measure).
        self.queue_stat = TimeWeightedStat(start_time=sim.now)

    # -- time arithmetic ---------------------------------------------------
    def real_time_of_push_slot(self, push_slot: int) -> int:
        """Real slot index at which (absolute) push slot ``push_slot`` airs."""
        k = self.pull_spacing
        return push_slot + push_slot // (k - 1)

    def next_push_arrival(self, physical_page: int, time: float) -> float:
        """Completion instant of the page's next *push* transmission.

        Analogue of :meth:`BroadcastSchedule.next_arrival` on the
        stretched timeline.
        """
        schedule = self.schedule
        occurrences = schedule.occurrences(physical_page)
        period = schedule.period
        k = self.pull_spacing

        # Convert 'time' to the absolute push-slot axis: among real
        # slots [0, floor(time)], floor(time)+1 - (floor(time)+1)//k are
        # push slots.  A slot airing right now completes *after* 'time',
        # so start the forward walk a couple of slots early and let the
        # strict completion check pick the true next arrival.
        completed_real = int(math.floor(time))
        pushed = completed_real + 1 - ((completed_real + 1) // k)
        start = max(0, pushed - 2)

        cycle, position = divmod(start, period)
        index = bisect_right(occurrences, position - 1)
        for _attempt in range(len(occurrences) + 4):
            if index == len(occurrences):
                cycle += 1
                index = 0
            absolute = cycle * period + int(occurrences[index])
            completion = float(self.real_time_of_push_slot(absolute)) + 1.0
            if completion > time:
                return completion
            index += 1
        raise AssertionError("unreachable: bounded search must terminate")

    def next_pull_slot_completion(self, time: float, queue_position: int) -> float:
        """Completion instant of the (queue_position+1)-th pull slot after ``time``.

        Pull slots complete at real instants ``k, 2k, 3k, ...``.
        """
        k = self.pull_spacing
        first = (math.floor(time) // k + 1) * k
        if first <= time:
            first += k
        return float(first + queue_position * k)

    # -- client-facing API ---------------------------------------------------
    def wait_for_push(self, physical_page: int) -> Event:
        """Event firing at the page's next push completion."""
        due = self.next_push_arrival(physical_page, self.sim.now)
        event = self.sim.event()
        self._push_waiters.setdefault((due, physical_page), []).append(event)
        self._signal_demand()
        return event

    def request_pull(self, physical_page: int) -> Event:
        """Queue a pull; the event fires when the server airs the page."""
        event = self.sim.event()
        self._pull_queue.append((physical_page, event))
        self.queue_stat.record(self.sim.now, len(self._pull_queue))
        self._signal_demand()
        return event

    @property
    def pull_queue_length(self) -> int:
        """Outstanding pull requests."""
        return len(self._pull_queue)

    # -- server-facing API -----------------------------------------------------
    def has_demand(self) -> bool:
        """True while any waiter or queued pull needs service."""
        return bool(self._push_waiters) or bool(self._pull_queue)

    def next_interesting_time(self, now: float) -> Optional[float]:
        """Earliest instant at which a delivery matters."""
        candidates = []
        if self._push_waiters:
            candidates.append(min(due for due, _page in self._push_waiters))
        if self._pull_queue:
            candidates.append(self.next_pull_slot_completion(now, 0))
        return min(candidates) if candidates else None

    def deliver_at(self, now: float) -> None:
        """Fire whatever completes at instant ``now``."""
        k = self.pull_spacing
        is_pull_slot = abs(now / k - round(now / k)) < 1e-9 and now > 0
        if is_pull_slot and self._pull_queue:
            page, event = self._pull_queue.popleft()
            self.queue_stat.record(now, len(self._pull_queue))
            self.pull_slots_used += 1
            event.succeed(now)
            # A pulled page is on the air: opportunistically satisfy any
            # push waiters for the same page (they would only have
            # waited longer).
            for (due, waited_page) in list(self._push_waiters):
                if waited_page == page:
                    for waiter in self._push_waiters.pop((due, waited_page)):
                        waiter.succeed(now)
        # Push deliveries at this instant.
        for key in [key for key in self._push_waiters if key[0] == now]:
            _due, _page = key
            for waiter in self._push_waiters.pop(key):
                waiter.succeed(now)

    def demand_event(self) -> Event:
        """Event the server parks on while idle."""
        if self._demand_event is None or self._demand_event.triggered:
            self._demand_event = self.sim.event()
        return self._demand_event

    def _signal_demand(self) -> None:
        if self._demand_event is not None and not self._demand_event.triggered:
            self._demand_event.succeed()
