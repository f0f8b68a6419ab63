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
from typing import Deque, Optional, Tuple

from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.server.channel import BroadcastChannel
from repro.sim.kernel import Event, Simulator
from repro.sim.stats import TimeWeightedStat


class HybridChannel(BroadcastChannel):
    """Push program + pull queue sharing one broadcast channel.

    A :class:`~repro.server.channel.BroadcastChannel` whose push
    program airs on the stretched timeline: push waiters
    (:meth:`~repro.server.channel.BroadcastChannel.wait_for`) and the
    server's demand event are the plain channel's, so a
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
        super().__init__(sim, schedule)
        self.pull_spacing = pull_spacing
        # Pull queue: (physical_page, waiter event).
        self._pull_queue: Deque[Tuple[int, Event]] = deque()
        self.pull_slots_used = 0
        #: Time-weighted pull-queue length (a load/utilisation measure).
        self.queue_stat = TimeWeightedStat(start_time=sim.now)

    # -- time arithmetic ---------------------------------------------------
    def real_time_of_push_slot(self, push_slot: int) -> int:
        """Real slot index at which (absolute) push slot ``push_slot`` airs."""
        k = self.pull_spacing
        return push_slot + push_slot // (k - 1)

    def next_arrival(self, physical_page: int, time: float) -> float:
        """Completion instant of the page's next *push* transmission.

        Analogue of :meth:`BroadcastSchedule.next_arrival` on the
        stretched timeline; the due time of every push waiter.
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
    def request_pull(self, physical_page: int) -> Event:
        """Queue a pull; the event fires when the server airs the page."""
        event = self.sim.event()
        self._pull_queue.append((physical_page, event))
        self.queue_stat.record(self.sim.now, len(self._pull_queue))
        self._signal_demand()
        return event

    def snoop(self, callback) -> None:
        """Refused: deliveries here reach only waiters and the pull queue."""
        raise ConfigurationError("a hybrid channel does not serve snoopers")

    @property
    def pull_queue_length(self) -> int:
        """Outstanding pull requests."""
        return len(self._pull_queue)

    # -- server-facing API -----------------------------------------------------
    def has_demand(self) -> bool:
        """True while any waiter or queued pull needs service."""
        return super().has_demand() or bool(self._pull_queue)

    def next_interesting_time(self, now: float) -> Optional[float]:
        """Earliest instant at which a delivery matters."""
        push = super().next_interesting_time(now)
        if not self._pull_queue:
            return push
        pull = self.next_pull_slot_completion(now, 0)
        return pull if push is None else min(push, pull)

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
            for key in [key for key in self._waiters if key[1] == page]:
                for waiter in self._waiters.pop(key):
                    waiter.succeed(now)
        # Push deliveries at this instant: real slot r = now - 1 carries
        # push slot r - (r + 1) // k (see the module docstring); no push
        # waiter is due at a pull slot's completion.
        real = int(now) - 1
        page = self.schedule.page_at(real - (real + 1) // k)
        for waiter in self._waiters.pop((now, page), ()):
            waiter.succeed(now)
