"""The contention primitive: :class:`Resource`.

The core broadcast-disk experiments need no contention — the broadcast
channel is shared without interference, which is the whole point of the
architecture.  The hybrid push/pull extension (paper §6 future work)
models its low-bandwidth back channel as a :class:`Resource`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator


class Resource:
    """A counted resource with FIFO queueing.

    ``request()`` returns an event that fires when a unit is granted;
    ``release()`` hands the unit back.  Usage::

        grant = resource.request()
        yield grant
        ...  # critical section
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of units currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of pending requests."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for one unit; the returned event fires when granted."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use == 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1

    def cancel(self, request_event: Event) -> bool:
        """Withdraw a pending request before it is granted.

        Returns True if the request was still queued (and is now gone);
        False if it had already been granted — the caller then still
        owns a unit and must ``release()`` it.
        """
        try:
            self._waiters.remove(request_event)
            return True
        except ValueError:
            return False
