"""The single sanctioned wall-clock gateway (RL001 allowlist).

Simulated time comes from the event kernel; the *only* legitimate use
of the host clock in this codebase is throughput bookkeeping — "how
many wall seconds did this run take" — reported alongside results and
never fed back into the model.  Routing every such read through this
module keeps the RL001 allowlist to exactly one file and makes any
other wall-clock read in the simulator a lint failure.
"""

from __future__ import annotations

import time as _time


def perf_counter() -> float:
    """Monotonic wall-clock seconds for throughput bookkeeping only.

    The returned value must never influence simulated behaviour (event
    ordering, warm-up, randomness); it may only be *reported*.
    """
    return _time.perf_counter()

