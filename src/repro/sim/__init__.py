"""Process-oriented discrete-event simulation kernel.

This subpackage is the reproduction's substitute for CSIM [Schw86], the
commercial C-based simulation library the paper used.  It provides:

* :class:`~repro.sim.kernel.Simulator` — the virtual clock and event heap.
* :class:`~repro.sim.kernel.Event` / :class:`~repro.sim.kernel.Timeout` —
  one-shot occurrences that processes can wait on.
* :class:`~repro.sim.process.Process` — generator-coroutine processes
  (``yield`` an event to suspend until it fires), and
  :class:`~repro.sim.process.AnyOf` to wait for the first of several.
* :class:`~repro.sim.resources.Resource` — the counted FIFO resource the
  hybrid push/pull extension models its upstream channel with.
* :mod:`~repro.sim.rng` — named, seeded random streams so every experiment
  is reproducible bit-for-bit.
* :mod:`~repro.sim.stats` — online statistics accumulators with warm-up
  trimming, used to implement the paper's steady-state measurement rule.

Time is dimensionless; the broadcast-disk layers interpret one unit as one
*broadcast unit* (the time to broadcast a single page), exactly as the
paper's simulator does.
"""

from repro.sim.kernel import Event, Simulator, Timeout
from repro.sim.process import AnyOf, Process
from repro.sim.resources import Resource
from repro.sim.rng import RandomStreams
from repro.sim.stats import Histogram, RunningStats, TimeWeightedStat, WindowedSeries

__all__ = [
    "AnyOf",
    "Event",
    "Histogram",
    "Process",
    "RandomStreams",
    "Resource",
    "RunningStats",
    "Simulator",
    "Timeout",
    "WindowedSeries",
]
