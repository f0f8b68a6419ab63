"""Hot-path profiling: phase timings, engine counters, peaks.

A :class:`Profiler` is the run-shaped container the ``--profile`` flag
fills: per-phase wall time (build / run / aggregate, measured through
the RL001-allowlisted :mod:`repro.obs.clock` shim), engine loop and
event counters, and high-water marks.

The contract mirrors the trace bus: hook sites guard with
``profile is not None and profile.enabled`` so a run without a profiler
pays a branch and nothing else (gated by
``benchmarks/bench_obs_overhead.py``), and an attached profiler never
changes which code runs or what it measures — the fast engine runs its
one loop either way and books its counters after the loop, from counts
the loop keeps anyway.

Wall-clock caveat: phase timings are the one wall-clock-derived block a
manifest embeds beyond ``wall_seconds``; they live under the
``phase_seconds`` key, which :func:`repro.obs.manifest.strip_wall_clock`
removes for determinism comparisons.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.obs.clock import perf_counter

#: Schema tag of the profile snapshot embedded in manifests.
PROFILE_SCHEMA = "repro.obs.profile/2"


class Profiler:
    """Accumulates phase timings, counters and peaks.

    One profiler observes a whole session (a run, a sweep, a fleet);
    phases and counters accumulate across every plan it sees, so the
    snapshot is the per-subsystem breakdown of everything executed.
    """

    __slots__ = ("enabled", "phase_seconds", "counters", "peaks", "_running")

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        #: Accumulated wall seconds per phase name.
        self.phase_seconds: Dict[str, float] = {}
        #: Monotonic counters (loop iterations, events, requests).
        self.counters: Dict[str, int] = {}
        #: High-water marks (event-heap depth, table bytes).
        self.peaks: Dict[str, int] = {}
        self._running: Dict[str, float] = {}

    # -- phases ------------------------------------------------------------
    def start_phase(self, name: str) -> None:
        """Mark ``name`` as running from now (re-entrant starts are errors)."""
        if name in self._running:
            raise ConfigurationError(f"phase {name!r} is already running")
        self._running[name] = perf_counter()

    def stop_phase(self, name: str) -> float:
        """Stop ``name``; its elapsed time joins the accumulated total."""
        started = self._running.pop(name, None)
        if started is None:
            raise ConfigurationError(f"phase {name!r} was never started")
        elapsed = perf_counter() - started
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
        return elapsed

    def add_phase(self, name: str, seconds: float) -> None:
        """Fold an externally-measured span into phase ``name``."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    # -- counters ----------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        """Record ``value`` as a high-water mark for ``name`` (max wins)."""
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    # -- output ------------------------------------------------------------
    def snapshot(self) -> Dict:
        """JSON-ready profile document (embedded in manifests verbatim)."""
        return {
            "schema": PROFILE_SCHEMA,
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
            "counters": dict(sorted(self.counters.items())),
            "peaks": dict(sorted(self.peaks.items())),
        }

    def report(self) -> str:
        """The per-subsystem breakdown ``--profile`` prints."""
        lines = ["profile breakdown"]
        if self.phase_seconds:
            total = sum(self.phase_seconds.values())
            lines.append("  phases (wall seconds)")
            for name, seconds in sorted(
                self.phase_seconds.items(), key=lambda item: -item[1]
            ):
                share = seconds / total if total > 0 else 0.0
                lines.append(
                    f"    {name:<12} {seconds:>9.4f}s  ({share:.1%})"
                )
        if self.counters:
            lines.append("  engine counters")
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name:<24} {value}")
        if self.peaks:
            lines.append("  peaks")
            for name, value in sorted(self.peaks.items()):
                lines.append(f"    {name:<24} {value}")
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Profiler enabled={self.enabled} "
            f"phases={len(self.phase_seconds)} "
            f"counters={len(self.counters)}>"
        )

