"""The structured trace bus: typed records, pluggable sinks, guarded hooks.

Every record is keyed on *simulation* time and carries a dotted ``kind``
naming the hook that emitted it.  The stack's hook points are:

==================  =========================================================
kind                emitted by / fields
==================  =========================================================
``sim.event``       :meth:`repro.sim.kernel.Simulator.step` — one record per
                    dispatched event (``seq``)
``channel.deliver``  :meth:`repro.server.channel.BroadcastChannel.deliver_at`
                    — one record per transmitted page (``page`` is physical;
                    a multi-channel program's channels add ``channel``)
``client.request``  a client drew the next request (``page`` logical,
                    ``phase`` is ``"warmup"`` or ``"measured"``)
``client.hit``      the request was served from cache (``page``)
``client.miss``     cache miss; the client starts waiting (``page``,
                    ``physical``)
``client.retune``   a multi-channel miss switched the tuner (``page``,
                    ``physical``, ``from_channel``, ``to_channel``)
``client.wait``     the awaited page arrived (``page``, ``physical``,
                    ``wait`` in broadcast units); record time is the arrival
``cache.lookup``    the request's cache probe (``page``, ``hit``)
``cache.admit``     a fetched page was offered (``page``, ``victim`` —
                    ``None``, the evicted page, or ``page`` itself when the
                    policy declined to cache it)
``cache.evict``     a resident page was displaced (``page`` is the victim,
                    ``admitted`` the incoming page)
==================  =========================================================

The ``client.*`` and ``cache.*`` records come from the request loops of
the three engines: :class:`repro.experiments.engine.FastEngine`, the
process engine's :class:`repro.client.client.Client` and
:class:`repro.batch.engine.ColumnarEngine`.  They carry an optional
``client`` label: a process-engine client always names itself, and a
labelled columnar run or a fleet names each of its clients.

Hook sites guard with ``tracer is not None and tracer.enabled`` so a run
without a tracer pays only a predictable attribute test — disabled
tracing is a no-op by construction (benchmarked by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError


class TraceRecord:
    """One observation: a kind, a simulation timestamp, and fields."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Dict[str, Any]):
        self.time = time
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: ``{"t": ..., "kind": ..., **fields}``."""
        return {"t": self.time, "kind": self.kind, **self.fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecord {self.kind} t={self.time:.3f} {self.fields}>"


class MemorySink:
    """In-memory ring buffer of the most recent ``capacity`` records.

    ``capacity=None`` retains everything (tests, short runs).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)

    def write(self, record: TraceRecord) -> None:
        """Retain one record (evicting the oldest when full)."""
        self._records.append(record)

    def close(self) -> None:
        """Ring buffers need no teardown."""

    @property
    def records(self) -> List[TraceRecord]:
        """A copy of the retained records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class JsonlSink:
    """Append records to a JSONL file, one compact object per line."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w")

    def write(self, record: TraceRecord) -> None:
        """Serialise one record as a JSON line."""
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True))
        self._handle.write("\n")

    def flush(self) -> None:
        """Push buffered lines to disk."""
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class Tracer:
    """Fan records out to sinks; the object every hook point guards on.

    Hooks must test ``tracer is not None and tracer.enabled`` before
    calling :meth:`emit`, so a disabled tracer (or none at all) costs a
    branch and nothing else.

    A sink whose ``write`` or ``close`` raises is **quarantined**: it is
    detached with a single :class:`RuntimeWarning` and the run carries
    on with the remaining sinks — a full disk must not abort a
    half-hour simulation that was otherwise healthy.  The
    :attr:`quarantined` counter records how many sinks were dropped.
    """

    __slots__ = ("_sinks", "enabled", "emitted", "quarantined")

    def __init__(self, *sinks, enabled: bool = True):
        self._sinks: List[Any] = list(sinks)
        self.enabled = enabled
        #: Records emitted over the tracer's lifetime (enabled periods).
        self.emitted = 0
        #: Sinks detached after raising from ``write`` or ``close``.
        self.quarantined = 0

    @property
    def sinks(self) -> Tuple:
        """The attached sinks, in order (quarantined ones are gone)."""
        return tuple(self._sinks)

    def begin_run(self, context) -> None:
        """Begin a run on each sink that takes runs (a monitor suite)."""
        for sink in self._sinks:
            if hasattr(sink, "begin_run"):
                sink.begin_run(context)

    def end_run(self) -> None:
        """End the run on each sink that takes runs; a strict
        :class:`~repro.obs.monitor.MonitorSuite` raises here."""
        for sink in self._sinks:
            if hasattr(sink, "end_run"):
                sink.end_run()

    def _quarantine(self, sink, operation: str, error: BaseException) -> None:
        self._sinks = [s for s in self._sinks if s is not sink]
        self.quarantined += 1
        warnings.warn(
            f"trace sink {type(sink).__name__} raised "
            f"{type(error).__name__} during {operation} and was "
            f"quarantined: {error}",
            RuntimeWarning,
            stacklevel=3,
        )

    def emit(self, kind: str, time: float, **fields) -> None:
        """Record one observation at simulation ``time``."""
        if not self.enabled:
            return
        record = TraceRecord(time, kind, fields)
        self.emitted += 1
        broken = None
        for sink in self._sinks:
            try:
                sink.write(record)
            except Exception as error:  # repro: noqa[RL005]
                if broken is None:
                    broken = []
                broken.append((sink, error))
        if broken is not None:
            for sink, error in broken:
                self._quarantine(sink, "write", error)

    def close(self) -> None:
        """Close every sink (flushes JSONL files); failures quarantine."""
        for sink in list(self._sinks):
            try:
                sink.close()
            except Exception as error:  # repro: noqa[RL005]
                self._quarantine(sink, "close", error)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def trace_schedule(schedule, tracer: Tracer, *, periods: int = 1,
                   start: float = 0.0) -> int:
    """Emit one ``channel.deliver`` record per transmitted slot.

    Walks ``periods`` full cycles of a periodic broadcast program from
    ``start`` (a slot boundary), emitting each non-padding slot's
    completion instant — the ground-truth feed for the CLI's per-page
    inter-arrival check (§2.1: every page's gaps are fixed) without
    needing a client to demand every page.  Returns the record count.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    emitted = 0
    for slot in range(periods * schedule.period):
        begin = start + slot
        page = schedule.page_at(begin + 0.5)
        if page is None:
            continue  # padding slot: nothing transmitted
        tracer.emit("channel.deliver", begin + 1.0, page=int(page))
        emitted += 1
    return emitted


def read_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the record dicts of a JSONL trace file, in order.

    A line that is not JSON (a trace cut mid-record) raises
    :class:`ConfigurationError` naming ``path:line``.
    """
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{number}: malformed trace line ({error.msg})"
                ) from None
            yield record
