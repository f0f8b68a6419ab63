"""The end-to-end workloads: inputs, the timed call, outputs, references.

Every workload is closed loop: one caller runs a fixed batch of work to
completion.  The timed call is what a user runs — the ``ARTIFACTS``
builders behind ``python -m repro figures --requests 1500 --csv-dir``
(one CSV written per artifact), or ``run_population`` with a manifest —
and nothing else.  Inputs are built from the workload seed alone,
before the clock starts.

The sizes are a tenth of the paper's measured requests for the figure
workloads and a quarter of the 1000-client fleet: at full size one run
of ``paper`` with its reference check takes about a minute, and the
benchmark's whole set of runs must fit in under an hour (README).

Each workload also knows its *reference*: the same outputs computed
through an independent per-client path (the frozen ``fast-reference``
loop for design points, per-client ``fast`` plans for fleets), which
the harness compares against after the timed region.

``rep_seconds`` is a workload's repetition time in normalised seconds
(``speed.py``) on the baseline host (README).  A run makes
``round(--seconds / rep_seconds)`` repetitions, at least three: the
count depends on the requested run length alone, never on how fast the
code under test is, so two commits always take their median over the
same number of samples.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro

if Path(repro.__file__).resolve().parent != SRC / "repro":
    # The benchmark measures the checkout it sits in, never an
    # installed copy.
    raise ImportError(f"repro must come from {SRC}, not {repro.__file__}")

from repro.experiments import reporting
from repro.experiments.cli import ARTIFACTS
from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.obs.manifest import strip_wall_clock
from repro.obs.profile import Profiler
from repro.population import Choice, PopulationSpec, SegmentSpec, run_population

#: Measured requests per design point of the figure workloads; the
#: paper measures 15,000.
FIGURE_REQUESTS = 1_500

#: Measured requests per design point, and fleet size, at toy scale
#: (the self-test).
TOY_REQUESTS = 150
TOY_CLIENTS = 12

#: Table 1 and Figures 5-15 (Figure 12 is a worked example, not a run).
PAPER_ARTIFACTS = (
    "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig13", "fig14", "fig15",
)


def builder_kwargs(name: str, *, seed: int, num_requests: Optional[int],
                   jobs: int = 1) -> Dict:
    """The keyword arguments ``python -m repro figures --requests --jobs``
    passes; ``num_requests=None`` keeps the paper's."""
    _builder, scalable, parallel = ARTIFACTS[name]
    kwargs: Dict = {}
    if scalable:
        kwargs["seed"] = seed
        if num_requests is not None:
            kwargs["num_requests"] = num_requests
    if parallel:
        kwargs["jobs"] = jobs
    return kwargs


def _requests(toy: bool) -> int:
    return TOY_REQUESTS if toy else FIGURE_REQUESTS


def reference_table(name: str, *, seed: int, num_requests: Optional[int],
                    jobs: int) -> str:
    """An artifact's CSV through the frozen pre-optimisation loop."""
    kwargs = builder_kwargs(name, seed=seed, num_requests=num_requests,
                            jobs=jobs)
    if ARTIFACTS[name][2]:
        kwargs["engine"] = "fast-reference"
    return reporting.csv_string(ARTIFACTS[name][0](**kwargs))


def _cells(text: str) -> List[Tuple[str, str, str]]:
    """``(x, series, value)`` for every data cell of a CSV table."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = rows[0]
    return [
        (row[0], header[column], row[column])
        for row in rows[1:]
        for column in range(1, len(header))
    ]


class FigureWorkload:
    """Paper artifacts through their builders, one CSV each.

    An operation is one table cell — one design point's value.
    """

    def __init__(self, name: str, artifacts: Tuple[str, ...], *,
                 rep_seconds: float, profiled: bool = False):
        self.name = name
        self.output_names = artifacts
        self.rep_seconds = rep_seconds
        self.profiled = profiled

    def prepare(self, *, seed: int, toy: bool, out_dir: str):
        profiler = Profiler() if self.profiled else None
        calls = []
        for name in self.output_names:
            kwargs = builder_kwargs(name, seed=seed,
                                    num_requests=_requests(toy))
            if profiler is not None and ARTIFACTS[name][2]:
                kwargs["profile"] = profiler
            calls.append((name, kwargs, os.path.join(out_dir, f"{name}.csv")))
        return calls, profiler

    def run(self, inputs) -> Tuple[Dict[str, str], Dict[str, float]]:
        """The timed call: build and write every artifact, in order.

        Returns the artifacts that raised and each artifact's wall time.
        """
        calls, profiler = inputs
        errors: Dict[str, str] = {}
        seconds: Dict[str, float] = {}
        for name, kwargs, path in calls:
            started = time.perf_counter()
            try:
                reporting.write_csv(ARTIFACTS[name][0](**kwargs), path)
            except Exception:  # repro: noqa[RL005]
                # A crash fails this artifact's operations; the run
                # still reports.
                errors[name] = traceback.format_exc()
            seconds[name] = time.perf_counter() - started
        if profiler is not None:
            print(profiler.report())
        return errors, seconds

    def outputs(self, inputs) -> Dict[str, str]:
        calls, _profiler = inputs
        texts = {}
        for name, _kwargs, path in calls:
            if os.path.exists(path):
                with open(path, newline="") as handle:
                    texts[name] = handle.read()
        return texts

    def seed_independent(self, name: str) -> bool:
        return not ARTIFACTS[name][1]

    def reference(self, name: str, *, seed: int, toy: bool,
                  jobs: int) -> str:
        """The artifact's CSV through the frozen pre-optimisation loop."""
        return reference_table(name, seed=seed, num_requests=_requests(toy),
                               jobs=jobs)

    def operations(self, sample: Optional[str]) -> int:
        return len(_cells(sample)) if sample is not None else 1

    def mismatches(self, got: str, expected: str) -> int:
        if got == expected:
            return 0
        want, have = _cells(expected), _cells(got)
        if [cell[:2] for cell in want] != [cell[:2] for cell in have]:
            return len(want)
        return sum(1 for a, b in zip(want, have) if a[2] != b[2])


def _snapshot(population) -> Dict:
    """A fleet's rollup with wall-clock fields stripped, JSON round-tripped."""
    snapshot = {
        "num_clients": population.num_clients,
        "summary": population.overall.snapshot(),
        "segments": {
            name: aggregate.snapshot()
            for name, aggregate in population.segments.items()
        },
    }
    return json.loads(json.dumps(strip_wall_clock(snapshot)))


class FleetWorkload:
    """One ``run_population`` call on the batch engine, manifest written.

    An operation is one client; a segment whose rollup differs from the
    reference counts all of its clients as failed.
    """

    def __init__(self, name: str, spec: Callable[..., PopulationSpec], *,
                 rep_seconds: float):
        self.name = name
        self.output_names = (name,)
        self.spec = spec
        self.rep_seconds = rep_seconds

    def prepare(self, *, seed: int, toy: bool, out_dir: str):
        return self.spec(seed=seed, toy=toy), os.path.join(
            out_dir, "manifest.json"
        )

    def run(self, inputs) -> Tuple[Dict[str, str], Dict[str, float]]:
        spec, manifest = inputs
        try:
            run_population(spec, manifest=manifest)
        except Exception:  # repro: noqa[RL005]
            return {self.name: traceback.format_exc()}, {}
        return {}, {}

    def outputs(self, inputs) -> Dict[str, Dict]:
        _spec, manifest = inputs
        if not os.path.exists(manifest):
            return {}
        with open(manifest) as handle:
            document = strip_wall_clock(json.load(handle))
        return {self.name: {
            key: document[key] for key in ("num_clients", "summary", "segments")
        }}

    def seed_independent(self, name: str) -> bool:
        return False

    def reference(self, name: str, *, seed: int, toy: bool,
                  jobs: int) -> Dict:
        """The fleet's rollup from one per-client ``fast`` plan per client."""
        spec = replace(self.spec(seed=seed, toy=toy), engine="fast")
        return _snapshot(run_population(spec, jobs=jobs))

    def operations(self, sample: Optional[Dict]) -> int:
        if sample is None:
            return 1
        return sum(block["clients"] for block in sample["segments"].values())

    def mismatches(self, got: Dict, expected: Dict) -> int:
        if got == expected:
            return 0
        failed = sum(
            block["clients"]
            for name, block in expected["segments"].items()
            if got.get("segments", {}).get(name) != block
        )
        return failed or self.operations(expected)


def fleet_spec(*, seed: int, toy: bool = False) -> PopulationSpec:
    """250 Figure 13/14 clients: D5, Δ=3, CacheSize=Offset=500, Noise
    30%, policy drawn LIX or PIX per client, 1,000 measured requests."""
    base = ExperimentConfig(
        disk_sizes=DISK_PRESETS["D5"], delta=3, cache_size=500, offset=500,
        noise=0.30, num_requests=1_000,
    )
    clients = 250
    if toy:
        base = base.with_(cache_size=50, offset=50, num_requests=TOY_REQUESTS)
        clients = TOY_CLIENTS
    return PopulationSpec(
        name="fleet", base=base, seed=seed, engine="batch",
        segments=(SegmentSpec("clients", clients,
                              policy=Choice(("LIX", "PIX"))),),
    )


def fleet_nocache_spec(*, seed: int, toy: bool = False) -> PopulationSpec:
    """1000 cache-less Figure 5 clients on a 4-channel D5 Δ=3 program,
    2,000 measured requests."""
    base = ExperimentConfig(
        disk_sizes=DISK_PRESETS["D5"], delta=3, cache_size=1, channels=4,
        num_requests=2_000,
    )
    clients = 1_000
    if toy:
        base = base.with_(num_requests=TOY_REQUESTS)
        clients = TOY_CLIENTS
    return PopulationSpec(
        name="fleet_nocache", base=base, seed=seed, engine="batch",
        segments=(SegmentSpec("clients", clients),),
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        FigureWorkload("paper", PAPER_ARTIFACTS, rep_seconds=3.5),
        FigureWorkload("paper_profiled", ("fig5", "fig9", "fig13"),
                       rep_seconds=1.85, profiled=True),
        FleetWorkload("fleet", fleet_spec, rep_seconds=3.7),
        FleetWorkload("fleet_nocache", fleet_nocache_spec, rep_seconds=0.65),
        FigureWorkload("multichannel", ("multichannel",), rep_seconds=0.7),
    )
}
