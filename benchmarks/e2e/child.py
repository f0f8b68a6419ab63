"""One repetition of one workload, in a fresh interpreter.

    python3 benchmarks/e2e/child.py WORKLOAD --seed N --out-dir DIR \\
        --spawned T [--toy] [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` taken just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux), so the
set-up time covers process start, imports and input construction.  The
speed probe (``speed.py``) starts before the program is imported, and
both the set-up and the timed region are reported in normalised seconds
as well as raw ones.  A traced repetition stops the probe before the
timed region, so that probes never land inside a layer's span; it
reports the raw wall time only.

The repetition's measurements and outputs are printed as one JSON
object on the last line of standard output; ``--setup-only`` stops
before the timed region and reports the set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Dict

from layers import LayerTimer
from speed import SpeedProbe


def run_repetition(name: str, *, seed: int, toy: bool, out_dir: str,
                   spawned: float, probe: SpeedProbe, trace: bool = False,
                   setup_only: bool = False) -> Dict:
    """Set up, run the timed call once, and collect what it produced."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed=seed, toy=toy, out_dir=out_dir)
    setup = probe.span(since=spawned)
    report: Dict = {"setup_s": setup.normalised_s, "setup_raw_s": setup.raw_s}
    if setup_only:
        return report
    timer = None
    if trace:
        probe.stop()
        timer = LayerTimer.calibrated()
        timer.install()
    started = time.perf_counter()
    try:
        errors, artifact_s = workload.run(inputs)
    finally:
        raw_s = time.perf_counter() - started
        if timer is not None:
            timer.uninstall()
    if timer is None:
        wall = probe.span()
        report.update(wall_s=wall.normalised_s, wall_raw_s=wall.raw_s)
    else:
        report["wall_raw_s"] = raw_s
        report["layers"] = timer.metrics(raw_s)
        report["wrapper_cost_s"] = [timer.inner_cost, timer.outer_cost]
    report.update(
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        artifact_s=artifact_s,
        errors=errors,
        outputs=workload.outputs(inputs),
    )
    return report


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        parser = argparse.ArgumentParser(description="one benchmark repetition")
        parser.add_argument("workload")
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--out-dir", required=True)
        parser.add_argument("--spawned", type=float, required=True)
        parser.add_argument("--toy", action="store_true")
        parser.add_argument("--trace", action="store_true")
        parser.add_argument("--setup-only", action="store_true")
        args = parser.parse_args(argv)
        report = run_repetition(
            args.workload, seed=args.seed, toy=args.toy,
            out_dir=args.out_dir, spawned=args.spawned, probe=probe,
            trace=args.trace, setup_only=args.setup_only,
        )
    finally:
        probe.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
