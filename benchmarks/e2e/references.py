"""Reference outputs: committed for the default and held-out seeds,
computed through the per-client paths for any other seed.

``reference/seed<N>.json`` maps every workload output name to its
reference: an artifact's CSV text, or a fleet's stripped rollup.
Regenerate them (about 30 s per seed on two cores), and check that the
reference path reproduces the committed ``results/*.csv`` of the paper
at its own parameters and seed 42 byte for byte (about a minute)::

    python3 benchmarks/e2e/references.py [SEED ...]

A reference computed for any other seed is kept in
``.work/reference/seed<N>.json`` (git-ignored), so that later runs at
that seed in the same checkout skip the computation: it costs more
than the timed work of some workloads.  Delete ``.work`` after changing
what the program outputs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List

from workloads import PAPER_ARTIFACTS, ROOT, WORKLOADS, reference_table

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
COMPUTED_DIR = HERE / ".work" / "reference"

DEFAULT_SEED = 42
HELD_OUT_SEED = 1995

#: Worker processes for computing references.  They run after every
#: timed repetition has ended, so they never share the host with a
#: measurement; the per-client paths give identical results at any
#: worker count.
REFERENCE_JOBS = 2


def _load(path: Path) -> Dict:
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def _store(path: Path, references: Dict) -> None:
    """Write atomically: a run stopped mid-write leaves the old file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    with open(partial, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(partial, path)


def expected_outputs(workload, *, seed: int, toy: bool) -> Dict[str, object]:
    """The reference for each of the workload's outputs.

    A committed reference is used where one exists for the seed (full
    scale only); every other one is computed through the per-client
    path, or read back from an earlier computation at the same seed.
    """
    stem = f"{'toy-' if toy else ''}seed{seed}.json"
    committed = {} if toy else _load(REFERENCE_DIR / stem)
    default = _load(REFERENCE_DIR / f"seed{DEFAULT_SEED}.json")
    computed = _load(COMPUTED_DIR / stem)
    expected = {}
    for name in workload.output_names:
        if workload.seed_independent(name) and name in default:
            expected[name] = default[name]
        elif name in committed:
            expected[name] = committed[name]
        else:
            if name not in computed:
                computed[name] = workload.reference(
                    name, seed=seed, toy=toy, jobs=REFERENCE_JOBS
                )
                _store(COMPUTED_DIR / stem, computed)
            expected[name] = computed[name]
    return expected


def compute_references(seed: int) -> Dict:
    """Every workload output's reference at ``seed``, full scale."""
    references: Dict = {}
    for workload in WORKLOADS.values():
        for name in workload.output_names:
            if name not in references:
                references[name] = workload.reference(
                    name, seed=seed, toy=False, jobs=REFERENCE_JOBS
                )
    return references


def published_mismatches(names=PAPER_ARTIFACTS) -> List[str]:
    """Paper tables that differ from the published ``results/`` when the
    reference path computes them at the paper's own parameters, seed 42.
    """
    return [
        name for name in names
        if reference_table(name, seed=DEFAULT_SEED, num_requests=None,
                           jobs=REFERENCE_JOBS).encode()
        != (ROOT / "results" / f"{name}.csv").read_bytes()
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    for seed in [int(arg) for arg in args] or (DEFAULT_SEED, HELD_OUT_SEED):
        path = REFERENCE_DIR / f"seed{seed}.json"
        _store(path, compute_references(seed))
        print(f"wrote {path.relative_to(ROOT)}", flush=True)
    different = published_mismatches()
    if different:
        print(f"paper tables differ from results/: {', '.join(different)}")
        return 1
    print("paper tables at paper parameters equal results/*.csv byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
