"""Sweep checkpoints: resume an interrupted sweep without re-running.

A :class:`SweepCheckpoint` is an append-only JSONL journal.  Each line
records one finished plan: its :meth:`~repro.exec.plan.RunPlan.fingerprint`
(the identity of the *work* — config hash + engine + collection
options, grid position excluded) and the exact result state
(:func:`repro.exec.run.result_state`, which carries the
``RunningStats`` internals so the resumed result is bit-for-bit the
original).  Executors consult the journal before running a plan and
append after finishing one, so killing a sweep at any point loses at
most the in-flight plans; re-running the same command skips everything
already journalled.

Because entries are keyed by fingerprint rather than index, the journal
survives grid reordering and partial overlap: a resumed sweep with
extra or shuffled design points reuses exactly the points it has seen
before.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.exec.plan import RunPlan
from repro.exec.run import ExperimentResult, result_from_state, result_state

CHECKPOINT_SCHEMA = "repro.exec.checkpoint/1"


class SweepCheckpoint:
    """Append-only JSONL journal of finished plans, keyed by fingerprint."""

    def __init__(self, path: str):
        self.path = path
        self._states: Dict[str, Dict] = {}
        #: Journal lines replayed from disk at open (before this run).
        self.resumed = 0
        if os.path.exists(path):
            self._replay()

    def _replay(self) -> None:
        with open(self.path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ConfigurationError(
                        f"{self.path}:{number}: torn checkpoint entry "
                        f"({error.msg}); delete that line to resume "
                        "from the entries before it"
                    ) from None
                # Later entries win, matching append order.
                self._states[entry["fingerprint"]] = entry["state"]
        self.resumed = len(self._states)

    def lookup(self, plan: RunPlan) -> Optional[ExperimentResult]:
        """The journalled result for ``plan``, or ``None`` if unseen."""
        state = self._states.get(plan.fingerprint())
        if state is None:
            return None
        return result_from_state(plan.config, state)

    def record(self, plan: RunPlan, result: ExperimentResult) -> None:
        """Append one finished plan to the journal and remember it."""
        fingerprint = plan.fingerprint()
        state = result_state(result)
        entry = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "label": plan.config.describe(),
            "state": state,
        }
        with open(self.path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")
        self._states[fingerprint] = state

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, plan: RunPlan) -> bool:
        return plan.fingerprint() in self._states

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SweepCheckpoint path={self.path!r} "
            f"entries={len(self._states)} resumed={self.resumed}>"
        )
