"""The cheap committed artifacts regenerate byte for byte.

``results/<name>.csv`` is what ``python -m repro figures all --csv-dir
results`` writes at default scale.  The artifacts below take about five
seconds together, so each is regenerated here and compared with its
committed CSV: a change that moves any of their numbers (a refactor of
the hybrid or index code, a channel assignment that depends on the
Python version) fails here instead of leaving a stale file behind.  The
simulated paper figures take minutes and are not regenerated.

Each artifact is regenerated a second time with Python 3.12's
compensated ``sum`` installed as the builtin: a float ``sum`` that
reaches a committed number rounds differently there, so on an older
Python this is where it shows.
"""

import builtins
from pathlib import Path

import pytest

from repro.experiments.cli import main
from tests.test_channel_reference import compensated_sum

RESULTS = Path(__file__).resolve().parents[1] / "results"

CHEAP_ARTIFACTS = (
    "table1",
    "busstop",
    "indexing",
    "indexed-multidisk",
    "query",
    "multichannel",
    "hybrid",
)


@pytest.mark.parametrize("builtin_sum", ["native", "python3.12"])
@pytest.mark.parametrize("name", CHEAP_ARTIFACTS)
def test_artifact_matches_committed_csv(
    name, builtin_sum, tmp_path, capsys, monkeypatch
):
    if builtin_sum == "python3.12":
        monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert main(["figures", name, "--csv-dir", str(tmp_path)]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    fresh = (tmp_path / f"{name}.csv").read_bytes()
    assert fresh == (RESULTS / f"{name}.csv").read_bytes(), (
        f"results/{name}.csv differs ({builtin_sum} sum): regenerate it "
        "with `python -m repro figures all --csv-dir results`; if only "
        "3.12's sum differs, add the floats that reach it in order "
        "(repro.core.channels.add_in_order)"
    )
