"""Tier-1 gate: the shipped tree is free of simulation-correctness
violations, and stays that way.

This is the test that makes repro.lint a *gate* rather than advice:
any change that introduces a wall-clock read, a stray RNG, a
float-time equality, a mutable default, an over-broad except, a
non-picklable plan field, or a positional option argument fails here
before CI even reaches the simulator suites.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, load_config
from repro.lint.cli import EXIT_CLEAN, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _config():
    return load_config(pyproject=REPO_ROOT / "pyproject.toml")


def _report(diagnostics):
    return "lint violations in the shipped tree:\n" + "\n".join(
        d.format() for d in diagnostics
    )


class TestCleanBaseline:
    def test_src_repro_is_violation_free(self):
        diagnostics = lint_paths([REPO_ROOT / "src" / "repro"], _config())
        assert diagnostics == [], _report(diagnostics)

    def test_tests_are_violation_free(self):
        diagnostics = lint_paths([REPO_ROOT / "tests"], _config())
        assert diagnostics == [], _report(diagnostics)

    def test_benchmarks_and_examples_are_violation_free(self):
        diagnostics = lint_paths(
            [REPO_ROOT / "benchmarks", REPO_ROOT / "examples"], _config()
        )
        assert diagnostics == [], _report(diagnostics)

    def test_scripts_are_violation_free(self):
        diagnostics = lint_paths([REPO_ROOT / "scripts"], _config())
        assert diagnostics == [], _report(diagnostics)

    def test_ci_gate_invocation_is_clean(self, monkeypatch, capsys):
        # Exactly what .github/workflows/ci.yml runs.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src", "tests", "scripts", "benchmarks"]) == EXIT_CLEAN

    def test_config_is_loaded_from_pyproject(self):
        config = _config()
        assert config.scope == ("src/repro", "scripts", "benchmarks")
        assert config.is_allowed("RL002", "src/repro/sim/rng.py")
        assert config.is_allowed("RL001", "src/repro/obs/clock.py")
        # Benchmarks time things on purpose; the whole tree is
        # allowlisted for the wall-clock rule (directory pattern).
        assert config.is_allowed("RL001", "benchmarks/bench_sweep.py")
        # The old blanket allowance for the runner is gone: its wall
        # clock now flows through the obs clock shim.
        assert not config.is_allowed("RL001", "src/repro/experiments/runner.py")
        assert not config.is_allowed("RL002", "src/repro/core/disks.py")
        assert config.enabled == (
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL007", "RL008",
        )
