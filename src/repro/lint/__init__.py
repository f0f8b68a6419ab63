"""repro.lint — simulation-correctness static analysis.

The reproduction's figures are only trustworthy if two runs with the
same seed produce identical schedules, cache states, and response
times.  This package is a stdlib-only (:mod:`ast`-based) linter that
statically rejects the determinism hazards that silently break that
property — wall-clock reads, unseeded module-level RNGs, float
equality on simulation timestamps — plus the robustness mistakes
(mutable defaults, swallowed exceptions, non-picklable plan fields,
positional option arguments) that corrupt results without failing a
test.  Every rule is per-file: one parse and one AST walk per module.

Usage::

    python -m repro.lint [paths ...]       # 0 clean / 1 findings / 2 usage
    python -m repro.lint --list-rules

or programmatically::

    from repro.lint import lint_paths, load_config
    diagnostics = lint_paths(["src"], load_config())

Per-line suppression uses ``# repro: noqa[CODE]`` (or bare
``# repro: noqa`` for every rule); project-wide allowlists live in the
``[tool.reprolint]`` table of ``pyproject.toml``.  See
``docs/LINTING.md`` for the rule catalogue and the rationale tying
each rule to reproducibility.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, load_config
from repro.lint.diagnostics import Diagnostic, format_diagnostics
from repro.lint.engine import collect_files, lint_paths, lint_source
from repro.lint.registry import available_rules

__all__ = [
    "Diagnostic",
    "LintConfig",
    "available_rules",
    "collect_files",
    "format_diagnostics",
    "lint_paths",
    "lint_source",
    "load_config",
]
