"""Linter configuration: defaults plus the ``[tool.reprolint]`` table.

The configuration answers three questions:

* which rules are enabled (``enabled``);
* where the *scoped* determinism rules apply (``scope`` — the
  simulator source tree; test code may legitimately compare exact
  analytic floats or build throwaway generators);
* which files are allowlisted per rule (``allow`` — e.g. the seeded
  stream factory itself is the one place allowed to touch
  ``numpy.random``).

``tomllib`` ships with Python 3.11+; on older interpreters the loader
falls back to the built-in defaults, because the linter is
stdlib-only.  A config the parser *can* read must be right: a TOML
syntax error or a rule code that no rule registers raises
:class:`~repro.errors.ConfigurationError` instead of silently doing
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.lint.registry import available_rules

try:
    import tomllib
except ImportError:  # pragma: no cover - Python < 3.11
    tomllib = None  # type: ignore[assignment]

#: Files every configuration excludes from collection.
ALWAYS_EXCLUDE = ("__pycache__", ".egg-info")

#: Built-in allowlists, mirrored by the shipped ``pyproject.toml`` so
#: behaviour is identical whether or not a config file is found.
DEFAULT_ALLOW: Dict[str, Tuple[str, ...]] = {
    # The obs clock shim is the single sanctioned wall-clock gateway;
    # wall time is reported *alongside* the simulated clock and never
    # feeds back into the model.
    "RL001": ("src/repro/obs/clock.py",),
    # The seeded stream factory is the single sanctioned gateway to
    # numpy's generators.
    "RL002": ("src/repro/sim/rng.py",),
}

#: Scope of the determinism rules when no config says otherwise.
DEFAULT_SCOPE = "src/repro"


def _split_parts(pattern: str) -> Tuple[str, ...]:
    return tuple(p for p in pattern.replace("\\", "/").split("/") if p)


def _contains_parts(path: str, pattern: str) -> bool:
    """True if ``pattern``'s components appear contiguously in ``path``."""
    path_parts = _split_parts(path)
    pattern_parts = _split_parts(pattern)
    span = len(pattern_parts)
    return any(
        path_parts[i : i + span] == pattern_parts
        for i in range(len(path_parts) - span + 1)
    )


def path_matches(path: str, pattern: str) -> bool:
    """True if ``path`` matches an allowlist ``pattern``.

    A pattern naming a file (ending in ``.py``) matches on trailing
    path components, so allowlists work no matter which directory the
    linter is invoked from (absolute paths, ``src`` vs ``./src``).  A
    pattern naming a directory (anything else, e.g. ``benchmarks``)
    matches every file under it.
    """
    if not pattern.endswith(".py"):
        return bool(pattern) and _contains_parts(path, pattern)
    path_parts = _split_parts(path)
    pattern_parts = _split_parts(pattern)
    if not pattern_parts or len(pattern_parts) > len(path_parts):
        return False
    return path_parts[-len(pattern_parts):] == pattern_parts


#: A scope is one component sequence or several of them.
ScopeSpec = Union[str, Tuple[str, ...]]


def path_in_scope(path: str, scope: ScopeSpec) -> bool:
    """True if ``path`` lies under any of the ``scope`` trees.

    ``scope`` is one component sequence (``"src/repro"``) or a tuple of
    them.  An empty scope means "everywhere" (useful for fixture
    tests).
    """
    if not scope:
        return True
    scopes = (scope,) if isinstance(scope, str) else scope
    return any(_contains_parts(path, s) for s in scopes if s) or not any(
        s for s in scopes
    )


@dataclass
class LintConfig:
    """Effective linter settings after merging defaults and pyproject."""

    enabled: Optional[Tuple[str, ...]] = None  # None → all registered rules
    scope: ScopeSpec = DEFAULT_SCOPE
    allow: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    exclude: Tuple[str, ...] = ()

    def is_enabled(self, code: str) -> bool:
        return self.enabled is None or code in self.enabled

    def is_allowed(self, code: str, path: str) -> bool:
        """True if ``path`` is allowlisted for rule ``code``."""
        return any(
            path_matches(path, pattern)
            for pattern in self.allow.get(code, ())
        )

    def is_excluded(self, path: str) -> bool:
        candidates = ALWAYS_EXCLUDE + self.exclude
        posix = path.replace("\\", "/")
        return any(token in posix for token in candidates)


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Walk upward from ``start`` (default: cwd) to find pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for directory in (here, *here.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(
    *, start: Optional[Path] = None,
    pyproject: Optional[Path] = None,
) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.reprolint]`` if present.

    ``pyproject`` names an explicit file; otherwise the nearest
    ``pyproject.toml`` above ``start`` is used.  Missing file, missing
    table, or a missing TOML parser all yield the defaults; an
    unreadable or unparseable file, or an ``enabled``/``allow`` entry
    naming an unknown rule code, raises :class:`ConfigurationError`.
    """
    config = LintConfig()
    source = pyproject if pyproject is not None else find_pyproject(start)
    if source is None or tomllib is None or not Path(source).is_file():
        return config
    try:
        with open(source, "rb") as handle:
            document = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as error:
        raise ConfigurationError(f"{source}: {error}") from error
    table = document.get("tool", {}).get("reprolint", {})
    if not isinstance(table, dict):
        return config

    enabled = table.get("enabled")
    if isinstance(enabled, Sequence) and not isinstance(enabled, str):
        config.enabled = tuple(str(code).upper() for code in enabled)
    scope = table.get("scope")
    if isinstance(scope, str):
        config.scope = scope
    elif isinstance(scope, Sequence):
        config.scope = tuple(str(tree) for tree in scope)
    exclude = table.get("exclude")
    if isinstance(exclude, Sequence) and not isinstance(exclude, str):
        config.exclude = tuple(str(token) for token in exclude)
    allow = table.get("allow")
    if isinstance(allow, dict):
        merged = dict(DEFAULT_ALLOW)
        for code, patterns in allow.items():
            if isinstance(patterns, Sequence) and not isinstance(patterns, str):
                merged[str(code).upper()] = tuple(str(p) for p in patterns)
        config.allow = merged
    _check_codes(source, (*(config.enabled or ()), *config.allow))
    return config


def _check_codes(source: Path, named: Sequence[str]) -> None:
    """Raise if ``named`` holds a code that no registered rule has."""
    known = {code for code, _name, _rationale in available_rules()}
    unknown = sorted(set(named) - known)
    if unknown:
        raise ConfigurationError(
            f"{source}: [tool.reprolint] names unknown rule code"
            f"{'s' if len(unknown) != 1 else ''} {', '.join(unknown)}; "
            "`python -m repro.lint --list-rules` prints the catalogue"
        )
