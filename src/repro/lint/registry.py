"""Rule base class and the registry the engine dispatches from.

Rules self-register via the :func:`register` decorator; importing
:mod:`repro.lint.rules` populates the registry.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple, Type

from repro.lint.diagnostics import Diagnostic


class Rule:
    """A file-scoped check dispatched per AST node type.

    Attributes
    ----------
    code:
        Stable diagnostic code (``RLxxx``) used in output, ``noqa``
        suppressions, and the config's ``enabled``/``allow`` tables.
    name:
        Short human name for ``--list-rules``.
    rationale:
        One-line tie back to determinism/reproducibility.
    scoped:
        True when the rule only applies inside ``config.scope`` (the
        simulator source tree) — the determinism rules are scoped, the
        robustness rules are not.
    node_types:
        AST node classes this rule wants to see.
    """

    code: str = "RL000"
    name: str = "abstract"
    rationale: str = ""
    scoped: bool = False
    node_types: Tuple[type, ...] = ()

    def check(self, node: ast.AST, ctx: "FileContext") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.code}>"


_RULES: List[Type[Rule]] = []


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (idempotent)."""
    if rule_class not in _RULES:
        _RULES.append(rule_class)
    return rule_class


def _ensure_loaded() -> None:
    # Deferred so `import repro.lint.registry` alone has no side effects.
    import repro.lint.rules  # noqa: F401  (registration side effect)


def file_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    _ensure_loaded()
    return [cls() for cls in _RULES]


def available_rules() -> List[Tuple[str, str, str]]:
    """(code, name, rationale) for every registered rule, sorted."""
    _ensure_loaded()
    return sorted((cls.code, cls.name, cls.rationale) for cls in _RULES)
