"""The per-file lint engine.

Each file is read and parsed once, and one walk over its AST
dispatches every node to the registered rules.  ``# repro: noqa[CODE]``
comments (found with :mod:`tokenize`, so string literals that merely
*mention* noqa do not count) then filter the findings by line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.config import LintConfig, path_in_scope
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, file_rules

#: Matches the suppression comment: bare ``repro: noqa`` (every code)
#: or ``repro: noqa[RL001]`` / ``repro: noqa[RL001, RL004]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?",
)

#: Marker meaning "suppress every code on this line".
_ALL_CODES = "*"


class FileContext:
    """Everything a rule may consult while checking a node."""

    def __init__(self, path: str, tree: ast.Module, config: LintConfig):
        self.path = path.replace("\\", "/")
        self.config = config
        # alias → dotted module for `import numpy as np`;
        # name → dotted origin for `from time import perf_counter`.
        self.module_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, str] = {}
        self._index_imports(tree)

    def _index_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name for a Name/Attribute chain, import-aware.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` aliases ``numpy``; an
        unimported bare name resolves to itself, which still catches
        the classic forgot-the-import hazards.
        """
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return f"{base}.{node.attr}" if base else None
        if isinstance(node, ast.Name):
            if node.id in self.from_imports:
                return self.from_imports[node.id]
            if node.id in self.module_aliases:
                return self.module_aliases[node.id]
            return node.id
        return None

    def applies(self, rule: Rule) -> bool:
        """Whether ``rule`` runs on this file at all (scope + allowlist)."""
        if rule.scoped and not path_in_scope(self.path, self.config.scope):
            return False
        return not self.config.is_allowed(rule.code, self.path)


def _noqa_codes(comment: str) -> Optional[Set[str]]:
    """The codes a ``# repro: noqa`` in ``comment`` names, if any."""
    match = _NOQA_RE.search(comment)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return {_ALL_CODES}
    return {token.strip().upper() for token in codes.split(",") if token.strip()}


def scan_noqa(source: str) -> Dict[int, Set[str]]:
    """Map line number → the codes suppressed on that line.

    Comments are found with :mod:`tokenize`, so a *string literal*
    containing ``# repro: noqa`` (a lint-rule fixture, a docstring
    example) suppresses nothing.  Source that does not tokenize falls
    back to a line-regex scan.
    """
    try:
        comments = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        comments = list(enumerate(source.splitlines(), start=1))
    suppressed: Dict[int, Set[str]] = {}
    for lineno, comment in comments:
        codes = _noqa_codes(comment)
        if codes is not None:
            suppressed[lineno] = codes
    return suppressed


def _lint_tree(
    path: str,
    tree: ast.Module,
    config: LintConfig,
    rules: List[Rule],
) -> List[Diagnostic]:
    """One walk of ``tree``, dispatching nodes to interested rules."""
    ctx = FileContext(path, tree, config)
    dispatch: Dict[type, List[Rule]] = {}
    for rule in rules:
        if config.is_enabled(rule.code) and ctx.applies(rule):
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
    if not dispatch:
        return []
    diagnostics: List[Diagnostic] = []
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            diagnostics.extend(rule.check(node, ctx))
    return diagnostics


def lint_source(
    path: str,
    source: str,
    *, config: Optional[LintConfig] = None,
    rules: Optional[List[Rule]] = None,
) -> List[Diagnostic]:
    """Lint one module's source text; sorted, noqa-filtered findings."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Diagnostic(
                path=path.replace("\\", "/"),
                line=error.lineno or 1,
                col=(error.offset or 0) or 1,
                code="RL000",
                message=f"syntax error: {error.msg}",
            )
        ]
    diagnostics = _lint_tree(
        path, tree, config, rules if rules is not None else file_rules()
    )
    if not diagnostics:
        return []
    noqa = scan_noqa(source)
    return sorted(
        d for d in diagnostics
        if not noqa.get(d.line, set()) & {_ALL_CODES, d.code}
    )


def collect_files(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
) -> List[Path]:
    """Expand files/directories into the sorted list of lintable files."""
    config = config or LintConfig()
    found: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not config.is_excluded(str(candidate))
            )
        elif path.suffix == ".py" and not config.is_excluded(str(path)):
            found.append(path)
    # De-duplicate while keeping deterministic order.
    return list(dict.fromkeys(found))


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
) -> List[Diagnostic]:
    """Lint files and directories; returns sorted, noqa-filtered findings."""
    config = config or LintConfig()
    rules = file_rules()
    diagnostics: List[Diagnostic] = []
    for file_path in collect_files(paths, config):
        posix = str(file_path).replace("\\", "/")
        try:
            source = file_path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as error:
            diagnostics.append(
                Diagnostic(posix, 1, 1, "RL000", f"unreadable file: {error}")
            )
            continue
        diagnostics.extend(
            lint_source(posix, source, config=config, rules=rules)
        )
    return sorted(diagnostics)
