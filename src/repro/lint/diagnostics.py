"""Diagnostic records and their text/JSON renderings."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where it is, which rule fired, and why.

    Ordering is (path, line, col, code) so a sorted report reads
    top-to-bottom through each file.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """The canonical ``file:line:col CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form for ``--format json`` consumers."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


def format_diagnostics(
    diagnostics: Iterable[Diagnostic],
    fmt: str = "text",
) -> str:
    """Render diagnostics as ``text`` lines or ``json``."""
    ordered: List[Diagnostic] = sorted(diagnostics)
    if fmt == "json":
        return json.dumps(
            {
                "diagnostics": [d.to_dict() for d in ordered],
                "count": len(ordered),
            },
            indent=2,
        )
    if fmt == "text":
        return "\n".join(d.format() for d in ordered)
    raise ValueError(f"unknown diagnostic format {fmt!r}")
