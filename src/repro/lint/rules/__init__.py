"""Rule modules; importing this package registers every rule."""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401
    api,
    determinism,
    plans,
    robustness,
)
