"""Every module the docs tell users to run with ``python -m`` runs.

README.md and docs/*.md name modules after ``python -m``; each must
answer ``--help`` with exit 0, so a documented command whose module
has no ``__main__`` fails here rather than in a user's shell.  The word
after the module must answer ``--help`` too, so a doc naming a
subcommand the CLI no longer has fails the same way.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def documented_modules():
    """Each distinct module named after ``python -m`` in the docs."""
    modules = set()
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        for name in re.findall(r"python -m ([A-Za-z_][\w.]*)", text):
            modules.add(name.rstrip("."))
    return sorted(modules)


def documented_subcommands():
    """Each distinct ``python -m module word`` pair in the docs."""
    pairs = set()
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        pairs.update(
            re.findall(r"python -m ([A-Za-z_][\w.]*) ([a-z][\w-]*)", text)
        )
    return sorted(pairs)


def answers_help(*argv):
    """``python -m ARGV --help`` from the repo root, checked for exit 0."""
    completed = subprocess.run(
        [sys.executable, "-m", *argv, "--help"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_docs_name_the_package_cli():
    assert "repro" in documented_modules()


@pytest.mark.parametrize("module", documented_modules())
def test_documented_module_answers_help(module):
    answers_help(module)


@pytest.mark.parametrize("module,word", documented_subcommands())
def test_documented_subcommand_answers_help(module, word):
    answers_help(module, word)
