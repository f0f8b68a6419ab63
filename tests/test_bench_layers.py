"""The end-to-end benchmark's layer contract holds on this tree.

``benchmarks/e2e/layers.py`` times each layer by wrapping named entry
points, and it reads every method from its own class ``__dict__``: a
method hoisted into a base class (``BatchedP.admit`` moved onto
``BatchedPolicy``) makes every ``run.py --trace 1`` run die with a
``KeyError``, and a new override in a subclass silently drops that
class's calls from the layer's counts.  The benchmark's own self-test
catches the first only when it is run; these tests catch both here.
"""

import importlib.util
from pathlib import Path

from repro.cache.batched import (
    BatchedL,
    BatchedLIX,
    BatchedLRU,
    BatchedP,
    BatchedPIX,
)

LAYERS = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "layers.py"
)


def load_layers():
    """``layers.py`` loaded by path (``benchmarks`` is not a package
    the suite imports)."""
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    layers = load_layers()
    resolved = layers.resolve_entry_points()
    assert len(resolved) == len(layers.ENTRY_POINTS)
    for owner, name, original in resolved:
        assert callable(original), f"{owner!r}.{name} is not callable"


def test_batched_policies_call_wrapped_methods():
    # Every columnar policy's lookup and admit must be one of the
    # wrapped originals, or the cache layers lose its calls.
    wrapped = {
        id(original)
        for _owner, _name, original in load_layers().resolve_entry_points()
    }
    for policy in (BatchedLRU, BatchedP, BatchedPIX, BatchedLIX, BatchedL):
        for method in ("lookup", "admit"):
            assert id(getattr(policy, method)) in wrapped, (
                f"{policy.__name__}.{method} is not a wrapped entry point"
            )
