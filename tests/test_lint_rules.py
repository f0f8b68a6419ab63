"""Per-rule fixtures for repro.lint: true positive, true negative, and
``# repro: noqa[CODE]`` suppression for each of RL001-RL005, RL007 and
RL008."""

from __future__ import annotations

import textwrap

from repro.lint import LintConfig, lint_source

#: A path inside the default determinism scope (src/repro).
IN_SCOPE = "src/repro/somemodule.py"
#: A path outside it (test code).
OUT_OF_SCOPE = "tests/test_something.py"


def run(source, path=IN_SCOPE, config=None):
    return lint_source(path, textwrap.dedent(source),
                       config=config or LintConfig())


def codes(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# RL001 — wall-clock reads
# ---------------------------------------------------------------------------
class TestRL001WallClock:
    def test_true_positive_direct_and_aliased(self):
        diagnostics = run(
            """
            import time
            import time as _time
            from time import perf_counter

            a = time.time()
            b = _time.perf_counter()
            c = perf_counter()
            """
        )
        assert codes(diagnostics) == ["RL001", "RL001", "RL001"]
        assert "wall-clock" in diagnostics[0].message

    def test_true_positive_datetime(self):
        diagnostics = run(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        )
        assert codes(diagnostics) == ["RL001"]

    def test_true_negative_simulated_clock(self):
        assert run(
            """
            def step(kernel):
                return kernel.now + 1.5  # simulated, not wall time
            """
        ) == []

    def test_true_negative_out_of_scope(self):
        assert run(
            """
            import time
            a = time.time()
            """,
            path=OUT_OF_SCOPE,
        ) == []

    def test_true_negative_allowlisted_file(self):
        config = LintConfig(allow={"RL001": ("src/repro/somemodule.py",)})
        assert run(
            """
            import time
            a = time.time()
            """,
            config=config,
        ) == []

    def test_noqa_suppression(self):
        assert run(
            """
            import time
            a = time.time()  # repro: noqa[RL001]
            """
        ) == []


# ---------------------------------------------------------------------------
# RL002 — unmanaged RNGs
# ---------------------------------------------------------------------------
class TestRL002UnmanagedRandom:
    def test_true_positive_random_import(self):
        diagnostics = run("import random\n")
        assert codes(diagnostics) == ["RL002"]
        line = diagnostics[0]
        assert (line.line, line.col) == (1, 1)

    def test_true_positive_numpy_calls(self):
        diagnostics = run(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            np.random.seed(0)
            """
        )
        assert codes(diagnostics) == ["RL002", "RL002"]

    def test_true_positive_from_numpy_random(self):
        diagnostics = run("from numpy.random import default_rng\n")
        assert codes(diagnostics) == ["RL002"]

    def test_true_negative_stream_use(self):
        assert run(
            """
            import numpy as np

            def sample(rng: np.random.Generator, size: int):
                # Annotations and draws from an injected generator are
                # exactly the sanctioned pattern.
                return rng.integers(0, 10, size=size)
            """
        ) == []

    def test_true_negative_out_of_scope(self):
        assert run("import random\n", path=OUT_OF_SCOPE) == []

    def test_true_negative_allowlisted_rng_module(self):
        # The default config allowlists the stream factory itself.
        assert run(
            """
            import numpy as np
            gen = np.random.Generator(np.random.PCG64(1))
            """,
            path="src/repro/sim/rng.py",
        ) == []

    def test_noqa_suppression(self):
        assert run("import random  # repro: noqa[RL002]\n") == []


# ---------------------------------------------------------------------------
# RL003 — float equality on simulation-time expressions
# ---------------------------------------------------------------------------
class TestRL003FloatTimeEquality:
    def test_true_positive_now_and_arrival(self):
        diagnostics = run(
            """
            def poll(self, now, event):
                if now == 1.5:
                    return True
                return self.next_arrival(0) != 0.0
            """
        )
        assert codes(diagnostics) == ["RL003", "RL003"]
        assert "isclose" in diagnostics[0].message

    def test_true_positive_negative_literal(self):
        diagnostics = run("flag = start_time == -1.0\n")
        assert codes(diagnostics) == ["RL003"]

    def test_true_negative_non_time_name(self):
        assert run(
            """
            def classify(rate, noise):
                return rate == 0.0 or noise != 1.0
            """
        ) == []

    def test_true_negative_no_float_literal(self):
        assert run(
            """
            def same(self, now, then):
                return now == then or now == 3
            """
        ) == []

    def test_true_negative_ordering_comparison(self):
        assert run("done = now >= 10.0\n") == []

    def test_noqa_suppression(self):
        assert run(
            "sentinel = now == -1.0  # repro: noqa[RL003]\n"
        ) == []


# ---------------------------------------------------------------------------
# RL004 — mutable default arguments
# ---------------------------------------------------------------------------
class TestRL004MutableDefault:
    def test_true_positive_display_and_call(self):
        diagnostics = run(
            """
            def gather(pages=[], index={}):
                pages.append(1)

            def build(*, slots=list()):
                return slots
            """,
            path=OUT_OF_SCOPE,  # unscoped rule: fires everywhere
        )
        assert codes(diagnostics) == ["RL004", "RL004", "RL004"]

    def test_true_negative_none_sentinel(self):
        assert run(
            """
            def gather(*, pages=None, capacity=8, label=""):
                pages = [] if pages is None else pages
                return pages
            """
        ) == []

    def test_noqa_suppression(self):
        assert run(
            "def gather(pages=[]):  # repro: noqa[RL004]\n    return pages\n"
        ) == []


# ---------------------------------------------------------------------------
# RL005 — bare / over-broad except
# ---------------------------------------------------------------------------
class TestRL005BroadExcept:
    def test_true_positive_bare_and_broad(self):
        diagnostics = run(
            """
            try:
                step()
            except:
                pass

            try:
                step()
            except Exception:
                result = None

            try:
                step()
            except (ValueError, BaseException):
                result = None
            """
        )
        assert codes(diagnostics) == ["RL005", "RL005", "RL005"]
        assert "swallow" in diagnostics[0].message

    def test_true_negative_specific_exception(self):
        assert run(
            """
            try:
                step()
            except ValueError:
                result = None
            """
        ) == []

    def test_true_negative_reraise(self):
        assert run(
            """
            try:
                step()
            except Exception:
                log("simulation step failed")
                raise
            """
        ) == []

    def test_noqa_suppression(self):
        assert run(
            """
            try:
                step()
            except Exception:  # repro: noqa[RL005]
                pass
            """
        ) == []


# ---------------------------------------------------------------------------
# RL007 — picklable plans
# ---------------------------------------------------------------------------
class TestRL007PicklablePlan:
    def test_true_positive_lambda_field(self):
        diagnostics = run(
            """
            from repro.experiments.config import ExperimentConfig

            config = ExperimentConfig(label_fn=lambda c: c.describe())
            """
        )
        assert codes(diagnostics) == ["RL007"]
        assert "lambda" in diagnostics[0].message
        assert "pickle" in diagnostics[0].message

    def test_true_positive_nested_closure(self):
        diagnostics = run(
            """
            from repro.exec.plan import RunPlan

            def build(config):
                def score(result):
                    return result.mean_response_time
                return RunPlan(config=config, scorer=score)
            """
        )
        assert codes(diagnostics) == ["RL007"]
        assert "locally-defined function 'score'" in diagnostics[0].message

    def test_true_positive_open_handle_via_with_(self):
        diagnostics = run(
            """
            def widen(config, path):
                return config.with_(sink=open(path, "w"))
            """
        )
        assert codes(diagnostics) == ["RL007"]
        assert "open file handle" in diagnostics[0].message

    def test_true_positive_dataclasses_replace(self):
        diagnostics = run(
            """
            import dataclasses

            def tweak(plan):
                return dataclasses.replace(plan, picker=lambda r: r)
            """
        )
        assert codes(diagnostics) == ["RL007"]

    def test_true_negative_plain_fields(self):
        assert run(
            """
            from repro.experiments.config import ExperimentConfig

            def module_hook(result):
                return result.hit_rate

            config = ExperimentConfig(delta=3, seed=7)
            other = config.with_(noise=0.25)
            REGISTRY = {"hook": module_hook}
            """
        ) == []

    def test_true_negative_lambda_elsewhere(self):
        # Lambdas are fine outside plan construction (sorting keys etc).
        assert run(
            """
            rows = sorted([3, 1, 2], key=lambda value: -value)
            """
        ) == []

    def test_true_negative_out_of_scope(self):
        source = """
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(label_fn=lambda c: c.describe())
        """
        assert run(source, path=OUT_OF_SCOPE) == []

    def test_noqa_suppression(self):
        assert run(
            """
            from repro.exec.plan import RunPlan

            plan = RunPlan(config=None, scorer=lambda r: r)  # repro: noqa[RL007]
            """
        ) == []


# ---------------------------------------------------------------------------
# Engine behaviour shared by all rules
# ---------------------------------------------------------------------------
class TestEngine:
    def test_bare_noqa_suppresses_every_code(self):
        assert run("import random  # repro: noqa\n") == []

    def test_noqa_for_other_code_does_not_suppress(self):
        diagnostics = run("import random  # repro: noqa[RL001]\n")
        assert codes(diagnostics) == ["RL002"]

    def test_noqa_inside_string_literal_suppresses_nothing(self):
        # Comments are found with tokenize: a string that merely
        # mentions the marker is not a suppression.
        diagnostics = run(
            'import random; EXAMPLE = "# repro: noqa[RL002]"\n'
        )
        assert codes(diagnostics) == ["RL002"]

    def test_disabled_rule_does_not_fire(self):
        config = LintConfig(enabled=("RL001",))
        assert run("import random\n", config=config) == []

    def test_syntax_error_becomes_diagnostic(self):
        diagnostics = run("def broken(:\n")
        assert codes(diagnostics) == ["RL000"]

    def test_diagnostic_format_contract(self):
        diagnostic = run("import random\n")[0]
        rendered = diagnostic.format()
        assert rendered.startswith(f"{IN_SCOPE}:1:1 RL002 ")

    def test_diagnostics_sorted_by_location(self):
        diagnostics = run(
            """
            import random

            def f(x=[]):
                try:
                    pass
                except:
                    pass
            """
        )
        assert [d.line for d in diagnostics] == sorted(
            d.line for d in diagnostics
        )


# ---------------------------------------------------------------------------
# RL008 — keyword-only options
# ---------------------------------------------------------------------------
class TestRL008KeywordOnlyOptions:
    def test_true_positive_two_positional_options(self):
        diagnostics = run(
            """
            def run_study(config, engine="fast", jobs=1):
                return config, engine, jobs
            """
        )
        assert codes(diagnostics) == ["RL008"]
        message = diagnostics[0].message
        assert "'run_study'" in message
        assert "engine, jobs" in message
        assert "'*' marker" in message

    def test_true_negative_keyword_only_options(self):
        assert run(
            """
            def run_study(config, *, engine="fast", jobs=1):
                return config, engine, jobs
            """
        ) == []

    def test_true_negative_single_option(self):
        # One defaulted parameter carries no ordering ambiguity.
        assert run(
            """
            def run_study(config, engine="fast"):
                return config, engine
            """
        ) == []

    def test_true_negative_private_function(self):
        assert run(
            """
            def _helper(config, engine="fast", jobs=1):
                return config, engine, jobs
            """
        ) == []

    def test_true_negative_method(self):
        # Methods keep natural positional use (stats.add, sim.run).
        assert run(
            """
            class Runner:
                def run(self, engine="fast", jobs=1):
                    return engine, jobs
            """
        ) == []

    def test_true_positive_multichannel_builder(self):
        # The 1.2 channel builders are exactly the shape RL008 exists
        # for: channel options drifting positional would let
        # ``build_program(layout, 2, "bandwidth")`` silently swap
        # strategy and retune cost in a later release.
        diagnostics = run(
            """
            def build_program(layout, channels=2, assignment="conflict"):
                return layout, channels, assignment
            """
        )
        assert codes(diagnostics) == ["RL008"]
        assert "channels, assignment" in diagnostics[0].message

    def test_true_negative_multichannel_builder_keyword_only(self):
        assert run(
            """
            def build_program(layout, num_channels, *, assignment="conflict",
                              retune_cost=1.0):
                return layout, num_channels, assignment, retune_cost
            """
        ) == []

    def test_true_negative_nested_function(self):
        assert run(
            """
            def outer():
                def inner(engine="fast", jobs=1):
                    return engine, jobs
                return inner
            """
        ) == []

    def test_out_of_scope_path_exempt(self):
        assert run(
            """
            def run_study(config, engine="fast", jobs=1):
                return config, engine, jobs
            """,
            path=OUT_OF_SCOPE,
        ) == []

    def test_noqa_suppresses(self):
        assert run(
            """
            def run_study(config, engine="fast", jobs=1):  # repro: noqa[RL008]
                return config, engine, jobs
            """
        ) == []
