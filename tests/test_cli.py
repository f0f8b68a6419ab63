"""Tests for the command-line interfaces (repro.experiments.cli and
the repro.lint 0/1/2 exit-code contract)."""

import json

import pytest

from repro.experiments.cli import ARTIFACTS, build_parser, main
from repro.lint import cli as lint_cli
from repro.lint import config as lint_config

#: Config-file checks need a TOML parser (stdlib ``tomllib``, 3.11+).
needs_toml = pytest.mark.skipif(
    lint_config.tomllib is None, reason="tomllib needs Python 3.11+"
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_disk_sizes_parsing(self):
        args = build_parser().parse_args(["run", "--disks", "10,20,30"])
        assert args.disks == (10, 20, 30)

    def test_bad_disk_sizes_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--disks", "10,x"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "CLOCK"])


class TestPoliciesCommand:
    def test_lists_all_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("P", "PIX", "LRU", "L", "LIX"):
            assert name in out


class TestInspectCommand:
    def test_reports_program_properties(self, capsys):
        code = main(["inspect", "--disks", "2,4,8", "--delta", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "period" in out
        assert "disk 1" in out and "disk 3" in out
        assert "inter-arrival" in out

    def test_flat_layout(self, capsys):
        assert main(["inspect", "--disks", "10", "--delta", "0"]) == 0
        out = capsys.readouterr().out
        assert "period        : 10" in out


class TestRunCommand:
    def test_runs_small_experiment(self, capsys):
        code = main([
            "run",
            "--disks", "50,200,250",
            "--delta", "3",
            "--cache", "50",
            "--policy", "LIX",
            "--noise", "0.3",
            "--offset", "50",
            "--requests", "400",
            "--access-range", "100",
            "--region-size", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "response=" in out
        assert "access locations" in out

    def test_configuration_error_becomes_exit_code(self, capsys):
        # access range larger than the database.
        code = main([
            "run", "--disks", "10", "--access-range", "1000",
            "--requests", "10",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFiguresCommand:
    def test_unknown_artifact(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown artifacts" in capsys.readouterr().err

    def test_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "1.75" in out

    def test_scaled_figure_with_csv(self, capsys, tmp_path):
        code = main([
            "figures", "fig11",
            "--requests", "200",
            "--csv-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "fig11.csv").exists()

    def test_registry_covers_every_paper_artifact(self):
        for required in (
            "table1", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig13", "fig14", "fig15",
        ):
            assert required in ARTIFACTS


class TestLintCLI:
    """`python -m repro.lint` exit contract: 0 clean / 1 findings / 2 usage."""

    @pytest.fixture
    def tree(self, tmp_path):
        """A scoped src/repro tree with one clean and one dirty module."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "clean.py").write_text(
            "def tidy(pages=None):\n    return pages or []\n"
        )
        dirty = package / "dirty.py"
        dirty.write_text("import random\n")
        return tmp_path

    def test_exit_zero_on_clean_tree(self, tree, capsys):
        clean = tree / "src" / "repro" / "clean.py"
        assert lint_cli.main([str(clean)]) == lint_cli.EXIT_CLEAN

    def test_exit_one_on_findings(self, tree, capsys):
        assert lint_cli.main([str(tree / "src")]) == lint_cli.EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL002" in out
        # The canonical file:line:col CODE diagnostic shape.
        assert "dirty.py:1:1 RL002" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code = lint_cli.main([str(tmp_path / "does-not-exist")])
        assert code == lint_cli.EXIT_USAGE
        assert "no such file" in capsys.readouterr().err

    def test_exit_two_on_bad_format(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            lint_cli.main(["--format", "yaml", str(tree / "src")])
        assert excinfo.value.code == lint_cli.EXIT_USAGE

    def test_exit_two_on_missing_config(self, tree, capsys):
        code = lint_cli.main(
            ["--config", str(tree / "nope.toml"), str(tree / "src")]
        )
        assert code == lint_cli.EXIT_USAGE

    @needs_toml
    @pytest.mark.parametrize("table, stale", [
        ('enabled = ["RL001", "RL010"]\n', "RL010"),
        ('[tool.reprolint.allow]\nRL011 = ["src/repro/exec"]\n', "RL011"),
    ])
    def test_exit_two_on_unknown_rule_code(self, tree, capsys, table, stale):
        # A code no rule registers (here: deleted rules) must not
        # become a silent no-op; the run stops and names it.
        config = tree / "pyproject.toml"
        config.write_text("[tool.reprolint]\n" + table)
        code = lint_cli.main(["--config", str(config), str(tree / "src")])
        assert code == lint_cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(config) in err
        assert f"unknown rule code {stale}" in err

    @needs_toml
    def test_exit_two_on_unparseable_toml(self, tree, capsys):
        config = tree / "pyproject.toml"
        config.write_text('[tool.reprolint]\nenabled = ["RL001"\n')
        code = lint_cli.main(["--config", str(config), str(tree / "src")])
        assert code == lint_cli.EXIT_USAGE
        assert str(config) in capsys.readouterr().err

    def test_json_format_is_machine_readable(self, tree, capsys):
        assert lint_cli.main(
            ["--format", "json", str(tree / "src")]
        ) == lint_cli.EXIT_FINDINGS
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1
        finding = document["diagnostics"][0]
        assert finding["code"] == "RL002"
        assert finding["path"].endswith("dirty.py")
        assert (finding["line"], finding["col"]) == (1, 1)

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_cli.main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "2  usage error" in out

    def test_list_rules_covers_catalogue(self, capsys):
        assert lint_cli.main(["--list-rules"]) == lint_cli.EXIT_CLEAN
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL007", "RL008",
        ]
