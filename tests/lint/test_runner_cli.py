"""Runner and CLI behavior, plus the self-check: the tree lints clean."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import LINT_SCHEMA_VERSION, Project, collect_files, lint_file, run_lint
from repro.lint.cli import main as lint_main
from repro.runtime import cli as runtime_cli

ROOT = Path(__file__).resolve().parents[2]

BAD_SIM_SOURCE = textwrap.dedent(
    """
    import random

    def jitter():
        return random.random()
    """
)


def _write_fixture_tree(tmp_path, source=BAD_SIM_SOURCE):
    """A file whose path resolves to a ``repro.sim`` module for the checkers."""
    target = tmp_path / "repro" / "sim" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    return target


# -- self-check: the repository honours its own contracts ---------------------------


def test_repro_lint_is_clean_on_src():
    report = run_lint([str(ROOT / "src")], root=str(ROOT))
    assert report.files_scanned > 50
    assert report.suppressed >= 1  # the documented bitwise/seed exceptions
    assert report.findings == []
    assert report.clean


# -- file collection ----------------------------------------------------------------


def test_collect_files_sorts_dedups_and_skips_caches(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-310.py").write_text("", encoding="utf-8")
    files = collect_files([str(tmp_path), str(tmp_path / "pkg" / "a.py")])
    assert files == [str(tmp_path / "pkg" / "a.py"), str(tmp_path / "pkg" / "b.py")]


def test_collect_files_rejects_missing_paths(tmp_path):
    with pytest.raises(ConfigurationError):
        collect_files([str(tmp_path / "nowhere")])


# -- runner semantics ---------------------------------------------------------------


def test_run_lint_reports_fixture_findings(tmp_path):
    target = _write_fixture_tree(tmp_path)
    report = run_lint([str(tmp_path)], root=str(ROOT))
    assert [f.rule for f in report.findings] == ["DET001"]
    assert report.findings[0].path == str(target)
    assert not report.clean


def test_run_lint_select_and_ignore_filter_rules(tmp_path):
    _write_fixture_tree(tmp_path)
    selected = run_lint([str(tmp_path)], select=["DET"], root=str(ROOT))
    assert [f.rule for f in selected.findings] == ["DET001"]
    ignored = run_lint([str(tmp_path)], ignore=["DET001"], root=str(ROOT))
    assert ignored.findings == []
    off_target = run_lint([str(tmp_path)], select=["TRC"], root=str(ROOT))
    assert off_target.findings == []


def test_run_lint_rejects_unknown_rule_patterns(tmp_path):
    with pytest.raises(ConfigurationError):
        run_lint([str(tmp_path)], select=["NOPE"], root=str(ROOT))


def test_lint_file_reports_syntax_errors_as_lnt003(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n", encoding="utf-8")
    findings, suppressed = lint_file(str(target), Project(str(ROOT)))
    assert suppressed == 0
    assert [f.rule for f in findings] == ["LNT003"]


# -- CLI ----------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    _write_fixture_tree(tmp_path)
    assert lint_main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "1 finding(s)" in out

    clean = tmp_path / "repro" / "sim" / "bad.py"
    clean.write_text("def jitter():\n    return 0.5\n", encoding="utf-8")
    assert lint_main(["lint", str(tmp_path)]) == 0
    assert "repro lint: clean" in capsys.readouterr().out

    assert lint_main(["lint", str(tmp_path), "--select", "NOPE"]) == 2


def test_cli_json_output_matches_the_schema(tmp_path, capsys):
    _write_fixture_tree(tmp_path)
    assert lint_main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == LINT_SCHEMA_VERSION
    assert payload["files_scanned"] == 1
    assert payload["summary"] == {"DET001": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["severity"] == "error"


def test_cli_list_rules_documents_the_catalogue(capsys):
    assert lint_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "TRC004", "SPEC001", "FLT002", "API001", "LNT001"):
        assert rule_id in out


def test_lint_subcommand_is_wired_into_the_repro_cli(tmp_path, capsys):
    _write_fixture_tree(tmp_path)
    assert runtime_cli.main(["lint", str(tmp_path)]) == 1
    assert "DET001" in capsys.readouterr().out
