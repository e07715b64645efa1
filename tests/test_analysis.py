"""Tests for ``python tools/analyze`` — the AST invariant checker.

Every rule is proven three ways from fixture snippets under
``tests/analysis_fixtures/<rule>/``:

* ``flagged.py`` — violations the rule must catch;
* ``clean.py`` — idiomatic code the rule must pass (including the
  sanctioned idioms: seeded RNGs, masked shifts, TYPE_CHECKING
  imports, per-run config copies, typed excepts);
* ``suppressed.py`` — a violation carrying ``# repro: allow[<id>]``,
  which must drop out of the active findings but stay visible as a
  suppressed finding.

Module-scoped rules (dtype, shift-mask, layering) are exercised by
impersonating an in-scope module via ``analyze_source``'s ``name=``
override.  On top of the per-rule fixtures: the JSON schema
round-trips, the CLI honours the 0/1/2 exit-code contract, and —
the gate itself — ``src/repro`` and the analyzer analyze clean.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from analyze import (  # noqa: E402
    JSON_FORMAT_VERSION,
    Finding,
    Suppressions,
    UnknownRuleError,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
)
from analyze.cli import main  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
SRC_TREE = REPO_ROOT / "src" / "repro"
TOOL_TREE = REPO_ROOT / "tools" / "analyze"

#: rule id -> (fixture directory, impersonated module name).  The
#: module-scoped rules see fixture code as a kernel / align-layer
#: module; unscoped rules need no identity.
RULE_FIXTURES = {
    "determinism": ("determinism", None),
    "dtype": ("dtype", "repro.index.minimizer"),
    "shift-mask": ("shift_mask", "repro.index.minimizer"),
    "fork-safety": ("fork_safety", None),
    "layering": ("layering", "repro.align.fixture"),
    "except-hygiene": ("except_hygiene", None),
}


def run_fixture(rule_id: str, variant: str):
    directory, module_name = RULE_FIXTURES[rule_id]
    path = FIXTURES / directory / f"{variant}.py"
    return analyze_source(path.read_text(), path=str(path),
                          name=module_name, rule_ids=[rule_id])


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_all_rules_registered():
    ids = [rule.id for rule in all_rules()]
    assert sorted(RULE_FIXTURES) == ids
    assert len(ids) >= 6


def test_rules_carry_summary_and_rationale():
    for rule in all_rules():
        assert rule.summary
        assert rule.rationale


def test_unknown_rule_lists_registered():
    with pytest.raises(UnknownRuleError) as excinfo:
        get_rule("no-such-rule")
    message = excinfo.value.args[0]
    assert "no-such-rule" in message
    assert "determinism" in message


# ----------------------------------------------------------------------
# Per-rule fixtures: flagged / clean / suppressed
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_flags_violations(rule_id):
    report = run_fixture(rule_id, "flagged")
    assert report.findings, f"{rule_id}: flagged fixture not flagged"
    assert all(f.rule == rule_id for f in report.findings)
    assert report.exit_code() == 1


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_passes_clean_code(rule_id):
    report = run_fixture(rule_id, "clean")
    assert not report.findings, (
        f"{rule_id} false positives: "
        + "; ".join(f.format_text() for f in report.findings)
    )
    assert report.exit_code() == 0


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_suppression_comment(rule_id):
    report = run_fixture(rule_id, "suppressed")
    assert not report.findings
    assert report.suppressed, (
        f"{rule_id}: suppressed fixture produced no finding at all"
    )
    assert all(f.rule == rule_id for f in report.suppressed)
    assert report.exit_code() == 0


def test_flagged_fixture_counts():
    # Each fixture violates once per offending statement; pin the
    # counts so a silently narrowed rule cannot pass the >= 1
    # assertion above.
    report = run_fixture("determinism", "flagged")
    assert len(report.findings) == 5
    report = run_fixture("fork-safety", "flagged")
    # 4 global/module writes + 1 pool lambda
    assert len(report.findings) == 5


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def test_suppression_window_and_multi_id():
    source = (
        "# repro: allow[rule-a, rule-b]\n"
        "x = 1\n"
        "y = 2\n"
    )
    sup = Suppressions(source)
    assert sup.is_suppressed("rule-a", 2, 2)  # line above
    assert sup.is_suppressed("rule-b", 1, 1)  # same line
    assert not sup.is_suppressed("rule-a", 3, 3)
    assert not sup.is_suppressed("rule-c", 2, 2)
    assert sup.rule_ids() == frozenset({"rule-a", "rule-b"})


def test_suppression_requires_rule_id():
    # A bare allow comment (no [rule-id]) suppresses nothing.
    report = analyze_source(
        "import time\nstamp = time.time()  # repro: allow\n",
        rule_ids=["determinism"],
    )
    assert len(report.findings) == 1


# ----------------------------------------------------------------------
# JSON schema
# ----------------------------------------------------------------------

def test_json_report_round_trip():
    report = run_fixture("determinism", "flagged")
    payload = json.loads(report.to_json())
    assert payload["version"] == JSON_FORMAT_VERSION
    assert payload["files_scanned"] == 1
    assert payload["rules"] == ["determinism"]
    assert len(payload["findings"]) == len(report.findings)
    for entry in payload["findings"]:
        assert entry["suppressed"] is False
        restored = Finding.from_dict(
            {k: v for k, v in entry.items() if k != "suppressed"})
        assert restored in report.findings
        assert ":" in restored.format_text()
        assert f"[{restored.rule}]" in restored.format_text()


def test_json_reports_suppressed_findings():
    report = run_fixture("determinism", "suppressed")
    payload = json.loads(report.to_json())
    flags = [entry["suppressed"] for entry in payload["findings"]]
    assert flags == [True]


def test_finding_rejects_bad_severity():
    with pytest.raises(ValueError):
        Finding(path="x.py", line=1, col=0, rule="r",
                message="m", severity="fatal")


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------

def test_parse_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = analyze_paths([bad])
    assert report.exit_code() == 1
    assert [f.rule for f in report.findings] == ["parse-error"]


def test_analyze_paths_deduplicates(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    report = analyze_paths([tmp_path, target])
    assert report.files_scanned == 1


def test_scoped_rules_skip_out_of_scope_modules():
    # The same inferred-dtype source is a finding only inside a kernel
    # module; everywhere else the dtype rule does not apply.
    source = "import numpy as np\nstate = np.zeros(8)\n"
    scoped = analyze_source(source, name="repro.index.minimizer",
                            rule_ids=["dtype"])
    unscoped = analyze_source(source, name="repro.eval.report",
                              rule_ids=["dtype"])
    assert len(scoped.findings) == 1
    assert not unscoped.findings


# ----------------------------------------------------------------------
# The gate: the shipped tree is clean
# ----------------------------------------------------------------------

def test_src_tree_is_clean():
    report = analyze_paths([SRC_TREE, TOOL_TREE])
    assert report.exit_code() == 0, "\n" + report.format_text()
    assert report.files_scanned > 50
    # The exceptions are a fixed budget: deleting code must not buy
    # its way past a rule with a new ``# repro: allow[...]``.
    assert len(report.suppressed) <= 2, "\n" + "\n".join(
        str(finding.to_dict()) for finding in report.suppressed)
    # Every in-tree suppression must name a registered rule (a typo'd
    # id would silently suppress nothing — caught above — but a stale
    # allow for an unregistered rule is dead weight).
    registered = {rule.id for rule in all_rules()}
    for path in sorted([*SRC_TREE.rglob("*.py"),
                        *TOOL_TREE.rglob("*.py")]):
        for rule_id in Suppressions(path.read_text()).rule_ids():
            assert rule_id in registered, f"{path}: allow[{rule_id}]"


def test_gate_as_ci_runs_it():
    """The CI step itself: the tool run as a directory from the
    repository root, over the product and over the analyzer."""
    done = subprocess.run(
        [sys.executable, "tools/analyze", "src/repro", "tools/analyze"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 findings (2 suppressed)" in done.stdout
    assert done.stdout.rstrip().endswith(
        "rules: " + ", ".join(sorted(RULE_FIXTURES)))


def test_repro_has_no_analyze_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        repro_main(["analyze", "src"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'analyze'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI contract: exit 0 clean / 1 findings / 2 usage error
# ----------------------------------------------------------------------

def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("import math\nx = math.pi\n")
    assert main([str(clean)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_exit_one_on_findings(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nstamp = time.time()\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out


def test_cli_exit_two_on_unknown_rule(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    assert main(["--rule", "bogus", str(target)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely/not/here.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nstamp = time.time()\n")
    assert main(["--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_FORMAT_VERSION
    assert payload["findings"][0]["rule"] == "determinism"


def test_cli_rule_selection(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nstamp = time.time()\n")
    assert main(["--rule", "except-hygiene", str(dirty)]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out
