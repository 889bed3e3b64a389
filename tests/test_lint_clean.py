"""Tier-1 gate: the shipped source tree is lint-clean.

``repro lint src/repro`` exiting 0 is the contract the CI lint job
enforces; this test is the same assertion in-process, so a finding
introduced anywhere in ``src/repro`` fails the ordinary test run too.
"""

from pathlib import Path

import repro
from repro.lint import RULE_REGISTRY, run_lint

PACKAGE_DIR = Path(repro.__file__).parent

EXPECTED_RULES = {
    "fingerprint-completeness",
    "spec-hygiene",
    "determinism",
    "fast-slow-parity",
}


def test_all_six_rules_registered():
    assert EXPECTED_RULES <= set(RULE_REGISTRY.names())


def test_source_tree_is_lint_clean():
    report = run_lint([PACKAGE_DIR])
    assert report.file_count >= 90, "package scan looks truncated"
    assert not report.errors, report.errors
    assert report.ok, "\n" + "\n".join(f.render() for f in report.findings)


def test_every_suppression_carries_a_justification():
    report = run_lint([PACKAGE_DIR])
    for finding in report.suppressed:
        assert finding.justification, finding.render()


def test_cli_lint_exits_zero_on_clean_tree(capsys):
    from repro.cli import main

    assert main(["lint", str(PACKAGE_DIR)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
