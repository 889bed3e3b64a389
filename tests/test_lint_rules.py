"""Rule-engine coverage: fixtures, suppressions, reporters, CLI.

Each rule must fire on its bad fixture and stay silent on its good one;
suppression comments must divert findings (with mandatory
justifications) without hiding them from the JSON report; and seeding a
deliberate violation into a copy of the real source must light the
linter up — the acceptance drill for the CI gate.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.api.registry import UnknownNameError
from repro.lint import run_lint, to_json_doc
from repro.lint.engine import SUPPRESSION_RULE

FIXTURES = Path(__file__).parent / "lint_fixtures"
PACKAGE_DIR = Path(repro.__file__).parent

RULE_FIXTURES = [
    ("fingerprint-completeness", "fingerprint"),
    ("spec-hygiene", "spec_hygiene"),
    ("determinism", "determinism"),
    ("fast-slow-parity", "parity"),
]


@pytest.mark.parametrize("rule,stem", RULE_FIXTURES)
def test_rule_fires_on_bad_fixture(rule, stem):
    report = run_lint([FIXTURES / f"{stem}_bad.py"], rules=[rule])
    assert report.findings, f"{rule} stayed silent on its bad fixture"
    assert all(f.rule == rule for f in report.findings)
    assert all(f.line > 0 for f in report.findings)


@pytest.mark.parametrize("rule,stem", RULE_FIXTURES)
def test_rule_silent_on_good_fixture(rule, stem):
    report = run_lint([FIXTURES / f"{stem}_good.py"], rules=[rule])
    assert report.ok, "\n".join(f.render() for f in report.findings)


def test_fingerprint_rule_names_the_leaked_field_and_stale_exclusion():
    report = run_lint(
        [FIXTURES / "fingerprint_bad.py"], rules=["fingerprint-completeness"]
    )
    messages = [f.message for f in report.findings]
    assert any("'gamma'" in m for m in messages)
    assert any("'ghost'" in m for m in messages)
    assert len(report.findings) == 2


def test_spec_hygiene_flags_each_violation_kind():
    report = run_lint(
        [FIXTURES / "spec_hygiene_bad.py"], rules=["spec-hygiene"]
    )
    text = "\n".join(f.message for f in report.findings)
    assert "ThawedSpec" in text and "frozen=True" in text
    assert "UnfrozenSpec" in text
    assert "mutable default" in text
    assert "lambda default" in text
    assert "lambda default_factory" in text
    assert "InnerSpec" in text and "top level" in text


def test_determinism_covers_every_ban_class():
    report = run_lint(
        [FIXTURES / "determinism_bad.py"], rules=["determinism"]
    )
    text = "\n".join(f.message for f in report.findings)
    assert "time.time()" in text
    assert "os.urandom()" in text
    assert "random.random()" in text
    assert "numpy.random.rand()" in text
    assert text.count("without a seed") == 2
    assert "bare set" in text


def test_parity_reports_unmarked_and_orphaned():
    report = run_lint([FIXTURES / "parity_bad.py"], rules=["fast-slow-parity"])
    text = "\n".join(f.message for f in report.findings)
    assert "fast_unmarked" in text
    assert "ghost_module.missing_reference" in text
    assert len(report.findings) == 2


# -- suppressions -------------------------------------------------------------


def test_suppression_with_justification_diverts_the_finding():
    report = run_lint([FIXTURES / "suppressed_ok.py"], rules=["determinism"])
    assert report.ok
    assert len(report.suppressed) == 2  # trailing and standalone comments
    for finding in report.suppressed:
        assert finding.suppressed
        assert "fixture" in finding.justification


def test_suppression_without_justification_is_a_finding():
    report = run_lint(
        [FIXTURES / "suppressed_nojust.py"], rules=["determinism"]
    )
    assert [f.rule for f in report.findings] == [SUPPRESSION_RULE]
    assert len(report.suppressed) == 1  # the diverted finding is retained


def test_unknown_rule_name_lists_the_valid_rules():
    with pytest.raises(UnknownNameError, match="fingerprint-completeness"):
        run_lint([FIXTURES / "parity_good.py"], rules=["no-such-rule"])


# -- JSON reporter ------------------------------------------------------------


def test_json_reporter_schema():
    report = run_lint(
        [FIXTURES / "determinism_bad.py", FIXTURES / "suppressed_ok.py"],
        rules=["determinism"],
    )
    doc = to_json_doc(report)
    assert doc["version"] == 1
    assert doc["tool"] == "repro-lint"
    assert doc["ok"] is False
    assert doc["files"] == 2
    assert doc["rules"] == ["determinism"]
    assert doc["counts"]["findings"] == len(doc["findings"]) > 0
    assert doc["counts"]["suppressed"] == len(doc["suppressed"]) == 2
    assert doc["counts"]["by_rule"] == {"determinism": len(doc["findings"])}
    for entry in doc["findings"]:
        assert set(entry) == {"rule", "path", "line", "message"}
        assert isinstance(entry["line"], int)
    for entry in doc["suppressed"]:
        assert entry["suppressed"] is True
        assert entry["justification"]
    json.dumps(doc)  # round-trips


# -- seeded violations against real source (the CI-gate drill) ---------------


def test_dropping_the_fingerprint_exclusion_fires(tmp_path):
    source = (PACKAGE_DIR / "graph" / "straggler.py").read_text()
    mutated = source.replace('_fingerprint_exclude = ("name",)',
                             "_fingerprint_exclude = ()")
    assert mutated != source
    target = tmp_path / "straggler_mutated.py"
    target.write_text(mutated)
    report = run_lint([target], rules=["fingerprint-completeness"])
    assert any("'name'" in f.message for f in report.findings)


def test_injecting_wall_clock_into_scheduler_fires(tmp_path):
    source = (PACKAGE_DIR / "graph" / "scheduler.py").read_text()
    mutated = source + (
        "\n\nimport time\n\n\ndef _stamp() -> float:\n"
        "    return time.time()\n"
    )
    target = tmp_path / "scheduler_mutated.py"
    target.write_text(mutated)
    report = run_lint([target], rules=["determinism"])
    assert any("time.time()" in f.message for f in report.findings)


# -- CLI ----------------------------------------------------------------------


def test_cli_lint_fails_on_findings_and_writes_json(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "findings.json"
    code = main([
        "lint", str(FIXTURES / "determinism_bad.py"),
        "--rule", "determinism", "--json", str(out_path),
    ])
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["ok"] is False and doc["findings"]
    capsys.readouterr()


def test_cli_fail_on_none_reports_but_exits_zero(capsys):
    from repro.cli import main

    code = main([
        "lint", str(FIXTURES / "determinism_bad.py"),
        "--rule", "determinism", "--fail-on", "none",
    ])
    assert code == 0
    assert "[determinism]" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule, _ in RULE_FIXTURES:
        assert rule in out
