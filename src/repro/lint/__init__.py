"""repro.lint — AST invariant checks for the repo's correctness contracts.

Two conventions are properties of the source text rather than of any
run, so no test sees them: specs stay frozen and pickle-stable
(``spec-hygiene``), and the simulators and their oracles never read a
wall clock, draw ambient entropy or iterate a bare set
(``determinism``).  This package enforces both on every commit.  The
runtime contracts — every fast path and cache equals its oracle, and
every cache key covers every input — are checked by the oracle table in
``tests/test_oracles.py`` instead.

Usage::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])
    assert report.ok, report.findings

or from the CLI: ``repro lint [PATH ...] [--rule NAME] [--json OUT]``.

Suppress a finding in place, with a mandatory justification::

    # repro-lint: disable=RULE -- one line saying why this is safe
"""

from __future__ import annotations

from repro.lint.engine import (
    Finding,
    LintFile,
    LintReport,
    Project,
    Rule,
    run_lint,
)
from repro.lint.report import render_text, to_json, to_json_doc
from repro.lint.rules import RULE_REGISTRY

__all__ = [
    "Finding",
    "LintFile",
    "LintReport",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "render_text",
    "run_lint",
    "to_json",
    "to_json_doc",
]
