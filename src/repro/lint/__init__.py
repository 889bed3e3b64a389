"""repro.lint — AST invariant checks for the repo's correctness contracts.

Nine PRs of growth rest on a handful of conventions that plain tests
only enforce where they happen to look: complete cache-key
fingerprints, frozen pickle-stable specs, seed-determinism inside the
simulators, and declared fast/slow parity pairs.  This package enforces
them mechanically on every commit.

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
