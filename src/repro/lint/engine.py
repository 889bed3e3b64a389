"""Rule engine for :mod:`repro.lint` — files, suppressions, findings.

The engine is deliberately small: it parses every target file once into
an :class:`LintFile` (source, AST, comment map, suppression map), builds
a :class:`Project` index of qualified definitions, runs each registered
:class:`Rule`, and splits the produced :class:`Finding` stream into
active and suppressed halves.

Suppression grammar (one comment, same line as the finding or a
standalone comment on the line directly above)::

    # repro-lint: disable=RULE[,RULE...] -- justification text
    # repro-lint: disable=all -- justification text

The justification is *mandatory*: a suppression without ``--  why`` is
itself reported under the built-in ``suppression`` rule, so every
silenced finding carries its reason in the source.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "Finding",
    "LintFile",
    "LintReport",
    "Project",
    "Rule",
    "SUPPRESSION_RULE",
    "Suppression",
    "run_lint",
]

SUPPRESSION_RULE = "suppression"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}]{tag} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro-lint: disable=...`` comment.

    ``rules`` is ``None`` for ``disable=all``; ``line`` is the source
    line the suppression *applies to* (the comment's own line for
    trailing comments, the next statement line for standalone ones).
    """

    line: int
    comment_line: int
    rules: frozenset[str] | None
    justification: str | None


class LintFile:
    """One parsed source file: AST, comments, and suppressions."""

    def __init__(self, path: Path, source: str, root: Path | None = None):
        self.path = path
        self.display_path = _display_path(path, root)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.module = _module_name(path)
        #: comment text keyed by line number (1-based), via tokenize so
        #: ``#`` inside string literals never counts as a comment.
        self.comments: dict[int, str] = {}
        for tok in _comment_tokens(source):
            self.comments[tok.start[0]] = tok.string
        self.suppressions: dict[int, list[Suppression]] = {}
        for supp in _parse_suppressions(self.comments, self.lines):
            self.suppressions.setdefault(supp.line, []).append(supp)

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        for supp in self.suppressions.get(line, ()):
            if supp.rules is None or rule in supp.rules:
                return supp
        return None


class Project:
    """All files under lint plus the cross-file definition index."""

    def __init__(self, files: Sequence[LintFile]):
        self.files = tuple(files)
        #: fully qualified dotted names (``repro.graph.scheduler.list_schedule``,
        #: ``repro.fleet.simulator.FleetEngine._run_cosim``) of every
        #: module, class, function, and method in the scanned set.
        self.definitions: set[str] = set()
        #: per-file unqualified names, for intra-file references.
        self.local_definitions: dict[str, set[str]] = {}
        for lint_file in self.files:
            locals_ = _collect_definitions(lint_file.tree)
            self.local_definitions[lint_file.display_path] = locals_
            self.definitions.add(lint_file.module)
            self.definitions.update(
                f"{lint_file.module}.{name}" for name in locals_
            )


class Rule:
    """Base class for analyzers.

    Per-file rules override :meth:`check_file`; whole-project rules
    (cross-file indexes) override :meth:`check_project` instead.
    """

    name: str = ""
    description: str = ""

    def check_project(self, project: Project) -> Iterable[Finding]:
        for lint_file in project.files:
            yield from self.check_file(project, lint_file)

    def check_file(
        self, project: Project, lint_file: LintFile
    ) -> Iterable[Finding]:
        return ()

    def finding(self, lint_file: LintFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.name, path=lint_file.display_path, line=line,
            message=message,
        )


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run."""

    findings: tuple[Finding, ...]
    suppressed: tuple[Finding, ...]
    rules: tuple[str, ...]
    paths: tuple[str, ...]
    file_count: int = 0
    errors: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.findings


def _module_name(path: Path) -> str:
    """Dotted module path; files outside a ``repro`` package root keep
    their bare stem (lint fixtures, scratch files)."""
    parts = list(path.parts)
    if "repro" in parts:
        rel = parts[parts.index("repro"):]
        if rel[-1] == "__init__.py":
            rel = rel[:-1]
        else:
            rel[-1] = rel[-1].removesuffix(".py")
        return ".".join(rel)
    return path.stem


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return str(path.relative_to(root))
        except ValueError:
            pass
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _comment_tokens(source: str):
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        return


def _parse_suppressions(
    comments: dict[int, str], lines: list[str]
) -> Iterable[Suppression]:
    for comment_line, text in comments.items():
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        raw = match.group("rules")
        names = frozenset(
            part.strip() for part in raw.split(",") if part.strip()
        )
        rules = None if "all" in names else names
        code = lines[comment_line - 1]
        standalone = code.lstrip().startswith("#")
        target = comment_line
        if standalone:
            target = _next_code_line(lines, comment_line)
        yield Suppression(
            line=target,
            comment_line=comment_line,
            rules=rules,
            justification=match.group("why"),
        )


def _next_code_line(lines: list[str], after: int) -> int:
    for lineno in range(after + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if stripped and not stripped.startswith("#"):
            return lineno
    return after


class _DefinitionCollector(ast.NodeVisitor):
    def __init__(self) -> None:
        self.names: set[str] = set()
        self._stack: list[str] = []

    def _enter(self, name: str, node: ast.AST) -> None:
        self._stack.append(name)
        self.names.add(".".join(self._stack))
        self.generic_visit(node)
        self._stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node.name, node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node.name, node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node.name, node)


def _collect_definitions(tree: ast.AST) -> set[str]:
    collector = _DefinitionCollector()
    collector.visit(tree)
    return collector.names


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


def _suppression_findings(lint_file: LintFile) -> Iterable[Finding]:
    for supps in lint_file.suppressions.values():
        for supp in supps:
            if supp.justification is None:
                yield Finding(
                    rule=SUPPRESSION_RULE,
                    path=lint_file.display_path,
                    line=supp.comment_line,
                    message=(
                        "suppression without a justification; write "
                        "'# repro-lint: disable=RULE -- why it is safe'"
                    ),
                )


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
    root: str | Path | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return a report.

    ``rules`` restricts the run to a subset of registered rule names
    (resolved through :data:`repro.lint.rules.RULE_REGISTRY`); ``root``
    rebases the report's display paths.
    """
    from repro.lint.rules import RULE_REGISTRY

    resolved = [Path(p) for p in paths]
    root_path = Path(root) if root is not None else None
    active_rules = [
        RULE_REGISTRY.get(name)
        for name in (rules if rules else RULE_REGISTRY.names())
    ]

    files: list[LintFile] = []
    errors: list[str] = []
    for file_path in _iter_python_files(resolved):
        try:
            source = file_path.read_text()
            files.append(LintFile(file_path, source, root=root_path))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{file_path}: {exc}")
    project = Project(files)

    raw: list[Finding] = []
    for rule in active_rules:
        raw.extend(rule.check_project(project))
    for message in errors:
        raw.append(Finding(rule="parse", path=message, line=0,
                           message="file could not be parsed"))

    by_path = {f.display_path: f for f in files}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        lint_file = by_path.get(finding.path)
        supp = (
            lint_file.suppression_for(finding.rule, finding.line)
            if lint_file is not None else None
        )
        if supp is not None:
            suppressed.append(
                replace(finding, suppressed=True,
                        justification=supp.justification)
            )
        else:
            active.append(finding)

    for lint_file in files:
        active.extend(_suppression_findings(lint_file))

    return LintReport(
        findings=tuple(sorted(active, key=lambda f: f.sort_key)),
        suppressed=tuple(sorted(suppressed, key=lambda f: f.sort_key)),
        rules=tuple(rule.name for rule in active_rules),
        paths=tuple(str(p) for p in resolved),
        file_count=len(files),
        errors=tuple(errors),
    )
