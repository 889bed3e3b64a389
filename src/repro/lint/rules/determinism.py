"""determinism — simulation paths may not consult wall clocks or
unseeded entropy.

Every simulator tier promises bit-identical reruns for equal specs and
seeds; the fast paths are arbitrated ``==`` against slow paths on that
assumption, and the caches key on fingerprints that do not include "when
did this run".  Inside the simulation packages (``kernels/``, ``graph/``,
``serve/``, ``fleet/``, ``faults/``, ``sim/``) and the reference oracles
they are checked against (``oracles/``) this rule therefore bans

* wall-clock reads: ``time.time``/``monotonic``/``perf_counter`` (and
  ``_ns`` variants), ``datetime.now``/``utcnow``/``today``;
* ambient entropy: ``os.urandom``, ``uuid.uuid1``/``uuid4``, anything
  from ``secrets``, module-level ``random.*`` calls (``random.Random``
  with a seed argument is the sanctioned constructor), and module-level
  ``numpy.random.*`` calls (``default_rng(seed)`` is the sanctioned
  constructor);
* unseeded generator construction: ``Random()`` / ``default_rng()``
  with no arguments;
* iteration over a bare set display / ``set(...)`` call — set order is
  not deterministic across processes; sort first.

Files outside the scoped packages (CLI, plotting, observability
manifests that explicitly stamp wall-clock provenance) are exempt;
standalone files outside the ``repro`` package are checked in full so
fixtures and scratch scripts get the strict treatment.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import Finding, LintFile, Project, Rule

__all__ = ["DeterminismRule", "SCOPED_PACKAGES"]

SCOPED_PACKAGES = {
    "kernels", "graph", "serve", "fleet", "faults", "sim", "oracles",
}

_WALL_CLOCK = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "clock_gettime",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}
_ENTROPY = {
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}
_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
}
_RANDOM_ALLOWED = {"Random"}


def _in_scope(lint_file: LintFile) -> bool:
    parts = lint_file.module.split(".")
    if parts[0] != "repro":
        return True
    return any(part in SCOPED_PACKAGES for part in parts)


def _call_banned(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            attrs = _WALL_CLOCK.get(base.id)
            if attrs and func.attr in attrs:
                return (
                    f"wall-clock call {base.id}.{func.attr}() breaks "
                    "bit-identical reruns; thread times through specs/seeds"
                )
            attrs = _ENTROPY.get(base.id)
            if attrs and func.attr in attrs:
                return (
                    f"{base.id}.{func.attr}() draws ambient entropy; "
                    "derive randomness from the spec seed"
                )
            if base.id == "secrets":
                return (
                    "secrets.* is non-deterministic by design; use a "
                    "seeded Random/default_rng instead"
                )
            if base.id == "random" and func.attr not in _RANDOM_ALLOWED:
                return (
                    f"module-level random.{func.attr}() uses the shared "
                    "unseeded generator; construct random.Random(seed)"
                )
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
            and func.attr not in _NP_RANDOM_ALLOWED
        ):
            return (
                f"module-level numpy.random.{func.attr}() uses the shared "
                "global state; construct np.random.default_rng(seed)"
            )
    name = (
        func.id if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute)
        else None
    )
    if name == "default_rng" and not node.args and not node.keywords:
        return (
            "default_rng() without a seed is entropy-seeded; pass the "
            "spec/scenario seed explicitly"
        )
    if name == "Random" and not node.args and not node.keywords:
        return (
            "Random() without a seed is entropy-seeded; pass the "
            "spec/scenario seed explicitly"
        )
    if name == "SystemRandom":
        return "SystemRandom is OS entropy; use a seeded random.Random"
    return None


def _is_bare_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no wall-clock, ambient-entropy, or unseeded-RNG calls and no "
        "bare-set iteration inside the simulation packages"
    )

    def check_file(
        self, project: Project, lint_file: LintFile
    ) -> Iterable[Finding]:
        if not _in_scope(lint_file):
            return
        for node in ast.walk(lint_file.tree):
            if isinstance(node, ast.Call):
                message = _call_banned(node)
                if message is not None:
                    yield self.finding(lint_file, node.lineno, message)
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_bare_set(it):
                    yield self.finding(
                        lint_file, it.lineno,
                        "iteration order over a bare set is not "
                        "deterministic across processes; wrap it in "
                        "sorted(...)",
                    )
