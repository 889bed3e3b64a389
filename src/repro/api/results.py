"""Unified result container for declarative experiments.

A :class:`ResultSet` holds one :class:`ResultRow` per ``(Scenario,
system)`` pair that ran, plus one :class:`SkipRecord` per pair a system
declined (:class:`~repro.systems.base.UnsupportedWorkload`), so consumers
can annotate missing bars instead of silently omitting them.  Figure
runners become thin queries — ``filter``, ``best``, ``speedup_over`` —
instead of bespoke sweep loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.runtime.model_runner import ModelTiming
from repro.runtime.workload import MoELayerWorkload
from repro.systems.base import LayerTiming

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.scenario import Scenario

__all__ = ["Column", "ResultRow", "ResultSet", "SkipRecord", "rows_to_csv"]


@dataclass(frozen=True)
class Column:
    """One optional export column of a result set.

    ``header`` names the column in ``to_rows``/``to_table`` (and so in
    CSV), ``key`` names it in ``to_json``, and ``value`` reads its cell
    from a row's source (a scenario, report or skip).  A set carries the
    column in every format exactly when some source departs from
    ``default``, and then every row has a cell, default rows included;
    a set at every default exports as if the column did not exist.

    A column group (the fleet's resilience counters) names a tuple of
    headers and keys; its ``value`` is only what the rule compares, and
    the set's exporters read its cells.
    """

    header: str | tuple[str, ...]
    key: str | tuple[str, ...]
    value: Callable[[Any], Any]
    default: Any

    @staticmethod
    def present(
        table: tuple["Column", ...], sources: Iterable[Any]
    ) -> tuple["Column", ...]:
        """The columns of ``table`` that some source departs from the
        default on, in table order."""
        sources = tuple(sources)
        return tuple(
            c for c in table if any(c.value(s) != c.default for s in sources)
        )


def rows_to_csv(
    headers: list[str], rows: list[list[Any]], path: str | None = None
) -> str:
    """Render ``(headers, rows)`` as CSV text, optionally writing ``path``.

    Shared by :meth:`ResultSet.to_csv` and
    :meth:`repro.serve.metrics.ServeResultSet.to_csv`, so offline sweeps
    and serving reports export with identical conventions.
    """
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


@dataclass(frozen=True)
class SkipRecord:
    """One ``(scenario, system)`` pair a system could not run, and why."""

    scenario: "Scenario"
    system: str
    reason: str


@dataclass(frozen=True)
class ResultRow:
    """Timing of one scenario under one system.

    ``timing`` is always the MoE-layer timing; ``model_timing`` is set
    when the experiment ran at ``level="model"`` (end-to-end forward).
    ``workload`` references the :class:`MoELayerWorkload` the row was
    timed on — the *same object* for every system sharing the scenario,
    which is how geometry caching is observable (and tested).
    """

    scenario: "Scenario"
    system: str
    timing: LayerTiming
    model_timing: ModelTiming | None = None
    workload: MoELayerWorkload | None = field(default=None, repr=False, compare=False)

    @property
    def layer_ms(self) -> float:
        """MoE layer wall-clock in milliseconds."""
        return self.timing.total_us / 1000.0

    @property
    def value_ms(self) -> float:
        """The row's headline metric: end-to-end ms at model level,
        layer ms at layer level.

        Model-level rows report the graph-backed makespan under the
        scenario's overlap policy — identical to the additive total for
        ``per_layer`` (the equivalence tests enforce bit equality)."""
        if self.model_timing is not None:
            return self.model_timing.makespan_ms
        return self.layer_ms


def _match_system(row_system: str, wanted: str) -> bool:
    return row_system.lower() == wanted.lower()


def _scenario_matches(scenario: "Scenario", **criteria: Any) -> bool:
    model = criteria.get("model")
    if model is not None:
        if isinstance(model, str):
            if scenario.config.name.lower() != model.lower():
                return False
        elif scenario.config != model:
            return False
    cluster = criteria.get("cluster")
    if cluster is not None:
        if isinstance(cluster, str):
            if scenario.cluster.name.lower() != cluster.lower():
                return False
        elif scenario.cluster != cluster:
            return False
    strategy = criteria.get("strategy")
    if strategy is not None:
        if isinstance(strategy, str):
            if str(scenario.strategy).lower() != strategy.lower():
                return False
        elif isinstance(strategy, tuple):
            if (scenario.strategy.tp_size, scenario.strategy.ep_size) != strategy:
                return False
        elif scenario.strategy != strategy:
            return False
    for attr, key in (
        ("tp_size", "tp"),
        ("ep_size", "ep"),
    ):
        wanted = criteria.get(key)
        if wanted is not None and getattr(scenario.strategy, attr) != wanted:
            return False
    for key in ("tokens", "imbalance_std", "seed", "overlap_policy"):
        wanted = criteria.get(key)
        if wanted is not None and getattr(scenario, key) != wanted:
            return False
    stragglers = criteria.get("stragglers")
    if stragglers is not None:
        if isinstance(stragglers, (int, float)) and not isinstance(
            stragglers, bool
        ):
            # The float slow-rank shorthand, resolved per scenario
            # (against that scenario's world size) by the same helper
            # the grid axes use, so filter criteria and grid inputs can
            # never drift apart; 1.0 normalises to the baseline.
            from repro.api.scenario import _as_straggler_axis

            (stragglers,) = _as_straggler_axis(
                (stragglers,), scenario.cluster.world_size
            )
            if stragglers is None:
                stragglers = "uniform"
        if isinstance(stragglers, str):
            if _straggler_label(scenario).lower() != stragglers.lower():
                return False
        elif getattr(stragglers, "is_uniform", False):
            # A uniform spec is the baseline, which scenarios store as
            # None (or an explicit uniform spec) — both label forms
            # ("uniform") and spec forms must select the same rows.
            if not (
                scenario.stragglers is None or scenario.stragglers.is_uniform
            ):
                return False
        elif scenario.stragglers != stragglers:
            return False
    return True


def _straggler_label(scenario: "Scenario") -> str:
    """Export-cell value of a scenario's straggler axis (``uniform``
    for the baseline, whether unset or an explicit uniform spec)."""
    spec = scenario.stragglers
    if spec is None or spec.is_uniform:
        return "uniform"
    return spec.label


_STRAGGLERS = Column("stragglers", "stragglers", _straggler_label, "uniform")


@dataclass(frozen=True)
class ResultSet:
    """Rows of ``(Scenario, system, LayerTiming)`` plus skip records.

    ``grid`` preserves the expansion order of the originating
    :class:`~repro.api.scenario.ExperimentSpec`, so figure tables render
    rows in the same order the paper plots them.  ``manifest`` is the
    run-provenance record (:class:`repro.obs.RunManifest`) attached by
    :meth:`ExperimentSpec.run`; it is deterministic (no wall-clock
    unless explicitly stamped) so identical specs export identical JSON.
    """

    rows: tuple[ResultRow, ...]
    skips: tuple[SkipRecord, ...] = ()
    grid: tuple["Scenario", ...] = ()
    manifest: Any = None

    # The optional export columns, read from the set's scenarios
    # (all-skipped grid points included).
    COLUMNS = (
        Column("policy", "overlap_policy", lambda s: s.overlap_policy, "per_layer"),
        _STRAGGLERS,
    )

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # -- structure -----------------------------------------------------------
    def scenarios(self) -> tuple["Scenario", ...]:
        """Unique scenarios, in grid order (including all-skipped ones)."""
        if self.grid:
            return tuple(dict.fromkeys(self.grid))
        seen = dict.fromkeys(r.scenario for r in self.rows)
        seen.update(dict.fromkeys(s.scenario for s in self.skips))
        return tuple(seen)

    def systems(self) -> tuple[str, ...]:
        """System display names, in execution order."""
        seen = dict.fromkeys(r.system for r in self.rows)
        seen.update(dict.fromkeys(s.system for s in self.skips))
        return tuple(seen)

    @property
    def skipped(self) -> dict[str, str]:
        """``"scenario label/system" -> reason`` for every skipped pair."""
        return {
            f"{record.scenario.label}/{record.system}": record.reason
            for record in self.skips
        }

    # -- point lookups ---------------------------------------------------------
    def get(self, scenario: "Scenario", system: str) -> ResultRow | None:
        for row in self.rows:
            if row.scenario == scenario and _match_system(row.system, system):
                return row
        return None

    def rows_for(self, scenario: "Scenario") -> tuple[ResultRow, ...]:
        return tuple(r for r in self.rows if r.scenario == scenario)

    def timings(self, scenario: "Scenario") -> dict[str, LayerTiming]:
        """``system -> LayerTiming`` for one scenario (execution order)."""
        return {r.system: r.timing for r in self.rows_for(scenario)}

    def durations_ms(self, scenario: "Scenario" | None = None) -> dict[str, float]:
        """``system -> layer ms`` for ``scenario`` (or the single scenario)."""
        if scenario is None:
            unique = self.scenarios()
            if len(unique) != 1:
                raise ValueError(
                    f"durations_ms() needs an explicit scenario when the set "
                    f"holds {len(unique)} scenarios"
                )
            scenario = unique[0]
        return {r.system: r.layer_ms for r in self.rows_for(scenario)}

    # -- queries ---------------------------------------------------------------
    def filter(
        self,
        *,
        model: Any = None,
        cluster: Any = None,
        strategy: Any = None,
        tp: int | None = None,
        ep: int | None = None,
        tokens: int | None = None,
        imbalance_std: float | None = None,
        seed: int | None = None,
        overlap_policy: str | None = None,
        stragglers: Any = None,
        system: str | None = None,
        predicate: Callable[[ResultRow], bool] | None = None,
    ) -> "ResultSet":
        """Narrow to matching rows (skips and grid narrow consistently).

        String criteria are case-insensitive; ``strategy`` accepts a
        :class:`ParallelStrategy`, a ``(tp, ep)`` tuple, or ``"TP1xEP8"``;
        ``stragglers`` accepts a spec or its label (``"uniform"`` matches
        the baseline).
        """
        criteria = dict(
            model=model, cluster=cluster, strategy=strategy, tp=tp, ep=ep,
            tokens=tokens, imbalance_std=imbalance_std, seed=seed,
            overlap_policy=overlap_policy, stragglers=stragglers,
        )

        def keep_scenario(scenario: "Scenario") -> bool:
            return _scenario_matches(scenario, **criteria)

        def keep_row(row: ResultRow) -> bool:
            if not keep_scenario(row.scenario):
                return False
            if system is not None and not _match_system(row.system, system):
                return False
            if predicate is not None and not predicate(row):
                return False
            return True

        return ResultSet(
            rows=tuple(r for r in self.rows if keep_row(r)),
            skips=tuple(
                s
                for s in self.skips
                if keep_scenario(s.scenario)
                and (system is None or _match_system(s.system, system))
            ),
            grid=tuple(s for s in self.grid if keep_scenario(s)),
            manifest=self.manifest,
        )

    def best(self, key: Callable[[ResultRow], float] | None = None) -> ResultRow:
        """The row minimising ``key`` (default: headline milliseconds)."""
        if not self.rows:
            raise ValueError("best() on an empty ResultSet")
        return min(self.rows, key=key or (lambda row: row.value_ms))

    def speedup_over(
        self, baseline: str, system: str = "Comet"
    ) -> dict["Scenario", float]:
        """Per-scenario ``baseline_ms / system_ms`` where both systems ran."""
        out: dict["Scenario", float] = {}
        for scenario in self.scenarios():
            base = self.get(scenario, baseline)
            target = self.get(scenario, system)
            if base is None or target is None:
                continue
            out[scenario] = base.value_ms / target.value_ms
        return out

    def mean_speedup_over(self, baseline: str, system: str = "Comet") -> float:
        speedups = self.speedup_over(baseline, system)
        if not speedups:
            raise ValueError(
                f"no scenario ran both {baseline!r} and {system!r}"
            )
        return sum(speedups.values()) / len(speedups)

    def _columns(self) -> tuple[Column, ...]:
        return Column.present(self.COLUMNS, self.scenarios())

    # -- export ---------------------------------------------------------------
    def to_rows(self) -> tuple[list[str], list[list[Any]]]:
        """Flat ``(headers, rows)`` — one row per (scenario, system), with
        the set's :attr:`COLUMNS` after ``seed``."""
        columns = self._columns()
        headers = [
            "model", "cluster", "strategy", "M", "imbalance", "seed",
            *(c.header for c in columns), "system", "ms",
        ]
        table = [
            [
                r.scenario.config.name,
                r.scenario.cluster.name,
                str(r.scenario.strategy),
                r.scenario.tokens,
                r.scenario.imbalance_std,
                r.scenario.seed,
                *(c.value(r.scenario) for c in columns),
                r.system,
                r.value_ms,
            ]
            for r in self.rows
        ]
        return headers, table

    def to_table(
        self, systems: tuple[str, ...] | None = None
    ) -> tuple[list[str], list[list[Any]]]:
        """Pivoted ``(headers, rows)``: one row per scenario, one column
        per system (``nan`` marks skipped pairs)."""
        order = tuple(systems) if systems is not None else self.systems()
        columns = self._columns()
        headers = [
            "model", "cluster", "strategy", "M", "imbalance",
            *(c.header for c in columns), *order,
        ]
        table = []
        for scenario in self.scenarios():
            by_system = {r.system: r.value_ms for r in self.rows_for(scenario)}
            cells: list[Any] = [
                scenario.config.name,
                scenario.cluster.name,
                str(scenario.strategy),
                scenario.tokens,
                scenario.imbalance_std,
                *(c.value(scenario) for c in columns),
            ]
            for name in order:
                value = by_system.get(name)
                if value is None:
                    for row_name, row_value in by_system.items():
                        if _match_system(row_name, name):
                            value = row_value
                            break
                cells.append(float("nan") if value is None else value)
            table.append(cells)
        return headers, table

    def to_csv(self, path: str | None = None) -> str:
        """CSV of :meth:`to_rows` (spreadsheet-ready), optionally written
        to ``path``; always returns the CSV text."""
        headers, table = self.to_rows()
        return rows_to_csv(headers, table, path)

    def to_json(self, indent: int = 2) -> str:
        """Compact machine-readable dump of rows and skip reasons.

        Each of the set's :attr:`COLUMNS` is a field on every row or on
        none, by the same rule as :meth:`to_rows`.  Model-level rows add
        ``model_makespan_ms`` when any column is present, and the
        per-rank makespans when ``stragglers`` is.
        """
        import dataclasses

        columns = self._columns()

        def row_doc(row: ResultRow) -> dict[str, Any]:
            doc: dict[str, Any] = {
                "model": row.scenario.config.name,
                "cluster": row.scenario.cluster.name,
                "tp": row.scenario.strategy.tp_size,
                "ep": row.scenario.strategy.ep_size,
                "tokens": row.scenario.tokens,
                "imbalance_std": row.scenario.imbalance_std,
                "seed": row.scenario.seed,
                "system": row.system,
                "timing_us": dataclasses.asdict(row.timing),
                "layer_ms": row.layer_ms,
                **{c.key: c.value(row.scenario) for c in columns},
            }
            if row.model_timing is not None:
                doc["model_total_ms"] = row.model_timing.total_ms
                doc["attention_us"] = row.model_timing.attention_us
                if columns:
                    doc["model_makespan_ms"] = row.model_timing.makespan_ms
                if _STRAGGLERS in columns and row.model_timing.rank_makespans_us:
                    doc["rank_makespans_ms"] = [
                        span / 1000.0
                        for span in row.model_timing.rank_makespans_us
                    ]
                    doc["imbalance_ms"] = row.model_timing.imbalance_us / 1000.0
            return doc

        payload: dict[str, Any] = {
            "rows": [row_doc(r) for r in self.rows],
            "skipped": [
                {
                    "scenario": s.scenario.label,
                    "system": s.system,
                    "reason": s.reason,
                }
                for s in self.skips
            ],
        }
        if self.manifest is not None:
            payload["manifest"] = self.manifest.to_dict()
        return json.dumps(payload, indent=indent, sort_keys=True)
