"""Serving metrics: latency percentiles, SLO goodput, and timelines.

Online serving is judged on different axes than the repository's offline
sweeps: time-to-first-token (TTFT), time-per-output-token (TPOT),
end-to-end request latency, and *goodput* — the rate of requests that
met their SLO — rather than raw layer milliseconds.  A
:class:`ServeReport` packages those for one (scenario, system) pair, and
:class:`ServeResultSet` collects reports across systems/scenarios with
the same flat-row export conventions as
:class:`~repro.api.results.ResultSet` (``to_rows`` / ``to_json`` /
``to_csv``), so serving results drop into the same spreadsheets and
plotting pipelines.  :class:`ReportCore` holds the latency and SLO
metrics every serving report shares, the fleet's included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.results import rows_to_csv

__all__ = [
    "ReportCore",
    "RequestRecord",
    "ServeReport",
    "ServeResultSet",
    "ServeSkip",
    "TimelinePoint",
    "percentiles",
]

PERCENTILES = (50, 95, 99)


def percentiles(values: list[float] | tuple[float, ...]) -> dict[str, float]:
    """p50/p95/p99 with linear interpolation (NaN on empty input).

    The NaN marker is for *interactive* consumers who can render it;
    exports must not leak it — :meth:`ReportCore._latency` guards the
    ``count == 0`` case explicitly (``None`` instead of NaN), which both
    the CSV and JSON paths serialise as an empty/null cell.
    """
    if not values:
        return {f"p{q}": float("nan") for q in PERCENTILES}
    arr = np.asarray(values, dtype=np.float64)
    return {
        f"p{q}": float(np.percentile(arr, q, method="linear"))
        for q in PERCENTILES
    }


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one served request (all times simulated ms)."""

    rid: int
    arrival_ms: float
    first_token_ms: float
    completion_ms: float
    prompt_tokens: int
    output_tokens: int

    @property
    def ttft_ms(self) -> float:
        """Time-to-first-token: arrival until the prefill's token lands."""
        return self.first_token_ms - self.arrival_ms

    @property
    def tpot_ms(self) -> float:
        """Mean time per output token after the first (0 for 1-token outputs)."""
        if self.output_tokens <= 1:
            return 0.0
        return (self.completion_ms - self.first_token_ms) / (self.output_tokens - 1)

    @property
    def e2e_ms(self) -> float:
        return self.completion_ms - self.arrival_ms

    def meets_slo(self, slo_ttft_ms: float, slo_tpot_ms: float) -> bool:
        return self.ttft_ms <= slo_ttft_ms and self.tpot_ms <= slo_tpot_ms


@dataclass(frozen=True)
class TimelinePoint:
    """Scheduler state sampled at the start of one engine iteration."""

    t_ms: float
    queue_depth: int
    batch_tokens: int
    running: int


class ReportCore:
    """The latency and SLO core every serving report shares (a mixin
    with no fields).

    The host dataclass provides ``records``, ``slo_ttft_ms``,
    ``slo_tpot_ms`` and ``horizon_ms`` — the arrival window of the
    trace, which goodput divides SLO-attaining completions by, so a
    system that drains an overload backlog long after the trace ended
    is not credited extra time.
    """

    # -- latency ------------------------------------------------------------
    def ttft_percentiles(self) -> dict[str, float]:
        return percentiles([r.ttft_ms for r in self.records])

    def tpot_percentiles(self) -> dict[str, float]:
        return percentiles([r.tpot_ms for r in self.records])

    def e2e_percentiles(self) -> dict[str, float]:
        return percentiles([r.e2e_ms for r in self.records])

    def _latency(self) -> tuple[dict[str, Any], ...]:
        """TTFT, TPOT and E2E percentiles for :meth:`summary`.

        Explicit ``count == 0`` guard: a report with no completed
        request (an idle replay window, a fleet whose replicas all died)
        has no latency distribution, so its percentiles export as
        ``None`` — never NaN, which would corrupt CSV cells and poison
        any SLO-goodput arithmetic a consumer runs over the summary.
        The counting metrics are all well-defined zeros on it.
        """
        if not self.records:
            empty = {f"p{q}": None for q in PERCENTILES}
            return empty, empty, empty
        return self.ttft_percentiles(), self.tpot_percentiles(), self.e2e_percentiles()

    # -- throughput ----------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.records)

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion."""
        if not self.records:
            return 0.0
        start = min(r.arrival_ms for r in self.records)
        end = max(r.completion_ms for r in self.records)
        return end - start

    @property
    def output_tokens_per_s(self) -> float:
        """Generated-token throughput over the makespan."""
        span = self.makespan_ms
        if span <= 0:
            return 0.0
        return sum(r.output_tokens for r in self.records) / (span / 1000.0)

    # -- SLO ------------------------------------------------------------------
    @property
    def good_requests(self) -> int:
        return sum(
            1
            for r in self.records
            if r.meets_slo(self.slo_ttft_ms, self.slo_tpot_ms)
        )

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests meeting both TTFT and TPOT SLOs."""
        if not self.records:
            return 0.0
        return self.good_requests / len(self.records)

    @property
    def goodput_rps(self) -> float:
        """SLO-attaining completions per second of trace time."""
        if self.horizon_ms <= 0:
            return 0.0
        return self.good_requests / (self.horizon_ms / 1000.0)


@dataclass(frozen=True)
class ServeReport(ReportCore):
    """Serving outcome of one system on one scenario."""

    system: str
    scenario_label: str
    records: tuple[RequestRecord, ...]
    timeline: tuple[TimelinePoint, ...]
    slo_ttft_ms: float
    slo_tpot_ms: float
    horizon_ms: float
    max_batch_tokens: int

    # -- occupancy ------------------------------------------------------------
    @property
    def mean_queue_depth(self) -> float:
        if not self.timeline:
            return 0.0
        return sum(p.queue_depth for p in self.timeline) / len(self.timeline)

    @property
    def peak_queue_depth(self) -> int:
        return max((p.queue_depth for p in self.timeline), default=0)

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean iteration token fill as a fraction of the token budget."""
        if not self.timeline or self.max_batch_tokens <= 0:
            return 0.0
        return sum(p.batch_tokens for p in self.timeline) / (
            len(self.timeline) * self.max_batch_tokens
        )

    # -- export ---------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Flat metric dict; empty-trace percentiles are ``None``."""
        ttft, tpot, e2e = self._latency()
        return {
            "system": self.system,
            "scenario": self.scenario_label,
            "requests": self.num_requests,
            "ttft_p50_ms": ttft["p50"],
            "ttft_p95_ms": ttft["p95"],
            "ttft_p99_ms": ttft["p99"],
            "tpot_p50_ms": tpot["p50"],
            "tpot_p95_ms": tpot["p95"],
            "tpot_p99_ms": tpot["p99"],
            "e2e_p50_ms": e2e["p50"],
            "e2e_p99_ms": e2e["p99"],
            "slo_attainment": self.slo_attainment,
            "goodput_rps": self.goodput_rps,
            "output_tokens_per_s": self.output_tokens_per_s,
            "mean_queue_depth": self.mean_queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_batch_occupancy": self.mean_batch_occupancy,
        }


@dataclass(frozen=True)
class ServeSkip:
    """One (scenario, system) pair that could not be served, and why."""

    scenario_label: str
    system: str
    reason: str


def _cell(value: Any) -> Any:
    """An export cell: NaN becomes ``None`` (an empty CSV cell, JSON null)."""
    if isinstance(value, float) and value != value:
        return None
    return value


@dataclass(frozen=True)
class ServeResultSet:
    """Reports across systems/scenarios, with ResultSet-style exports.

    ``manifest`` is the run-provenance record
    (:class:`repro.obs.RunManifest`) attached by :meth:`ServeSpec.run`;
    it is deterministic (no wall-clock unless explicitly stamped) so
    identical specs export identical JSON.  No export ever carries NaN.
    """

    reports: tuple[ServeReport, ...]
    skips: tuple[ServeSkip, ...] = ()
    manifest: Any = None

    # Summary keys of the flat-row columns, in order.  The CSV header of
    # ``output_tokens_per_s`` is ``output_tok_per_s``.
    _KEYS = (
        "scenario", "system", "requests",
        "ttft_p50_ms", "ttft_p95_ms", "ttft_p99_ms",
        "tpot_p50_ms", "tpot_p99_ms", "e2e_p99_ms",
        "slo_attainment", "goodput_rps", "output_tokens_per_s",
    )

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def __bool__(self) -> bool:
        return bool(self.reports)

    def systems(self) -> tuple[str, ...]:
        seen = dict.fromkeys(r.system for r in self.reports)
        seen.update(dict.fromkeys(s.system for s in self.skips))
        return tuple(seen)

    def scenario_labels(self) -> tuple[str, ...]:
        seen = dict.fromkeys(r.scenario_label for r in self.reports)
        seen.update(dict.fromkeys(s.scenario_label for s in self.skips))
        return tuple(seen)

    def get(self, system: str, scenario_label: str | None = None) -> ServeReport | None:
        for report in self.reports:
            if report.system.lower() != system.lower():
                continue
            if scenario_label is None or report.scenario_label == scenario_label:
                return report
        return None

    def best_goodput(self) -> ServeReport:
        if not self.reports:
            raise ValueError(f"best_goodput() on an empty {type(self).__name__}")
        return max(self.reports, key=lambda r: r.goodput_rps)

    def goodput_by_system(self, scenario_label: str | None = None) -> dict[str, float]:
        out: dict[str, float] = {}
        for report in self.reports:
            if scenario_label is not None and report.scenario_label != scenario_label:
                continue
            out[report.system] = report.goodput_rps
        return out

    # -- export ---------------------------------------------------------------
    def to_rows(self) -> tuple[list[str], list[list[Any]]]:
        """Flat ``(headers, rows)`` — one row per (scenario, system)."""
        headers = [*self._KEYS[:-1], "output_tok_per_s"]
        table = []
        for r in self.reports:
            s = r.summary()
            table.append([_cell(s[key]) for key in self._KEYS])
        return headers, table

    def to_csv(self, path: str | None = None) -> str:
        """CSV of :meth:`to_rows`, optionally written to ``path``."""
        headers, table = self.to_rows()
        return rows_to_csv(headers, table, path)

    def to_json(self, indent: int = 2) -> str:
        """Machine-readable dump of report summaries and skip reasons."""
        return self._json([r.summary() for r in self.reports], (), indent)

    def _json(self, docs: list[dict[str, Any]], columns: tuple, indent: int) -> str:
        """The JSON payload of ``docs`` (one per report) and the skip
        entries, which carry the cell of each of ``columns``."""
        payload: dict[str, Any] = {
            "reports": [{k: _cell(v) for k, v in doc.items()} for doc in docs],
            "skipped": [
                {
                    "scenario": s.scenario_label,
                    "system": s.system,
                    "reason": s.reason,
                    **{c.key: c.value(s) for c in columns},
                }
                for s in self.skips
            ],
        }
        if self.manifest is not None:
            payload["manifest"] = self.manifest.to_dict()
        return json.dumps(payload, indent=indent, sort_keys=True)
