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

Records are columns: the simulators append each completion and step
sample as a plain row tuple and convert them once per run into a
:class:`Table`, one numpy column per field, which every metric reads
vectorised.  :class:`RequestRecord` and :class:`TimelinePoint` objects
are row views, built only when a caller iterates or indexes a table.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from itertools import starmap
from typing import Any

import numpy as np

from repro.api.results import rows_to_csv

__all__ = [
    "ReportCore",
    "RequestRecord",
    "ServeReport",
    "ServeResultSet",
    "ServeSkip",
    "Table",
    "TimelinePoint",
    "percentiles",
]

PERCENTILES = (50, 95, 99)


def percentiles(values: Sequence[float] | np.ndarray) -> dict[str, float]:
    """p50/p95/p99 with linear interpolation (NaN on empty input).

    The NaN marker is for *interactive* consumers who can render it;
    exports must not leak it — :meth:`ReportCore._latency` guards the
    ``count == 0`` case explicitly (``None`` instead of NaN), which both
    the CSV and JSON paths serialise as an empty/null cell.
    """
    if not len(values):
        return {f"p{q}": float("nan") for q in PERCENTILES}
    arr = np.percentile(np.asarray(values, dtype=np.float64), PERCENTILES, method="linear")
    return {f"p{q}": float(value) for q, value in zip(PERCENTILES, arr)}


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one served request (all times simulated ms): a row
    view of a :class:`Table`."""

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
    """Scheduler state sampled at the start of one engine iteration: a
    row view of a :class:`Table`."""

    t_ms: float
    queue_depth: int
    batch_tokens: int
    running: int


_DTYPES = {"int": np.int64, "float": np.float64, "str": object}


class Table(Sequence):
    """Rows of one record kind, held as one numpy structured array.

    ``row`` is the frozen dataclass whose fields name the columns; their
    annotations pick the dtypes (``int`` int64, ``float`` float64, ``str``
    object).  ``table["field"]`` is a column.  Iterating or indexing
    yields ``row`` objects, built on the first read and memoised, so a
    run that only exports never builds one.  ``==`` compares the row
    class and every column exactly.
    """

    __slots__ = ("row", "array", "_rows")

    def __init__(self, row: type, array: np.ndarray):
        self.row = row
        self.array = array
        self._rows: tuple | None = None

    @classmethod
    def from_tuples(cls, row: type, tuples: Sequence[tuple]) -> "Table":
        """The table of plain row tuples, in ``row``'s field order."""
        dtype = np.dtype([(f.name, _DTYPES[f.type]) for f in fields(row)])
        return cls(row, np.fromiter(tuples, dtype, count=len(tuples)))

    @classmethod
    def of(cls, row: type, objects: Iterable[Any]) -> "Table":
        """The table of ``row`` objects (a report built by hand)."""
        names = [f.name for f in fields(row)]
        return cls.from_tuples(
            row, [tuple(getattr(obj, name) for name in names) for obj in objects]
        )

    @staticmethod
    def concat(tables: Sequence["Table"]) -> "Table":
        """The rows of every table in ``tables`` (one or more), in order."""
        return Table(tables[0].row, np.concatenate([t.array for t in tables]))

    def sorted_by(self, name: str) -> "Table":
        """The rows in stable order of column ``name``."""
        return Table(self.row, self.array[np.argsort(self.array[name], kind="stable")])

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(starmap(self.row, self.array.tolist()))
        return self._rows

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            return self.array[key]
        return self.rows[key]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.row is other.row and bool(np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.row, len(self)))

    def __repr__(self) -> str:
        return f"Table({self.row.__name__}, {len(self)} rows)"


class ReportCore:
    """The latency and SLO core every serving report shares (a mixin
    with no fields).

    The host dataclass provides ``records`` (a :class:`Table` of
    :class:`RequestRecord` rows), ``slo_ttft_ms``, ``slo_tpot_ms`` and
    ``horizon_ms`` — the arrival window of the trace, which goodput
    divides SLO-attaining completions by, so a system that drains an
    overload backlog long after the trace ended is not credited extra
    time.  Every metric is one vectorised pass over the columns, with
    the float64 operations of the :class:`RequestRecord` properties.
    """

    # -- latency ------------------------------------------------------------
    def latencies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-record TTFT, TPOT and E2E columns (ms), in record order."""
        records = self.records
        arrival, first = records["arrival_ms"], records["first_token_ms"]
        completion, output = records["completion_ms"], records["output_tokens"]
        tpot = np.zeros(len(records))
        np.divide(completion - first, output - 1, out=tpot, where=output > 1)
        return first - arrival, tpot, completion - arrival

    def ttft_percentiles(self) -> dict[str, float]:
        return percentiles(self.latencies()[0])

    def tpot_percentiles(self) -> dict[str, float]:
        return percentiles(self.latencies()[1])

    def e2e_percentiles(self) -> dict[str, float]:
        return percentiles(self.latencies()[2])

    def _latency(self) -> tuple[Any, ...]:
        """TTFT, TPOT and E2E percentiles, SLO attainment and goodput for
        :meth:`summary`, from one pass over the columns.

        Explicit ``count == 0`` guard: a report with no completed
        request (an idle replay window, a fleet whose replicas all died)
        has no latency distribution, so its percentiles export as
        ``None`` — never NaN, which would corrupt CSV cells and poison
        any SLO-goodput arithmetic a consumer runs over the summary.
        The counting metrics are all well-defined zeros on it.
        """
        if not self.records:
            empty = {f"p{q}": None for q in PERCENTILES}
            return empty, empty, empty, *self._rates(0)
        ttft, tpot, e2e = self.latencies()
        good = self._good(ttft, tpot)
        return percentiles(ttft), percentiles(tpot), percentiles(e2e), *self._rates(good)

    # -- throughput ----------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.records)

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion."""
        if not self.records:
            return 0.0
        start = float(self.records["arrival_ms"].min())
        return float(self.records["completion_ms"].max()) - start

    @property
    def output_tokens_per_s(self) -> float:
        """Generated-token throughput over the makespan."""
        seconds = self.makespan_ms / 1000.0
        if seconds <= 0:  # also a span so short its seconds underflow to 0
            return 0.0
        return int(self.records["output_tokens"].sum()) / seconds

    # -- SLO ------------------------------------------------------------------
    def _good(self, ttft: np.ndarray, tpot: np.ndarray) -> int:
        good = (ttft <= self.slo_ttft_ms) & (tpot <= self.slo_tpot_ms)
        return int(np.count_nonzero(good))

    def _rates(self, good: int) -> tuple[float, float]:
        """:attr:`slo_attainment` and :attr:`goodput_rps` of ``good``
        SLO-attaining requests."""
        attainment = good / len(self.records) if self.records else 0.0
        seconds = self.horizon_ms / 1000.0
        goodput = good / seconds if seconds > 0 else 0.0
        return attainment, goodput

    @property
    def good_requests(self) -> int:
        ttft, tpot, _ = self.latencies()
        return self._good(ttft, tpot)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests meeting both TTFT and TPOT SLOs."""
        return self._rates(self.good_requests)[0]

    @property
    def goodput_rps(self) -> float:
        """SLO-attaining completions per second of trace time."""
        return self._rates(self.good_requests)[1]


@dataclass(frozen=True)
class ServeReport(ReportCore):
    """Serving outcome of one system on one scenario; ``records`` and
    ``timeline`` are :class:`Table`\\s of :class:`RequestRecord` and
    :class:`TimelinePoint` rows."""

    system: str
    scenario_label: str
    records: Table
    timeline: Table
    slo_ttft_ms: float
    slo_tpot_ms: float
    horizon_ms: float
    max_batch_tokens: int

    # -- occupancy ------------------------------------------------------------
    @property
    def mean_queue_depth(self) -> float:
        if not self.timeline:
            return 0.0
        return int(self.timeline["queue_depth"].sum()) / len(self.timeline)

    @property
    def peak_queue_depth(self) -> int:
        if not self.timeline:
            return 0
        return int(self.timeline["queue_depth"].max())

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean iteration token fill as a fraction of the token budget."""
        if not self.timeline or self.max_batch_tokens <= 0:
            return 0.0
        return int(self.timeline["batch_tokens"].sum()) / (
            len(self.timeline) * self.max_batch_tokens
        )

    # -- export ---------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Flat metric dict; empty-trace percentiles are ``None``."""
        ttft, tpot, e2e, attainment, goodput = self._latency()
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
            "slo_attainment": attainment,
            "goodput_rps": goodput,
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
