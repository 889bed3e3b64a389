"""Fleet-level serving metrics: cluster goodput, churn, and utilization.

A :class:`FleetReport` is the multi-replica analogue of
:class:`~repro.serve.metrics.ServeReport`: the same
:class:`~repro.serve.metrics.RequestRecord` lifecycle tuples and the
same TTFT/TPOT/E2E percentile and SLO-goodput definitions, extended with
the quantities that only exist at fleet scale — goodput *per GPU* (the
cost-efficiency metric autoscaling optimises), per-replica utilization
(:class:`ReplicaStats`), autoscaler churn, and the failure/recovery
event log (:class:`FleetEvent`).  :class:`FleetResultSet` is a
:class:`~repro.serve.metrics.ServeResultSet` of fleet reports with the
fleet's own queries.

Export schema: :attr:`FleetResultSet.COLUMNS` is the one table of
optional columns — ``router`` (default ``round_robin``), ``replicas``
(default 1), and the resilience group: the ``timed_out``/``shed``/
``retries``/``probations``/``evictions`` counters, plus the
``resilience`` label and the ``outcomes`` log in JSON.  Every exporter
reads it, so a set carries a column in CSV and JSON exactly when some
report or skip departs from the column's default (for the group: some
report configured a :class:`~repro.faults.resilience.ResilienceSpec` or
produced terminal outcomes), and the formats cannot disagree.  A
single-replica round-robin set without resilience carries none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.api.results import Column
from repro.serve.metrics import ReportCore, RequestRecord, ServeResultSet, _cell

__all__ = [
    "DispatchRecord",
    "FleetEvent",
    "FleetReport",
    "FleetResultSet",
    "FleetSkip",
    "ReplicaStats",
]


@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica accounting over one fleet run.

    ``active_ms`` is the provisioned window — the time the replica was
    scaled in (failures do not shrink it: a crashed replica still holds
    its GPUs).  ``busy_ms`` is the time actually spent inside engine
    steps, so ``utilization = busy_ms / active_ms``.
    """

    replica: int
    role: str
    requests: int
    steps: int
    busy_ms: float
    active_ms: float
    gpus: int

    @property
    def utilization(self) -> float:
        if self.active_ms <= 0:
            return 0.0
        return self.busy_ms / self.active_ms


@dataclass(frozen=True)
class FleetEvent:
    """One fleet-level state change.

    ``kind`` is ``"up"``/``"down"`` (autoscaler), ``"fail"``/``"recover"``
    (crashes), ``"degrade"``/``"restore"`` (fault-plan windows),
    ``"probation"``/``"readmit"``/``"evict"`` (health detector), or
    ``"retry"``/``"timeout"``/``"shed"`` (front-door policy — these carry
    ``replica == -1``, they happen at the fleet door, not on a replica).
    """

    t_ms: float
    replica: int
    kind: str


@dataclass(frozen=True)
class DispatchRecord:
    """One routing decision: request ``rid`` sent to ``replica`` at ``t_ms``.

    A request can dispatch more than once — the entry router and the
    decode router each record a hop in a disaggregated fleet, and a
    replica failure re-dispatches its reclaimed requests — so the
    dispatch log, ordered by time, segments each request's life across
    the replicas that hosted it.  ``pool`` names the routing stage
    (``"entry"`` or ``"decode"``).
    """

    rid: int
    t_ms: float
    replica: int
    pool: str = "entry"


@dataclass(frozen=True)
class FleetReport(ReportCore):
    """Serving outcome of one system on one fleet scenario.

    ``offered`` counts every request in the trace; ``records`` holds only
    the ones that completed.  With a resilience policy some requests end
    as terminal ``outcomes`` (timed out or shed) instead, so every
    offered request is exactly one of completed / timed-out / shed /
    unserved — ``unserved`` is the remainder that never resolved
    (nonzero only when replicas fail without recovery and no deadline
    policy bounds the wait).  ``horizon_ms`` is the trace's arrival
    window, the goodput denominator.  The latency and SLO metrics come
    from :class:`~repro.serve.metrics.ReportCore`, as for
    :class:`~repro.serve.metrics.ServeReport`.
    """

    system: str
    scenario_label: str
    router: str
    num_replicas: int
    records: tuple[RequestRecord, ...]
    replica_stats: tuple[ReplicaStats, ...]
    events: tuple[FleetEvent, ...]
    slo_ttft_ms: float
    slo_tpot_ms: float
    horizon_ms: float
    offered: int
    # Observability side-channels (PR 7).  Always collected — they are
    # derived from bookkeeping the engine does anyway, so report
    # equality across obs-on/obs-off runs (and fast/slow serve paths)
    # includes them.  ``dispatches`` logs every router decision;
    # ``replica_timelines`` holds one per-step TimelinePoint tuple per
    # replica index (same sampling convention as the serving
    # scheduler's timeline).
    dispatches: tuple[DispatchRecord, ...] = ()
    replica_timelines: tuple[tuple, ...] = ()
    # Terminal non-completion outcomes (timed-out / shed requests) and
    # the resilience configuration label that produced them; both stay
    # empty without a ResilienceSpec, keeping zero-config reports equal
    # to their pre-resilience counterparts.
    outcomes: tuple = ()
    resilience_label: str = ""

    @property
    def unserved(self) -> int:
        return self.offered - len(self.records) - self.timed_out - self.shed

    # -- fleet economics -------------------------------------------------------
    @staticmethod
    def accounting_window(horizon_ms: float, records, outcomes) -> float:
        """The arrival horizon extended to the last resolution — a
        completion or a terminal outcome (overload backlogs keep burning
        GPU-hours, and replicas keep stepping until the last deadline
        fires).  The engine closes every replica's meter here."""
        ends = [r.completion_ms for r in records] + [o.t_ms for o in outcomes]
        return max(horizon_ms, max(ends, default=0.0))

    @property
    def window_ms(self) -> float:
        """The accounting window (:meth:`accounting_window`)."""
        return self.accounting_window(self.horizon_ms, self.records, self.outcomes)

    @property
    def mean_active_gpus(self) -> float:
        """Time-averaged provisioned GPU count over the window."""
        window = self.window_ms
        if window <= 0:
            return 0.0
        return sum(s.gpus * s.active_ms for s in self.replica_stats) / window

    @property
    def goodput_per_gpu(self) -> float:
        """SLO-attaining requests per second per provisioned GPU — the
        metric an autoscaler earns its keep on."""
        gpus = self.mean_active_gpus
        if gpus <= 0:
            return 0.0
        return self.goodput_rps / gpus

    @property
    def mean_utilization(self) -> float:
        """Busy fraction of provisioned replica-time, fleet-wide."""
        active = sum(s.active_ms for s in self.replica_stats)
        if active <= 0:
            return 0.0
        return sum(s.busy_ms for s in self.replica_stats) / active

    # -- churn -----------------------------------------------------------------
    def _count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def scale_ups(self) -> int:
        return self._count("up")

    @property
    def scale_downs(self) -> int:
        return self._count("down")

    @property
    def autoscaler_churn(self) -> int:
        """Total scaling actions — flapping shows up here."""
        return self.scale_ups + self.scale_downs

    @property
    def failures(self) -> int:
        return self._count("fail")

    @property
    def recoveries(self) -> int:
        return self._count("recover")

    # -- resilience ------------------------------------------------------------
    @property
    def timed_out(self) -> int:
        return sum(1 for o in self.outcomes if o.kind == "timeout")

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.kind == "shed")

    @property
    def retries(self) -> int:
        return self._count("retry")

    @property
    def probations(self) -> int:
        return self._count("probation")

    @property
    def evictions(self) -> int:
        return self._count("evict")

    # -- export ---------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Flat metric dict; empty-fleet percentiles are ``None``."""
        ttft, tpot, e2e = self._latency()
        return {
            "system": self.system,
            "scenario": self.scenario_label,
            "router": self.router,
            "replicas": self.num_replicas,
            "offered": self.offered,
            "requests": self.num_requests,
            "unserved": self.unserved,
            "ttft_p50_ms": ttft["p50"],
            "ttft_p95_ms": ttft["p95"],
            "ttft_p99_ms": ttft["p99"],
            "tpot_p50_ms": tpot["p50"],
            "tpot_p99_ms": tpot["p99"],
            "e2e_p50_ms": e2e["p50"],
            "e2e_p99_ms": e2e["p99"],
            "slo_attainment": self.slo_attainment,
            "goodput_rps": self.goodput_rps,
            "goodput_per_gpu": self.goodput_per_gpu,
            "output_tokens_per_s": self.output_tokens_per_s,
            "mean_utilization": self.mean_utilization,
            "mean_active_gpus": self.mean_active_gpus,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "failures": self.failures,
            "recoveries": self.recoveries,
        }


@dataclass(frozen=True)
class FleetSkip:
    """One (scenario, system) pair that could not be served, and why.

    Carries the fleet axes (``router``, ``num_replicas``) so
    :meth:`FleetResultSet.filter` narrows skips consistently with
    reports.
    """

    scenario_label: str
    system: str
    reason: str
    router: str = "round_robin"
    num_replicas: int = 1


# The resilience group: five counter columns, plus the ``resilience``
# label and the ``outcomes`` log in JSON.  Skips carry neither, so the
# group is present when some report configured a ResilienceSpec or
# produced terminal outcomes.
_RESILIENCE = Column(
    ("timed_out", "shed", "retries", "probations", "evictions"),
    ("resilience", "timed_out", "shed", "retries", "probations", "evictions",
     "outcomes"),
    lambda d: bool(getattr(d, "resilience_label", "") or getattr(d, "outcomes", ())),
    False,
)


@dataclass(frozen=True)
class FleetResultSet(ServeResultSet):
    """Fleet reports across systems/scenarios: a
    :class:`~repro.serve.metrics.ServeResultSet` of :class:`FleetReport`
    and :class:`FleetSkip` records, with the fleet's own queries and
    optional export columns.
    """

    # The optional export columns, read from reports and skips.
    COLUMNS = (
        Column("router", "router", lambda d: d.router, "round_robin"),
        Column("replicas", "replicas", lambda d: d.num_replicas, 1),
        _RESILIENCE,
    )

    _METRIC_KEYS = (
        "requests", "unserved",
        "ttft_p50_ms", "ttft_p95_ms", "ttft_p99_ms",
        "tpot_p50_ms", "tpot_p99_ms", "e2e_p99_ms",
        "slo_attainment", "goodput_rps", "goodput_per_gpu",
        "output_tokens_per_s", "mean_utilization", "autoscaler_churn",
    )

    def routers(self) -> tuple[str, ...]:
        seen = dict.fromkeys(r.router for r in self.reports)
        seen.update(dict.fromkeys(s.router for s in self.skips))
        return tuple(seen)

    def get(
        self,
        system: str,
        scenario_label: str | None = None,
        router: str | None = None,
    ) -> FleetReport | None:
        for report in self.reports:
            if report.system.lower() != system.lower():
                continue
            if scenario_label is not None and report.scenario_label != scenario_label:
                continue
            if router is not None and report.router.lower() != router.lower():
                continue
            return report
        return None

    def filter(
        self,
        *,
        router: str | None = None,
        replicas: int | None = None,
        system: str | None = None,
    ) -> "FleetResultSet":
        """Narrow to matching reports (skips narrow consistently).

        ``router`` matches the report's router slug case-insensitively,
        ``replicas`` the total replica count, ``system`` the display
        name.
        """

        def keep(doc) -> bool:
            if router is not None and doc.router.lower() != router.lower():
                return False
            if replicas is not None and doc.num_replicas != replicas:
                return False
            if system is not None and doc.system.lower() != system.lower():
                return False
            return True

        return FleetResultSet(
            reports=tuple(r for r in self.reports if keep(r)),
            skips=tuple(s for s in self.skips if keep(s)),
            manifest=self.manifest,
        )

    def goodput_by_router(self, system: str | None = None) -> dict[str, float]:
        out: dict[str, float] = {}
        for report in self.reports:
            if system is not None and report.system.lower() != system.lower():
                continue
            out[report.router] = report.goodput_rps
        return out

    # -- export ---------------------------------------------------------------
    def _columns(self) -> tuple[Column, ...]:
        return Column.present(self.COLUMNS, (*self.reports, *self.skips))

    def to_rows(self) -> tuple[list[str], list[list[Any]]]:
        """Flat ``(headers, rows)`` — one row per (scenario, system).

        The present ``router``/``replicas`` columns follow ``system``
        and the resilience counters close the row.
        """
        columns = self._columns()
        axes = [c for c in columns if c is not _RESILIENCE]
        counters = _RESILIENCE.header if _RESILIENCE in columns else ()
        headers = [
            "scenario", "system", *(c.header for c in axes),
            *self._METRIC_KEYS, *counters,
        ]
        table = []
        for r in self.reports:
            s = r.summary()
            s["autoscaler_churn"] = r.autoscaler_churn
            table.append([
                s["scenario"], s["system"], *(c.value(r) for c in axes),
                *(_cell(s[key]) for key in self._METRIC_KEYS),
                *(getattr(r, name) for name in counters),
            ])
        return headers, table

    def to_json(self, indent: int = 2) -> str:
        """Machine-readable dump; every column of :attr:`COLUMNS` follows
        the :meth:`to_rows` rule, and ``router``/``replicas`` also ride
        on the skip entries."""
        columns = self._columns()
        axes = tuple(c for c in columns if c is not _RESILIENCE)
        docs = []
        for r in self.reports:
            doc = r.summary()
            del doc["router"], doc["replicas"]
            doc.update((c.key, c.value(r)) for c in axes)
            doc["autoscaler_churn"] = r.autoscaler_churn
            if _RESILIENCE in columns:
                doc["resilience"] = r.resilience_label
                doc.update((name, getattr(r, name)) for name in _RESILIENCE.header)
                doc["outcomes"] = [
                    {
                        "rid": o.rid,
                        "t_ms": o.t_ms,
                        "kind": o.kind,
                        "attempts": o.attempts,
                    }
                    for o in r.outcomes
                ]
            doc["replica_stats"] = [
                {
                    "replica": s.replica,
                    "role": s.role,
                    "requests": s.requests,
                    "steps": s.steps,
                    "busy_ms": s.busy_ms,
                    "active_ms": s.active_ms,
                    "gpus": s.gpus,
                    "utilization": s.utilization,
                }
                for s in r.replica_stats
            ]
            doc["events"] = [
                {"t_ms": e.t_ms, "replica": e.replica, "kind": e.kind}
                for e in r.events
            ]
            docs.append(doc)
        return self._json(docs, axes, indent)
