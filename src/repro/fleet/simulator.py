"""The fleet engine: N serving replicas behind one router.

Two execution paths produce :class:`~repro.fleet.metrics.FleetReport`s:

**Decomposed** — a static fleet (no autoscaler, no failures, all-unified
roles) under a state-independent router is embarrassingly parallel: the
routing decision for every request is a pure function of the arrival
sequence, so the trace is partitioned up front and each replica runs
through the ordinary
:class:`~repro.serve.scheduler.ContinuousBatchingScheduler` — which
means the sequential serving loop (and its timing caches) is reused
verbatim, and a 1-replica round-robin fleet is *bit-identical* to the
bare serving engine (the equivalence tests enforce ``==`` on the record
tables).

**Co-simulated** — state-dependent routers (least-queue,
power-of-two-choices), autoscaling, failure injection, and
prefill/decode disaggregation all couple the replicas, so the fleet
runs as one loop over a heap of typed timers: arrivals, engine wake-ups
and step ends, failures and recoveries, degrade and restore markers,
detector and autoscaler ticks, front-door deadlines and retry backoffs,
KV deliveries, readmissions and warm-up flushes.  A timer is a handler
and its arguments, and timers pop in the order of the discrete-event
kernel's queue, ``(time, priority, sequence)``: a process started at
the current instant runs before any timer due then.  So the loop
reproduces :mod:`repro.oracles.fleet_des`, the same fleet as generator
processes on :class:`~repro.sim.engine.Environment`, byte for byte; the
two share every helper and differ only in how they start processes,
wake an engine and abort a step (:meth:`FleetEngine._start`,
:meth:`FleetEngine._wake`, :meth:`FleetEngine._abort_step`).  A
failure stales its replica's pending step end by a generation count.
Everything stays deterministic: routers are seeded, and admission sorts
carry the request id as final tiebreaker.  A run pops at most
:data:`~repro.api.scenario.BUDGET_PER_UNIT` timers per unit of offered
work; a scenario whose ticks cannot advance the clock (an interval of
``1e-300`` ms) raises :class:`~repro.api.scenario.SimulationBudgetExceeded`
instead of hanging.

Step kernel: each replica's engine drives a
:class:`~repro.serve.scheduler.ReplicaCore`, the single-replica
scheduler's admit/launch/retire.  A sequence's last step is known at
admission, so the core files it in a completion map keyed by step and
a step costs O(admitted + completed), not O(running).  Load signals are
O(1) counters, and each pool's routable-candidate list is rebuilt only
when a replica fails, recovers, scales, warms or enters probation.

Parity: on a scenario the decomposed path accepts, the forced
co-simulation reproduces its reports and exports exactly, for every
system.  Every system's ``time_layer`` is a pure function of its
fingerprint and the workload, so the order in which the two paths
price steps (replica after replica vs interleaved in time) cannot move
a number.

Modelling notes:

* A failed replica loses its KV state: waiting *and* in-flight requests
  are reclaimed, reset to un-prefilled, and re-dispatched through the
  router (or parked in a fleet-level pending queue when no replica is
  routable).  The interrupted step's elapsed time still counts as busy
  (the GPUs did burn), and ``active_ms`` keeps accruing — a crashed
  replica still holds its allocation.
* Disaggregated pools hand a request from its prefill replica to a
  decode replica at the prefill boundary.  Without a
  :class:`~repro.faults.migration.MigrationSpec` the handoff is free (an
  optimistic lower bound — COMET's overlap model prices compute/NVLink,
  not PCIe KV shipping); with one, the KV cache bytes ride the
  inter-replica link: handoffs are batched per destination, crashes and
  probation drains additionally re-ship the request *context* (the KV
  died with the source, so the destination re-prefills), and
  :class:`~repro.faults.plan.BrownoutEvent` windows stretch every
  in-window transfer.
* A :class:`~repro.faults.plan.FaultPlan` makes degradation
  time-varying: each replica's cost model becomes a
  :class:`~repro.faults.plan.TimeVaryingStepCost` step function, priced
  per step at its launch time (both execution paths go through
  ``step_ms_at``), with ``degrade``/``restore`` marker events in the
  report.
* A :class:`~repro.faults.resilience.ResilienceSpec` runs the
  remediation loop co-simulated: a windowed health detector flags the
  worst slow/overloaded replica (probation drains its queue and hides it
  from the router; repeat offenders are evicted), front-door deadlines
  cancel and re-dispatch requests with bounded seeded retries, and
  SLO-aware shedding rejects arrivals whose estimated wait blows the
  TTFT budget.  Timed-out and shed requests terminate as
  :class:`~repro.faults.migration.OutcomeRecord`\\s — every offered
  request is exactly one of completed / timed-out / shed / unserved.
* Autoscaled replicas become routable only after their warm-up delay;
  scale-down drains the victim (it finishes queued work but receives no
  new requests) and its provisioned window closes when it goes idle.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.api.scenario import BUDGET_PER_UNIT, SimulationBudgetExceeded
from repro.faults.migration import OutcomeRecord
from repro.fleet.metrics import (
    DispatchRecord,
    FleetEvent,
    FleetReport,
    ReplicaStats,
)
from repro.fleet.router import Router, make_router
from repro.fleet.spec import FleetScenario, ReplicaSpec
from repro.serve.engine_adapter import StepCostModel
from repro.serve.metrics import RequestRecord, Table, TimelinePoint
from repro.serve.policies import POLICY_REGISTRY
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    ReplicaCore,
    _record,
    _Sequence,
)
from repro.serve.traffic import Request, _check_trace

__all__ = ["FleetEngine"]

#: Timer priorities, the DES kernel's: a process started at the current
#: instant runs before any timer due then.
URGENT, NORMAL = 0, 1


@dataclass(frozen=True)
class _StaticView:
    """Routing candidate for the decomposed path: identity only.

    State-independent routers never read load signals, so the static
    view pins them to zero — any policy that *does* read them is
    state-dependent by definition and runs co-simulated instead.
    """

    index: int
    queue_depth: int = 0
    running: int = 0
    backlog_tokens: int = 0


class _Replica(ReplicaCore):
    """One co-simulated replica: a :class:`ReplicaCore` (queues, step
    kernel, and the router's view of its real load) plus fleet state —
    health, activity window, stats, resilience — and its engine's state:
    asleep (idle until a dispatch wakes it) or in a step, whose end
    timer carries ``step_gen``."""

    def __init__(
        self,
        index: int,
        spec: ReplicaSpec,
        cost_model: StepCostModel,
        active: bool,
        scenario: FleetScenario,
    ):
        super().__init__(
            POLICY_REGISTRY.get(scenario.policy), cost_model,
            scenario.slo_ttft_ms, scenario.max_batch_tokens,
            scenario.max_batch_size, role=spec.role,
        )
        self.index = index
        self.spec = spec
        self.healthy = True
        self.active = active
        self.activated_at: float | None = 0.0 if active else None
        self.warm_until = 0.0  # initial replicas start warm
        self.asleep = False
        self.in_step = False
        self.step_gen = 0
        self.step_started = 0.0
        self.busy_ms = 0.0
        self.active_ms = 0.0
        self.requests = 0
        # Resilience state: probation hides the replica from the router
        # until the window passes; eviction is permanent.  TTFT samples
        # feed the windowed health detector; last_step_ms feeds the
        # front-door shed estimate.
        self.probation_until = 0.0
        self.probations = 0
        self.evicted = False
        self.last_step_ms = 0.0
        self.ttft_samples: list[tuple[float, float]] = []

    def routable(self, now: float) -> bool:
        return (
            self.healthy
            and self.active
            and not self.evicted
            and now >= self.warm_until
            and now >= self.probation_until
        )

    def close_window(self, now: float) -> None:
        if self.activated_at is not None:
            self.active_ms += now - self.activated_at
            self.activated_at = None


@dataclass
class FleetEngine:
    """Serve one trace across one fleet scenario; see the module doc."""

    scenario: FleetScenario
    cost_models: list[StepCostModel]
    trace: tuple[Request, ...]

    # RequestRecord and DispatchRecord row tuples, tabled once per run.
    _records: list[tuple] = field(default_factory=list, init=False)
    _events: list[FleetEvent] = field(default_factory=list, init=False)
    _dispatches: list[tuple] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._expanded = self.scenario.expand_replicas()
        if len(self.cost_models) != len(self._expanded):
            raise ValueError(
                f"need one cost model per replica instance: got "
                f"{len(self.cost_models)} for {len(self._expanded)} replicas"
            )
        _check_trace(self.trace)
        # A request is *resolved* once it completed, timed out, or was
        # shed — the run terminates when every offered request resolves.
        self._resolved = 0
        self._arrivals_done = False
        self._recoveries_outstanding = 0
        self._replicas: list[_Replica] = []
        # Requests with no routable replica wait here; "entry" feeds
        # unified/prefill replicas, "decode" the decode pool.
        self._pending: dict[str, list[_Sequence]] = {"entry": [], "decode": []}
        # Fault-plan / migration / resilience wiring.  Empty plans and
        # all-off resilience specs normalise to None so the zero-config
        # paths stay bit-identical.
        self._faults = self.scenario.faults if self.scenario.faults else None
        self._migration = self.scenario.migration
        resilience = self.scenario.resilience
        self._resilience = (
            resilience if resilience is not None and resilience else None
        )
        self._track_health = (
            self._resilience is not None and self._resilience.wants_detector
        )
        self._outcomes: list[OutcomeRecord] = []

    # -- path selection -------------------------------------------------------
    def _decomposable(self) -> bool:
        router_cls = type(make_router(self.scenario.router, 1))
        return (
            not router_cls.state_dependent
            and self.scenario.autoscaler is None
            and not self.scenario.all_crashes
            and self._resilience is None
            and all(spec.role == "unified" for spec in self._expanded)
        )

    def run(self, system_name: str) -> FleetReport:
        if self._decomposable():
            return self._run_decomposed(system_name)
        return self._run_cosim(system_name)

    def _report(
        self,
        system_name: str,
        records: Table,
        stats: tuple[ReplicaStats, ...],
        timelines: tuple[Table, ...],
    ) -> FleetReport:
        return FleetReport(
            system=system_name,
            scenario_label=self.scenario.label,
            router=self.scenario.router,
            num_replicas=len(self._expanded),
            records=records,
            replica_stats=stats,
            events=tuple(self._events),
            slo_ttft_ms=self.scenario.slo_ttft_ms,
            slo_tpot_ms=self.scenario.slo_tpot_ms,
            horizon_ms=self.scenario.trace.horizon_ms,
            offered=len(self.trace),
            dispatches=Table.from_tuples(DispatchRecord, self._dispatches),
            replica_timelines=timelines,
            outcomes=tuple(sorted(self._outcomes, key=lambda o: o.rid)),
            resilience_label=(
                self.scenario.resilience.label
                if self.scenario.resilience is not None
                else ""
            ),
        )

    # -- decomposed path ------------------------------------------------------
    def _run_decomposed(self, system_name: str) -> FleetReport:
        """Partition the trace statically, run replicas independently.

        Each partition goes through the stock single-replica scheduler,
        so the PR 3 fast loop and its shared timing caches do the work —
        and with one replica the partition is the whole trace, making
        the fleet run bit-identical to the bare serving engine.

        The forced co-simulation reproduces this path exactly (see the
        module doc).
        """
        router = make_router(
            self.scenario.router, len(self._expanded),
            seed=self.scenario.router_seed,
        )
        if self._faults is not None:
            # No co-simulation to emit markers, so the degradation
            # windows become static events (sorted chronologically).
            markers = [
                FleetEvent(event.t0_ms, event.replica, "degrade")
                for event in self._faults.degrades
            ] + [
                FleetEvent(event.t1_ms, event.replica, "restore")
                for event in self._faults.degrades
            ]
            markers.sort(key=lambda ev: (ev.t_ms, ev.replica, ev.kind))
            self._events.extend(markers)
        views = [_StaticView(i) for i in range(len(self._expanded))]
        assigned: list[list[Request]] = [[] for _ in self._expanded]
        for request in self.trace:
            pick = router.choose(request, views, request.arrival_ms)
            assigned[pick.index].append(request)
            self._dispatches.append(
                (request.rid, request.arrival_ms, pick.index, "entry")
            )

        per_replica: list[tuple[int, float]] = []  # (steps, busy_ms)
        tables: list[Table] = []
        timelines: list[Table] = []
        for index, spec in enumerate(self._expanded):
            scheduler = ContinuousBatchingScheduler(
                cost_model=self.cost_models[index],
                trace=tuple(assigned[index]),
                max_batch_tokens=self.scenario.max_batch_tokens,
                max_batch_size=self.scenario.max_batch_size,
                policy=self.scenario.policy,
                slo_ttft_ms=self.scenario.slo_ttft_ms,
            )
            records, timeline = scheduler.run()
            tables.append(records)
            per_replica.append((len(timeline), scheduler.busy_ms))
            timelines.append(timeline)

        records = Table.concat(tables).sorted_by("rid")
        window = FleetReport.accounting_window(
            self.scenario.trace.horizon_ms, records, self._outcomes
        )
        stats = tuple(
            ReplicaStats(
                replica=index,
                role="unified",
                requests=len(tables[index]),
                steps=steps,
                busy_ms=busy,
                active_ms=window,
                gpus=spec.gpus,
            )
            for index, (spec, (steps, busy)) in enumerate(
                zip(self._expanded, per_replica)
            )
        )
        return self._report(system_name, records, stats, tuple(timelines))

    # -- co-simulation --------------------------------------------------------
    def _run_cosim(self, system_name: str) -> FleetReport:
        """Co-simulate the coupled fleet as one loop over a heap of timers.

        A timer is ``(time, priority, sequence, handler, args)``, so the
        heap pops in the DES queue's order.  The loop pops while a
        request is unresolved or a recovery is scheduled: the heap
        legitimately drains with requests unserved when every replica is
        dead and no recovery is coming, and a recovery a few ms past the
        final completion still belongs in the event log (the report
        counts ``recoveries``).  Past
        :data:`~repro.api.scenario.BUDGET_PER_UNIT` timers per unit of
        offered work it raises :class:`SimulationBudgetExceeded`.
        """
        timers: list[tuple] = []
        self._timers = timers
        self._order = itertools.count()
        self._now = 0.0
        self._start_cosim()
        total = len(self.trace)
        units = self._offered_units()
        budget = BUDGET_PER_UNIT * units
        pop = heapq.heappop
        popped = 0
        while timers and (self._resolved < total or self._recoveries_outstanding):
            popped += 1
            if popped > budget:
                raise SimulationBudgetExceeded(
                    f"fleet scenario {self.scenario.label!r} popped {budget} "
                    f"timers, its budget for {units} units of offered work, "
                    f"with {total - self._resolved} of {total} requests "
                    f"unresolved at t={self._now!r} ms"
                )
            self._now, _, _, handler, args = pop(timers)
            handler(*args)
        return self._cosim_report(system_name)

    def _offered_units(self) -> int:
        """The work a co-simulation's timer budget scales with: one unit
        per request and per output token, times ``1 + max_retries``, and
        one per replica and per scheduled fault, so a fault timeline
        fits even with no requests."""
        retries = self._resilience.max_retries if self._resilience is not None else 0
        work = len(self.trace) + sum(request.output_tokens for request in self.trace)
        faults = len(self.scenario.all_crashes) + (
            len(self._faults.degrades) if self._faults is not None else 0
        )
        return work * (1 + retries) + len(self._expanded) + faults

    def _start_cosim(self) -> None:
        """Build the replicas, pools and router, and start the fleet's
        processes in the DES's creation order: arrivals first, then one
        engine per replica (as :mod:`repro.oracles.serve_des` does, so a
        1-replica co-simulation reproduces the bare engine's records),
        failures, degrade markers, the autoscaler and the detector."""
        scenario = self.scenario
        self._router: Router = make_router(
            scenario.router, len(self._expanded), seed=scenario.router_seed
        )
        initial_active = (
            scenario.autoscaler.min_replicas
            if scenario.autoscaler is not None
            else len(self._expanded)
        )
        self._replicas = [
            _Replica(
                index=index, spec=spec, cost_model=self.cost_models[index],
                active=index < initial_active, scenario=scenario,
            )
            for index, spec in enumerate(self._expanded)
        ]
        self._pools = {
            "entry": [r for r in self._replicas if r.role != "decode"],
            "decode": [r for r in self._replicas if r.role == "decode"],
        }
        # pool -> (routable candidates, time the list expires); see
        # _candidates.  Cleared whenever a replica's flags change.
        self._routable: dict[str, tuple[list[_Replica], float]] = {}
        self._cooldown_until = 0.0
        crashes = scenario.all_crashes
        self._recoveries_outstanding = sum(
            1 for event in crashes if event.recover_ms is not None
        )
        self._start("arrivals")
        for rep in self._replicas:
            self._start("engine", rep)
        for event in crashes:
            self._start("failure", event)
        if self._faults is not None:
            for event in self._faults.degrades:
                self._start("degrade_marker", event)
        if scenario.autoscaler is not None:
            self._start("autoscaler")
        if self._track_health:
            self._start("detector")

    def _cosim_report(self, system_name: str) -> FleetReport:
        records = Table.from_tuples(RequestRecord, self._records).sorted_by("rid")
        window = FleetReport.accounting_window(
            self.scenario.trace.horizon_ms, records, self._outcomes
        )
        for rep in self._replicas:
            rep.close_window(window)
        stats = tuple(
            ReplicaStats(
                replica=rep.index,
                role=rep.role,
                requests=rep.requests,
                steps=rep.steps,
                busy_ms=rep.busy_ms,
                active_ms=rep.active_ms,
                gpus=rep.spec.gpus,
            )
            for rep in self._replicas
        )
        timelines = tuple(
            Table.from_tuples(TimelinePoint, rep.timeline) for rep in self._replicas
        )
        return self._report(system_name, records, stats, timelines)

    # -- the event mechanism: all the oracle overrides ----------------------
    def _start(self, process: str, *args) -> None:
        """Start one of the fleet's processes at the current instant.

        ``process`` names its first handler, ``_begin_<process>``; a
        start is an urgent timer, so it runs after the handler that
        starts it and before any timer due at the same instant, as a
        DES process's initialisation does.
        """
        heapq.heappush(self._timers, (
            self._now, URGENT, next(self._order),
            getattr(self, f"_begin_{process}"), args,
        ))

    def _after(self, delay: float, handler: Callable, *args) -> None:
        """Fire ``handler(*args)`` ``delay`` ms from now."""
        heapq.heappush(self._timers, (
            self._now + delay, NORMAL, next(self._order), handler, args,
        ))

    def _wake(self, rep: _Replica) -> None:
        """Resume an idle engine: work was just queued on it."""
        if rep.asleep:
            rep.asleep = False
            self._after(0.0, self._begin_engine, rep)

    def _abort_step(self, rep: _Replica) -> None:
        """A failure cut the step in flight: its end timer goes stale,
        the elapsed part still counts as busy (the GPUs did burn), and
        the emptied engine idles."""
        rep.step_gen += 1
        rep.busy_ms += self._now - rep.step_started
        rep.in_step = False
        self._begin_engine(rep)

    # -- timer handlers -------------------------------------------------------
    def _begin_arrivals(self) -> None:
        self._arrive_from(0)

    def _on_arrival(self, index: int) -> None:
        # The timer was due at this request's arrival: it arrives now,
        # whatever rounding ``now + delay`` left.
        self._arrive(self.trace[index], self._now)
        self._arrive_from(index + 1)

    def _arrive_from(self, start: int) -> None:
        """Release the requests due by now from ``start`` on, then wait
        for the next one."""
        now, trace = self._now, self.trace
        for index in range(start, len(trace)):
            delay = trace[index].arrival_ms - now
            if delay > 0:
                self._after(delay, self._on_arrival, index)
                return
            self._arrive(trace[index], now)
        self._arrivals_done = True

    def _begin_engine(self, rep: _Replica) -> None:
        """The replica's engine runs: launch a step, or idle until a
        dispatch wakes it (for good once every request resolved)."""
        now = self._now
        if not rep.waiting and not rep.resident:
            if not rep.active:
                # Drained after scale-down: stop the meter.
                rep.close_window(now)
            rep.asleep = self._resolved < len(self.trace)
            return
        self._after(self._launch(rep, now), self._on_step_end, rep, rep.step_gen)

    def _on_step_end(self, rep: _Replica, gen: int) -> None:
        if gen == rep.step_gen:
            self._step_done(rep, self._now)
            self._begin_engine(rep)

    def _begin_failure(self, event) -> None:
        self._after(event.fail_ms, self._on_fail, event)

    def _on_fail(self, event) -> None:
        now = self._now
        self._crash(self._replicas[event.replica], now)
        if event.recover_ms is not None:
            self._after(event.recover_ms - now, self._on_recover, event)

    def _on_recover(self, event) -> None:
        self._recover(self._replicas[event.replica], self._now)

    def _begin_degrade_marker(self, event) -> None:
        self._after(event.t0_ms - self._now, self._on_degrade, event)

    def _on_degrade(self, event) -> None:
        self._events.append(FleetEvent(self._now, event.replica, "degrade"))
        self._after(event.t1_ms - self._now, self._on_restore, event)

    def _on_restore(self, event) -> None:
        self._events.append(FleetEvent(self._now, event.replica, "restore"))

    def _begin_detector(self) -> None:
        self._after(self._resilience.check_interval_ms, self._on_detect)

    def _on_detect(self) -> None:
        if self._detect(self._now):
            self._begin_detector()

    def _begin_autoscaler(self) -> None:
        self._after(self.scenario.autoscaler.interval_ms, self._on_scale)

    def _on_scale(self) -> None:
        if self._autoscale(self._now):
            self._begin_autoscaler()

    def _begin_frontdoor(self, seq: _Sequence, retries: int = 0) -> None:
        self._after(self._resilience.timeout_ms, self._on_deadline, seq, retries)

    def _on_deadline(self, seq: _Sequence, retries: int) -> None:
        backoff = self._deadline(seq, retries, self._now)
        if backoff is None:
            return
        if backoff > 0:
            self._after(backoff, self._on_backoff, seq, retries + 1)
        else:
            self._on_backoff(seq, retries + 1)

    def _on_backoff(self, seq: _Sequence, retries: int) -> None:
        self._retry(seq, self._now)
        self._begin_frontdoor(seq, retries)

    def _begin_deliver(self, rep: _Replica, tagged: list, delay: float, pool: str) -> None:
        if delay > 0:
            self._after(delay, self._on_deliver, rep, tagged, pool)
        else:
            self._on_deliver(rep, tagged, pool)

    def _on_deliver(self, rep: _Replica, tagged: list, pool: str) -> None:
        self._delivered(rep, tagged, pool, self._now)

    def _begin_readmit(self, rep: _Replica) -> None:
        self._after(rep.probation_until - self._now, self._on_readmit, rep)

    def _on_readmit(self, rep: _Replica) -> None:
        self._end_probation(rep, self._now)

    def _begin_warmup_flush(self, rep: _Replica) -> None:
        self._after(rep.warm_until - self._now, self._on_warm, rep)

    def _on_warm(self, rep: _Replica) -> None:
        self._warmed(rep, self._now)

    # -- dispatch -------------------------------------------------------------
    def _candidates(self, pool: str, now: float) -> list[_Replica]:
        """The routable replicas of ``pool`` at ``now``, in index order.

        Shared (routers only read it) until routability can change: a
        fail, recover, scale or probation clears the cache, and ``now``
        reaching the earliest pending warm-up or probation end expires it.
        """
        cached = self._routable.get(pool)
        if cached is None or now >= cached[1]:
            members = self._pools[pool]
            ends = [
                until for r in members
                for until in (r.warm_until, r.probation_until) if until > now
            ]
            routable = [r for r in members if r.routable(now)]
            cached = self._routable[pool] = (routable, min(ends, default=float("inf")))
        return cached[0]

    def _route(self, seq: _Sequence, now: float, pool: str) -> _Replica | None:
        """Pick a routable replica of ``pool``, or park ``seq`` (None)."""
        candidates = self._candidates(pool, now)
        if not candidates:
            self._pending[pool].append(seq)
            return None
        return self._router.choose(seq.request, candidates, now)

    def _dispatch(self, seq: _Sequence, now: float, pool: str = "entry") -> None:
        """Route one sequence, or park it until a replica is routable."""
        pick = self._route(seq, now, pool)
        if pick is not None:
            self._dispatches.append((seq.request.rid, now, pick.index, pool))
            pick.enqueue(seq)
            self._wake(pick)

    def _flush_pending(self, now: float) -> None:
        """Re-route parked sequences after a recovery or warm-up.

        Entry-pool parks re-route for free (they sit at the fleet's
        front door, not on a replica); decode-pool parks carry KV state,
        so with a :class:`MigrationSpec` they re-ship over the link.
        """
        queued, self._pending["entry"] = self._pending["entry"], []
        for seq in queued:
            self._dispatch(seq, now)
        queued, self._pending["decode"] = self._pending["decode"], []
        if queued:
            self._send(queued, now, "decode")

    def _send(self, seqs: list[_Sequence], now: float, pool: str) -> None:
        """Route a batch of sequences toward ``pool``, paying migration.

        Without a :class:`MigrationSpec` this is today's free handoff:
        one router decision per sequence, enqueued instantly.  With one,
        sequences are routed now, grouped per destination, and delivered
        after the batched link transfer: decode-pool sends carry the KV
        cache of every token produced so far, entry-pool sends (crash or
        probation re-dispatch) carry only the request context — the KV
        died with the source, so the destination re-prefills.
        """
        if self._migration is None:
            for seq in seqs:
                self._dispatch(seq, now, pool=pool)
            return
        groups: dict[int, list[_Sequence]] = {}
        for seq in seqs:
            pick = self._route(seq, now, pool)
            if pick is not None:
                groups.setdefault(pick.index, []).append(seq)
        config = self.scenario.config
        mult = (
            self._faults.brownout_mult(now) if self._faults is not None else 1.0
        )
        for index in sorted(groups):
            group = groups[index]
            if pool == "decode":
                nbytes = sum(
                    self._migration.kv_bytes(
                        config, seq.request.prompt_tokens + seq.generated
                    )
                    for seq in group
                )
            else:
                nbytes = float(
                    sum(seq.request.prompt_tokens for seq in group)
                    * config.token_bytes
                )
            for seq in group:
                self._dispatches.append((seq.request.rid, now, index, pool))
            delay = self._migration.transfer_ms(nbytes, len(group), mult=mult)
            # Tag each sequence with its attempt number: a front-door retry
            # cancels in-flight copies, so stale deliveries must drop.
            tagged = [(seq, seq.attempt) for seq in group]
            self._start("deliver", self._replicas[index], tagged, delay, pool)

    def _delivered(
        self,
        rep: _Replica,
        tagged: list[tuple[_Sequence, int]],
        pool: str,
        now: float,
    ) -> None:
        """A migration lands on ``rep``; stale copies drop."""
        arrived = [
            seq
            for seq, token in tagged
            if not seq.cancelled and seq.attempt == token
        ]
        if not arrived:
            return
        if rep.routable(now):
            for seq in arrived:
                rep.enqueue(seq)
            self._wake(rep)
            return
        # Destination crashed or was quarantined in flight: the payload
        # re-ships to a new replica (or parks at the fleet door).
        self._send(arrived, now, pool)

    def _arrive(self, request: Request, now: float) -> None:
        """Admit one arrival at the front door: shed it, or dispatch it
        and start its deadline."""
        res = self._resilience
        seq = _Sequence(request)
        if res is not None and res.wants_shed and self._should_shed(now):
            self._resolve_outcome(seq, now, "shed", attempts=0)
            return
        self._dispatch(seq, now)
        if res is not None and res.wants_deadline:
            self._start("frontdoor", seq)

    def _should_shed(self, now: float) -> bool:
        """Reject an arrival when its estimated wait blows the TTFT SLO.

        The estimate is conservative and observable at the front door:
        the least-loaded routable entry replica's queue depth times its
        last observed step time.  Cold replicas (no step yet) estimate
        zero, so a fleet never sheds before producing evidence; with no
        routable replica the request parks instead (deadlines, if
        configured, still bound its wait).
        """
        res = self._resilience
        candidates = self._candidates("entry", now)
        if not candidates:
            return False
        estimate = min(r.queue_depth * r.last_step_ms for r in candidates)
        return estimate > res.shed_factor * self.scenario.slo_ttft_ms

    def _resolve_outcome(
        self, seq: _Sequence, now: float, kind: str, attempts: int
    ) -> None:
        seq.cancelled = True
        self._outcomes.append(
            OutcomeRecord(seq.request.rid, now, kind, attempts)
        )
        self._events.append(FleetEvent(now, -1, kind))
        self._resolved += 1

    def _cancel(self, seq: _Sequence) -> None:
        """Pull a sequence out of every queue it could occupy.

        Bumping ``attempt`` invalidates in-flight migration deliveries
        and completion-map entries, even if the sequence is later
        re-dispatched to the same replica.
        """
        seq.cancelled = True
        seq.attempt += 1
        for rep in self._replicas:
            rep.discard(seq)
        for queue in self._pending.values():
            if seq in queue:
                queue.remove(seq)

    def _deadline(self, seq: _Sequence, retries: int, now: float) -> float | None:
        """A front-door deadline expires: cancel, then retry or give up.

        A sequence that times out mid-service is reclaimed wherever it
        sits (queued, admitted, running, in-flight) — work already spent
        on it stays burned, the vLLM-style wasted-work model.  Returns
        the backoff before retry ``retries + 1`` (deterministic per
        (seed, rid, attempt)), or None when the request finished or
        timed out for good.
        """
        if seq.finished:
            return None
        res = self._resilience
        self._cancel(seq)
        if retries >= res.max_retries:
            self._resolve_outcome(seq, now, "timeout", attempts=retries)
            return None
        self._events.append(FleetEvent(now, -1, "retry"))
        return res.retry_backoff_ms(seq.request.rid, retries)

    def _retry(self, seq: _Sequence, now: float) -> None:
        """Re-dispatch a cancelled request from un-prefilled state
        through the entry pool."""
        seq.first_token_ms = float("nan")
        seq.generated = 0
        seq.cancelled = False
        self._dispatch(seq, now)

    # -- per-replica engine ---------------------------------------------------
    def _launch(self, rep: _Replica, now: float) -> float:
        """Launch ``rep``'s next step at ``now``; returns its length."""
        step = rep.launch(now)
        rep.last_step_ms = step
        rep.in_step = True
        rep.step_started = now
        return step

    def _step_done(self, rep: _Replica, now: float) -> None:
        """Close ``rep``'s step at ``now``: retire, sample TTFTs, and
        hand prefilled sequences to the decode pool."""
        rep.in_step = False
        rep.busy_ms += rep.last_step_ms
        admitted, retired = rep.close(now)
        if self._track_health and rep.role != "decode":
            rep.ttft_samples.extend(
                (now, now - seq.request.arrival_ms) for seq in admitted
            )
        for seq in retired:
            self._finish(seq, now, rep)
        if rep.role == "prefill":
            # Prefill boundary: first token emitted here, the rest
            # of the generation migrates to the decode pool (KV
            # handoff batched over the inter-replica link when a
            # MigrationSpec is set, free otherwise — see module doc).
            rep.requests += len(admitted) - len(retired)
            handoff = [seq for seq in admitted if not seq.done]
            if handoff:
                self._send(handoff, now, "decode")

    def _finish(self, seq: _Sequence, now: float, rep: _Replica) -> None:
        self._records.append(_record(seq, now))
        seq.finished = True
        self._resolved += 1
        rep.requests += 1

    # -- failure injection ----------------------------------------------------
    def _crash(self, rep: _Replica, now: float) -> None:
        """``rep`` fails (if up): it loses everything it held."""
        if not rep.healthy:
            return
        rep.healthy = False
        self._routable.clear()
        self._events.append(FleetEvent(now, rep.index, "fail"))
        # Reclaim everything the replica held; its KV is gone, so
        # every sequence restarts from un-prefilled state.
        reclaimed = rep.reclaim()
        if rep.in_step:
            self._abort_step(rep)
        reclaimed.sort(key=lambda s: s.request.rid)
        if reclaimed:
            self._send(reclaimed, now, "entry")

    def _recover(self, rep: _Replica, now: float) -> None:
        rep.healthy = True
        self._routable.clear()
        self._events.append(FleetEvent(now, rep.index, "recover"))
        self._recoveries_outstanding -= 1
        self._flush_pending(now)

    # -- health detection / probation ----------------------------------------
    def _detect(self, now: float) -> bool:
        """One detector tick; False once the detector has nothing left
        to watch."""
        if self._resolved >= len(self.trace) or self._no_progress_possible():
            return False
        self._health_check(now)
        return True

    def _health_check(self, now: float) -> None:
        """Flag at most one replica per tick: the worst offender.

        Two windowed signals, both relative to the fleet (a uniformly
        slow fleet is degraded hardware, not a straggler): mean TTFT of
        requests first-tokened inside the window versus the fleet
        median, and instantaneous queue depth versus the fleet mean.
        """
        res = self._resilience
        routable = [r for r in self._replicas if r.routable(now)]
        if len(routable) < 2:
            return
        cutoff = now - res.health_window_ms
        suspects: list[tuple[float, int, _Replica]] = []
        if res.slow_factor is not None:
            means: list[tuple[_Replica, float]] = []
            for rep in routable:
                rep.ttft_samples = [
                    s for s in rep.ttft_samples if s[0] >= cutoff
                ]
                if len(rep.ttft_samples) >= res.min_samples:
                    means.append((
                        rep,
                        sum(v for _, v in rep.ttft_samples)
                        / len(rep.ttft_samples),
                    ))
            if len(means) >= 2:
                ordered = sorted(value for _, value in means)
                # Lower median: with an even replica count the upper
                # median is the straggler's own mean, which could never
                # exceed slow_factor times itself — two-replica fleets
                # would be blind to their slow half.
                median = ordered[(len(ordered) - 1) // 2]
                if median > 0.0:
                    for rep, mean in means:
                        if mean > res.slow_factor * median:
                            suspects.append((mean / median, rep.index, rep))
        if res.queue_factor is not None:
            depths = [float(r.queue_depth) for r in routable]
            fleet_mean = sum(depths) / len(depths)
            if fleet_mean > 0.0:
                for rep, depth in zip(routable, depths):
                    if depth > res.queue_factor * fleet_mean:
                        suspects.append((depth / fleet_mean, rep.index, rep))
        if not suspects:
            return
        # Worst severity first, replica index as deterministic tiebreak;
        # never quarantine a replica whose pool would be left empty.
        suspects.sort(key=lambda item: (-item[0], item[1]))
        for _, _, rep in suspects:
            pool = "decode" if rep.role == "decode" else "entry"
            peers = [
                r
                for r in self._pools[pool]
                if r is not rep and r.routable(now)
            ]
            if peers:
                self._quarantine(rep, now)
                return

    def _quarantine(self, rep: _Replica, now: float) -> None:
        """Probation (drain + hide from router) or eviction if habitual."""
        res = self._resilience
        rep.probations += 1
        rep.ttft_samples = []
        drained = rep.drain()
        if rep.probations > res.max_probations:
            rep.evicted = True
            self._events.append(FleetEvent(now, rep.index, "evict"))
        else:
            rep.probation_until = now + res.probation_ms
            self._events.append(FleetEvent(now, rep.index, "probation"))
            self._start("readmit", rep)
        self._routable.clear()
        if drained:
            # Running sequences finish in place (their KV is resident
            # and healthy); only queued work re-routes.
            drained.sort(key=lambda s: s.request.rid)
            pool = "decode" if rep.role == "decode" else "entry"
            self._send(drained, now, pool)

    def _end_probation(self, rep: _Replica, now: float) -> None:
        """Probation ends: a replica still up rejoins the router."""
        if rep.evicted or not rep.healthy or not rep.active:
            return
        self._events.append(FleetEvent(now, rep.index, "readmit"))
        self._flush_pending(now)

    # -- autoscaling ----------------------------------------------------------
    def _no_progress_possible(self) -> bool:
        """True when unserved work can never complete: arrivals over,
        no healthy replica, and no recovery scheduled."""
        if not self._arrivals_done or self._recoveries_outstanding:
            return False
        return not any(rep.healthy for rep in self._replicas)

    def _fleet_backlog(self) -> int:
        waiting = sum(rep.queue_depth for rep in self._replicas)
        return waiting + sum(len(q) for q in self._pending.values())

    def _warmed(self, rep: _Replica, now: float) -> None:
        if rep.routable(now):
            self._flush_pending(now)

    def _autoscale(self, now: float) -> bool:
        """One autoscaler tick; False once nothing is left to scale for."""
        scaler = self.scenario.autoscaler
        if self._resolved >= len(self.trace) or self._no_progress_possible():
            return False
        active = [rep for rep in self._replicas if rep.active]
        pressure = self._fleet_backlog() / max(1, len(active))
        if now < self._cooldown_until:
            return True
        if (
            pressure > scaler.scale_up_queue
            and len(active) < len(self._replicas)
        ):
            rep = next(r for r in self._replicas if not r.active)
            rep.active = True
            if rep.activated_at is None:
                # Cold start: pays the warm-up delay.
                rep.activated_at = now
                rep.warm_until = now + scaler.warmup_ms
            # else: still draining, hence still warm — reuse as-is.
            self._routable.clear()
            self._events.append(FleetEvent(now, rep.index, "up"))
            self._cooldown_until = now + scaler.cooldown_ms
            if now >= rep.warm_until:
                self._flush_pending(now)
            else:
                self._start("warmup_flush", rep)
        elif (
            pressure < scaler.scale_down_queue
            and len(active) > scaler.min_replicas
        ):
            # Drain the emptiest replica; ties prefer the highest
            # index so the base replicas stay up.
            victim = min(
                active,
                key=lambda r: (r.backlog_tokens, r.running, -r.index),
            )
            victim.active = False
            self._routable.clear()
            self._events.append(FleetEvent(now, victim.index, "down"))
            if not victim.waiting and not victim.resident:
                victim.close_window(now)
            self._cooldown_until = now + scaler.cooldown_ms
        return True
