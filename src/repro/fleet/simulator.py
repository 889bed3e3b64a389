"""The fleet engine: N serving replicas behind one router.

Two execution paths produce :class:`~repro.fleet.metrics.FleetReport`s:

**Decomposed** — a static fleet (no autoscaler, no failures, all-unified
roles) under a state-independent router is embarrassingly parallel: the
routing decision for every request is a pure function of the arrival
sequence, so the trace is partitioned up front and each replica runs
through the ordinary
:class:`~repro.serve.scheduler.ContinuousBatchingScheduler` — which
means the PR 3 fast serving loop (and its timing caches) is reused
verbatim, and a 1-replica round-robin fleet is *bit-identical* to the
bare serving engine (the equivalence tests enforce ``==`` on the record
tuples).

**Co-simulated** — state-dependent routers (least-queue,
power-of-two-choices), autoscaling, failure injection, and
prefill/decode disaggregation all couple the replicas, so the fleet
runs as one discrete-event simulation on the
:class:`~repro.sim.engine.Environment`: one arrival/dispatch process,
one engine process per replica, plus optional failure and autoscaler
processes.  Everything stays deterministic: the DES queue breaks ties
by sequence number, routers are seeded, and admission sorts carry the
request id as final tiebreaker.

Step kernel: each engine process drives a
:class:`~repro.serve.scheduler.ReplicaCore`, the single-replica
scheduler's admit/launch/retire.  A sequence's last step is known at
admission, so the core files it in a completion map keyed by step and
a step costs O(admitted + completed), not O(running).  Load signals are
O(1) counters, and each pool's routable-candidate list is rebuilt only
when a replica fails, recovers, scales, warms or enters probation.
Under ``perf.disabled()`` (``fast_serve_loop`` off) the cores count
every running sequence's token instead: the retained reference.

Parity scope: on a scenario the decomposed path accepts, the forced
co-simulation reproduces its reports and exports exactly for every
system with ``timing_state_token() is None``.  Adaptive COMET is
excluded: it records each power-of-two bucket's division point from the
first workload that probes it, and the two paths probe buckets in
different orders (replica after replica vs interleaved in time).  A
2-replica round-robin fleet on Poisson 300 rps for 3 s (seed 3) differs
on all 888 records; one 1096-token step prices 11.05 ms decomposed vs
9.93 ms co-simulated.

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

from dataclasses import dataclass, field
from typing import Generator

from repro.faults.migration import OutcomeRecord
from repro.fleet.metrics import (
    DispatchRecord,
    FleetEvent,
    FleetReport,
    ReplicaStats,
)
from repro.fleet.router import Router, make_router
from repro.fleet.spec import FleetScenario, ReplicaSpec
from repro.perf import CONFIG as PERF_CONFIG
from repro.serve.engine_adapter import StepCostModel
from repro.serve.metrics import RequestRecord, TimelinePoint
from repro.serve.scheduler import (
    POLICY_REGISTRY,
    ContinuousBatchingScheduler,
    ReplicaCore,
    _record,
    _Sequence,
)
from repro.serve.traffic import Request
from repro.sim.engine import Environment, Event, Interrupt

__all__ = ["FleetEngine"]


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
    health, activity window, stats, resilience."""

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
            keyed=PERF_CONFIG.fast_serve_loop,
        )
        self.index = index
        self.spec = spec
        self.healthy = True
        self.active = active
        self.activated_at: float | None = 0.0 if active else None
        self.warm_until = 0.0  # initial replicas start warm
        self.wakeup: Event | None = None
        self.process = None
        self.in_step = False
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

    def wake(self) -> None:
        if self.wakeup is not None and not self.wakeup.triggered:
            self.wakeup.succeed()

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

    _records: list[RequestRecord] = field(default_factory=list, init=False)
    _events: list[FleetEvent] = field(default_factory=list, init=False)
    _dispatches: list[DispatchRecord] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._expanded = self.scenario.expand_replicas()
        if len(self.cost_models) != len(self._expanded):
            raise ValueError(
                f"need one cost model per replica instance: got "
                f"{len(self.cost_models)} for {len(self._expanded)} replicas"
            )
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
        stats: tuple[ReplicaStats, ...],
        timelines: tuple[tuple[TimelinePoint, ...], ...] = (),
    ) -> FleetReport:
        self._records.sort(key=lambda r: r.rid)
        return FleetReport(
            system=system_name,
            scenario_label=self.scenario.label,
            router=self.scenario.router,
            num_replicas=len(self._expanded),
            records=tuple(self._records),
            replica_stats=stats,
            events=tuple(self._events),
            slo_ttft_ms=self.scenario.slo_ttft_ms,
            slo_tpot_ms=self.scenario.slo_tpot_ms,
            horizon_ms=self.scenario.trace.horizon_ms,
            offered=len(self.trace),
            dispatches=tuple(self._dispatches),
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

        The forced co-simulation reproduces this path exactly for every
        system with ``timing_state_token() is None``.  Adaptive COMET is
        excluded: its division points come from the first workload to
        probe each bucket, and this path probes replica after replica
        while the co-simulation interleaves them (see the module doc).
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
                DispatchRecord(request.rid, request.arrival_ms, pick.index)
            )

        per_replica: list[tuple[int, float]] = []  # (steps, busy_ms)
        counts: list[int] = []
        timelines: list[tuple[TimelinePoint, ...]] = []
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
            self._records.extend(records)
            per_replica.append((len(timeline), scheduler.busy_ms))
            counts.append(len(records))
            timelines.append(tuple(timeline))

        window = FleetReport.accounting_window(
            self.scenario.trace.horizon_ms, self._records, self._outcomes
        )
        stats = tuple(
            ReplicaStats(
                replica=index,
                role="unified",
                requests=counts[index],
                steps=steps,
                busy_ms=busy,
                active_ms=window,
                gpus=spec.gpus,
            )
            for index, (spec, (steps, busy)) in enumerate(
                zip(self._expanded, per_replica)
            )
        )
        return self._report(system_name, stats, tuple(timelines))

    # -- co-simulation --------------------------------------------------------
    def _run_cosim(self, system_name: str) -> FleetReport:
        scenario = self.scenario
        env = Environment()
        self._env = env
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
        crashes = scenario.all_crashes
        self._recoveries_outstanding = sum(
            1 for event in crashes if event.recover_ms is not None
        )

        # Process creation order mirrors the single-replica scheduler
        # (arrivals first, then engines), keeping the event-id
        # tie-breaking aligned so a 1-replica co-simulation reproduces
        # the bare engine's records exactly.
        env.process(self._arrivals(env))
        for rep in self._replicas:
            rep.process = env.process(self._engine(env, rep))
        for event in crashes:
            env.process(self._failure(env, event))
        if self._faults is not None:
            for event in self._faults.degrades:
                env.process(self._degrade_marker(env, event))
        if scenario.autoscaler is not None:
            env.process(self._autoscaler(env))
        if self._track_health:
            env.process(self._detector(env))

        total = len(self.trace)
        # Manual stepping (not run(until=...)): the queue legitimately
        # drains with requests still unserved when every replica is dead
        # and no recovery is coming — peek() going +inf ends the run.
        # Scheduled recoveries are part of the fault plan even when the
        # last request resolves first, so drain them before closing the
        # window: otherwise a recovery a few ms past the final
        # completion never lands in the event log and the report
        # undercounts `recoveries`.
        while (
            self._resolved < total or self._recoveries_outstanding
        ) and env.peek() != float("inf"):
            env.step()

        window = FleetReport.accounting_window(
            scenario.trace.horizon_ms, self._records, self._outcomes
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
        return self._report(
            system_name, stats, tuple(tuple(r.timeline) for r in self._replicas)
        )

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
            self._dispatches.append(
                DispatchRecord(seq.request.rid, now, pick.index, pool)
            )
            pick.enqueue(seq)
            pick.wake()

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
                self._dispatches.append(
                    DispatchRecord(seq.request.rid, now, index, pool)
                )
            delay = self._migration.transfer_ms(nbytes, len(group), mult=mult)
            # Tag each sequence with its attempt number: a front-door retry
            # cancels in-flight copies, so stale deliveries must drop.
            tagged = [(seq, seq.attempt) for seq in group]
            self._env.process(
                self._deliver(self._env, self._replicas[index], tagged, delay, pool)
            )

    def _deliver(
        self,
        env: Environment,
        rep: _Replica,
        tagged: list[tuple[_Sequence, int]],
        delay: float,
        pool: str,
    ) -> Generator:
        if delay > 0:
            yield env.timeout(delay)
        now = env.now
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
            rep.wake()
            return
        # Destination crashed or was quarantined in flight: the payload
        # re-ships to a new replica (or parks at the fleet door).
        self._send(arrived, now, pool)

    def _arrivals(self, env: Environment) -> Generator:
        res = self._resilience
        for request in self.trace:
            delay = request.arrival_ms - env.now
            if delay > 0:
                yield env.timeout(delay)
            seq = _Sequence(request)
            if (
                res is not None
                and res.wants_shed
                and self._should_shed(env.now)
            ):
                self._resolve_outcome(seq, env.now, "shed", attempts=0)
                continue
            self._dispatch(seq, env.now)
            if res is not None and res.wants_deadline:
                env.process(self._frontdoor(env, seq))
        self._arrivals_done = True

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

    def _frontdoor(self, env: Environment, seq: _Sequence) -> Generator:
        """Per-request deadline loop: cancel, retry with backoff, give up.

        A sequence that times out mid-service is reclaimed wherever it
        sits (queued, admitted, running, in-flight) — work already spent
        on it stays burned, the vLLM-style wasted-work model.  Retries
        restart from un-prefilled state through the entry pool; backoff
        is deterministic per (seed, rid, attempt).
        """
        res = self._resilience
        retries = 0
        while True:
            yield env.timeout(res.timeout_ms)
            if seq.finished:
                return
            self._cancel(seq)
            if retries >= res.max_retries:
                self._resolve_outcome(
                    seq, env.now, "timeout", attempts=retries
                )
                return
            self._events.append(FleetEvent(env.now, -1, "retry"))
            backoff = res.retry_backoff_ms(seq.request.rid, retries)
            retries += 1
            if backoff > 0:
                yield env.timeout(backoff)
            seq.first_token_ms = float("nan")
            seq.generated = 0
            seq.cancelled = False
            self._dispatch(seq, env.now)

    # -- per-replica engine ---------------------------------------------------
    def _engine(self, env: Environment, rep: _Replica) -> Generator:
        total = len(self.trace)
        while True:
            if not rep.waiting and not rep.resident:
                if not rep.active:
                    # Drained after scale-down: stop the meter.
                    rep.close_window(env.now)
                if self._resolved >= total:
                    return
                rep.wakeup = env.event()
                yield rep.wakeup
                rep.wakeup = None
                continue

            step = rep.launch(env.now)
            rep.last_step_ms = step
            rep.in_step = True
            rep.step_started = env.now
            try:
                yield env.timeout(step)
            except Interrupt:
                # Failed mid-step: the work is lost but the GPUs burned.
                rep.busy_ms += env.now - rep.step_started
                rep.in_step = False
                continue
            rep.in_step = False
            rep.busy_ms += step
            now = env.now
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
    def _failure(self, env: Environment, event) -> Generator:
        yield env.timeout(event.fail_ms)
        rep = self._replicas[event.replica]
        if rep.healthy:
            rep.healthy = False
            self._routable.clear()
            self._events.append(FleetEvent(env.now, rep.index, "fail"))
            # Reclaim everything the replica held; its KV is gone, so
            # every sequence restarts from un-prefilled state.
            reclaimed = rep.reclaim()
            if rep.in_step:
                rep.process.interrupt("replica failure")
            reclaimed.sort(key=lambda s: s.request.rid)
            if reclaimed:
                self._send(reclaimed, env.now, "entry")
        if event.recover_ms is not None:
            yield env.timeout(event.recover_ms - env.now)
            rep.healthy = True
            self._routable.clear()
            self._events.append(FleetEvent(env.now, rep.index, "recover"))
            self._recoveries_outstanding -= 1
            self._flush_pending(env.now)

    def _degrade_marker(self, env: Environment, event) -> Generator:
        """Emit degrade/restore markers for one scheduled degradation.

        The pricing itself lives in the replica's
        :class:`~repro.faults.plan.TimeVaryingStepCost`; these events
        only make the window visible in reports and trace exports.
        """
        yield env.timeout(event.t0_ms - env.now)
        self._events.append(FleetEvent(env.now, event.replica, "degrade"))
        yield env.timeout(event.t1_ms - env.now)
        self._events.append(FleetEvent(env.now, event.replica, "restore"))

    # -- health detection / probation ----------------------------------------
    def _detector(self, env: Environment) -> Generator:
        res = self._resilience
        total = len(self.trace)
        while True:
            yield env.timeout(res.check_interval_ms)
            if self._resolved >= total or self._no_progress_possible():
                return
            self._health_check(env.now)

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
            self._env.process(self._readmit(self._env, rep))
        self._routable.clear()
        if drained:
            # Running sequences finish in place (their KV is resident
            # and healthy); only queued work re-routes.
            drained.sort(key=lambda s: s.request.rid)
            pool = "decode" if rep.role == "decode" else "entry"
            self._send(drained, now, pool)

    def _readmit(self, env: Environment, rep: _Replica) -> Generator:
        yield env.timeout(rep.probation_until - env.now)
        if rep.evicted or not rep.healthy or not rep.active:
            return
        self._events.append(FleetEvent(env.now, rep.index, "readmit"))
        self._flush_pending(env.now)

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

    def _warmup_flush(self, env: Environment, rep: _Replica) -> Generator:
        yield env.timeout(rep.warm_until - env.now)
        if rep.routable(env.now):
            self._flush_pending(env.now)

    def _autoscaler(self, env: Environment) -> Generator:
        scaler = self.scenario.autoscaler
        total = len(self.trace)
        cooldown_until = 0.0
        while True:
            yield env.timeout(scaler.interval_ms)
            now = env.now
            if self._resolved >= total or self._no_progress_possible():
                return
            active = [rep for rep in self._replicas if rep.active]
            pressure = self._fleet_backlog() / max(1, len(active))
            if now < cooldown_until:
                continue
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
                cooldown_until = now + scaler.cooldown_ms
                if now >= rep.warm_until:
                    self._flush_pending(now)
                else:
                    env.process(self._warmup_flush(env, rep))
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
                cooldown_until = now + scaler.cooldown_ms
