"""Continuous batching as a replay of a two-process event stream.

The scheduler replays, in one sequential loop, the events of two
simulation processes (:mod:`repro.oracles.serve_des` runs them as real
processes on the DES kernel, the reference the loop must equal):

* an *arrival* process that releases requests into the waiting queue at
  their trace timestamps, and
* an *engine* process that repeatedly forms an iteration batch
  (running decodes + newly admitted prefills under a token budget),
  advances the virtual clock by the iteration's step cost from a
  :class:`~repro.serve.engine_adapter.StepCostModel`, and retires
  finished sequences.

This is the vLLM-style continuous-batching iteration model: an admitted
request's prefill and its first output token happen in its first
iteration (that instant is its TTFT), and every later iteration the
request is in the batch produces exactly one more token.  Admission
order is pluggable through :data:`~repro.serve.policies.POLICY_REGISTRY`
— FCFS, shortest-prompt-first, and an SLO-aware least-slack policy
ship built in.

One replica's queues and step kernel (admit, launch, retire) live in
:class:`ReplicaCore`; the sequential loop and every replica of the fleet
co-simulation (:mod:`repro.fleet.simulator`) are thin drivers over it.

Completions and step samples are appended as plain row tuples and
become :class:`~repro.serve.metrics.Table` columns once, when a run
returns.

Everything is deterministic: the trace is fixed, simultaneous events
fire in the order the DES queue would pop them (by sequence number), and
admission sorts use stable keys with the request id as final tiebreaker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.engine_adapter import StepCostModel
from repro.serve.metrics import RequestRecord, Table, TimelinePoint
from repro.serve.policies import POLICY_REGISTRY, SchedulerPolicy
from repro.serve.traffic import Request, _check_trace

__all__ = [
    "POLICY_REGISTRY",
    "ContinuousBatchingScheduler",
    "ReplicaCore",
    "SchedulerPolicy",
]


@dataclass(eq=False, slots=True)
class _Sequence:
    """Mutable in-flight state of one request, compared and hashed by
    identity.  ``attempt`` counts front-door cancellations: completion-map
    entries and in-flight KV migrations remember the attempt they were
    made for and go stale once it moves on."""

    request: Request
    first_token_ms: float = float("nan")
    generated: int = 0
    attempt: int = 0
    cancelled: bool = False
    finished: bool = False

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


def _record(seq: _Sequence, now: float) -> tuple:
    """The :class:`RequestRecord` row of ``seq``, retired at ``now``."""
    request = seq.request
    return (
        request.rid, request.arrival_ms, seq.first_token_ms, now,
        request.prompt_tokens, request.output_tokens,
    )


class ReplicaCore:
    """One replica's queues and step kernel: admit, launch, retire.

    ``waiting`` carries ``waiting_tokens``, the running total of its
    admission cost; ``resident`` is the insertion-ordered set of
    sequences that closed a step here; ``admitted`` is the launched
    step's batch; ``timeline`` holds one :class:`TimelinePoint` row
    tuple per launched step.  A ``"prefill"`` role hands every admission
    back at the prefill boundary; a ``"decode"`` role admits resuming
    decodes at one budget token each (their KV is resident).

    Retirement: a sequence admitted at step ``k`` with generated count
    ``g`` after that step retires when step ``k + output_tokens - g``
    closes.  The core files it there in a completion map, tagged with
    its ``attempt`` so a front-door cancel stales the entry, and a step
    costs O(admitted + completed), not a count of every running
    sequence's token (:func:`repro.oracles.serve_des.per_token_close`).
    """

    def __init__(
        self,
        policy: SchedulerPolicy,
        cost_model: StepCostModel,
        slo_ttft_ms: float,
        max_batch_tokens: int,
        max_batch_size: int,
        role: str = "unified",
    ):
        self.policy = policy
        self.cost_model = cost_model
        self.slo_ttft_ms = slo_ttft_ms
        self.max_batch_tokens = max_batch_tokens
        self.max_batch_size = max_batch_size
        self.role = role
        self._resuming = role == "decode"
        self._hands_off = role == "prefill"
        self.waiting: list[_Sequence] = []
        self.waiting_tokens = 0
        self.resident: dict[_Sequence, None] = {}
        self.admitted: list[_Sequence] = []
        self.steps = 0
        self.timeline: list[tuple] = []
        self._completes: dict[int, list[tuple[_Sequence, int]]] = {}

    # -- router-facing load signals: O(1) reads of the queues ----------------
    @property
    def queue_depth(self) -> int:
        return len(self.waiting)

    @property
    def running(self) -> int:
        return len(self.resident) + len(self.admitted)

    @property
    def backlog_tokens(self) -> int:
        """Tokens of work still owed: waiting prompts (one token per
        waiting decode resume) plus one token per running sequence."""
        return self.waiting_tokens + len(self.resident) + len(self.admitted)

    # -- queue edits -----------------------------------------------------------
    def enqueue(self, seq: _Sequence) -> None:
        self.waiting.append(seq)
        self.waiting_tokens += 1 if self._resuming else seq.request.prompt_tokens

    def drain(self) -> list[_Sequence]:
        """Empty the waiting queue and return what it held."""
        drained, self.waiting, self.waiting_tokens = self.waiting, [], 0
        return drained

    def discard(self, seq: _Sequence) -> None:
        """Drop ``seq`` wherever it sits here; the caller bumps
        ``seq.attempt``, staling any completion-map entry it leaves."""
        if seq in self.resident:
            del self.resident[seq]
        elif seq in self.admitted:
            self.admitted.remove(seq)
        elif seq in self.waiting:
            self.waiting.remove(seq)
            self.waiting_tokens -= 1 if self._resuming else seq.request.prompt_tokens

    def reclaim(self) -> list[_Sequence]:
        """Empty the replica (its KV is lost): every sequence it held,
        reset to un-prefilled."""
        reclaimed = [*self.drain(), *self.admitted, *self.resident]
        self.admitted, self.resident = [], {}
        self._completes.clear()
        for seq in reclaimed:
            seq.first_token_ms = float("nan")
            seq.generated = 0
        return reclaimed

    # -- the step kernel -------------------------------------------------------
    def launch(self, now: float) -> float:
        """Admit, sample the timeline and price one step launched at
        ``now`` (at the price in force then); returns its length in ms.

        Admission is policy-ordered first fit under the token budget: one
        token per resident sequence plus each admission's cost.  A prompt
        longer than the whole budget is admitted alone on an otherwise
        idle replica (it can never fit better), so no request can
        deadlock the queue.
        """
        resident = len(self.resident)
        resuming = self._resuming
        admitted: list[_Sequence] = []
        used = resident
        waiting = self.waiting
        if waiting:
            policy, cost_model, slo = self.policy, self.cost_model, self.slo_ttft_ms
            waiting.sort(
                key=lambda seq: (policy(seq, now, cost_model, slo), seq.request.rid)
            )
            budget = self.max_batch_tokens
            slots = self.max_batch_size - resident
            remaining: list[_Sequence] = []
            for index, seq in enumerate(waiting):
                cost = 1 if resuming else seq.request.prompt_tokens
                if not resuming and not admitted and not resident and cost > budget:
                    admitted.append(seq)
                    used += cost
                    remaining.extend(waiting[index + 1:])
                    break
                if len(admitted) < slots and used + cost <= budget:
                    admitted.append(seq)
                    used += cost
                else:
                    remaining.append(seq)
            self.waiting = remaining
            self.waiting_tokens -= used - resident
        if resuming:
            prefill_tokens, decode_tokens = 0, used
        else:
            prefill_tokens, decode_tokens = used - resident, resident
        if not self._hands_off:
            completes = self._completes
            step = self.steps
            for seq in admitted:
                left = seq.request.output_tokens - (seq.generated + 1 if resuming else 1)
                key = step + left if left > 0 else step
                completes.setdefault(key, []).append((seq, seq.attempt))
        self.admitted = admitted
        self.timeline.append((
            now, len(self.waiting), prefill_tokens + decode_tokens,
            resident + len(admitted),
        ))
        return self.cost_model.step_ms_at(now, prefill_tokens, decode_tokens)

    def close(self, now: float) -> tuple[list[_Sequence], list[_Sequence]]:
        """Close the launched step at ``now``; returns ``(admitted,
        retired)``, the retired having left the replica.

        Admissions emit a prefill's first token (its TTFT) or a resuming
        decode's next.  Every admission leaves a prefill replica; those
        with nothing left to generate retire.  ``generated`` stays exact
        only for waiting and just-admitted sequences.
        """
        step = self.steps
        self.steps = step + 1
        admitted, self.admitted = self.admitted, []
        if self._resuming:
            for seq in admitted:
                seq.generated += 1
        else:
            for seq in admitted:
                seq.first_token_ms = now
                seq.generated = 1
        if self._hands_off:
            return admitted, [seq for seq in admitted if seq.done]
        resident = self.resident
        for seq in admitted:
            resident[seq] = None
        retired = []
        for seq, attempt in self._completes.pop(step, ()):
            if seq.attempt == attempt:
                del resident[seq]
                retired.append(seq)
        return admitted, retired


@dataclass
class ContinuousBatchingScheduler:
    """Simulate one serving replica over a request trace.

    Args:
        cost_model: per-iteration step costs for the system under test.
        trace: the request stream (shared verbatim across systems).
        max_batch_tokens: iteration token budget — running decodes count
            one token each, admitted prefills their full prompt length.
        max_batch_size: cap on concurrently running sequences.
        policy: admission-order policy name in :data:`POLICY_REGISTRY`.
        slo_ttft_ms: TTFT target handed to SLO-aware policies (metrics
            apply SLOs separately; the scheduler itself never drops work).
    """

    cost_model: StepCostModel
    trace: tuple[Request, ...]
    max_batch_tokens: int = 8192
    max_batch_size: int = 256
    policy: str = "fcfs"
    slo_ttft_ms: float = 2000.0

    #: RequestRecord and TimelinePoint row tuples of the current run.
    records: list[tuple] = field(default_factory=list, init=False)
    timeline: list[tuple] = field(default_factory=list, init=False)
    #: Simulated time spent inside engine steps (the fleet's utilization
    #: numerator).
    busy_ms: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.max_batch_tokens <= 0:
            raise ValueError(
                f"max_batch_tokens must be positive, got {self.max_batch_tokens}"
            )
        if self.max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        self._policy: SchedulerPolicy = POLICY_REGISTRY.get(self.policy)
        _check_trace(self.trace)

    # -- the sequential loop --------------------------------------------------
    def _run_fast(self) -> None:
        """Sequential transcription of the serving DES — bit-identical
        output.

        The DES (:func:`repro.oracles.serve_des.des_run`) only ever has
        two event streams in flight: the arrival process's next timeout
        (or its process-done event) and the engine's step timeout (or
        its wakeup).  This loop replays exactly those events, including
        the environment's ``(time, seq)`` tie-breaking (``seq`` counters
        move where ``Environment._schedule`` would move them), so records
        and timeline match the DES byte for byte without its generators.
        """
        trace = self.trace
        n = len(trace)
        core = self._core
        records = self.records
        eid = 2  # the two process-Initialize events consumed eids 1 and 2

        # Arrival channel: ("timeout", fire_time, eid) or exhausted (None).
        a_event: tuple[float, int] | None = None
        a_index = 0
        # Engine channel: pending step timeout, or a triggered wakeup, or
        # sleeping (no event at all).
        e_event: tuple[float, int] | None = None
        w_event: tuple[float, int] | None = None
        engine_sleeping = False

        def resume_arrivals(t: float) -> None:
            """The arrival generator's resume: append due requests, then
            schedule its next timeout (or finish)."""
            nonlocal a_index, a_event, eid, w_event, engine_sleeping
            while a_index < n:
                request = trace[a_index]
                delay = request.arrival_ms - t
                if delay > 0:
                    eid += 1
                    a_event = (t + delay, eid)
                    return
                core.enqueue(_Sequence(request))
                a_index += 1
                if engine_sleeping and w_event is None:
                    eid += 1  # wakeup.succeed() schedules at the current time
                    w_event = (t, eid)
            eid += 1  # the arrival Process event triggers (a no-op pop)
            a_event = None

        def resume_engine(t: float, finish_step: bool) -> None:
            """The engine generator's resume: close the previous step (if
            any), then run the loop until it suspends again."""
            nonlocal eid, e_event, engine_sleeping
            if finish_step:
                for seq in core.close(t)[1]:
                    records.append(_record(seq, t))
            if not (a_index < n or core.waiting or core.resident):
                eid += 1  # the engine Process event triggers; run() returns
                e_event = None
                return
            if not core.waiting and not core.resident:
                engine_sleeping = True  # wakeup Event created, not scheduled
                e_event = None
                return
            step = core.launch(t)
            self.busy_ms += step
            eid += 1
            e_event = (t + step, eid)

        # Initialize events fire in creation order at t=0.
        resume_arrivals(0.0)
        resume_engine(0.0, finish_step=False)

        while True:
            # Pop the earliest pending event; (time, eid) tie-breaking
            # matches the DES queue ordering exactly (eids never tie).
            event = a_event
            if w_event is not None and (event is None or w_event < event):
                event = w_event
            if e_event is not None and (event is None or e_event < event):
                event = e_event
            if event is None:
                return
            when = event[0]
            if event is a_event:
                a_event = None
                resume_arrivals(when)
            elif event is w_event:
                w_event = None
                engine_sleeping = False
                resume_engine(when, finish_step=False)
            else:
                e_event = None
                resume_engine(when, finish_step=True)

    # -- entry point ----------------------------------------------------------
    def run(self) -> tuple[Table, Table]:
        """Simulate the full trace to completion; returns the
        :class:`RequestRecord` and :class:`TimelinePoint` tables.

        Every request is served (the scheduler never drops), so the run
        terminates once the backlog drains.  Records are sorted by
        request id, making the output order independent of completion
        interleaving.
        """
        self._core = ReplicaCore(
            self._policy, self.cost_model, self.slo_ttft_ms,
            self.max_batch_tokens, self.max_batch_size,
        )
        self.records.clear()
        self.timeline = self._core.timeline
        self.busy_ms = 0.0
        self._run_fast()
        records = Table.from_tuples(RequestRecord, self.records).sorted_by("rid")
        return records, Table.from_tuples(TimelinePoint, self.timeline)
