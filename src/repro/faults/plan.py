"""Scheduled fault plans: crashes, time-varying degradation, brownouts.

A :class:`FaultPlan` generalises the flat crash list the fleet simulator
grew in PR 6 (:class:`FailureEvent`, which now lives here and is
re-exported from :mod:`repro.fleet.spec` unchanged) into a schedule of
three event families:

* :class:`FailureEvent` — the existing hard crash/recover edge: the
  replica loses its KV state and its reclaimed requests restart from
  prefill;
* :class:`DegradeEvent` — a *soft* fault: between ``t0_ms`` and
  ``t1_ms`` the replica runs with an extra
  :class:`~repro.graph.straggler.StragglerSpec` composed onto its base
  spec (or a uniform compute/comm multiplier applied to every rank), so
  its effective straggler spec becomes a step function over the trace.
  This is MegaScale-MoE's production failure mode (arXiv:2505.11432):
  nodes throttle and NICs brown out far more often than they crash;
* :class:`BrownoutEvent` — a fleet-level interconnect brownout: KV
  migrations (:mod:`repro.faults.migration`) started inside the window
  pay ``mult``× the link transfer time.

Degrade windows on one replica may overlap — active events compose
multiplicatively (:meth:`StragglerSpec.compose`), exactly like two
independent throttling mechanisms stacking.  Crash windows may not
overlap (same rule the fleet scenario always enforced).

Pricing follows the step function without touching the simulator hot
loop: :meth:`FaultPlan.boundaries` cuts one replica's timeline into
windows, each window gets its own fingerprint-keyed
:func:`~repro.perf.shared_step_cost` model (identical windows — and the
un-degraded gaps, which reuse the base model object — are deduplicated
by the cache), and :class:`TimeVaryingStepCost` selects the window model
by step start time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.domains import knob, validate
from repro.graph.straggler import StragglerSpec

__all__ = [
    "BrownoutEvent",
    "DegradeEvent",
    "FailureEvent",
    "FaultPlan",
    "TimeVaryingStepCost",
]


@dataclass(frozen=True)
class FailureEvent:
    """One injected replica failure (and optional recovery).

    At ``fail_ms`` the replica goes down: its queued and in-flight
    requests are reclaimed and re-routed (restarting from prefill —
    their KV state died with the replica).  At ``recover_ms`` (if set)
    it returns to the routable pool; ``None`` means the replica stays
    dead for the rest of the run.
    """

    replica: int = knob(ge=0, integral=True)
    fail_ms: float = knob(ge=0)
    recover_ms: float | None = knob(None, gt=0)

    def __post_init__(self) -> None:
        validate(self)
        if self.recover_ms is not None and self.recover_ms <= self.fail_ms:
            raise ValueError(
                f"recover_ms ({self.recover_ms}) must exceed fail_ms "
                f"({self.fail_ms})"
            )


@dataclass(frozen=True)
class DegradeEvent:
    """One replica runs degraded on ``[t0_ms, t1_ms)``.

    Either give ``stragglers`` (a full per-rank
    :class:`~repro.graph.straggler.StragglerSpec`, validated against the
    replica's world size by the scenario) or uniform ``compute_mult`` /
    ``comm_mult`` multipliers applied to every rank of the replica —
    ``comm_mult`` alone models a per-replica link brownout.  The event's
    spec composes multiplicatively onto the replica's base spec and onto
    any other degrade active in the same window.
    """

    replica: int = knob(ge=0, integral=True)
    t0_ms: float = knob(ge=0)
    t1_ms: float = knob(gt=0)
    compute_mult: float = knob(1.0, gt=0)
    comm_mult: float = knob(1.0, gt=0)
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        validate(self)
        if self.t1_ms <= self.t0_ms:
            raise ValueError(
                f"t1_ms ({self.t1_ms}) must exceed t0_ms ({self.t0_ms})"
            )
        if self.stragglers is None:
            if self.compute_mult == 1.0 and self.comm_mult == 1.0:
                raise ValueError(
                    "a degrade event needs a straggler spec or a non-unit "
                    "compute/comm multiplier"
                )
        elif self.stragglers.is_uniform:
            raise ValueError(
                "a uniform straggler spec degrades nothing — drop the event"
            )

    def spec(self, num_ranks: int) -> StragglerSpec:
        """The event's per-rank spec, materialised for ``num_ranks``."""
        if self.stragglers is not None:
            return self.stragglers
        ones = (1.0,) * num_ranks
        return StragglerSpec(
            compute_mult=(float(self.compute_mult),) * num_ranks,
            comm_mult=(float(self.comm_mult),) * num_ranks,
            expert_mult=ones,
            name=self.label,
        )

    @property
    def label(self) -> str:
        if self.stragglers is not None:
            return f"deg:{self.stragglers.label}"
        parts = []
        if self.compute_mult != 1.0:
            parts.append(f"x{self.compute_mult:g}")
        if self.comm_mult != 1.0:
            parts.append(f"comm{self.comm_mult:g}")
        return "deg:" + "/".join(parts)


@dataclass(frozen=True)
class BrownoutEvent:
    """The inter-replica migration link runs ``mult``× slower on
    ``[t0_ms, t1_ms)``.  Only KV migrations pay it (intra-replica
    collectives are priced by the replica's own cost model; degrade
    those with a ``comm_mult`` :class:`DegradeEvent`).  Overlapping
    brownouts compose multiplicatively."""

    t0_ms: float = knob(ge=0)
    t1_ms: float = knob(gt=0)
    mult: float = knob(2.0, gt=1)

    def __post_init__(self) -> None:
        validate(self)
        if self.t1_ms <= self.t0_ms:
            raise ValueError(
                f"t1_ms ({self.t1_ms}) must exceed t0_ms ({self.t0_ms})"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A full fault schedule for one fleet scenario.

    ``crashes`` extend (and merge with) the scenario's legacy
    ``failures`` tuple; ``degrades`` and ``brownouts`` are the new soft
    families.  An empty plan is exactly equivalent to no plan at all —
    the scenario label gains no part and every replica keeps its base
    cost model object.
    """

    crashes: tuple[FailureEvent, ...] = ()
    degrades: tuple[DegradeEvent, ...] = ()
    brownouts: tuple[BrownoutEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "degrades", tuple(self.degrades))
        object.__setattr__(self, "brownouts", tuple(self.brownouts))

    def __bool__(self) -> bool:
        return bool(self.crashes or self.degrades or self.brownouts)

    @property
    def label(self) -> str:
        parts = []
        if self.crashes:
            parts.append(f"{len(self.crashes)}c")
        if self.degrades:
            parts.append(f"{len(self.degrades)}d")
        if self.brownouts:
            parts.append(f"{len(self.brownouts)}b")
        return "+".join(parts)

    def degrades_for(self, replica: int) -> tuple[DegradeEvent, ...]:
        return tuple(e for e in self.degrades if e.replica == replica)

    def boundaries(
        self,
        replica: int,
        num_ranks: int,
        base: StragglerSpec | None = None,
    ) -> tuple[tuple[float, StragglerSpec | None], ...]:
        """One replica's straggler step function as ``(start_ms, spec)``
        windows.

        Returns an ascending tuple of window starts (always beginning at
        0.0); each window's spec is the replica's ``base`` composed with
        every degrade event active in it.  Windows where no event is
        active carry ``None``, meaning *use the base model object
        unchanged* — that sharing is what keeps the un-degraded portions
        of the trace bit-identical to a fault-free run.  Empty when the
        replica has no degrade events.
        """
        events = self.degrades_for(replica)
        if not events:
            return ()
        cuts = sorted({0.0} | {e.t0_ms for e in events} | {e.t1_ms for e in events})
        windows: list[tuple[float, StragglerSpec | None]] = []
        for start in cuts:
            active = [e for e in events if e.t0_ms <= start < e.t1_ms]
            if not active:
                windows.append((start, None))
                continue
            spec = base
            for event in active:
                event_spec = event.spec(num_ranks)
                spec = event_spec if spec is None else spec.compose(event_spec)
            windows.append((start, spec))
        return tuple(windows)

    def brownout_mult(self, t_ms: float) -> float:
        """Composed migration-link slowdown at time ``t_ms``."""
        mult = 1.0
        for event in self.brownouts:
            if event.t0_ms <= t_ms < event.t1_ms:
                mult *= event.mult
        return mult


class TimeVaryingStepCost:
    """Step-function wrapper over per-window step-cost models.

    Selects the model whose window contains a step's *start* time — a
    step that straddles an event boundary is priced entirely at the
    conditions it launched under, the same convention real engines
    exhibit (an iteration in flight does not re-plan).  Outside every
    degrade window the wrapper returns the *base* model's costs, so the
    un-degraded prefix/suffix of a trace prices bit-identically to a
    fault-free run.

    The scheduler-facing surface mirrors
    :class:`~repro.serve.engine_adapter.StepCostModel`: ``step_ms_at``
    is the pricing entry point both serving loops and the fleet co-sim
    call; ``step_ms``/``prefill_ms`` delegate to the t=0 window (the
    SLO-aware admission policy's prefill estimate is deliberately
    time-invariant — admission ranking under a transient fault should
    not thrash).
    """

    def __init__(self, starts, models):
        starts = tuple(float(t) for t in starts)
        models = tuple(models)
        if not starts or len(starts) != len(models):
            raise ValueError(
                f"need one model per window start, got {len(starts)} starts "
                f"for {len(models)} models"
            )
        if starts[0] != 0.0:
            raise ValueError(f"the first window must start at 0.0, got {starts[0]}")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"window starts must be strictly ascending: {starts}")
        self.starts = starts
        self.models = models

    def model_at(self, now: float):
        """The window model governing a step launched at ``now``."""
        return self.models[bisect.bisect_right(self.starts, now) - 1]

    def step_ms_at(
        self, now: float, prefill_tokens: int, decode_tokens: int
    ) -> float:
        return self.model_at(now).step_ms_at(now, prefill_tokens, decode_tokens)

    def step_ms(self, prefill_tokens: int, decode_tokens: int) -> float:
        return self.models[0].step_ms(prefill_tokens, decode_tokens)

    def prefill_ms(self, prompt_tokens: int) -> float:
        return self.models[0].prefill_ms(prompt_tokens)

    def clear(self) -> None:
        for model in dict.fromkeys(self.models):
            model.clear()

    def cache_stats(self) -> dict:
        return self.models[0].cache_stats()
