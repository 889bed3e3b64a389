"""Admission-order policies for the continuous-batching scheduler.

A policy maps ``(waiting sequence, now_ms, cost_model, slo_ttft_ms)``
to a sortable priority — lower runs first; the scheduler appends the
request id as the final tiebreaker, keeping every policy deterministic.
Policies live in :data:`POLICY_REGISTRY`, which spec construction reads
to check a ``policy`` name without loading the scheduler itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.api.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.engine_adapter import StepCostModel
    from repro.serve.scheduler import _Sequence

__all__ = ["POLICY_REGISTRY", "SchedulerPolicy"]

SchedulerPolicy = Callable[["_Sequence", float, "StepCostModel", float], float]

POLICY_REGISTRY = Registry("policy")


def _register(name: str) -> Callable[[SchedulerPolicy], SchedulerPolicy]:
    def decorate(fn: SchedulerPolicy) -> SchedulerPolicy:
        POLICY_REGISTRY.register(name, fn)
        return fn

    return decorate


@_register("fcfs")
def fcfs(seq: _Sequence, now: float, cost: StepCostModel, slo: float) -> float:
    """First come, first served: admit in arrival order."""
    return seq.request.arrival_ms


@_register("spf")
def shortest_prompt_first(
    seq: _Sequence, now: float, cost: StepCostModel, slo: float
) -> float:
    """Shortest prompt first: cheap prefills jump the queue (SJF)."""
    return float(seq.request.prompt_tokens)


@_register("slo")
def slo_aware(seq: _Sequence, now: float, cost: StepCostModel, slo: float) -> float:
    """Least TTFT slack first.

    Slack is the time left before the request's TTFT deadline after
    accounting for its estimated prefill cost — long prompts near their
    deadline overtake short prompts with slack to spare.
    """
    deadline = seq.request.arrival_ms + slo
    return deadline - now - cost.prefill_ms(seq.request.prompt_tokens)
