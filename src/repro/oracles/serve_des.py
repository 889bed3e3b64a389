"""The serving engine as explicit DES processes, with per-token retirement.

:meth:`repro.serve.scheduler.ContinuousBatchingScheduler._run_fast`
replays the events of two simulation processes in one loop, and
:meth:`repro.serve.scheduler.ReplicaCore.close` retires each sequence
from a completion map filed at admission.  This module keeps what both
must equal: :func:`des_run` runs the arrival and engine processes on
:class:`~repro.sim.engine.Environment`, and :func:`per_token_close`
counts every running sequence's new token at each step close.
"""

from __future__ import annotations

from repro.serve.scheduler import ReplicaCore, _record, _Sequence
from repro.sim.engine import Environment

__all__ = ["des_run", "per_token_close"]


def des_run(scheduler) -> None:
    """Serve ``scheduler.trace`` on its core as an arrival and an engine
    process, appending its records and step time to the scheduler."""
    core = scheduler._core
    env = Environment()
    pending = len(scheduler.trace)
    wakeup = None

    def arrivals():
        nonlocal pending
        for request in scheduler.trace:
            delay = request.arrival_ms - env.now
            if delay > 0:
                yield env.timeout(delay)
            core.enqueue(_Sequence(request))
            pending -= 1
            if wakeup is not None and not wakeup.triggered:
                wakeup.succeed()

    def engine():
        nonlocal wakeup
        while pending or core.waiting or core.resident:
            if not core.waiting and not core.resident:
                # Idle: sleep until the arrival process releases work.
                wakeup = env.event()
                yield wakeup
                wakeup = None
                continue
            step = core.launch(env.now)
            scheduler.busy_ms += step
            yield env.timeout(step)
            now = env.now
            scheduler.records.extend(_record(seq, now) for seq in core.close(now)[1])

    env.process(arrivals())
    env.run(until=env.process(engine()))


def per_token_close(
    core: ReplicaCore, now: float
) -> tuple[list[_Sequence], list[_Sequence]]:
    """:meth:`ReplicaCore.close` retiring by count: every resident
    sequence counts its new token, then the finished ones retire."""
    step = core.steps
    core.steps = step + 1
    core._completes.pop(step, None)  # the completion map goes unread here
    admitted, core.admitted = core.admitted, []
    for seq in admitted:
        if core._resuming:
            seq.generated += 1
        else:
            seq.first_token_ms = now
            seq.generated = 1
    if core._hands_off:
        return admitted, [seq for seq in admitted if seq.done]
    for seq in core.resident:
        seq.generated += 1
    retired: list[_Sequence] = []
    running: dict[_Sequence, None] = {}
    for seq in [*core.resident, *admitted]:
        if seq.done:
            retired.append(seq)
        else:
            running[seq] = None
    core.resident = running
    return admitted, retired
