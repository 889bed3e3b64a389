"""Single-layer execution entry points."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.runtime.workload import MoELayerWorkload
from repro.systems.base import LayerTiming, MoESystem, UnsupportedWorkload

__all__ = ["compare_systems"]


def compare_systems(
    systems: Iterable[MoESystem],
    workload: MoELayerWorkload,
    on_skip: Callable[[MoESystem, str], None] | None = None,
    timer: Callable[[MoESystem, MoELayerWorkload], LayerTiming] | None = None,
) -> Mapping[str, LayerTiming]:
    """Time every supporting system on the same workload.

    Systems that cannot run the workload (e.g. FasterMoE under tensor
    parallelism) are omitted from the result, matching how the paper's
    figures leave those bars out.  When ``on_skip`` is given it is called
    with ``(system, reason)`` for each omission, so callers can annotate
    the missing bars instead of dropping them wordlessly.

    ``timer`` overrides how a (system, workload) pair is timed; the
    declarative API passes :func:`repro.perf.cached_time_layer` so
    repeated pairs are simulated once.
    """
    time_layer = timer if timer is not None else (
        lambda system, w: system.time_layer(w)
    )
    results: dict[str, LayerTiming] = {}
    for system in systems:
        try:
            results[system.name] = time_layer(system, workload)
        except UnsupportedWorkload as exc:
            if on_skip is not None:
                on_skip(system, str(exc))
            continue
    return results
