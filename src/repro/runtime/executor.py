"""Single-layer execution entry points."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.runtime.workload import MoELayerWorkload
from repro.systems.base import LayerTiming, MoESystem, UnsupportedWorkload

__all__ = ["compare_systems"]


def compare_systems(
    systems: Iterable[MoESystem], workload: MoELayerWorkload
) -> Mapping[str, LayerTiming]:
    """Time every supporting system on the same workload.

    Systems that cannot run the workload (e.g. FasterMoE under tensor
    parallelism) are omitted from the result, matching how the paper's
    figures leave those bars out.
    """
    results: dict[str, LayerTiming] = {}
    for system in systems:
        try:
            results[system.name] = system.time_layer(workload)
        except UnsupportedWorkload:
            continue
    return results
