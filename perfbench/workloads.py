"""The four workloads, each a closed loop with one caller.

An iteration starts when the previous one returns, in one process, with
no ``workers=``, threads or process executor.  Every iteration starts
from ``perf.clear_caches()``, because a user's fresh process pays the
cold ``TimingCache`` and workload synthesis; a warm repeat prices no
layer at all and would measure nothing.

Sizes are scaled so an iteration takes 0.2 to 0.5 nominal-host seconds
(see :mod:`perfbench.reference`; 0.3 to 1 s of raw time on a contended
2-vCPU x86 VM), giving 25 to 60 iterations in a 25 s run while each
workload's chosen layer keeps the largest share of self time.
"""

import dataclasses
import functools
import json
import statistics
from typing import Any

from repro import ExperimentSpec, FleetSpec, ServeSpec, TraceSpec
from repro.bench import figures
from repro.bench.validation import validate_all


class Workload:
    """One named workload.

    :meth:`setup` builds the inputs from the seed; :meth:`run` executes
    one iteration and returns ``(result, export)``, where ``export`` is
    the JSON text whose digest must repeat; :meth:`check` lists the
    output checks the result fails.
    """

    name = ""
    #: The layers this workload is chosen to load: the traced run should
    #: attribute the largest share of self time to one of them.
    layers: tuple[str, ...] = ()
    #: What one item of ``items_per_s`` is.
    item_unit = ""
    #: The inputs ``--seed`` drives.
    seed_drives = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any) -> tuple[Any, str]:
        raise NotImplementedError

    def items(self, result: Any) -> int:
        raise NotImplementedError

    def check(self, inputs: Any, result: Any) -> list[str]:
        raise NotImplementedError

    def seed_note(self, seed: int) -> str:
        return f"seed {seed} drives {self.seed_drives}"


class PaperFigures(Workload):
    """The paper's claim checks (validate_all(quick=True), 11 claims) plus
    the Fig. 9 grid at 4096 tokens (12 rows); loads moe routing synthesis
    and kernels/systems pricing, never graph.
    """

    name = "paper-figures"
    layers = ("workload", "time_layer")
    item_unit = "Fig. 9 rows"
    claims = 11

    def seed_note(self, seed: int) -> str:
        return f"seed {seed} unused: paper-figures runs the paper's fixed grid"

    def setup(self, seed: int) -> None:
        return None

    def run(self, inputs: None) -> tuple[Any, str]:
        claims = validate_all(quick=True)
        fig09 = figures.fig09_end_to_end(total_tokens=(4096,))
        export = json.dumps(
            {
                "claims": [claim.row() for claim in claims],
                "fig09": [dataclasses.asdict(row) for row in fig09.rows],
            },
            sort_keys=True,
        )
        return (claims, fig09), export

    def items(self, result: Any) -> int:
        return len(result[1].rows)

    def check(self, inputs: None, result: Any) -> list[str]:
        claims, fig09 = result
        problems = [
            f"claim {claim.claim_id} fails: {claim.details}"
            for claim in claims
            if not claim.passed
        ]
        if len(claims) != self.claims:
            problems.append(f"{len(claims)} claims checked, expected {self.claims}")
        if not fig09.rows:
            problems.append("Fig. 9 produced no rows")
        return problems


class GraphSweep(Workload):
    """Mixtral on 8xH800, every TP x EP split, 4096 tokens, two overlap
    policies, with and without a 1.5x straggler (68 rows); the only
    workload that loads graph lowering and scheduling.
    """

    name = "graph-sweep"
    layers = ("graph.lower", "graph.schedule")
    item_unit = "grid rows"
    seed_drives = "the routing synthesis of every grid point"

    def setup(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec.grid(
            models="mixtral",
            clusters="h800",
            strategies="sweep",
            tokens=4096,
            overlap_policies=("per_layer", "cross_layer"),
            stragglers=(None, 1.5),
            seeds=seed,
        )

    def run(self, inputs: ExperimentSpec) -> tuple[Any, str]:
        results = inputs.run(level="model")
        return results, results.to_json()

    def items(self, result: Any) -> int:
        return len(result.rows)

    def check(self, inputs: ExperimentSpec, result: Any) -> list[str]:
        problems = []
        if not result.rows:
            problems.append("the sweep produced no rows")
        missing = sum(row.model_timing is None for row in result.rows)
        if missing:
            problems.append(f"{missing} rows lack a model timing")
        return problems


@functools.cache
def _trace_length(trace: TraceSpec) -> int:
    return len(trace.build())


def _offered(scenarios: Any) -> dict[str, int]:
    """Trace length per scenario label, from the seeded trace specs."""
    return {scenario.label: _trace_length(scenario.trace) for scenario in scenarios}


class ServePoisson(Workload):
    """Poisson 100 rps for 50 s served by comet and megatron (about
    10,000 requests); loads the serve fast loop, with few time_layer
    calls.  Both systems keep up with 100 rps, so the queue stays short
    and the work grows linearly with the seed's request count; near
    saturation a few percent more requests grow the queue, and the
    loop's cost, by a quarter.
    """

    name = "serve-poisson"
    layers = ("serve.loop",)
    item_unit = "simulated requests"
    seed_drives = "the Poisson trace"

    def setup(self, seed: int) -> ServeSpec:
        return ServeSpec.grid(
            traces=TraceSpec(kind="poisson", rps=100, duration_s=50, seed=seed),
            systems=("comet", "megatron"),
        )

    def run(self, inputs: ServeSpec) -> tuple[Any, str]:
        results = inputs.run()
        return results, results.to_json()

    def items(self, result: Any) -> int:
        return sum(len(report.records) for report in result.reports)

    def check(self, inputs: ServeSpec, result: Any) -> list[str]:
        offered = _offered(inputs.scenarios)
        problems = [f"skipped {skip.system}: {skip.reason}" for skip in result.skips]
        for report in result.reports:
            expected = offered[report.scenario_label]
            if len(report.records) != expected:
                problems.append(
                    f"{report.system} completed {len(report.records)} of "
                    f"{expected} offered requests"
                )
        if len(result.reports) != len(inputs.system_names()):
            problems.append(f"{len(result.reports)} reports for {len(inputs.system_names())} systems")
        return problems


class FleetCosim(Workload):
    """8 comet replicas behind power_of_two, Poisson 1200 rps for 5 s
    (about 6000 requests); the state-dependent router forces the fleet
    co-simulation, whose engine loop is the top self-time frame.  At
    150 rps per replica no backlog grows, for the reason given for
    :class:`ServePoisson`.
    """

    name = "fleet-cosim"
    layers = ("fleet.engine",)
    item_unit = "simulated requests"
    seed_drives = "the Poisson trace and the power_of_two router"

    def setup(self, seed: int) -> FleetSpec:
        return FleetSpec.grid(
            replicas=8,
            routers="power_of_two",
            traces=TraceSpec(kind="poisson", rps=1200, duration_s=5, seed=seed),
            router_seed=seed,
            systems="comet",
        )

    def run(self, inputs: FleetSpec) -> tuple[Any, str]:
        results = inputs.run()
        return results, results.to_json()

    def items(self, result: Any) -> int:
        return sum(
            len(report.records) + report.timed_out + report.shed
            for report in result.reports
        )

    def check(self, inputs: FleetSpec, result: Any) -> list[str]:
        offered = _offered(inputs.scenarios)
        problems = [f"skipped {skip.system}: {skip.reason}" for skip in result.skips]
        for report in result.reports:
            resolved = len(report.records) + report.timed_out + report.shed
            expected = offered[report.scenario_label]
            if not resolved == report.offered == expected:
                problems.append(
                    f"{report.system}: completed+timed_out+shed={resolved}, "
                    f"offered={report.offered}, trace length={expected}"
                )
        if not result.reports:
            problems.append("the fleet produced no reports")
        return problems


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperFigures(), GraphSweep(), ServePoisson(), FleetCosim())
}


def paper_speedups() -> tuple[float, float]:
    """Simulated ``(single-layer, end-to-end)`` COMET speedups on the
    paper's grids: the Fig. 10 mean over token lengths and baselines, and
    the mean over Fig. 9 rows and baselines of baseline/Comet latency."""
    layer = figures.fig10_single_layer().mean_speedup
    e2e = statistics.fmean(
        row.latencies_ms[system] / row.latencies_ms["Comet"]
        for row in figures.fig09_end_to_end().rows
        for system in row.latencies_ms
        if system != "Comet"
    )
    return layer, e2e
