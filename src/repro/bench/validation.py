"""Automated validation of the paper's claims against the simulator.

Runs every figure harness (optionally at reduced scale) and checks the
claim the paper attaches to it, producing a machine- and human-readable
verdict list.  This is the one-command answer to "does this
reproduction actually reproduce the paper?" — used by
``examples/reproduce_paper.py`` and the test suite.

Each row holds its paper values and bands; ``quick=False`` is the full
ledger, which adds the rows that only it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench import figures
from repro.bench.report import format_table

__all__ = ["Claim", "validate_all"]


@dataclass(frozen=True)
class Claim:
    """One paper claim and its verdict under this reproduction."""

    claim_id: str
    source: str  # paper location
    description: str
    passed: bool
    details: str

    def row(self) -> tuple:
        return (
            self.claim_id,
            self.source,
            "PASS" if self.passed else "FAIL",
            self.details,
        )


def _claim(
    claim_id: str, source: str, description: str, check: Callable[[], str]
) -> Claim:
    """Evaluate one claim: the check's detail string, or a FAIL row for
    anything it raises."""
    try:
        details = check()
        return Claim(claim_id, source, description, True, details)
    except AssertionError as exc:
        return Claim(claim_id, source, description, False, str(exc) or "assertion failed")
    except Exception as exc:
        return Claim(claim_id, source, description, False, f"{type(exc).__name__}: {exc}")


def _in_band(quantity: str, value: float, low: float, high: float) -> None:
    assert low < value < high, f"{quantity} {value:.3f} outside {low}-{high}"


def _comet_fastest(durations: dict, axis: str) -> None:
    """Comet beats every other system at each point (point -> system -> time)."""
    for point, systems in durations.items():
        rivals = [value for name, value in systems.items() if name != "Comet"]
        assert systems["Comet"] < min(rivals), f"Comet not fastest at {axis}={point}"


def _grows(rows: list, along: str, within: tuple[str, ...]) -> None:
    """Every system's duration is non-decreasing in ``along`` among rows
    that agree on ``within``."""
    series: dict = {}
    for row in sorted(rows, key=lambda r: getattr(r, along)):
        group = tuple(getattr(row, name) for name in within)
        for system, ms in row.durations_ms.items():
            series.setdefault((group, system), []).append(ms)
    for (group, system), values in series.items():
        assert values == sorted(values), f"{system} at {group} shrinks as {along} grows"


def validate_all(quick: bool = True) -> list[Claim]:
    """Evaluate every tracked claim; ``quick`` shrinks workload sizes and
    skips the full ledger's own rows."""
    claims: list[Claim] = []

    # -- Figure 1(a) -----------------------------------------------------------
    fig01 = figures.fig01_time_breakdown(
        seq_lens=(4096,) if quick else (4096, 8192)
    )

    def check_fig01() -> str:
        share = fig01.mean_comm_fraction
        _in_band("mean comm share", share, 0.35, 0.70)
        for row in fig01.rows:
            assert row.comm_fraction > 0.25, f"{row.model} M={row.seq_len} comm share"
            assert row.moe_fraction > 0.5, f"{row.model} M={row.seq_len} MoE share"
        return f"mean comm share {100 * share:.1f}% (paper: 47%)"

    claims.append(
        _claim(
            "comm-dominates",
            "Fig. 1a",
            "MoE communication is roughly half of model execution",
            check_fig01,
        )
    )

    # -- Figure 8 ---------------------------------------------------------------
    fig08 = figures.fig08_nc_sweep(
        token_lengths=(4096, 16384) if quick else (4096, 8192, 16384),
        variant_step=4 if quick else 2,
    )

    def check_fig08_interior() -> str:
        for curve in fig08.curves:
            ncs = sorted(curve.durations_us)
            assert curve.best_nc not in (ncs[0], ncs[-1]), (
                f"optimum at boundary for TP={curve.tp_size}"
            )
            ends = min(curve.durations_us[ncs[0]], curve.durations_us[ncs[-1]])
            assert ends > curve.durations_us[curve.best_nc] * 1.05, (
                f"flat curve for TP={curve.tp_size} M={curve.tokens}"
            )
        return "every duration-vs-nc curve has an interior optimum"

    claims.append(
        _claim(
            "nc-interior-optimum",
            "Fig. 8",
            "The communication-block count has an interior optimum",
            check_fig08_interior,
        )
    )

    def check_fig08_shift() -> str:
        nc_tp8 = fig08.best_nc(8, 1, 16384)
        nc_tp4 = fig08.best_nc(4, 2, 16384)
        assert nc_tp4 > nc_tp8, f"TP4 optimum {nc_tp4} <= TP8 optimum {nc_tp8}"
        nc_tp8_small = fig08.best_nc(8, 1, 4096)
        assert 12 <= nc_tp8_small <= 40, f"TP8 optimum {nc_tp8_small} at M=4096"
        assert nc_tp8 >= nc_tp8_small, "TP8 optimum falls as M grows"
        assert 36 <= nc_tp4 <= 60, f"TP4 optimum {nc_tp4} outside 36-60"
        return f"optimal nc: TP8={nc_tp8}, TP4={nc_tp4} (paper: 26 vs 46)"

    claims.append(
        _claim(
            "nc-shifts-with-parallelism",
            "Fig. 8 / §3.2.2",
            "The optimal division point moves with the parallel strategy",
            check_fig08_shift,
        )
    )

    # -- Figure 10 ---------------------------------------------------------------
    fig10 = figures.fig10_single_layer(
        token_lengths=(4096, 16384) if quick else (2048, 4096, 8192, 16384, 32768)
    )

    def check_fig10() -> str:
        low, high = fig10.speedup_range
        assert low > 1.1, f"min speedup {low:.2f} not above 1.1"
        assert high < 3.0, f"max speedup {high:.2f} not below 3.0"
        _in_band("mean speedup", fig10.mean_speedup, 1.4, 2.4)
        _grows(fig10.rows, "tokens", ("experts", "topk"))
        return (
            f"speedup mean {fig10.mean_speedup:.2f}x, range "
            f"{low:.2f}-{high:.2f}x (paper: 1.96x, 1.28-2.37x)"
        )

    claims.append(
        _claim(
            "single-layer-speedup",
            "Fig. 10",
            "Comet speeds up a single MoE layer ~2x over baselines",
            check_fig10,
        )
    )

    # -- Figure 11 ---------------------------------------------------------------
    fig11 = figures.fig11_breakdown(tokens=16384)

    def check_fig11() -> str:
        ladder = [
            fig11.hidden_fraction("Megatron-Cutlass"),
            fig11.hidden_fraction("FasterMoE"),
            fig11.hidden_fraction("Tutel"),
            fig11.hidden_fraction("Comet"),
        ]
        assert ladder[0] == fig11.hidden_fraction("Megatron-TE") == 0.0, "Megatron overlaps"
        _in_band("FasterMoE hidden share", ladder[1], 0.15, 0.45)
        _in_band("Tutel hidden share", ladder[2], 0.50, 0.85)
        assert ladder[2] < ladder[3] and ladder[3] > 0.8, f"hiding ladder: {ladder}"
        total = {name: timing.total_us for name, timing in fig11.timings.items()}
        assert (
            total["Comet"] < total["Tutel"] < total["FasterMoE"]
            < total["Megatron-Cutlass"] <= total["Megatron-TE"]
        ), f"layer times out of the paper's order: {total}"
        return (
            "hidden comm: "
            + ", ".join(f"{100 * h:.0f}%" for h in ladder)
            + " (paper: 0/29/69/87%)"
        )

    claims.append(
        _claim(
            "hiding-ladder",
            "Fig. 11",
            "Comet hides most communication; Tutel > FasterMoE > Megatron",
            check_fig11,
        )
    )

    def check_fig11_efficiency() -> str:
        comet = fig11.timings["Comet"].comp_us
        megatron = fig11.timings["Megatron-Cutlass"].comp_us
        ratio = comet / megatron
        assert ratio < 1.35, f"Comet compute inflated {ratio:.2f}x"
        return f"Comet compute within {100 * (ratio - 1):.0f}% of Megatron's"

    claims.append(
        _claim(
            "compute-efficiency-preserved",
            "Fig. 11 / §3.2.1",
            "Thread-block isolation keeps expert GEMM efficiency intact",
            check_fig11_efficiency,
        )
    )

    # -- Figure 12 ---------------------------------------------------------------
    fig12 = figures.fig12_parallelism(tokens=8192)

    def check_fig12() -> str:
        order = ["TP1xEP8", "TP2xEP4", "TP4xEP2", "TP8xEP1"]
        for system in ("Megatron-Cutlass", "Megatron-TE", "Tutel"):
            series = [fig12.durations_ms[s][system] for s in order]
            assert series[-1] > 1.2 * series[0], f"{system} does not degrade"
            assert all(b >= a * 0.98 for a, b in zip(series, series[1:])), f"{system} speeds up"
        comet = [fig12.durations_ms[s]["Comet"] for s in order]
        spread = max(comet) / min(comet)
        assert spread < 1.6, f"Comet spread {spread:.2f} too wide"
        presence = ["FasterMoE" in fig12.durations_ms[s] for s in order]
        assert presence == [True, False, False, False], "FasterMoE must run EP-only"
        _comet_fastest(fig12.durations_ms, "strategy")
        return f"baselines degrade with TP; Comet spread only {spread:.2f}x"

    claims.append(
        _claim(
            "robust-to-parallelism",
            "Fig. 12",
            "Baselines degrade under TP; Comet stays low; FasterMoE EP-only",
            check_fig12,
        )
    )

    # -- Figure 13 ---------------------------------------------------------------
    fig13 = figures.fig13_moe_params(
        tokens=16384, expert_counts=(8, 16), topks=(1, 2, 4) if quick else (1, 2, 4, 8)
    )

    def check_fig13() -> str:
        speedups = fig13.speedups
        assert min(speedups) > 1.05, f"min speedup {min(speedups):.2f} not above 1.05"
        assert max(speedups) < 2.6, f"max speedup {max(speedups):.2f} not below 2.6"
        _grows(fig13.rows, "topk", ("experts",))
        return (
            f"speedup {min(speedups):.2f}-{max(speedups):.2f}x across E/topk "
            "(paper: 1.16-1.83x)"
        )

    claims.append(
        _claim(
            "robust-to-moe-params",
            "Fig. 13",
            "Comet wins across expert counts and topk values",
            check_fig13,
        )
    )

    # -- Figure 14 ---------------------------------------------------------------
    fig14 = figures.fig14_imbalance(
        tokens=8192, stds=(0.0, 0.032, 0.05) if quick else (0.0, 0.01, 0.02, 0.032, 0.04, 0.05)
    )

    def check_fig14() -> str:
        _comet_fastest(fig14.durations_ms, "std")
        stds = sorted(fig14.durations_ms)
        for system in ("Megatron-Cutlass", "Tutel", "Comet"):
            series = [fig14.durations_ms[std][system] for std in stds]
            assert series[-1] > series[0] * 1.2, f"imbalance barely slows {system}"
            assert all(b > 0.95 * a for a, b in zip(series, series[1:])), f"{system} speeds up"
        return "Comet fastest at every imbalance incl. production std=0.032"

    claims.append(
        _claim(
            "robust-to-imbalance",
            "Fig. 14 left",
            "Comet outperforms under skewed token distributions",
            check_fig14,
        )
    )

    l20 = figures.fig14_l20(tokens=8192)

    def check_l20() -> str:
        speedups = []
        for systems in l20.durations_ms.values():
            comet = systems["Comet"]
            speedups += [
                value / comet for name, value in systems.items() if name != "Comet"
            ]
        assert min(speedups) > 1.0
        _in_band("mean speedup", float(np.mean(speedups)), 1.05, 2.2)
        return (
            f"mean speedup {np.mean(speedups):.2f}x on PCIe "
            "(paper: 1.19-1.46x)"
        )

    claims.append(
        _claim(
            "portable-to-l20",
            "Fig. 14 right",
            "The advantage persists on the bandwidth-limited L20 cluster",
            check_l20,
        )
    )

    # -- Table 3 ---------------------------------------------------------------
    table3 = figures.table3_memory()

    def check_table3() -> str:
        expected = {
            ("Mixtral-8x7B", 4096): 32,
            ("Mixtral-8x7B", 8192): 64,
            ("Qwen2-MoE-2.7B", 4096): 16,
            ("Qwen2-MoE-2.7B", 8192): 32,
            ("Phi-3.5-MoE", 4096): 32,
            ("Phi-3.5-MoE", 8192): 64,
        }
        for key, mb in expected.items():
            assert abs(table3.buffers_mb[key] - mb) < 1e-9, key
        return "all six buffer sizes match exactly"

    claims.append(
        _claim(
            "nvshmem-footprint",
            "Table 3 / §5.5",
            "Communication buffer is dtype * M * N per device",
            check_table3,
        )
    )

    if not quick:
        claims += [_claim(*row) for row in _FULL_ROWS]
    return claims


# -- Rows of the full ledger only ------------------------------------------------
# Each imports its machinery itself, so a quick run never loads the
# training model or the serving engines.


def _fig09() -> str:
    paper = {  # baseline: (the paper's mean latency cut, band)
        "Megatron-Cutlass": (0.341, 0.15, 0.55),
        "Megatron-TE": (0.426, 0.18, 0.60),
        "FasterMoE": (0.444, 0.15, 0.60),
        "Tutel": (0.318, 0.10, 0.50),
    }
    fig09 = figures.fig09_end_to_end()
    _comet_fastest(
        {(r.model, r.strategy, r.total_tokens): r.latencies_ms for r in fig09.rows},
        "config",
    )
    cut = {baseline: fig09.mean_reduction_vs(baseline) for baseline in paper}
    for baseline, (_, low, high) in paper.items():
        _in_band(f"mean latency cut vs {baseline}", cut[baseline], low, high)
    assert cut["Megatron-TE"] >= cut["Megatron-Cutlass"], "TE cut below Cutlass cut"
    return (
        "mean latency cut " + "/".join(f"{100 * cut[b]:.1f}" for b in paper)
        + "% vs Cutlass/TE/FasterMoE/Tutel (paper: "
        + "/".join(f"{100 * row[0]:.1f}" for row in paper.values()) + "%)"
    )


def _mixtral_layers(*token_counts: int, sweep: bool = False) -> list:
    """Mixtral layers on one H800 node: TP1xEP8 (Fig. 11's), or every
    TP x EP split with ``sweep``."""
    from repro.hw.presets import h800_node
    from repro.moe.config import MIXTRAL_8X7B
    from repro.parallel.strategy import ParallelStrategy
    from repro.runtime.workload import make_workload

    return [
        make_workload(MIXTRAL_8X7B, h800_node(), strategy, tokens)
        for strategy in (ParallelStrategy.sweep(8) if sweep else (ParallelStrategy(1, 8),))
        for tokens in token_counts
    ]


def _adaptive_nc() -> str:
    from repro.systems.comet import Comet

    workloads = _mixtral_layers(4096, 16384, sweep=True)

    def total(system: Comet) -> float:
        return sum(system.time_layer(w).total_us for w in workloads)

    adaptive = total(Comet(adaptive=True))
    fixed = {nc: total(Comet(fixed_nc=nc)) for nc in (4, 16, 32, 64)}
    best = min(fixed, key=fixed.get)
    assert adaptive <= fixed[best] * 1.02, f"fixed nc={best} beats adaptive"
    assert adaptive < 0.9 * max(fixed.values()), "adaptive barely beats the worst nc"
    return f"adaptive {adaptive / 1000:.2f} ms vs best fixed nc={best} {fixed[best] / 1000:.2f} ms"


def _comet_on_off(knob: str) -> tuple:
    """Fig. 11's layer timed by COMET with ``knob`` on, then off."""
    from repro.systems.comet import Comet

    (workload,) = _mixtral_layers(16384)
    return tuple(Comet(**{knob: on}).time_layer(workload) for on in (True, False))


def _rescheduling() -> str:
    on, off = _comet_on_off("reschedule")
    assert on.total_us <= off.total_us + 1e-6, "rescheduling slows the layer"
    assert on.hidden_comm_fraction >= off.hidden_comm_fraction - 1e-9, "rescheduling hides less"
    return f"hidden comm {100 * on.hidden_comm_fraction:.0f}% with, {100 * off.hidden_comm_fraction:.0f}% without"


def _specialization() -> str:
    specialized, vertical = _comet_on_off("specialized")
    assert specialized.total_us < vertical.total_us, "vertical fusion is as fast"
    assert vertical.hidden_comm_fraction == 0.0, "vertical fusion hides communication"
    return f"vertical fusion {vertical.total_us / specialized.total_us:.2f}x slower"


def _training_step() -> str:
    from repro.api.registry import SYSTEM_REGISTRY
    from repro.hw.presets import h800_node
    from repro.moe.config import PAPER_MODELS
    from repro.parallel.strategy import ParallelStrategy
    from repro.runtime.training import run_training_step

    speedups = []
    for config in PAPER_MODELS:
        base, tutel, comet = (
            run_training_step(
                SYSTEM_REGISTRY.create(name), config, h800_node(), ParallelStrategy(1, 8), 16384
            )
            for name in ("megatron-cutlass", "tutel", "comet")
        )
        assert comet.step_us < tutel.step_us < base.step_us, f"{config.name} ladder"
        speedups.append(base.step_us / comet.step_us)
        _in_band(f"{config.name} step speedup", speedups[-1], 1.2, 2.6)
        assert base.moe_fraction > 0.5, f"MoE is a minor share of {config.name}'s step"
    return f"step speedup {min(speedups):.2f}-{max(speedups):.2f}x (paper, forward: 1.71x)"


def _multinode() -> str:
    from repro.api.registry import SYSTEM_REGISTRY
    from repro.hw.multinode import h800_pod
    from repro.moe.config import MIXTRAL_8X7B
    from repro.parallel.strategy import ParallelStrategy
    from repro.runtime.workload import make_workload

    layer_us = {}  # nodes -> system -> us; 2048 tokens and one expert per GPU
    for nodes in (1, 2, 4):
        world = 8 * nodes
        workload = make_workload(
            MIXTRAL_8X7B.with_experts(world, 2), h800_pod(nodes).effective_cluster(),
            ParallelStrategy(1, world), total_tokens=2048 * world,
        )
        layer_us[nodes] = {
            system.name: system.time_layer(workload).total_us
            for system in map(SYSTEM_REGISTRY.create, ("megatron-cutlass", "tutel", "comet"))
        }
    for system in layer_us[1]:
        series = [layer_us[n][system] for n in (1, 2, 4)]
        assert series[0] < series[1] < series[2], f"{system} not slowed by the fabric"
    _comet_fastest(layer_us, "nodes")
    speedup = {n: layer_us[n]["Megatron-Cutlass"] / layer_us[n]["Comet"] for n in layer_us}
    assert speedup[4] > speedup[1] * 0.9, "speedup shrinks across nodes"
    return f"speedup over Megatron {speedup[1]:.2f}x on 1 node, {speedup[4]:.2f}x on 4"


def _serving() -> str:
    from repro.serve.scenario import ServeSpec
    from repro.serve.traffic import TraceSpec

    rates = (60, 150, 220)  # the top one saturates every baseline
    for rps in rates:
        goodput = ServeSpec.grid(
            traces=TraceSpec(kind="poisson", rps=rps, duration_s=10, seed=0),
            slo_ttft_ms=500.0,
        ).run().goodput_by_system()
        comet = goodput.pop("Comet")
        saturated = rps == rates[-1]
        assert saturated or comet > 0.85 * rps, f"Comet saturates at {rps} rps"
        assert all(
            comet > value if saturated else comet >= value for value in goodput.values()
        ), f"Comet beaten at {rps} rps"
    return f"goodput at {rps} rps: Comet {comet:.1f}/s, best baseline {max(goodput.values()):.1f}/s"


_FULL_ROWS = (
    ("end-to-end-speedup", "Fig. 9",
     "Comet cuts end-to-end latency against every baseline", _fig09),
    ("adaptive-nc", "Ablation / §3.2.2",
     "Adaptive division points match the best static one", _adaptive_nc),
    ("rescheduling-helps", "Ablation / §3.1.2",
     "Shared-tensor rescheduling never slows a layer", _rescheduling),
    ("specialization-beats-fusion", "Ablation / §3.2.1",
     "Thread-block specialisation beats vertical fusion", _specialization),
    ("training-step-speedup", "Extension: training",
     "The forward-pass ladder carries over to a training step", _training_step),
    ("multinode-scaling", "Extension: multi-node",
     "Comet keeps its lead as EP leaves NVLink", _multinode),
    ("serving-goodput", "Extension: serving",
     "Comet sustains the highest SLO goodput under load", _serving),
)


def format_claims(claims: list[Claim]) -> str:
    """Render the verdict table."""
    table = format_table(
        ["claim", "source", "verdict", "measured"],
        [c.row() for c in claims],
        title="Paper-claim validation",
    )
    passed = sum(c.passed for c in claims)
    return table + f"\n{passed}/{len(claims)} claims reproduced"
