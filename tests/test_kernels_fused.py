"""Unit tests for the thread-block-specialised fused kernel simulator."""

import numpy as np
import pytest

from repro.hw import h800_node
from repro.kernels import fused
from repro.kernels.fused import (
    Layer1CommWork,
    simulate_layer0_fused,
    simulate_layer0_vertical,
    simulate_layer1_fused,
    simulate_layer1_fused_variants,
    simulate_layer1_vertical,
)
from repro.moe import MIXTRAL_8X7B, balanced_fractions, routing_from_fractions, token_owner_ranks
from repro.parallel import ExpertPlacement, ParallelStrategy
from repro.sim import Tracer
from repro.tensor import build_layer0_schedule, build_layer1_schedule
from repro.tensor.reschedule import POLICY_EXPERT_MAJOR, POLICY_TOKEN_ORDER

CLUSTER = h800_node()
CFG = MIXTRAL_8X7B


def make_rank_workload(tokens=8192, world=8, seed=0, rank=0):
    rng = np.random.default_rng(seed)
    plan = routing_from_fractions(tokens, CFG.topk, balanced_fractions(CFG.num_experts), rng)
    owner = token_owner_ranks(tokens, world)
    placement = ExpertPlacement(ParallelStrategy(1, world), CFG.num_experts)
    return placement.rank_workload(plan, owner, rank)


def layer0_schedule(policy="sorted_by_source", **kw):
    wl = make_rank_workload(**kw)
    return build_layer0_schedule(wl.pairs_by_src_expert, kw.get("rank", 0), policy=policy)


def run_layer0(schedule, nc, **kw):
    return simulate_layer0_fused(
        CLUSTER.gpu,
        CLUSTER.link,
        schedule,
        token_bytes=CFG.token_bytes,
        k=CFG.hidden_size,
        cols=CFG.ffn_size,
        nc=nc,
        **kw,
    )


def _not_this_path(*args, **kwargs):
    raise AssertionError("the kernel took the other pricing path")


def layer1_setup(tokens=8192, world=8):
    wl = make_rank_workload(tokens=tokens, world=world)
    schedule = build_layer1_schedule(wl.expert_rows, cols=CFG.hidden_size)
    rows = wl.total_rows
    comm = Layer1CommWork(
        reduce_rows=rows,
        local_rows=rows // world,
        remote_bulk_rows=0,
        remote_fine_rows=rows - rows // world,
        row_bytes=CFG.token_bytes,
    )
    return schedule, comm


def run_layer1(schedule, comm, nc):
    return simulate_layer1_fused(
        CLUSTER.gpu,
        CLUSTER.link,
        schedule,
        comm,
        k=CFG.ffn_size,
        cols=CFG.hidden_size,
        nc=nc,
    )


class TestLayer0Fused:
    def test_duration_bounded_below_by_both_sides(self):
        schedule = layer0_schedule()
        result = run_layer0(schedule, nc=16)
        assert result.duration_us >= result.comp_standalone_us - 1e-9
        assert result.duration_us >= result.comm_standalone_us - 1e-9

    def test_block_budget(self):
        schedule = layer0_schedule()
        result = run_layer0(schedule, nc=20)
        assert result.nc + result.np_blocks == CLUSTER.gpu.num_sms

    def test_more_comm_blocks_speed_comm(self):
        schedule = layer0_schedule()
        r8 = run_layer0(schedule, nc=8)
        r24 = run_layer0(schedule, nc=24)
        assert r24.comm_standalone_us < r8.comm_standalone_us

    def test_more_comm_blocks_slow_compute(self):
        schedule = layer0_schedule()
        r8 = run_layer0(schedule, nc=8)
        r64 = run_layer0(schedule, nc=64)
        assert r64.comp_standalone_us > r8.comp_standalone_us

    def test_u_shaped_division_curve(self):
        """Too few comm blocks starve compute of data, too many starve it
        of SMs: the optimum is interior (paper Figure 8)."""
        schedule = layer0_schedule(tokens=16384)
        durations = {nc: run_layer0(schedule, nc).duration_us for nc in (2, 24, 100)}
        assert durations[24] < durations[2]
        assert durations[24] < durations[100]

    def test_sorted_schedule_at_least_as_good(self):
        sorted_sched = layer0_schedule()
        shuffled = layer0_schedule(policy=POLICY_TOKEN_ORDER)
        r_sorted = run_layer0(sorted_sched, nc=12)
        r_shuffled = run_layer0(shuffled, nc=12)
        assert r_sorted.duration_us <= r_shuffled.duration_us + 1e-6

    def test_hidden_fraction_in_unit_interval(self):
        result = run_layer0(layer0_schedule(), nc=24)
        assert 0.0 <= result.hidden_comm_fraction <= 1.0

    def test_no_remote_data_runs_without_comm_blocks(self):
        wl = make_rank_workload(world=1)
        schedule = build_layer0_schedule(wl.pairs_by_src_expert, 0)
        assert schedule.num_remote == 0
        result = run_layer0(schedule, nc=0)
        assert result.comm_standalone_us == 0.0
        assert result.hidden_comm_fraction == 1.0

    def test_remote_data_requires_comm_blocks(self):
        with pytest.raises(ValueError):
            run_layer0(layer0_schedule(), nc=0)

    def test_nc_exhausting_sms_rejected(self):
        with pytest.raises(ValueError):
            run_layer0(layer0_schedule(), nc=CLUSTER.gpu.num_sms)

    def test_tracer_records_lanes(self):
        tracer = Tracer()
        run_layer0(layer0_schedule(), nc=16, tracer=tracer, lane="rank0")
        assert "rank0/comp" in tracer.lanes()
        assert "rank0/comm" in tracer.lanes()

    def test_untraced_kernel_runs_the_analytic_scan(self, monkeypatch):
        monkeypatch.setattr(fused, "layer0_makespan_reference", _not_this_path)
        assert run_layer0(layer0_schedule(), nc=16).duration_us > 0

    def test_traced_kernel_runs_the_heapq_loop(self, monkeypatch):
        # Only the heapq loop has per-block completion times to trace;
        # it prices the kernel exactly as the analytic scan does.
        schedule = layer0_schedule()
        untraced = run_layer0(schedule, nc=16)
        monkeypatch.setattr(fused, "layer0_makespan_analytic", _not_this_path)
        assert run_layer0(schedule, nc=16, tracer=Tracer()) == untraced


class TestLayer1Fused:
    def test_duration_bounds(self):
        schedule, comm = layer1_setup()
        result = run_layer1(schedule, comm, nc=24)
        assert result.duration_us >= result.comp_standalone_us - 1e-9

    def test_u_shape(self):
        schedule, comm = layer1_setup(tokens=16384)
        d = {nc: run_layer1(schedule, comm, nc).duration_us for nc in (2, 24, 100)}
        assert d[24] < d[2] and d[24] < d[100]

    def test_column_major_beats_expert_major(self):
        """Rescheduling (Figure 6) lets the reducer start earlier, so the
        fused kernel finishes sooner for the same work."""
        wl = make_rank_workload(tokens=16384)
        comm = Layer1CommWork(
            reduce_rows=wl.total_rows,
            local_rows=wl.total_rows // 8,
            remote_bulk_rows=0,
            remote_fine_rows=wl.total_rows - wl.total_rows // 8,
            row_bytes=CFG.token_bytes,
        )
        cm = build_layer1_schedule(wl.expert_rows, cols=CFG.hidden_size)
        em = build_layer1_schedule(
            wl.expert_rows, cols=CFG.hidden_size, policy=POLICY_EXPERT_MAJOR
        )
        r_cm = run_layer1(cm, comm, nc=24)
        r_em = run_layer1(em, comm, nc=24)
        assert r_cm.duration_us < r_em.duration_us

    def test_empty_schedule(self):
        schedule = build_layer1_schedule(np.array([0, 0]), cols=CFG.hidden_size)
        comm = Layer1CommWork(0, 0, 0, 0, CFG.token_bytes)
        result = run_layer1(schedule, comm, nc=4)
        assert result.duration_us == 0.0

    def test_bulk_traffic_cheaper_than_fine(self):
        """The same bytes cost less as reduce-scatter chunks than as
        token-granular messages — the mechanism behind Figure 8's optimal
        nc moving with parallelism."""
        schedule, _ = layer1_setup(tokens=16384)
        rows = int(schedule.row_tiles_per_expert.sum() * 128)
        bulk = Layer1CommWork(rows, 0, rows, 0, CFG.token_bytes)
        fine = Layer1CommWork(rows, 0, 0, rows, CFG.token_bytes)
        r_bulk = run_layer1(schedule, bulk, nc=16)
        r_fine = run_layer1(schedule, fine, nc=16)
        assert r_bulk.comm_standalone_us < r_fine.comm_standalone_us

    def test_invalid_comm_work(self):
        with pytest.raises(ValueError):
            Layer1CommWork(-1, 0, 0, 0, 128)
        with pytest.raises(ValueError):
            Layer1CommWork(0, 0, 0, 0, 0)

    def test_tracer(self):
        tracer = Tracer()
        schedule, comm = layer1_setup()
        simulate_layer1_fused(
            CLUSTER.gpu, CLUSTER.link, schedule, comm,
            k=CFG.ffn_size, cols=CFG.hidden_size, nc=16,
            tracer=tracer, lane="r0",
        )
        assert "r0/comm" in tracer.lanes() and "r0/comp" in tracer.lanes()

    def test_variants_leave_out_what_the_kernel_rejects(self):
        """One vectorised call equals the single-``nc`` kernel at every
        division point it can launch with and drops the rest, as a
        profiler drops a variant that fails to launch."""
        schedule, comm = layer1_setup()
        ncs = [0, 1, 16, 60, CLUSTER.gpu.num_sms - 1, CLUSTER.gpu.num_sms, 500]
        results = simulate_layer1_fused_variants(
            CLUSTER.gpu, CLUSTER.link, schedule, comm,
            k=CFG.ffn_size, cols=CFG.hidden_size, ncs=ncs,
        )
        launched = [1, 16, 60, CLUSTER.gpu.num_sms - 1]
        assert list(results) == launched
        assert all(results[nc] == run_layer1(schedule, comm, nc) for nc in launched)
        for nc in (0, CLUSTER.gpu.num_sms):
            with pytest.raises(ValueError, match="nc must"):
                run_layer1(schedule, comm, nc)


class TestVerticalFusionAblation:
    def test_layer0_specialized_beats_vertical(self):
        """Thread-block specialisation (§3.2.1) must beat folding the
        remote reads into the GEMM pipeline."""
        schedule = layer0_schedule(tokens=16384)
        specialized = run_layer0(schedule, nc=24)
        vertical = simulate_layer0_vertical(
            CLUSTER.gpu, CLUSTER.link, schedule,
            token_bytes=CFG.token_bytes, k=CFG.hidden_size, cols=CFG.ffn_size,
        )
        assert specialized.duration_us < vertical.duration_us

    def test_layer1_specialized_beats_vertical(self):
        schedule, comm = layer1_setup(tokens=16384)
        specialized = run_layer1(schedule, comm, nc=24)
        vertical = simulate_layer1_vertical(
            CLUSTER.gpu, CLUSTER.link, schedule, comm,
            k=CFG.ffn_size, cols=CFG.hidden_size,
        )
        assert specialized.duration_us < vertical.duration_us

    def test_vertical_uses_all_sms(self):
        schedule = layer0_schedule()
        vertical = simulate_layer0_vertical(
            CLUSTER.gpu, CLUSTER.link, schedule,
            token_bytes=CFG.token_bytes, k=CFG.hidden_size, cols=CFG.ffn_size,
        )
        assert vertical.np_blocks == CLUSTER.gpu.num_sms
        assert vertical.nc == 0
