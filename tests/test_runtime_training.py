"""Tests for the training-step extension (fwd + bwd + sync + optimizer)."""

import pytest

from repro.hw import h800_node
from repro.moe import MIXTRAL_8X7B
from repro.parallel import ParallelStrategy
from repro.runtime import make_workload
from repro.runtime.training import run_training_step
from repro.systems import Comet, MegatronCutlass, Tutel


def step(system, tp=1, ep=8, tokens=8192, **kw):
    return run_training_step(
        system, MIXTRAL_8X7B, h800_node(), ParallelStrategy(tp, ep),
        total_tokens=tokens, **kw,
    )


class TestBackwardVariant:
    def test_backward_has_double_gemm_scale(self):
        system = MegatronCutlass()
        assert system.backward_variant().gemm_scale == 2.0
        assert system.gemm_scale == 1.0  # original untouched

    def test_comet_backward_fresh_profile_cache(self):
        system = Comet()
        workload = make_workload(
            MIXTRAL_8X7B, h800_node(), ParallelStrategy(1, 8), 8192
        )
        system.time_layer(workload)
        backward = system.backward_variant()
        assert backward.gemm_scale == 2.0
        assert backward._profiles == {}

    def test_backward_layer_slower_than_forward(self):
        """dgrad + wgrad roughly doubles the compute side."""
        workload = make_workload(
            MIXTRAL_8X7B, h800_node(), ParallelStrategy(1, 8), 8192
        )
        for system in (MegatronCutlass(), Comet()):
            fwd = system.time_layer(workload).total_us
            bwd = system.backward_variant().time_layer(workload).total_us
            assert bwd > fwd * 1.2

    def test_invalid_gemm_scale(self):
        # NaN and inf used to construct and time every layer as nan/inf.
        for system in (MegatronCutlass, Tutel, Comet):
            for scale in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    system(gemm_scale=scale)


class TestTrainingStep:
    def test_step_composition(self):
        timing = step(MegatronCutlass())
        assert timing.step_us == pytest.approx(
            timing.num_layers * timing.layer_us
            + timing.grad_sync_us
            + timing.optimizer_us
        )
        assert timing.attention_bwd_us == pytest.approx(2 * timing.attention_fwd_us)

    def test_comet_speeds_up_training(self):
        base = step(MegatronCutlass())
        comet = step(Comet())
        assert comet.step_us < base.step_us
        # Identical non-MoE work across systems.
        assert comet.attention_fwd_us == base.attention_fwd_us
        assert comet.grad_sync_us == base.grad_sync_us
        assert comet.optimizer_us == base.optimizer_us

    def test_training_speedup_band(self):
        """End-to-end training speedup should sit near the paper's 1.71x
        end-to-end claim (same overlap applies to both passes)."""
        base = step(MegatronCutlass(), tokens=16384)
        comet = step(Comet(), tokens=16384)
        speedup = base.step_us / comet.step_us
        assert 1.2 < speedup < 2.4

    def test_backward_hides_more_than_forward_for_comet(self):
        """Twice the compute gives the backward pass more room to hide
        the same communication."""
        timing = step(Comet(), tokens=8192)
        assert (
            timing.moe_bwd.hidden_comm_fraction
            >= timing.moe_fwd.hidden_comm_fraction - 1e-9
        )

    def test_grad_sync_zero_without_dp(self):
        timing = step(MegatronCutlass(), tp=8, ep=1, tokens=8192)
        assert timing.grad_sync_us == 0.0

    def test_moe_fraction_dominates(self):
        timing = step(MegatronCutlass())
        assert timing.moe_fraction > 0.5

    def test_imbalance_slows_training(self):
        balanced = step(MegatronCutlass(), seed=5)
        skewed = step(MegatronCutlass(), imbalance_std=0.05, seed=5)
        assert skewed.step_us > balanced.step_us

    def test_tutel_between_megatron_and_comet(self):
        base = step(MegatronCutlass(), tokens=16384).step_us
        tutel = step(Tutel(), tokens=16384).step_us
        comet = step(Comet(), tokens=16384).step_us
        assert comet < tutel < base
