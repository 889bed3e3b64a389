"""Smoke tests for the figure harnesses at reduced scale.

The paper's bands live in ``validate_all`` (run in full by
``tests/test_bench_validation.py``); these verify the harness plumbing
(shapes, formatting, derived statistics).
"""

import pytest

from repro.bench import (
    fig01_time_breakdown,
    fig08_nc_sweep,
    fig10_single_layer,
    fig11_breakdown,
    fig12_parallelism,
    fig13_moe_params,
    fig14_imbalance,
    table3_memory,
)


class TestFig01:
    def test_rows_and_stats(self):
        result = fig01_time_breakdown(seq_lens=(2048,))
        assert len(result.rows) == 3  # one per paper model
        assert 0 < result.mean_comm_fraction < 1
        assert "Figure 1(a)" in result.format()


class TestFig08:
    def test_small_sweep(self):
        result = fig08_nc_sweep(token_lengths=(4096,), variant_step=16)
        assert len(result.curves) == 4  # one per parallelism
        for curve in result.curves:
            assert curve.best_nc in curve.durations_us
        assert result.best_nc(1, 8, 4096) > 0
        with pytest.raises(KeyError):
            result.best_nc(1, 8, 999)


class TestFig10:
    def test_structure(self):
        result = fig10_single_layer(
            token_lengths=(2048,), expert_configs=((8, 2),)
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert set(row.durations_ms) == {
            "Megatron-TE", "Megatron-Cutlass", "FasterMoE", "Tutel", "Comet",
        }
        assert result.mean_speedup > 1.0
        low, high = result.speedup_range
        assert low <= result.mean_speedup <= high


class TestFig11:
    def test_breakdown_segments(self):
        result = fig11_breakdown(tokens=4096)
        assert result.hidden_fraction("Comet") > result.hidden_fraction("Tutel")
        assert "hidden%" in result.format()


class TestFig12:
    def test_strategies_covered(self):
        result = fig12_parallelism(tokens=2048)
        assert set(result.durations_ms) == {
            "TP1xEP8", "TP2xEP4", "TP4xEP2", "TP8xEP1",
        }
        assert "Figure 12" in result.format()


class TestFig13:
    def test_speedups_positive(self):
        result = fig13_moe_params(
            tokens=4096, expert_counts=(8,), topks=(1, 2)
        )
        assert len(result.rows) == 2
        assert all(s > 0 for s in result.speedups)


class TestFig14:
    def test_imbalance_keys(self):
        result = fig14_imbalance(tokens=2048, stds=(0.0, 0.05))
        assert set(result.durations_ms) == {0.0, 0.05}


class TestTable3:
    def test_custom_lengths(self):
        result = table3_memory(token_lengths=(1024,))
        assert result.buffers_mb[("Mixtral-8x7B", 1024)] == pytest.approx(8.0)

    def test_format_lists_models(self):
        text = table3_memory().format()
        for model in ("Mixtral-8x7B", "Qwen2-MoE-2.7B", "Phi-3.5-MoE"):
            assert model in text
