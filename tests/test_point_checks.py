"""Grid points that used to construct and then fail mid-run, and the one
``--tp``/``--ep`` derivation of the single-strategy CLI subcommands.

Every point is now rejected where it is built: an unreachable routing
imbalance (``std >= sqrt(E-1)/E``) by :class:`~repro.api.scenario.Scenario`,
non-positive batch sizes by the serving scenarios, negative seeds by
every spec that carries one, and NaN, infinite or non-positive serving
settings by the trace, resilience and autoscaler specs.  The CLI
reports them as ``error: ...`` (exit 2), and ``sweep`` skips the point.
A negative or non-integer fixed COMET division point is rejected by
:class:`~repro.systems.comet.Comet` itself.
"""

import pytest

from repro import ExperimentSpec, FleetSpec, Scenario, ServeSpec, TraceSpec
from repro.cli import main
from repro.faults import MigrationSpec, ResilienceSpec
from repro.fleet.spec import AutoscalerSpec, FleetScenario, ReplicaSpec
from repro.hw import h800_node
from repro.moe.config import MIXTRAL_8X7B, QWEN2_MOE
from repro.moe.routing import imbalanced_fractions, max_imbalance_std
from repro.parallel.strategy import ParallelStrategy
from repro.runtime.workload import make_workload
from repro.serve.scenario import ServeScenario
from repro.systems import Comet

EP8 = ParallelStrategy(tp_size=1, ep_size=8)


# -- imbalance ----------------------------------------------------------------


def test_unreachable_imbalance_fails_at_grid_construction():
    with pytest.raises(ValueError, match=r"std 0.5 unreachable for E=8 \(max 0.3307\)"):
        ExperimentSpec.grid(
            tokens=2048, strategies=(1, 8), imbalance_stds=(0.0, 0.5),
            systems="comet",
        )


def test_imbalance_bound_follows_the_expert_count():
    assert f"{max_imbalance_std(QWEN2_MOE.num_experts):.4f}" == "0.1240"
    with pytest.raises(ValueError, match="E=64"):
        Scenario(QWEN2_MOE, h800_node(), EP8, tokens=2048, imbalance_std=0.125)
    Scenario(QWEN2_MOE, h800_node(), EP8, tokens=2048, imbalance_std=0.12)


def test_routing_and_scenario_share_the_bound():
    bound = max_imbalance_std(MIXTRAL_8X7B.num_experts)
    with pytest.raises(ValueError, match="unreachable"):
        imbalanced_fractions(MIXTRAL_8X7B.num_experts, bound)
    with pytest.raises(ValueError, match="unreachable"):
        Scenario(MIXTRAL_8X7B, h800_node(), EP8, tokens=2048, imbalance_std=bound)


def test_layer_cli_reports_unreachable_imbalance(capsys):
    assert main(["layer", "--tokens", "2048", "--imbalance-std", "0.5"]) == 2
    assert "error: imbalance_std 0.5 unreachable" in capsys.readouterr().err


def test_sweep_cli_skips_unreachable_imbalance(capsys):
    code = main([
        "sweep", "--tokens", "2048", "--ep", "8", "--systems", "comet", "tutel",
        "--imbalance-std", "0", "0.5",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "skipping grid point: imbalance_std 0.5 unreachable" in captured.err
    assert "1 grid points" in captured.out


# -- batch sizes --------------------------------------------------------------


@pytest.mark.parametrize("spec", (ServeSpec, FleetSpec), ids=lambda s: s.__name__)
def test_zero_batch_budget_fails_at_grid_construction(spec):
    with pytest.raises(ValueError, match="max_batch_tokens must be finite and positive"):
        spec.grid(max_batch_tokens=(8192, 0))


@pytest.mark.parametrize("field", ("max_batch_size", "bucket_tokens"))
def test_serving_scenarios_reject_zero_sizes(field):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        ServeScenario(MIXTRAL_8X7B, h800_node(), EP8, **{field: 0})
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        FleetScenario(
            MIXTRAL_8X7B, (ReplicaSpec(cluster=h800_node(), strategy=EP8),),
            **{field: 0},
        )


@pytest.mark.parametrize("command", ("serve", "fleet"))
def test_serving_cli_reports_zero_batch_budget(command, capsys):
    code = main([
        command, "--rps", "20", "--duration", "1", "--systems", "comet",
        "--max-batch-tokens", "0",
    ])
    assert code == 2
    assert "error: max_batch_tokens must be finite and positive" in capsys.readouterr().err


# -- one --ep default -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv,shown",
    (
        (["layer", "--tokens", "2048", "--systems", "comet"], "TP2xEP4"),
        (["model", "--tokens", "2048", "--systems", "comet"], "TP2xEP4"),
        (["sweep-nc", "--tokens", "4096"], "TP=2, EP=4"),
    ),
    ids=("layer", "model", "sweep-nc"),
)
def test_ep_defaults_to_world_size_over_tp(argv, shown, capsys):
    assert main([*argv, "--tp", "2"]) == 0
    assert shown in capsys.readouterr().out


@pytest.mark.parametrize("command", ("layer", "model", "sweep-nc", "trace"))
def test_nonpositive_tp_is_rejected(command, capsys):
    code = main([command, "--tokens", "2048", "--tp", "0"])
    assert code in (1, 2)
    assert "tp must be positive, got 0" in capsys.readouterr().err


# -- seeds ----------------------------------------------------------------------
# numpy's SeedSequence rejects a negative seed only once a run draws
# from it, which used to end in a traceback and exit 1.

FAST = ["--rps", "20", "--duration", "1", "--systems", "comet"]


def test_specs_reject_negative_seeds():
    with pytest.raises(ValueError, match="seed must be finite and >= 0, got -1"):
        Scenario(MIXTRAL_8X7B, h800_node(), EP8, tokens=2048, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TraceSpec(seed=-1)
    with pytest.raises(ValueError, match="router_seed must be finite and >= 0"):
        FleetScenario(
            MIXTRAL_8X7B, (ReplicaSpec(cluster=h800_node(), strategy=EP8),),
            router_seed=-1,
        )


@pytest.mark.parametrize(
    "argv",
    (
        ["layer", "--tokens", "2048", "--seed", "-1"],
        ["model", "--tokens", "2048", "--systems", "comet", "--seed", "-1"],
        ["serve", *FAST, "--seed", "-1"],
        ["fleet", *FAST, "--seed", "-1"],
        ["fleet", *FAST, "--router-seed", "-1"],
    ),
    ids=("layer", "model", "serve", "fleet", "fleet-router-seed"),
)
def test_cli_rejects_negative_seed(argv, capsys):
    assert main(argv) == 2
    assert "seed must be" in capsys.readouterr().err


def test_sweep_skips_negative_seed(capsys):
    code = main(["sweep", "--tokens", "2048", "--ep", "8", "--systems", "comet",
                 "--seed", "0", "-1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "skipping grid point: seed must be finite and >= 0, got -1" in captured.err
    assert "1 grid points" in captured.out


@pytest.mark.parametrize("tokens", ("0", "-8"))
def test_kernel_trace_checks_its_scenario(tokens, tmp_path, capsys):
    # The kernel trace built its workload directly: 0 tokens wrote an
    # empty trace, -8 failed inside numpy.
    out = tmp_path / "t.json"
    assert main(["trace", "--tokens", tokens, "--out", str(out)]) == 2
    assert f"error: tokens {tokens} must be positive" in capsys.readouterr().err
    assert not out.exists()


# -- serving settings -----------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field",
    (
        "timeout_ms", "shed_factor", "slow_factor", "queue_factor", "backoff_ms",
        "health_window_ms", "check_interval_ms", "probation_ms",
    ),
)
@pytest.mark.parametrize("value", (NAN, INF), ids=("nan", "inf"))
def test_resilience_settings_must_be_finite(field, value):
    # An infinite backoff left requests neither completed, timed out nor
    # shed; a NaN detector window ran silently.
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ResilienceSpec(**{field: value})


@pytest.mark.parametrize(
    "spec,kwargs",
    (
        (ResilienceSpec, dict(timeout_ms=400, max_retries=1.5)),  # ran as 2
        (ResilienceSpec, dict(min_samples=2.5)),
        (ResilienceSpec, dict(min_samples=NAN)),
        (ResilienceSpec, dict(max_probations=INF)),
        (ResilienceSpec, dict(seed=2.5)),  # crashed mid-run in the backoff
        (MigrationSpec, dict(messages_per_seq=NAN)),  # priced as one message
        (MigrationSpec, dict(messages_per_seq=INF)),  # served nothing
        (MigrationSpec, dict(messages_per_seq=1.5)),
        (AutoscalerSpec, dict(min_replicas=NAN)),  # labelled autoscale[minnan]
        (AutoscalerSpec, dict(min_replicas=2.5)),
        (AutoscalerSpec, dict(min_replicas=INF)),  # failed only at fleet build
    ),
    ids=lambda value: value.__name__ if isinstance(value, type) else repr(value),
)
def test_fleet_counts_must_be_integers(spec, kwargs):
    (field,) = set(kwargs) - {"timeout_ms"}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        spec(**kwargs)


@pytest.mark.parametrize("field", ("prompt_mean", "output_mean", "max_prompt", "max_output"))
@pytest.mark.parametrize("value", (0, -1))
def test_trace_lengths_must_be_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        TraceSpec(**{field: value})


@pytest.mark.parametrize("field", ("prompt_sigma", "output_sigma"))
def test_trace_sigmas_must_be_non_negative(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        TraceSpec(**{field: -0.1})


def test_autoscaler_scale_up_queue_must_be_finite():
    with pytest.raises(ValueError, match="scale_up_queue must be finite"):
        AutoscalerSpec(scale_up_queue=INF)


@pytest.mark.parametrize(
    "flags",
    (
        ["--timeout-ms", "nan"],
        ["--shed", "nan"],
        ["--detect", "nan"],
        ["--prompt-mean", "0"],
        ["--output-mean", "-1"],
        ["--autoscale", "1", "--scale-up-queue", "inf"],
    ),
    ids=lambda flags: " ".join(flags),
)
def test_fleet_cli_rejects_bad_serving_setting(flags, capsys):
    # Each used to run: a NaN deadline timed out every request, NaN shed
    # and detect factors did nothing, and a length mean <= 0 ran with
    # numpy warnings and clipped every length to 1.
    assert main(["fleet", *FAST, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- COMET division point --------------------------------------------------------


@pytest.mark.parametrize("nc", (-1, 2.5, 8.0, True), ids=repr)
def test_fixed_division_point_must_be_a_non_negative_integer(nc):
    # Each used to construct: -1 then failed inside time_layer's range
    # check, 2.5 and 8.0 inside numpy, and True ran as nc=1.
    with pytest.raises(ValueError, match="fixed_nc must be None or a non-negative integer"):
        Comet(fixed_nc=nc)


def test_fixed_division_point_upper_bound_follows_the_gpu():
    # The SM count belongs to the workload's cluster, so a too-large
    # division point constructs and is rejected when a layer is timed.
    workload = make_workload(MIXTRAL_8X7B, h800_node(), EP8, 2048)
    with pytest.raises(ValueError, match=r"nc must lie in \[0, 131\]"):
        Comet(fixed_nc=500).time_layer(workload)
