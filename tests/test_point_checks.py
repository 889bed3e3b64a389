"""Grid points that used to construct and then fail mid-run, the walk
over every declared field domain, and the one ``--tp``/``--ep``
derivation of the single-strategy CLI subcommands.

Every point is now rejected where it is built: an unreachable routing
imbalance (``std >= sqrt(E-1)/E``) by :class:`~repro.api.scenario.Scenario`,
and every value outside a numeric field's declared domain
(:mod:`repro.domains`) by the spec that carries the field.  The domain
walk reaches each spec through the conventions roots
(``tests/test_conventions.py``): every ``int`` or ``float`` field must
declare a domain, reject NaN, infinities, a bool, the nearest value
outside each bound and, if integral, a fraction with a ``ValueError``
that names it, and accept the values at its bounds; ``ACCEPTED`` pins
each domain's bounds, integrality and optionality literally.  The CLI
reports a rejection as ``error: ...`` (exit 2), and ``sweep`` skips the
point.
A negative or non-integer fixed COMET division point is rejected by
:class:`~repro.systems.comet.Comet` itself, and so is a division-point
sweep of a layer other than the two fused kernels.
"""

import dataclasses
import math

import pytest

from repro import ExperimentSpec, FleetSpec, Scenario, ServeSpec, TraceSpec
from repro.cli import main
from repro.domains import domains
from repro.faults import BrownoutEvent, DegradeEvent, FailureEvent, FaultPlan
from repro.fleet.spec import AutoscalerSpec
from repro.hw import h800_node, h800_pod
from repro.moe.config import MIXTRAL_8X7B, QWEN2_MOE, MoEConfig
from repro.moe.routing import (
    imbalanced_fractions,
    max_imbalance_std,
    routing_from_fractions,
)
from repro.parallel.strategy import ParallelStrategy
from repro.runtime.workload import make_workload
from repro.systems import Comet
from test_conventions import _roots

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


@pytest.mark.parametrize(
    "fractions",
    ([float("nan")] * 2, [0.5, float("nan"), 0.5], [float("inf"), 0.0], [1.0, float("-inf")]),
    ids=("all nan", "one nan", "inf", "-inf"),
)
def test_routing_fractions_must_be_finite(fractions):
    # [nan, nan] used to pass the sum check and send every token to
    # expert 0.
    with pytest.raises(ValueError, match="fractions must be finite"):
        routing_from_fractions(6, 1, fractions)


@pytest.mark.parametrize("std", (float("nan"), float("inf"), float("-inf")), ids=repr)
def test_imbalance_std_must_be_finite(std):
    # NaN used to fail every comparison and return uniform fractions.
    with pytest.raises(ValueError, match=f"std must be finite, got {std}"):
        imbalanced_fractions(8, std)


@pytest.mark.parametrize(
    "std, message", ((-0.01, "non-negative"), (float("nan"), "finite")),
    ids=("negative", "nan"),
)
def test_workload_imbalance_must_be_finite_and_non_negative(std, message):
    # Both used to synthesise the balanced plan.
    with pytest.raises(ValueError, match=f"std must be {message}"):
        make_workload(MIXTRAL_8X7B, h800_node(), EP8, 2048, imbalance_std=std)


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


@pytest.mark.parametrize("spec", ("0@nan", "0@500:inf", "0@100:nan:x2"))
def test_fleet_cli_rejects_non_finite_fault_times(spec, tmp_path, capsys):
    # Each used to run, serve nothing or fewer requests, and export NaN
    # or Infinity.
    out = tmp_path / "o.json"
    assert main(["fleet", "--replicas", "2", "--failures", spec, *FAST, "--json", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad fault spec {spec!r}")
    assert not out.exists()


# -- field domains ----------------------------------------------------------------
NAN, INF = float("nan"), float("inf")


def _domain_roots() -> tuple:
    """The conventions roots, a fleet carrying every fault family and a
    legacy failure, and a two-tier cluster."""
    plan = FaultPlan(
        crashes=(FailureEvent(1, 0.0, 400.0),),
        degrades=(DegradeEvent(0, 0.0, 800.0, compute_mult=2.0),),
        brownouts=(BrownoutEvent(0.0, 600.0),),
    )
    faulted = FleetSpec.grid(
        replicas=2, traces=TraceSpec(rps=10, duration_s=1), systems="comet",
        failures=FailureEvent(0, 0.0, 300.0), faults=plan,
    )
    return (*_roots(), faulted, h800_pod(2))


def _reached(roots) -> dict[type, object]:
    """The first instance of each dataclass reached from ``roots``
    through fields and containers."""
    found: dict[type, object] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            found.setdefault(type(obj), obj)
            stack.extend(getattr(obj, field.name) for field in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return found


def _numeric_type(annotation) -> str | None:
    """``"int"`` or ``"float"`` for an int or float annotation, optionally
    ``| None``; ``None`` for anything else."""
    text = annotation if isinstance(annotation, str) else getattr(
        annotation, "__name__", str(annotation)
    )
    parts = {part.strip() for part in text.split("|")} - {"None"}
    return parts.pop() if parts in ({"int"}, {"float"}) else None


REACHED = _reached(_domain_roots())

#: Valid instances for the classes whose cross-field rules would reject
#: a bound on the roots' instance: 1 token does not divide over 8 ranks,
#: top-2 routing needs two experts, a burst factor of 4 caps the burst
#: fraction at 0.25, and scale_down_queue=1 keeps scale_up_queue above 1.
INSTANCES = {
    **REACHED,
    Scenario: Scenario(MIXTRAL_8X7B, h800_node(1), ParallelStrategy(1, 1), tokens=1),
    MoEConfig: dataclasses.replace(MIXTRAL_8X7B, topk=1),
    TraceSpec: TraceSpec(burst_factor=1.0),
    AutoscalerSpec: AutoscalerSpec(scale_down_queue=0.0),
}

#: (class, field, annotated type) of every int or float field reached.
NUMERIC_FIELDS = [
    (cls, field.name, kind)
    for cls in REACHED
    for field in dataclasses.fields(cls)
    if (kind := _numeric_type(field.type)) is not None
]


def _bounds(domain) -> tuple[list, list]:
    """The nearest value outside each bound of ``domain``, and the
    nearest value at or inside it."""
    outside, inside = [], []
    for bound, is_open, out in (
        (domain.low, domain.low_open, -1), (domain.high, domain.high_open, 1),
    ):
        if bound is None:
            continue
        if domain.integral:
            beyond, within = bound + out, bound - out
        else:
            bound = float(bound)
            beyond = math.nextafter(bound, out * INF)
            within = math.nextafter(bound, -out * INF)
        outside.append(bound if is_open else beyond)
        inside.append(within if is_open else bound)
    return outside, inside


def _cases(pick):
    for cls, instance in INSTANCES.items():
        for name, domain in domains(cls).items():
            for value in pick(domain):
                yield pytest.param(instance, name, value, id=f"{cls.__name__}.{name}={value!r}")


BAD = [
    *_cases(lambda d: [NAN, INF, -INF, True, *_bounds(d)[0], *([2.5] if d.integral else [])]),
    # A fractional split below 2: ParallelStrategy(1.5, 2) used to construct.
    pytest.param(INSTANCES[ParallelStrategy], "tp_size", 1.5, id="ParallelStrategy.tp_size=1.5"),
]
BOUNDS = list(_cases(lambda d: _bounds(d)[1]))


def test_walk_reaches_every_class_with_numeric_fields():
    assert {cls.__name__ for cls, _, _ in NUMERIC_FIELDS} == {
        "Scenario", "ServeScenario", "FleetScenario", "ReplicaSpec",
        "TraceSpec", "AutoscalerSpec", "ResilienceSpec", "MigrationSpec",
        "FailureEvent", "DegradeEvent", "BrownoutEvent",
        "GpuSpec", "LinkSpec", "ClusterSpec", "TwoTierCluster", "MoEConfig",
        "ParallelStrategy",
    }


@pytest.mark.parametrize(
    "cls,name,kind", NUMERIC_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _ in NUMERIC_FIELDS],
)
def test_numeric_field_declares_a_domain(cls, name, kind):
    domain = domains(cls).get(name)
    assert domain is not None, f"{cls.__name__}.{name} declares no domain"
    assert domain.type.__name__ == kind, f"{cls.__name__}.{name} is {kind}"


@pytest.mark.parametrize("instance,name,value", BAD)
def test_domain_rejects_bad_value(instance, name, value):
    with pytest.raises(ValueError) as caught:
        dataclasses.replace(instance, **{name: value})
    assert str(caught.value).startswith(f"{name} "), str(caught.value)


@pytest.mark.parametrize("instance,name,value", BOUNDS)
def test_domain_accepts_its_bounds(instance, name, value):
    assert getattr(dataclasses.replace(instance, **{name: value}), name) == value


def _declared() -> dict[str, tuple[str, bool, bool]]:
    """``Class.field`` -> (bounds in words, integral, optional) of every
    declared domain the walk reaches."""
    return {
        f"{cls.__name__}.{name}": (domain.describe(), domain.integral, domain.optional)
        for cls in REACHED
        for name, domain in domains(cls).items()
    }


#: Every declared domain, pinned literally: the walk above derives its
#: cases from the declarations, so a tightened bound (``ge=0`` to
#: ``gt=0``) would move its own cases.  An intended change re-records
#: the table with ``PYTHONPATH=src python tests/test_point_checks.py``.
ACCEPTED = {
    "AutoscalerSpec.cooldown_ms": (">= 0", False, False),
    "AutoscalerSpec.interval_ms": ("positive", False, False),
    "AutoscalerSpec.min_replicas": ("positive", True, False),
    "AutoscalerSpec.scale_down_queue": (">= 0", False, False),
    "AutoscalerSpec.scale_up_queue": ("positive", False, False),
    "AutoscalerSpec.warmup_ms": (">= 0", False, False),
    "BrownoutEvent.mult": ("exceed 1", False, False),
    "BrownoutEvent.t0_ms": (">= 0", False, False),
    "BrownoutEvent.t1_ms": ("positive", False, False),
    "ClusterSpec.world_size": ("positive", True, False),
    "DegradeEvent.comm_mult": ("positive", False, False),
    "DegradeEvent.compute_mult": ("positive", False, False),
    "DegradeEvent.replica": (">= 0", True, False),
    "DegradeEvent.t0_ms": (">= 0", False, False),
    "DegradeEvent.t1_ms": ("positive", False, False),
    "FailureEvent.fail_ms": (">= 0", False, False),
    "FailureEvent.recover_ms": ("positive", False, True),
    "FailureEvent.replica": (">= 0", True, False),
    "FleetScenario.bucket_tokens": ("positive", True, False),
    "FleetScenario.max_batch_size": ("positive", True, False),
    "FleetScenario.max_batch_tokens": ("positive", True, False),
    "FleetScenario.router_seed": (">= 0", True, False),
    "FleetScenario.slo_tpot_ms": ("positive", False, False),
    "FleetScenario.slo_ttft_ms": ("positive", False, False),
    "GpuSpec.hbm_gbps": ("positive", False, False),
    "GpuSpec.kernel_launch_us": (">= 0", False, False),
    "GpuSpec.mma_efficiency": ("lie in (0, 1]", False, False),
    "GpuSpec.num_sms": ("positive", True, False),
    "GpuSpec.smem_per_block_kb": ("positive", True, False),
    "GpuSpec.tensor_tflops": ("positive", False, False),
    "LinkSpec.a2a_efficiency": ("lie in (0, 1]", False, False),
    "LinkSpec.gbps": ("positive", False, False),
    "LinkSpec.latency_us": (">= 0", False, False),
    "LinkSpec.per_block_gbps": ("positive", False, False),
    "LinkSpec.per_message_us": (">= 0", False, False),
    "LinkSpec.ring_efficiency": ("lie in (0, 1]", False, False),
    "MigrationSpec.kv_bytes_per_token": ("positive", False, True),
    "MigrationSpec.messages_per_seq": ("positive", True, False),
    "MoEConfig.dtype_bytes": ("positive", True, False),
    "MoEConfig.ffn_size": ("positive", True, False),
    "MoEConfig.hidden_size": ("positive", True, False),
    "MoEConfig.num_attention_heads": ("positive", True, False),
    "MoEConfig.num_experts": ("positive", True, False),
    "MoEConfig.num_layers": ("positive", True, False),
    "MoEConfig.topk": ("positive", True, False),
    "ParallelStrategy.ep_size": ("positive", True, False),
    "ParallelStrategy.tp_size": ("positive", True, False),
    "ReplicaSpec.count": ("positive", True, False),
    "ResilienceSpec.backoff_ms": (">= 0", False, False),
    "ResilienceSpec.check_interval_ms": ("positive", False, False),
    "ResilienceSpec.health_window_ms": ("positive", False, False),
    "ResilienceSpec.max_probations": (">= 0", True, False),
    "ResilienceSpec.max_retries": (">= 0", True, False),
    "ResilienceSpec.min_samples": ("positive", True, False),
    "ResilienceSpec.probation_ms": ("positive", False, False),
    "ResilienceSpec.queue_factor": ("exceed 1", False, True),
    "ResilienceSpec.seed": (">= 0", True, False),
    "ResilienceSpec.shed_factor": ("positive", False, True),
    "ResilienceSpec.slow_factor": ("exceed 1", False, True),
    "ResilienceSpec.timeout_ms": ("positive", False, True),
    "Scenario.imbalance_std": (">= 0", False, False),
    "Scenario.seed": (">= 0", True, False),
    "Scenario.tokens": ("positive", True, False),
    "ServeScenario.bucket_tokens": ("positive", True, False),
    "ServeScenario.max_batch_size": ("positive", True, False),
    "ServeScenario.max_batch_tokens": ("positive", True, False),
    "ServeScenario.slo_tpot_ms": ("positive", False, False),
    "ServeScenario.slo_ttft_ms": ("positive", False, False),
    "TraceSpec.amplitude": ("lie in [0, 1]", False, False),
    "TraceSpec.burst_dwell_s": ("positive", False, False),
    "TraceSpec.burst_factor": (">= 0", False, False),
    "TraceSpec.burst_fraction": ("lie in (0, 1)", False, False),
    "TraceSpec.duration_s": ("", False, False),
    "TraceSpec.max_output": ("positive", True, False),
    "TraceSpec.max_prompt": ("positive", True, False),
    "TraceSpec.output_mean": ("positive", True, False),
    "TraceSpec.output_sigma": (">= 0", False, False),
    "TraceSpec.prompt_mean": ("positive", True, False),
    "TraceSpec.prompt_sigma": (">= 0", False, False),
    "TraceSpec.rps": ("", False, False),
    "TraceSpec.seed": (">= 0", True, False),
    "TwoTierCluster.gpus_per_node": ("positive", True, False),
    "TwoTierCluster.nodes": ("positive", True, False),
}


def test_every_declared_domain_has_a_pinned_row():
    assert sorted(_declared()) == sorted(ACCEPTED)


def test_every_domain_matches_its_pinned_row():
    declared = _declared()
    changed = {
        name: {"pinned": row, "declared": declared[name]}
        for name, row in ACCEPTED.items()
        if name in declared and declared[name] != row
    }
    assert changed == {}


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


@pytest.mark.parametrize("layer", (2, -1))
def test_division_point_sweep_covers_the_two_fused_kernels(layer):
    # Every layer other than 0 used to return the layer1 curve.
    workload = make_workload(MIXTRAL_8X7B, h800_node(), EP8, 2048)
    with pytest.raises(ValueError, match=f"layer must be 0 or 1, got {layer}"):
        Comet().sweep_division_points(workload, layer=layer)


if __name__ == "__main__":
    for key, (bounds, integral, optional) in sorted(_declared().items()):
        print(f'    "{key}": ("{bounds}", {integral}, {optional}),')
