"""Byte-identity pins for the paper-side numbers.

The figure harnesses price COMET's fused kernels through the same
division-point sweeps and ``time_layer`` calls the rest of the stack
uses, so a change to the kernel models shows up here first.  Each pin is
the sha256 of a result's fields as sorted-key JSON (floats as their
shortest round-trip repr): Figure 8's default step-2 curves (every
``nc``'s duration and the optimum of all 12 curves), Figure 10's
single-layer rows, Figure 9 at 4096 tokens, the quick claim rows, and
the default results of Figures 1, 11, 12, 13 and both panels of 14.
Table 3 is left out: it prices no kernel.  The seed-1 exports of the
graph, serving and fleet benchmark workloads are pinned the same way,
by the sha256 of their ``to_json()`` text.
An intended change re-records the table with
``PYTHONPATH=src python tests/test_paper_pins.py``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import ExperimentSpec, FleetSpec, ServeSpec, TraceSpec
from repro.bench import (
    fig01_time_breakdown,
    fig08_nc_sweep,
    fig09_end_to_end,
    fig10_single_layer,
    fig11_breakdown,
    fig12_parallelism,
    fig13_moe_params,
    fig14_imbalance,
    fig14_l20,
)
from repro.bench.validation import validate_all


def _sha(value) -> str:
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    else:
        value = [dataclasses.asdict(item) for item in value]
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


PINS = {
    "fig08": (
        fig08_nc_sweep,
        "ba18f5b57c5c628327aeec50568a30576abcbf9a62dabc365ec0205ae2613d36",
    ),
    "fig09": (
        lambda: fig09_end_to_end(total_tokens=(4096,)),
        "d35a266ac850f65e255f0d9f1c93edb9ed880f75799df2eb73ae73739b0fa252",
    ),
    "fig10": (
        fig10_single_layer,
        "2609ba43cf17586cf9e446b54258946885ef58c09bca954d02944cd97091460e",
    ),
    "claims": (
        lambda: validate_all(quick=True),
        "294668467fd2f5098291f88d81f1ce7ba3be614330677c6b6bdca203aace991e",
    ),
    "fig01": (
        fig01_time_breakdown,
        "8f5ea19cf54857c42e7dcb2c45896851b56ed9042bba2fed1b7c9091633f2ace",
    ),
    "fig11": (
        fig11_breakdown,
        "b1c047f32a74f5dcb925f0f13580c379aab0f31338e12d62569c5a1badfe1925",
    ),
    "fig12": (
        fig12_parallelism,
        "be52eac71e2ee5f0ec8e21585ddb2b4e10f11a794b52582802f7f26a0b45b71a",
    ),
    "fig13": (
        fig13_moe_params,
        "c8b89225e6ebde4fba57474959f73296caf2a81e2983d9f91bdcc3ffc076c04e",
    ),
    "fig14_imbalance": (
        fig14_imbalance,
        "13a5898932ae3df181898e56e73809a6071f2755e0763922c051a190e5abcdd2",
    ),
    "fig14_l20": (
        fig14_l20,
        "02fe6af327324e7f94b03da5d24c7f7d01b2db2e220d2b0818c8fb42872d0edc",
    ),
}


#: The seed-1 exports of perfbench's other three workloads, each built
#: through the public API as ``perfbench/workloads.py`` builds it.
EXPORTS = {
    "graph-sweep": (
        lambda: ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies="sweep", tokens=4096,
            overlap_policies=("per_layer", "cross_layer"), stragglers=(None, 1.5),
            seeds=1,
        ).run(level="model").to_json(),
        "5cff25d690ddd1cb841aa337c6b49d128adfc30d2af3a61e4a1e62712788ce2f",
    ),
    "serve-poisson": (
        lambda: ServeSpec.grid(
            traces=TraceSpec(kind="poisson", rps=100, duration_s=50, seed=1),
            systems=("comet", "megatron"),
        ).run().to_json(),
        "a7a6a5e8cb4d047a77816d31e01592933df0a03b2e5a2b3b7e90c4d66398c297",
    ),
    "fleet-cosim": (
        lambda: FleetSpec.grid(
            replicas=8, routers="power_of_two",
            traces=TraceSpec(kind="poisson", rps=1200, duration_s=5, seed=1),
            router_seed=1, systems="comet",
        ).run().to_json(),
        "0e86248b08decdc4dee3ddf20e8560cf426b32dbddc8726ba9253e23398374b8",
    ),
}


def _export_sha(export: str) -> str:
    return hashlib.sha256(export.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_paper_numbers_are_byte_identical(name):
    build, digest = PINS[name]
    assert _sha(build()) == digest


@pytest.mark.parametrize("name", list(EXPORTS))
def test_seed1_export_is_byte_identical(name):
    build, digest = EXPORTS[name]
    assert _export_sha(build()) == digest


if __name__ == "__main__":
    for name, (build, _) in PINS.items():
        print(f'{name}: "{_sha(build())}"')
    for name, (build, _) in EXPORTS.items():
        print(f'{name}: "{_export_sha(build())}"')
