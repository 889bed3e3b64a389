"""Byte-identity pins for the paper-side numbers.

The figure harnesses price COMET's fused kernels through the same
division-point sweeps and ``time_layer`` calls the rest of the stack
uses, so a change to the kernel models shows up here first.  Each pin is
the sha256 of a result's fields as sorted-key JSON (floats as their
shortest round-trip repr): Figure 8's default step-2 curves (every
``nc``'s duration and the optimum of all 12 curves), Figure 10's
single-layer rows, Figure 9 at 4096 tokens, and the quick claim rows.
An intended change re-records the table with
``PYTHONPATH=src python tests/test_paper_pins.py``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.bench import fig08_nc_sweep, fig09_end_to_end, fig10_single_layer
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
}


@pytest.mark.parametrize("name", list(PINS))
def test_paper_numbers_are_byte_identical(name):
    build, digest = PINS[name]
    assert _sha(build()) == digest


if __name__ == "__main__":
    for name, (build, _) in PINS.items():
        print(f'{name}: "{_sha(build())}"')
