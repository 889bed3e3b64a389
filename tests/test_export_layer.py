"""The export layer: one column table per result set, serving labels.

Each result set lists its optional export columns once, in ``COLUMNS``,
and every exporter reads that table.  The agreement tests below loop over
the tables, so a column added to one is checked in every format once it
has a departing input in ``DEPARTS``.  The byte-identity pins are sha256
digests of small sets that between them carry every column, taken before
the exporters moved onto the tables.
"""

import hashlib
import json

import pytest

from repro import (
    ExperimentSpec,
    FleetSpec,
    ResilienceSpec,
    ResultSet,
    ServeSpec,
    TraceSpec,
)
from repro.fleet.metrics import FleetResultSet
from repro.serve.metrics import ServeResultSet

# Short requests keep every grid point cheap to serve.
SMALL = TraceSpec(
    rps=8, duration_s=1, prompt_mean=96, max_prompt=256,
    output_mean=4, max_output=8,
)
RESILIENCE = ResilienceSpec(timeout_ms=200.0, max_retries=1)


def model_set(**axes):
    return ExperimentSpec.grid(
        tokens=2048, strategies=(1, 8), systems=("comet", "tutel"), **axes,
    ).run(level="model")


def fleet_set(**axes):
    # FasterMoE cannot run TP > 1, so the TP2xEP4 points are skips.
    return FleetSpec.grid(
        strategies=((1, 8), (2, 4)), traces=SMALL,
        systems=("comet", "fastermoe"), **axes,
    ).run()


def _names(value):
    return (value,) if isinstance(value, str) else tuple(value)


def _first(column):
    return _names(column.header)[0]


# One input per column, named by its (first) header, that departs from
# the default on that column alone.
DEPARTS = {
    (ResultSet, "policy"): lambda: model_set(overlap_policies="cross_layer"),
    (ResultSet, "stragglers"): lambda: model_set(stragglers=1.5),
    (FleetResultSet, "router"): lambda: fleet_set(routers="least_queue"),
    (FleetResultSet, "replicas"): lambda: fleet_set(replicas=2),
    (FleetResultSet, "timed_out"): lambda: fleet_set(resilience=RESILIENCE),
}
AT_DEFAULTS = {ResultSet: model_set, FleetResultSet: fleet_set}
TABLE = [
    pytest.param(cls, column, id=f"{cls.__name__}-{_first(column)}")
    for cls in AT_DEFAULTS
    for column in cls.COLUMNS
]


def _docs(results):
    payload = json.loads(results.to_json())
    return payload["rows" if "rows" in payload else "reports"], payload["skipped"]


def _carries(results, column):
    """Where ``column`` shows up in each export format of ``results``."""
    docs, skips = _docs(results)
    found = {
        "rows": all(h in results.to_rows()[0] for h in _names(column.header)),
        "json": bool(docs) and all(
            k in doc for doc in docs for k in _names(column.key)
        ),
    }
    if isinstance(results, ResultSet):
        found["table"] = all(
            h in results.to_table()[0] for h in _names(column.header)
        )
    return found, skips


def test_every_column_has_a_departing_input():
    columns = {(cls, _first(column)) for cls in AT_DEFAULTS for column in cls.COLUMNS}
    assert columns == set(DEPARTS)
    # A single-replica serving set has no optional column.
    assert not hasattr(ServeResultSet, "COLUMNS")


@pytest.mark.parametrize("cls,column", TABLE)
def test_departing_column_is_in_every_format(cls, column):
    results = DEPARTS[cls, _first(column)]()
    assert type(results) is cls
    found, skips = _carries(results, column)
    assert all(found.values()), found
    headers, rows = results.to_rows()
    assert rows and all(len(row) == len(headers) for row in rows)
    for other in cls.COLUMNS:
        if other is not column:
            assert not any(_carries(results, other)[0].values()), other.header
    if cls is FleetResultSet:
        # router and replicas also ride on the skip entries; the
        # resilience group does not.
        rides = column.header in ("router", "replicas")
        assert skips
        assert all((_names(column.key)[0] in skip) == rides for skip in skips)


@pytest.mark.parametrize("cls", list(AT_DEFAULTS), ids=lambda c: c.__name__)
def test_set_at_every_default_carries_no_column(cls):
    results = AT_DEFAULTS[cls]()
    for column in cls.COLUMNS:
        found, skips = _carries(results, column)
        assert not any(found.values()), column.header
        for key in _names(column.key):
            assert all(key not in skip for skip in skips)


def test_all_skipped_scenarios_still_carry_their_column():
    results = ExperimentSpec.grid(
        tokens=2048, strategies=(2, 4), overlap_policies="cross_layer",
        systems="fastermoe",
    ).run(level="model")
    assert not results.rows and results.skips
    assert "policy" in results.to_rows()[0]
    assert "policy" in results.to_table()[0]


# -- byte identity --------------------------------------------------------------


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pin_model():
    return model_set(
        overlap_policies=("per_layer", "cross_layer"), stragglers=(None, 1.5)
    )


def _pin_serve():
    return ServeSpec.grid(
        strategies=((1, 8), (2, 4)), traces=SMALL,
        systems=("comet", "fastermoe"),
    ).run()


def _pin_fleet():
    return fleet_set(
        routers=("round_robin", "least_queue"), replicas=(1, 2),
        resilience=RESILIENCE,
    )


def _pin_default_fleet():
    return FleetSpec.grid(traces=SMALL, systems="comet").run()


PINS = {
    "model": (_pin_model, {
        "json": "1b15fcd29c3d27259e65c5541ef54bc23a21adb953db0cd580793eade110d313",
        "csv": "bde38088b6f626d11fda90a048797a1e85af01dcf4ae89742e3501260e4857ed",
        "table": "0b7a0fb5e0825701db576e02320aa4e16ab47084118ed4c7281a682f701a5451",
    }),
    "serve": (_pin_serve, {
        "json": "a928f7c500ce56bf88569652e7cf76dcd011c8f736728e0de42049c83c2451a3",
        "csv": "17ba19128e2ffc47777efc8c76015cbe26f37df3d3460dbb75a17395925fd7d6",
    }),
    "fleet": (_pin_fleet, {
        "json": "0bffe2b3d54a0e01adf0ebc7dbaa613e36c3de3d81c39f113d119091920d125e",
        "csv": "92488b1b3a4e19897e3d248196cfc728c246b436558914166a67e8d65eac2b80",
    }),
    "default_fleet": (_pin_default_fleet, {
        "json": "f78833bf2a5ec652b9f44ba3023a45addb872725fe0a212bf7b8051be6e77ba5",
        "csv": "59984ad63b3ea43e32ffbe2fbbef7121a9b0dd79c376b12a056d2dba130683c4",
    }),
}


@pytest.mark.parametrize("name", list(PINS))
def test_exports_are_byte_identical(name):
    build, digests = PINS[name]
    results = build()
    got = {"json": _sha(results.to_json()), "csv": _sha(results.to_csv())}
    if "table" in digests:
        got["table"] = _sha(repr(results.to_table()))
    assert got == digests


def test_pinned_sets_carry_every_column():
    carried = set()
    for build, _ in PINS.values():
        results = build()
        for column in getattr(type(results), "COLUMNS", ()):
            if all(_carries(results, column)[0].values()):
                carried.add((type(results), _first(column)))
    assert carried == set(DEPARTS)


# -- serving labels ---------------------------------------------------------------


@pytest.mark.parametrize("spec", (ServeSpec, FleetSpec), ids=lambda s: s.__name__)
def test_slo_and_batch_axes_give_distinct_labels(spec):
    results = spec.grid(
        traces=SMALL, slo_ttft_ms=(300, 500), max_batch_tokens=(4096, 8192),
        systems="comet",
    ).run()
    labels = results.scenario_labels()
    assert len(set(labels)) == 4
    assert labels[0].endswith("/ttft300/mbt4096")
    rows = results.to_csv().splitlines()[1:]
    assert len(set(rows)) == 4
    assert {results.get("comet", label).scenario_label for label in labels} == set(labels)
