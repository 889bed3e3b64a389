"""Conventions every simulator tier relies on, checked as plain tests.

Specs are the cache keys and the cross-process currency: grids hash
them, ``executor="process"`` pickles them and reports embed them in
manifests.  So every class named ``*Spec`` under ``src/repro`` must sit
at module top level (a nested class does not pickle) and be a frozen
dataclass with no lambda, list, dict or set default, and its live
instances must hash and come back equal from a pickle round trip.  The
instances come from walking the fields of the objects :func:`_roots`
builds; a new ``*Spec`` needs a root that reaches it.

The fast paths are held ``==`` to their oracles and the caches key on
fingerprints, which holds only while every tier reruns bit-identically.
So the modules of the packages in :data:`DETERMINISM_SCOPE` may not read
a wall clock, draw ambient entropy, use a shared or unseeded random
generator, or iterate a bare set.  An intentional exception goes into
:data:`ALLOWED` with its reason.  The last test runs one set of grids
under two hash seeds and requires byte-identical exports, which catches
a set-order dependence the syntax-tree scan cannot see.
"""

import ast
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import ExperimentSpec, FleetSpec, ServeSpec, TraceSpec
from repro.faults import MigrationSpec, ResilienceSpec
from repro.fleet.spec import AutoscalerSpec
from repro.tensor.shared_tensor import all2all_dispatch

PACKAGE_DIR = Path(repro.__file__).parent

#: Source text of every package module, by path under ``src/repro``.
SOURCES = {
    path.relative_to(PACKAGE_DIR).as_posix(): path.read_text()
    for path in sorted(PACKAGE_DIR.rglob("*.py"))
}


# -- specs ---------------------------------------------------------------------
def _spec_definitions(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, at module top level) of every ``*Spec`` class in
    ``source``, however deeply nested."""
    tree = ast.parse(source)
    top_level = {id(node) for node in tree.body}
    return [
        (node.name, node.lineno, id(node) in top_level)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Spec")
    ]


def _module(path: str) -> str:
    """``serve/traffic.py`` -> ``repro.serve.traffic``."""
    parts = ("repro", *Path(path).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _roots() -> tuple:
    """Objects whose fields, walked recursively, reach every ``*Spec``."""
    trace = TraceSpec(rps=10, duration_s=1)
    return (
        ExperimentSpec.grid(
            models="mixtral", tokens=2048, stragglers=(None, 1.5),
            overlap_policies="cross_layer",
        ),
        # Built from lists, as a caller reading a trace file would.
        ServeSpec.grid(
            traces=TraceSpec(
                kind="replay", arrivals_ms=[0.0, 5.0, 9.0],
                replay_lengths=[[64, 8], [32, 4], [16, 2]],
            ),
            systems="comet",
        ),
        FleetSpec.grid(
            replicas=2, routers="least_queue", traces=trace, systems="comet",
            autoscalers=AutoscalerSpec(min_replicas=1),
            resilience=ResilienceSpec(timeout_ms=500),
        ),
        FleetSpec.grid(
            replicas="1p+1d", traces=trace, systems="comet", migrations=MigrationSpec(),
        ),
        all2all_dispatch(),
    )


def _reached_specs(roots) -> dict[tuple[str, str], list]:
    """Every ``*Spec`` instance in ``roots`` or their fields, recursively,
    by (module, class name)."""
    reached: dict[tuple[str, str], list] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            cls = type(obj)
            if cls.__name__.endswith("Spec"):
                reached.setdefault((cls.__module__, cls.__qualname__), []).append(obj)
            stack.extend(getattr(obj, field.name) for field in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
    return reached


def _spec_problems(cls: type, instances) -> list[str]:
    """Why ``cls`` and its live ``instances`` cannot serve as cache keys."""
    name = cls.__name__
    params = vars(cls).get("__dataclass_params__")
    if params is None or not params.frozen:
        return [f"{name} must be @dataclass(frozen=True); a mutable spec cannot key a cache"]
    problems = []
    for field in dataclasses.fields(cls):
        for default in (field.default, field.default_factory):
            if getattr(default, "__name__", None) == "<lambda>":
                kind = "lambda, which does not pickle"
            elif isinstance(default, (list, dict, set)) or (
                isinstance(default, type) and issubclass(default, (list, dict, set))
            ):
                kind = "mutable container"
            else:
                continue
            problems.append(f"{name}.{field.name} defaults to a {kind}")
    for spec in instances:
        try:
            hash(spec)
            if pickle.loads(pickle.dumps(spec)) != spec:
                problems.append(f"{name} changes in a pickle round trip")
        except (TypeError, AttributeError, pickle.PicklingError) as exc:
            problems.append(f"{name} is not a stable key: {exc}")
    return problems


#: (module, class name, ``path:line``, at top level) of every ``*Spec``.
SPECS = sorted(
    (_module(path), name, f"{path}:{line}", top_level)
    for path, source in SOURCES.items()
    for name, line, top_level in _spec_definitions(source)
)


@pytest.fixture(scope="module")
def reached():
    return _reached_specs(_roots())


def test_specs_are_found():
    assert len(SPECS) >= 13, SPECS


@pytest.mark.parametrize(
    "module,name,where,top_level", SPECS, ids=[spec[1] for spec in SPECS],
)
def test_spec_is_a_frozen_pickle_stable_key(module, name, where, top_level, reached):
    assert top_level, (
        f"{where}: {name} is not defined at module top level; a nested spec "
        "does not pickle under executor='process'"
    )
    instances = reached.get((module, name))
    assert instances, f"no object built by _roots() reaches {name}; add a root that does"
    problems = _spec_problems(type(instances[0]), instances)
    assert not problems, "\n".join(problems)


def test_spec_check_rejects_a_thawed_spec():
    @dataclasses.dataclass
    class ThawedSpec:
        count: int = 0

    assert _spec_problems(ThawedSpec, [ThawedSpec()]) == [
        "ThawedSpec must be @dataclass(frozen=True); a mutable spec cannot key a cache"
    ]


def test_spec_check_rejects_lambda_and_mutable_defaults():
    @dataclasses.dataclass(frozen=True)
    class SloppySpec:
        pick: object = dataclasses.field(default=lambda: 1)
        make: object = dataclasses.field(default_factory=lambda: ())
        table: dict = dataclasses.field(default_factory=dict)

    assert _spec_problems(SloppySpec, []) == [
        "SloppySpec.pick defaults to a lambda, which does not pickle",
        "SloppySpec.make defaults to a lambda, which does not pickle",
        "SloppySpec.table defaults to a mutable container",
    ]
    problem = _spec_problems(SloppySpec, [SloppySpec()])[-1]
    assert problem.startswith("SloppySpec is not a stable key: unhashable type")


def test_spec_check_rejects_a_spec_defined_in_a_function():
    @dataclasses.dataclass(frozen=True)
    class NestedSpec:
        count: int = 0

    source = inspect.getsource(test_spec_check_rejects_a_spec_defined_in_a_function)
    found = _spec_definitions(textwrap.dedent(source))
    assert [(name, top_level) for name, _, top_level in found] == [("NestedSpec", False)]
    (problem,) = _spec_problems(NestedSpec, [NestedSpec()])
    assert problem.startswith("NestedSpec is not a stable key: ")
    assert "local" in problem


# -- determinism ---------------------------------------------------------------
#: Packages under ``src/repro`` whose modules must rerun bit-identically:
#: the simulators and the oracles they are checked against.
DETERMINISM_SCOPE = ("kernels", "graph", "serve", "fleet", "faults", "sim", "oracles")

#: Intentional exceptions: ``"path: message"`` -> why the finding is safe.
ALLOWED: dict[str, str] = {}

_ENTROPY = {("os", "urandom"), ("os", "getrandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}
_SEEDED_NUMPY = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def _call_message(call: ast.Call) -> str | None:
    """Why ``call`` breaks bit-identical reruns, if it does."""
    func = call.func
    base = _dotted(func.value) if isinstance(func, ast.Attribute) else ""
    name = func.attr if isinstance(func, ast.Attribute) else _dotted(func)
    shown = f"{base}.{name}" if base else name
    if base == "time" or (
        base.rpartition(".")[2] in ("datetime", "date") and name in ("now", "utcnow", "today")
    ):
        return f"wall-clock call {shown}() breaks bit-identical reruns; thread times through specs"
    if (base, name) in _ENTROPY or base == "secrets" or name == "SystemRandom":
        return f"{shown}() draws ambient entropy; derive randomness from the spec seed"
    if base == "random" and name != "Random":
        return f"module-level {shown}() uses the shared generator; construct random.Random(seed)"
    if base in ("np.random", "numpy.random") and name not in _SEEDED_NUMPY:
        return f"module-level {shown}() uses the shared generator; construct default_rng(seed)"
    if name in ("Random", "default_rng") and not call.args and not call.keywords:
        return f"{shown}() without a seed is entropy-seeded; pass the spec seed"
    return None


def _is_bare_set(node: ast.expr) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _determinism_findings(sources: dict[str, str]) -> list[str]:
    """``path:line: message`` for every banned call or bare-set loop in
    ``sources`` (path -> text) that :data:`ALLOWED` does not excuse."""
    findings = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=path)):
            if isinstance(node, ast.Call):
                where, message = node, _call_message(node)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                if not _is_bare_set(node.iter):
                    continue
                where = node.iter
                message = "iteration order over a bare set follows the hash seed; sort it"
            else:
                continue
            if message is not None and f"{path}: {message}" not in ALLOWED:
                findings.append((path, where.lineno, message))
    return [f"{path}:{line}: {message}" for path, line, message in sorted(findings)]


def _scoped_sources() -> dict[str, str]:
    return {
        path: source for path, source in SOURCES.items()
        if path.split("/")[0] in DETERMINISM_SCOPE
    }


def test_simulators_read_no_clock_entropy_or_set_order():
    sources = _scoped_sources()
    assert len(sources) >= 35, sorted(sources)
    findings = _determinism_findings(sources)
    assert not findings, "\n" + "\n".join(findings)


#: One snippet per banned family; each offends on its line 2.
DRILLS = {
    "time": ("import time\nstamp = time.time()\n", "wall-clock call time.time()"),
    "datetime": (
        "from datetime import datetime\nstamp = datetime.now()\n",
        "wall-clock call datetime.now()",
    ),
    "urandom": ("import os\nkey = os.urandom(8)\n", "os.urandom() draws ambient entropy"),
    "uuid": ("import uuid\nrid = uuid.uuid4()\n", "uuid.uuid4() draws ambient entropy"),
    "secrets": (
        "import secrets\ntoken = secrets.token_hex(8)\n",
        "secrets.token_hex() draws ambient entropy",
    ),
    "SystemRandom": (
        "import random\nrng = random.SystemRandom(0)\n",
        "random.SystemRandom() draws ambient entropy",
    ),
    "random": ("import random\njitter = random.random()\n", "module-level random.random()"),
    "numpy.random": (
        "import numpy as np\nnoise = np.random.rand()\n", "module-level np.random.rand()",
    ),
    "unseeded-Random": (
        "import random\nrng = random.Random()\n", "random.Random() without a seed",
    ),
    "unseeded-default_rng": (
        "from numpy.random import default_rng\nrng = default_rng()\n",
        "default_rng() without a seed",
    ),
    "set-loop": ("total = 0\nfor value in {3, 1, 2}:\n    total += value\n", "bare set"),
    "set-comprehension": (
        "values = (3, 1, 2)\nfirst = [value for value in set(values)]\n", "bare set",
    ),
}

CLEAN = """\
import random

import numpy as np
from numpy.random import default_rng


def draw(seed: int) -> float:
    rng = np.random.default_rng(seed)
    local = random.Random(seed)
    other = default_rng(seed=seed)
    pcg = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    total = sum(value for value in sorted({3, 1, 2}))
    return rng.random() + local.random() + other.random() + pcg.random() + total
"""


@pytest.mark.parametrize("source,message", DRILLS.values(), ids=DRILLS)
def test_each_banned_family_is_found(source, message):
    (finding,) = _determinism_findings({"drill.py": source})
    assert finding.startswith("drill.py:2: ") and message in finding, finding


def test_seeded_generators_and_sorted_sets_pass():
    assert _determinism_findings({"clean.py": CLEAN}) == []


@pytest.mark.parametrize("path", ("graph/scheduler.py", "oracles/graph_des.py"))
def test_wall_clock_injected_into_scoped_source_is_found(path):
    sources = _scoped_sources()
    sources[path] += "\n\nimport time\n\n\ndef _stamp() -> float:\n    return time.time()\n"
    (finding,) = _determinism_findings(sources)
    assert finding.startswith(f"{path}:") and "time.time()" in finding, finding


# -- hash-seed independence ----------------------------------------------------
HASH_SEED_SCRIPT = """
import hashlib

from repro import ExperimentSpec, FleetSpec, ServeSpec, TraceSpec
from repro.faults import ResilienceSpec
from repro.fleet.spec import AutoscalerSpec

SYSTEMS = ("comet", "tutel")
results = (
    ExperimentSpec.grid(
        models="mixtral", tokens=4096, stragglers=(None, 1.5), systems=SYSTEMS,
        overlap_policies=("per_layer", "cross_layer", "shortcut"),
    ).run(level="model"),
    ServeSpec.grid(
        traces=(
            TraceSpec(kind="bursty", rps=20, duration_s=2),
            TraceSpec(kind="diurnal", rps=20, duration_s=2),
        ),
        systems=SYSTEMS,
    ).run(),
    FleetSpec.grid(
        replicas="2p+2d", routers=("least_queue", "power_of_two"),
        traces=TraceSpec(rps=30, duration_s=2), systems="comet",
    ).run(),
    FleetSpec.grid(
        replicas=4, routers="least_queue", traces=TraceSpec(rps=120, duration_s=2),
        autoscalers=AutoscalerSpec(min_replicas=2),
        resilience=ResilienceSpec(
            timeout_ms=1000, max_retries=1, shed_factor=1.5, slow_factor=1.5,
        ),
        systems="comet",
    ).run(),
)
for result in results:
    print(hashlib.sha256(result.to_json().encode()).hexdigest())
"""


def test_exports_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join(filter(None, (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH"))))
    digests = []
    for hash_seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]
