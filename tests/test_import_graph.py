"""The package's import graph: acyclic, and each process loads what it runs.

Every package ``__init__`` but :mod:`repro.systems` is a PEP 562 name
table (:mod:`repro._lazy`), and the spec modules and CLI handlers import
their run-time machinery where it runs.  These tests pin what follows
from that: the module-level import graph has no cycle, perfbench's
set-up and a paper-figures run load none of the serving and fleet
engines, the DES kernel or the trace and metrics renderers, every
exported name still resolves, and ``import repro`` still registers the
systems in their order.
"""

import ast
import importlib
import json
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent.parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(body: list[ast.stmt]):
    """The import statements that run when the module is imported: its
    top level and class bodies, through ``if``/``try``/``with`` blocks
    but not ``if TYPE_CHECKING:`` ones, and never a function body."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_level_imports(block)
            for handler in node.handlers:
                yield from _module_level_imports(handler.body)
        elif isinstance(node, (ast.With, ast.ClassDef)):
            yield from _module_level_imports(node.body)


def _lazy_table(tree: ast.Module) -> dict[str, str]:
    """A package ``__init__``'s ``_LAZY`` name table, or ``{}``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_LAZY"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return {}


def _import_graph() -> dict[str, set[str]]:
    """Each module of the package, with the modules its module-level
    imports run.

    Importing ``repro.a.b`` runs ``repro.a.b`` and each package
    ``__init__`` above it, except the importing module's own packages,
    which are already running.  ``from pkg import name`` also runs the
    submodule ``pkg.name``, or the module ``pkg``'s ``_LAZY`` table
    names for it.
    """
    paths = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}
    trees = {name: ast.parse(path.read_text()) for name, path in paths.items()}
    packages = {name for name, path in paths.items() if path.name == "__init__.py"}
    lazy = {name: _lazy_table(trees[name]) for name in packages}
    graph: dict[str, set[str]] = {}
    for importer, tree in trees.items():
        parts = importer.split(".")
        running = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
        package = importer if importer in packages else importer.rpartition(".")[0]

        def runs(target: str) -> set[str]:
            steps = target.split(".")
            prefixes = (".".join(steps[:i]) for i in range(1, len(steps) + 1))
            return {name for name in prefixes if name in paths and name not in running}

        edges: set[str] = set()
        for node in _module_level_imports(tree.body):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges |= runs(alias.name)
                continue
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            source = ".".join(filter(None, (base, node.module)))
            edges |= runs(source)
            for alias in node.names:
                submodule = f"{source}.{alias.name}"
                if submodule in paths:
                    edges |= runs(submodule)
                elif alias.name in lazy.get(source, {}):
                    edges |= runs(lazy[source][alias.name])
        graph[importer] = edges
    return graph


def test_module_level_import_graph_is_acyclic():
    graph = _import_graph()
    assert {"repro.systems", "repro.api.scenario"} <= graph.keys()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        cycle = " imports ".join(reversed(exc.args[1]))
        pytest.fail(f"module-level import cycle: {cycle}")


def _fresh_process(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    ).stdout


#: perfbench's set-up imports, then one paper-figures iteration.
_PAPER_FIGURES = """
import json, sys
from repro import ExperimentSpec, FleetSpec, ServeSpec, TraceSpec, perf
from repro.bench import figures
from repro.bench.validation import validate_all
after_setup = sorted(sys.modules)
validate_all(quick=True)
figures.fig09_end_to_end(total_tokens=(4096,))
print(json.dumps([after_setup, sorted(sys.modules)]))
"""

#: Run-time machinery a paper-figures run never executes.
NEVER_LOADED = (
    "repro.serve.scheduler",
    "repro.serve.metrics",
    "repro.serve.engine_adapter",
    "repro.fleet.simulator",
    "repro.fleet.metrics",
    "repro.sim.engine",
    "repro.obs.metrics",
    "repro.obs.schema",
    "repro.obs.timeline",
    "repro.graph.batch",
    "repro.runtime.executor",
    "repro.runtime.profiler",
    "repro.runtime.training",
    "repro.runtime.visualize",
)

#: The modules perfbench's tracer looks up in ``sys.modules`` right
#: after set-up, to wrap the entry points they define.
LOADED_BY_SETUP = (
    "repro.runtime.workload",
    "repro.graph.lower",
    "repro.graph.scheduler",
    "repro.perf",
    "repro.obs.manifest",
)


def test_paper_figures_loads_only_what_it_runs():
    after_setup, after_run = json.loads(_fresh_process(_PAPER_FIGURES))
    assert [name for name in LOADED_BY_SETUP if name not in after_setup] == []
    assert [name for name in NEVER_LOADED if name in after_run] == []


#: Builds a serving and a fleet grid, as perfbench's set-up does.
_BUILD_GRIDS = """
import json, sys
from repro import FleetSpec, ServeSpec, TraceSpec
trace = TraceSpec(kind="poisson", rps=100, duration_s=50, seed=1)
ServeSpec.grid(traces=trace, systems=("comet", "megatron"), policies=("fcfs", "slo"))
FleetSpec.grid(replicas=8, routers="power_of_two", traces=trace, systems="comet")
print(json.dumps(sorted(sys.modules)))
"""

#: The step loop and what it prices and records with.
STEP_LOOP = ("repro.serve.scheduler", "repro.serve.engine_adapter", "repro.serve.metrics")


def test_building_serving_specs_loads_no_step_loop():
    loaded = json.loads(_fresh_process(_BUILD_GRIDS))
    assert "repro.serve.policies" in loaded
    assert [name for name in STEP_LOOP if name in loaded] == []


#: perfbench's fleet-cosim workload, one run.
_FLEET_COSIM = """
import json, sys
from repro import FleetSpec, TraceSpec
FleetSpec.grid(
    replicas=8, routers="power_of_two", router_seed=1, systems="comet",
    traces=TraceSpec(kind="poisson", rps=1200, duration_s=1, seed=1),
).run().to_json()
print(json.dumps(sorted(sys.modules)))
"""


def test_a_fleet_cosim_loads_no_des_kernel_and_no_oracle():
    loaded = json.loads(_fresh_process(_FLEET_COSIM))
    assert "repro.fleet.simulator" in loaded
    assert [
        name for name in loaded
        if name == "repro.sim.engine" or name.startswith("repro.oracles")
    ] == []


def test_import_repro_registers_the_systems_in_order():
    out = _fresh_process("import repro\nprint(*repro.SYSTEM_REGISTRY.names())")
    assert out.split() == ["megatron-cutlass", "megatron-te", "fastermoe", "tutel", "comet"]


PACKAGES = sorted(_module_name(path.parent) for path in (SRC / "repro").rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
