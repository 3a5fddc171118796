"""The benchmark (perfbench/) reaches into the package in two ways: its
tracer (perfbench/spans.py) wraps package functions by rebinding module
attributes, and its workloads call package functions directly.  Every name
the tracer lists must stay importable even where the package no longer calls
it, every direct call must still bind to the signature it calls, and no
module keeps an import for any other reason without using it."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from vortexlattice.atom_forces import AtomSpec, dipole_potential
from vortexlattice.config import RunConfig
from vortexlattice.lg_mode import CylPoint
from vortexlattice.superpose import PairSpec, intensity_map

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vortexlattice"

# Package functions and classes the benchmark calls, by the name it calls
# them under; a method is called on an instance, so its first parameter is
# bound first.  perfbench/run.py defines its own main, so main is not here.
CALLED = {"AtomSpec": (AtomSpec, 0),
          "CylPoint": (CylPoint, 0),
          "counterpropagating": (PairSpec.counterpropagating, 0),
          "dipole_potential": (dipole_potential, 0),
          "from_file": (RunConfig.from_file, 0),
          "intensity_map": (intensity_map, 0),
          "xy_grids": (RunConfig.xy_grids, 1)}


def traced_targets():
    """(module, attribute) of every lookup perfbench/spans.py rebinds."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"vortexlattice.{module}"), attr)]
    assert missing == []


def test_unused_imports_are_traced_names():
    """Every name a package module imports and never references is one the
    tracer rebinds in that module, so an import left behind when its last
    use goes fails here.  __init__ imports to re-export and is not scanned."""
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in imported - used)
    assert unused <= set(traced_targets()), sorted(unused - set(traced_targets()))


def test_every_benchmark_call_binds():
    """Each call perfbench makes to a function in CALLED binds, positional
    arguments and keywords alike, so a parameter the benchmark passes cannot
    be removed without failing here."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in CALLED:
                continue
            fn, bound_first = CALLED[name]
            args = [None] * (bound_first + len(node.args))
            kwargs = {kw.arg: None for kw in node.keywords}
            inspect.signature(fn).bind(*args, **kwargs)
            found.add(name)
    assert found == set(CALLED)
