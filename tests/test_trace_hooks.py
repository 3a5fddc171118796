"""The benchmark (perfbench/) reaches into the package in two ways: its
tracer (perfbench/spans.py) wraps package functions by rebinding module
attributes, and its workloads call package functions directly.  Every name
the tracer lists must stay importable even where the package no longer calls
it, and every direct call must still bind to the signature it calls."""

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


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(f"vortexlattice.{module}"), attr)]
    assert missing == []


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
