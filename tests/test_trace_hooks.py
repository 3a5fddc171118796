"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
rebinding module attributes, so every name it lists must stay importable
even where the package no longer calls it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(f"vortexlattice.{module}"), attr)]
    assert missing == []
