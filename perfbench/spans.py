"""Spans around the package's public functions, recorded from outside.

The modules import each other's functions with ``from .x import y``, so a
call is intercepted by rebinding the name in the module that looks it up
(``superpose.mode_amplitude``, ``cli.find_rings`` and so on).  ``Tracer``
installs the wrappers for one op and restores the originals afterwards.
Spans stay in memory; ``layer_metrics`` turns the spans of one op into
per-layer figures.
"""

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

@dataclass
class Span:
    ident: int
    name: str           # layer, or a "layer.part" sub-span
    parent: int         # ident of the enclosing span, -1 for the op itself
    start: float
    args: tuple = ()
    points: object = None   # (span) -> points the call evaluated
    end: float = 0.0
    result: object = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def _pt_points(span):
    pt = span.args[1]
    return max(np.size(pt.rho), np.size(pt.phi), np.size(pt.z))


def _grid_points(span):
    grid = span.args[1]
    return grid.axis1.size * grid.axis2.size


def _rk4_steps(span):
    states, cfg = span.result, span.args[3]
    return round((states[-1].time - states[0].time) / cfg.step)


# (module name, attribute, span name, points of a call) for every wrapped lookup
TARGETS = (
    ("superpose", "mode_amplitude", "lg_mode", _pt_points),
    ("superpose", "mode_phase", "lg_mode", _pt_points),
    ("atom_forces", "mode_amplitude", "lg_mode", _pt_points),
    ("atom_forces", "mode_phase", "lg_mode", _pt_points),
    ("cli", "intensity_map", "superpose", _grid_points),
    ("ring_analysis", "intensity_map", "superpose", _grid_points),
    ("ring_analysis", "total_amplitude", "superpose", _pt_points),
    ("atom_forces", "total_amplitude", "superpose", _pt_points),
    ("atom_forces", "pair_complex", "superpose", _pt_points),
    ("dynamics", "scattering_force", "atom_forces", None),
    ("dynamics", "dipole_force", "atom_forces", None),
    ("cli", "find_rings", "ring_analysis.find_rings", None),
    ("cli", "measure_rotation_rate", "ring_analysis.measure", None),
    ("cli", "measure_axial_drift", "ring_analysis.measure", None),
    ("cli", "integrate", "dynamics.integrate", None),
    ("cli", "trap_frequency", "dynamics", None),
    ("cli", "estimate_frequency", "dynamics", None),
)
# spans whose return value the figures read; other results are dropped at once
KEEP_RESULT = ("ring_analysis.find_rings", "dynamics.integrate")


class Tracer:
    """Records spans of the calls made during one op."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.get_ident()
        self._saved = []

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _open(self, name, args=(), points=None):
        stack = self._stack()
        # a pool worker's spans belong to the span the main thread is in
        outer = stack or self._stacks.get(self._main) or [-1]
        span = Span(next(self._ids), name, outer[-1], time.perf_counter(), args, points)
        stack.append(span.ident)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name, points=None):
        keep_result = name in KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, args, points)
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    span.result = result
                return result
            finally:
                self._close(span)
        return wrapper

    def install(self):
        from vortexlattice.config import RunConfig
        for module_name, attr, name, points in TARGETS:
            module = importlib.import_module(f"vortexlattice.{module_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, points))
        load = RunConfig.__dict__["from_file"]
        self._saved.append((RunConfig, "from_file", load))
        RunConfig.from_file = classmethod(self._wrap(load.__func__, "config"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, fn):
        """Run fn() as the root span of an op with every wrapper installed."""
        self.install()
        try:
            root = self._open("cli")
            try:
                fn()
            finally:
                self._close(root)
        finally:
            self.uninstall()


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans):
    """Per-layer figures of one traced op.

    Self time is a span's duration minus the union of its children's
    intervals; spans on pool threads add up across threads.  A layer the op
    never entered reads 0.
    """
    by_id = {s.ident: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(s):
        kids = [(max(k.start, s.start), min(k.end, s.end)) for k in children.get(s.ident, [])]
        return (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])

    def under(s, layer):
        while s.parent in by_id:
            s = by_id[s.parent]
            if s.layer == layer:
                return True
        return False

    def of(name):
        return [s for s in spans if s.name == name or s.layer == name]

    def total(name):
        return sum(s.end - s.start for s in of(name))

    def self_sum(name):
        return sum(self_time(s) for s in of(name))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    def points(group):
        return sum(s.points(s) for s in group)

    lg, sp, af = of("lg_mode"), of("superpose"), of("atom_forces")
    lg_points, sp_points = points(lg), points(sp)
    rings = [s.result for s in of("ring_analysis.find_rings") if s.result is not None]
    steps = sum(_rk4_steps(s) for s in of("dynamics.integrate") if s.result)
    root = [s for s in spans if s.parent == -1]
    return {
        "config.load_s": total("config"),
        "lg_mode.calls": len(lg),
        "lg_mode.points": lg_points,
        "lg_mode.self_s": self_sum("lg_mode"),
        "lg_mode.ns_per_point": ratio(self_sum("lg_mode"), lg_points, 1e9),
        "lg_mode.us_per_call": ratio(total("lg_mode"), len(lg), 1e6),
        "superpose.calls": len(sp),
        "superpose.points": sp_points,
        "superpose.self_s": self_sum("superpose"),
        "superpose.mode_evals_per_point": ratio(
            points(s for s in lg if under(s, "superpose")), sp_points),
        "atom_forces.calls": len(af),
        "atom_forces.self_s": self_sum("atom_forces"),
        "atom_forces.us_per_force": ratio(total("atom_forces"), len(af), 1e6),
        "atom_forces.mode_evals_per_force": ratio(
            points(s for s in lg if under(s, "atom_forces")), len(af)),
        "ring_analysis.find_rings_s": total("ring_analysis.find_rings"),
        "ring_analysis.measure_s": total("ring_analysis.measure"),
        "ring_analysis.self_s": self_sum("ring_analysis"),
        "ring_analysis.rings_found": sum(len(r.rings) for r in rings),
        "ring_analysis.splittings_found": sum(len(r.splittings) for r in rings),
        "dynamics.steps": steps,
        "dynamics.force_calls_per_step": ratio(len(af), steps),
        "dynamics.self_s": self_sum("dynamics"),
        "dynamics.us_per_step": ratio(total("dynamics.integrate"), steps, 1e6),
        "cli.self_s": sum(self_time(s) for s in root),
    }
