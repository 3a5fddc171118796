"""Every README `configs/` command against its golden outputs (tests/golden/).

The digests hold on any machine: each sampled value, each column's max
|value| and its sum must agree with the recorded ones to ``REL`` of the
column's scale (the sum to ``REL`` times the scale times the row count, since
each value may move that much).  The bytes, by sha256, must match where
numpy's version and the machine are the recorded ones, so output cannot move
even in its last bit here without the golden files being regenerated.
"""

import hashlib
import importlib.util
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

REL = 1e-12

# Columns whose own max |value| is no scale for their rounding: the scale
# used instead, from the run's recorded files and the column's digest.
SCALES = {
    # The two outermost rings sit at the foci, where the ridge's three-point
    # curvature is 1e-7 of its value, so the parabola through it puts their
    # z at 7.7e-13 of max |z| from a 1-ulp change of the map (the intensity
    # kernel moved them 1.4e-12).  They are the column's max |z|; a scale of
    # 100 times it is still 3e-7 of the z grid step.
    ("rings", "rings.json", "rings.*.z"): lambda files, col: 100.0 * col["max_abs"],
    # 0 up to rounding (about 1e-22 m): its scale is the ring stack's extent.
    ("rings", "rings_summary.json", "central_z"):
        lambda files, col: files["rings.json"]["columns"]["rings.*.z"]["max_abs"],
    # A relative error formed from differences of nearly equal radii: a
    # 1-ulp move of a radius moves it by about 1e-16, against 1, not itself.
    ("rings", "rings_summary.json", "delta_reading.midplane_offset_err"):
        lambda files, col: 1.0,
}


def _scale(command, files, name, column):
    """The scale of a numeric column's tolerance (a column kept whole has none)."""
    col = files[name]["columns"][column]
    if "values" in col:
        return None
    scale = SCALES.get((command, name, column))
    return col["max_abs"] if scale is None else scale(files, col)


def _close(got, want, tol):
    if want is None or got is None:
        return got is want
    return abs(got - want) <= tol


def column_errors(got, want, scale):
    """What in one column's digest differs from the recorded digest."""
    if "values" in want or "values" in got:
        return [] if got == want else ["values differ"]
    errors = [key for key in ("rows", "every", "nan") if got[key] != want[key]]
    if errors:
        return errors
    tol = REL * scale
    bad = [i for i, (g, w) in enumerate(zip(got["sample"], want["sample"]))
           if not _close(g, w, tol)]
    if bad:
        errors.append(f"sampled rows {[i * want['every'] for i in bad]}")
    if not _close(got["max_abs"], want["max_abs"], tol):
        errors.append(f"max_abs {got['max_abs']!r} != {want['max_abs']!r}")
    if not _close(got["sum"], want["sum"], tol * want["rows"]):
        errors.append(f"sum {got['sum']!r} != {want['sum']!r}")
    return errors


@pytest.mark.parametrize("command", sorted(regenerate.COMMANDS))
def test_readme_command_matches_its_golden_outputs(command, tmp_path):
    golden = json.loads((GOLDEN / f"{command}.json").read_text())
    assert golden["argv"] == regenerate.COMMANDS[command]
    code, printed = regenerate.run(golden["argv"], tmp_path)
    assert code == 0
    assert printed == golden["printed"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden["files"])

    same_host = (golden["numpy"], golden["machine"]) == (np.__version__, platform.machine())
    errors = {}
    for name, want in golden["files"].items():
        path = tmp_path / name
        columns = regenerate.columns_of(path)
        if set(columns) != set(want["columns"]):
            errors[name] = {"columns": sorted(set(columns) ^ set(want["columns"]))}
            continue
        for column, values in columns.items():
            scale = _scale(command, golden["files"], name, column)
            bad = column_errors(regenerate.column_digest(values),
                                want["columns"][column], scale)
            if bad:
                errors[f"{name}:{column}"] = bad
        if same_host and hashlib.sha256(path.read_bytes()).hexdigest() != want["sha256"]:
            errors.setdefault(name, []).append("sha256")
    assert errors == {}


def test_golden_scales_name_recorded_columns():
    """Every scale override names a column the golden files hold, so a
    renamed column cannot leave its override behind unnoticed."""
    for command, name, column in SCALES:
        golden = json.loads((GOLDEN / f"{command}.json").read_text())
        assert column in golden["files"][name]["columns"]
        assert math.isfinite(_scale(command, golden["files"], name, column))
