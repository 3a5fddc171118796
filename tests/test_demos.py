"""Each demo script runs to completion in a fresh interpreter."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexlattice
from vortexlattice.atom_forces import lift_speed
from vortexlattice.ring_analysis import compare_rings, fringe_drift_speed

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(vortexlattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300, cwd=REPO)
    assert done.returncode == 0, done.stderr


def test_ferris_demo_prints_the_summarys_drift_reference(capsys):
    """Demo 04 prints, beside lift_speed's delta_omega / 2k, the drift
    reference ferris_summary.json measures against, and its measured drift
    agrees with that one."""
    run = runpy.run_path(str(REPO / "demos" / "04_ferris_wheel.py"))
    out = capsys.readouterr().out
    pair, ring = run["pair"], run["ring"]
    ref = fringe_drift_speed(pair, ring)
    assert f"delta_omega/Phi'(0) = {ref * 1e3:.6f} mm/s" in out
    assert f"delta_omega/(2k)    = {lift_speed(pair) * 1e3:.6f} mm/s" in out
    assert abs(run["drift"] - ref) < 1e-6 * abs(ref)


def test_ring_demo_prints_compare_rings(capsys):
    """Demo 02 prints how many of its rings lie between the foci and how
    many past them (125 and 14), its double-ring table from compare_rings'
    rows, the ones ring_comparison.csv holds, with how many lie past a
    focus, and the offset reading its summary says matches.  Its 14
    splittings past a focus agree with double_ring_radii within 0.6%."""
    run = runpy.run_path(str(REPO / "demos" / "02_ring_lattice.py"))
    out = capsys.readouterr().out
    rows, summary = compare_rings(run["pair"], run["rings"])
    ring_z = np.array([ring.z_pos for ring in run["rings"].rings])
    beyond = np.abs(ring_z) >= 0.5 * run["pair"].separation_d
    assert (ring_z.size - beyond.sum(), beyond.sum()) == (125, 14)
    assert (f"{ring_z.size} bright rings: {ring_z.size - beyond.sum()} between the foci, "
            f"{beyond.sum()} past them") in out
    past = np.abs(rows[:, 0]) >= 0.5 * run["pair"].separation_d
    assert f"{len(rows)} rings resolve a radial split, {past.sum()} of them past a focus" in out
    assert past.sum() == 14
    assert np.all(np.abs(rows[past, 1:3] - rows[past, 3:5]) <= 0.006 * rows[past, 3:5])
    for z, r_inner, r_outer, *_ in rows[:: max(1, len(rows) // 8)]:
        assert f"{z * 1e6:+6.2f}   {r_inner * 1e6:.3f}, {r_outer * 1e6:.3f}" in out
    matching = summary["delta_reading"]["matching"]
    assert f"the {matching.replace('_', ' ')} reading matches" in out
