"""Each demo script runs to completion in a fresh interpreter."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import vortexlattice
from vortexlattice.atom_forces import lift_speed
from vortexlattice.ring_analysis import fringe_drift_speed

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
