"""Tests of the benchmark itself: checks reject corrupted outputs, a failed
check counts as a failed op, and the traced counts are exact.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit_json(path, key, scale):
    data = json.loads(path.read_text())
    data[key] *= scale
    path.write_text(json.dumps(data))


def _edit_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = value(float(fields[col])) if callable(value) else value
    lines[row] = ",".join(str(f) for f in fields)
    path.write_text("\n".join(lines) + "\n")


def _drop_row(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _move_central_ring(out):
    data = json.loads((out / "rings.json").read_text())
    central = next(r for r in data["rings"] if r["class"] == "central")
    central["radius"] *= 1.01
    (out / "rings.json").write_text(json.dumps(data))


CORRUPTIONS = {
    "ring-detect": [
        _move_central_ring,
        lambda out: _edit_csv(out / "ring_comparison.csv", 1, 2, lambda v: 1.2 * v),
        lambda out: (out / "ring_comparison.csv").unlink(),
    ],
    "ferris-maps": [
        lambda out: _edit_json(out / "ferris_summary.json", "rotation_rate_measured",
                               1.0 + 1e-5),
        lambda out: _edit_json(out / "ferris_summary.json", "drift_speed_measured", 1.1),
        lambda out: _drop_row(out / "ferris_xy_t1_z0.csv"),
        lambda out: _edit_csv(out / "ferris_xy_t2_z0.csv", 7, 2, "inf"),
        lambda out: _edit_csv(out / "ferris_xy_t0_z0.csv", 9, 4, lambda v: v * (1 + 1e-9)),
    ],
    "trap-reduced": [
        lambda out: _edit_json(out / "trajectory_summary.json",
                               "oscillation_omega_measured", 1.03),
        lambda out: _drop_row(out / "trajectory.csv"),
    ],
    "trap-total": [
        lambda out: _edit_csv(out / "trajectory.csv", 20, 4, lambda v: v * 1.001 + 1e-6),
        lambda out: _edit_csv(out / "trajectory.csv", 5, 3, "nan"),
    ],
}


class CorruptingCli:
    """Stands in for vortexlattice.cli: runs the real main, then damages
    one output."""

    def __init__(self, cli, out, corrupt):
        self.cli, self.out, self.corrupt = cli, out, corrupt

    def main(self, argv):
        rc = self.cli.main(argv)
        self.corrupt(self.out)
        return rc


def _runner(name, tmp_path):
    cases, paths = run.write_pool(name, 7, tmp_path / "configs")
    return run.Runner(WORKLOADS[name], cases, paths, tmp_path / "out", nproc=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed_op(name, tmp_path):
    runner = _runner(name, tmp_path)
    assert runner.op(0) is not None
    assert (runner.attempted, runner.failed) == (1, 0)
    assert 0.0 < runner.max_err_ratio < 1.0
    real_cli = runner.cli
    for n, corrupt in enumerate(CORRUPTIONS[name], start=1):
        runner.cli = CorruptingCli(real_cli, runner.out, corrupt)
        assert runner.op(0) is None, f"corruption {n} passed the check"
        assert (runner.attempted, runner.failed) == (1 + n, n)


def test_traced_counts_are_exact(tmp_path):
    expect = {"ring-detect": ("superpose.mode_evals_per_point", 8.0),
              "trap-reduced": ("atom_forces.mode_evals_per_force", 2.0),
              "trap-total": ("atom_forces.mode_evals_per_force", 52.0),
              "ferris-maps": ("ring_analysis.measure_s", None)}
    for name, (metric, value) in expect.items():
        runner = _runner(name, tmp_path / name)
        tracer = Tracer()
        assert runner.op(0, tracer) is not None
        m = layer_metrics(tracer.spans)
        if value is None:
            assert m[metric] > 0.0
        else:
            assert m[metric] == value
        if name.startswith("trap"):
            assert m["dynamics.steps"] == WORKLOADS[name].work(runner.cases[0])
            assert m["dynamics.force_calls_per_step"] == 4.0
        assert m["cli.self_s"] > 0.0
    from vortexlattice import cli, superpose
    assert cli.find_rings.__module__ == "vortexlattice.ring_analysis"
    assert superpose.mode_amplitude.__module__ == "vortexlattice.lg_mode"
    assert not hasattr(superpose.mode_amplitude, "__wrapped__")


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0
    assert pct == pytest.approx(200.0 / 3.0)


def test_refuses_to_run_without_package_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "trap-total", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {"setup_s", "op_p50_s"} <= set(run.declared_metrics(0))


def test_times_scale_by_the_reference_around_them():
    from hostref import REF_S, scale
    assert scale(2.0, REF_S, REF_S) == 2.0
    assert scale(2.0, 1.5 * REF_S, 2.5 * REF_S) == pytest.approx(1.0)
