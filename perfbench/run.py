"""Benchmark of the vortexlattice CLI: seeded workloads, closed-loop ops.

    python3 perfbench/run.py --workload ring-detect --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each op is one in-process
``vortexlattice.cli.main(argv)`` call on a config generated from the seed,
after one warm-up op; one client runs one op at a time.  Every op's outputs
are checked (see workloads.py).  End-to-end times are scaled to a
reference host speed, measured between ops (see hostref.py).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
spans.py).  The last line of standard output is one JSON object; the lines
before it repeat the metrics, and the wall figures, for people.  Without
``--workload`` every workload runs, each in a fresh process.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from hostref import Reference, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

POOL = 4             # configs generated per run; ops cycle through them
MIN_OPS = 21         # so that op_tail_s has ten samples beyond it
SETUP_REPEATS = 5    # fresh interpreters timed for setup_s and the imports
SPEEDUP_REPEATS = 3
MODULES = ("config", "lg_mode", "superpose", "atom_forces", "ring_analysis",
           "dynamics", "cli")
# per-layer metrics that count work; they are averaged over one pass of
# the config pool so they repeat exactly for a seed
COUNTS = ("lg_mode.calls", "lg_mode.points", "superpose.calls", "superpose.points",
          "superpose.mode_evals_per_point", "atom_forces.calls",
          "atom_forces.mode_evals_per_force", "ring_analysis.rings_found",
          "ring_analysis.splittings_found", "dynamics.steps",
          "dynamics.force_calls_per_step", "cli.bytes_written")


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("VL_THREADS", None)
    return env


def time_child(argv):
    """Wall time of a fresh interpreter running argv, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} failed: {proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def measure_setup(config_path):
    """Time for a fresh interpreter to import vortexlattice.cli and parse the
    first config, as (median scaled to the reference host, median wall)."""
    code = ("import sys, vortexlattice.cli\n"
            "from vortexlattice.config import RunConfig\n"
            "RunConfig.from_file(sys.argv[1])")
    scaled, wall = [], []
    with Reference(1) as ref:   # the child is one interpreter thread
        before = ref.sample()
        for _ in range(SETUP_REPEATS):
            elapsed = time_child(["-c", code, str(config_path)])[0]
            after = ref.sample()
            scaled.append(scale(elapsed, before, after))
            wall.append(elapsed)
            before = after
    return statistics.median(scaled), statistics.median(wall)


def measure_imports():
    """Cumulative import time of each package module, from -X importtime,
    median over fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        _, stderr = time_child(["-X", "importtime", "-c", "import vortexlattice.cli"])
        cumulative = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name.startswith("vortexlattice."):
                    cumulative[name.split(".", 1)[1]] = int(parts[1]) * 1e-6
        runs.append(cumulative)
    return {f"{m}.import_s": statistics.median(r.get(m, 0.0) for r in runs)
            for m in MODULES}


def clear(directory):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def write_pool(name, seed, directory):
    """Generate the POOL cases of a workload from the seed and write their
    configs into a fresh directory."""
    from workloads import WORKLOADS
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    cases = [WORKLOADS[name].generate(rng) for _ in range(POOL)]
    clear(directory)
    paths = [directory / f"config_{j}.json" for j in range(POOL)]
    for case, path in zip(cases, paths):
        path.write_text(json.dumps(case.config, indent=2) + "\n")
    return cases, paths


class Runner:
    """Runs and checks the ops of one workload."""

    def __init__(self, workload, cases, paths, out, nproc):
        from vortexlattice import cli
        self.cli = cli
        self.workload = workload
        self.cases = cases
        self.paths = paths
        self.out = out
        self.nproc = nproc
        self.attempted = self.failed = 0
        self.max_err_ratio = 0.0

    def argv(self, j):
        return [*self.workload.argv, "--config", str(self.paths[j]),
                "--out", str(self.out), "--threads", str(self.nproc)]

    def op(self, j, tracer=None):
        """One op on pool config j: its latency, or None if it failed."""
        clear(self.out)
        argv = self.argv(j)
        self.attempted += 1
        rc = None
        gc.collect()   # each op starts from a collected heap, as a fresh CLI run does
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    box = []
                    tracer.op(lambda: box.append(self.cli.main(argv)))
                    rc = box[0]
        except Exception:   # an op that raises counts as failed; keep going
            traceback.print_exc()
        latency = time.perf_counter() - t0
        if rc == 0 and self.check(j):
            return latency
        self.failed += 1
        print(f"op failed: {' '.join(argv)} (exit {rc})", file=sys.stderr)
        return None

    def check(self, j):
        from workloads import CheckFailed
        try:
            ratios = self.workload.check(self.out, self.cases[j])
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return False
        worst = max(ratios.values())
        self.max_err_ratio = max(self.max_err_ratio, worst)
        if not worst < 1.0:
            print(f"check failed: {ratios}", file=sys.stderr)
            return False
        return True

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out.iterdir())


def closed_loop(runner, seconds, ref):
    """Untraced ops for at least `seconds` and MIN_OPS ops, with a reference
    sample between ops.  Returns the latencies of the ops that passed,
    scaled to the reference host, and their wall latencies."""
    scaled, wall = [], []
    t_end = time.perf_counter() + seconds
    i = 0
    before = ref.sample()
    while i < MIN_OPS or time.perf_counter() < t_end:
        latency = runner.op(i % POOL)
        after = ref.sample()
        if latency is not None:
            scaled.append(scale(latency, before, after))
            wall.append(latency)
        before = after
        i += 1
    return scaled, wall


def traced_loop(runner, seconds, ref):
    """Pairs of one untraced and one traced op on the same config, in
    alternating order, each pair followed by a reference sample, for at
    least `seconds` and one pass of the pool.  Returns the untraced
    latencies and (round, layer metrics) per traced op."""
    from spans import Tracer, layer_metrics
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    r = 0
    while r < POOL or time.perf_counter() < t_end:
        j = r % POOL
        for use_tracer in ((False, True) if r % 2 == 0 else (True, False)):
            if not use_tracer:
                latency = runner.op(j)
                if latency is not None:
                    plain.append(latency)
                continue
            tracer = Tracer()
            latency = runner.op(j, tracer)
            if latency is not None:
                m = layer_metrics(tracer.spans)
                m["op_s"] = latency
                m["cli.bytes_written"] = runner.bytes_written()
                m["cli.write_mb_per_s"] = (1e-6 * m["cli.bytes_written"] / m["cli.self_s"]
                                           if m["cli.self_s"] > 0 else 0.0)
                traced.append((r, m))
        ref.sample()
        r += 1
    return plain, traced


def thread_speedup(runner):
    """intensity_map on the workload's grid at 1 thread over nproc threads;
    0 for workloads without a grid."""
    from vortexlattice.config import RunConfig
    from vortexlattice.superpose import intensity_map
    cfg = RunConfig.from_file(runner.paths[0])
    grid = cfg.rings_grid or (cfg.xy_grids() or [None])[0]
    if grid is None:
        return 0.0
    times = {1: [], runner.nproc: []}
    for _ in range(SPEEDUP_REPEATS):
        for n in times:
            t0 = time.perf_counter()
            intensity_map(cfg.pair, grid, n_threads=n)
            times[n].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[runner.nproc])


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile)."""
    ordered = sorted(latencies)
    k = max(1, len(ordered) - 10)
    return ordered[k - 1], 100.0 * k / len(ordered)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner, setup, rss_mb, latencies, wall):
    """The end-to-end metrics from times scaled to the reference host, and
    a note per metric, with the wall figures, for the human-readable lines."""
    work = runner.workload.work(runner.cases[0])
    tail_s, pct = tail(latencies)
    count = f"n={len(latencies)}"
    notes = {"setup_s": f"wall {setup[1]:.4g} s",
             "op_p50_s": f"wall {statistics.median(wall):.4g} s, {count}",
             "op_tail_s": f"wall {tail(wall)[0]:.4g} s, p{pct:.0f}, {count}",
             "work_per_s": f"{runner.workload.work_unit}, wall "
                           f"{work * len(wall) / sum(wall):.4g}"}
    metrics = {"setup_s": setup[0],
               "op_p50_s": statistics.median(latencies),
               "op_tail_s": tail_s,
               "work_per_s": work * len(latencies) / sum(latencies),
               "peak_rss_mb": rss_mb}
    return metrics, notes


def per_layer(runner, imports, plain, traced, ref):
    first_pass = [m for r, m in traced if r < POOL]
    metrics = dict(imports)
    for name in traced[0][1]:
        if name == "op_s":
            continue
        if name in COUNTS:
            metrics[name] = statistics.fmean(m[name] for m in first_pass)
        else:
            metrics[name] = statistics.median(m[name] for _, m in traced)
    metrics["superpose.thread_speedup"] = thread_speedup(runner)
    metrics["trace.overhead_ratio"] = (statistics.median(m["op_s"] for _, m in traced)
                                       / statistics.median(plain))
    metrics["check.max_err_ratio"] = runner.max_err_ratio
    metrics["host.ref_s"] = statistics.median(ref.times)
    return metrics


def machine_line(nproc):
    import scipy
    return (f"# machine: nproc={nproc} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__}")


def measure(workload, cases, paths, seconds, trace, nproc):
    """Set-up figures, one warm-up op, then the timed loop; returns the
    runner and the metrics of the requested mode."""
    # importing here first also warms the file cache for the fresh interpreters
    import vortexlattice.cli
    if Path(vortexlattice.__file__).resolve().parent != SRC / "vortexlattice":
        raise RuntimeError(f"imported {vortexlattice.__file__}, not the checkout's")
    if trace:
        imports = measure_imports()
    else:
        setup = measure_setup(paths[0])
    runner = Runner(workload, cases, paths, paths[0].parent / "out", nproc)
    runner.op(0)   # warm-up, checked but not timed
    # A CLI run is one op in a fresh process.  Later ops in this process
    # raise the peak in steps that depend on thread timing and heap state.
    rss_mb = peak_rss_mb()

    with Reference(nproc if workload.threaded else 1) as ref:
        if trace:
            plain, traced = traced_loop(runner, seconds, ref)
            if not plain or not traced:
                raise RuntimeError("every op failed")
            return runner, per_layer(runner, imports, plain, traced, ref), {}
        latencies, wall = closed_loop(runner, seconds, ref)
    if not latencies:
        raise RuntimeError("every op failed")
    return (runner, *end_to_end(runner, setup, rss_mb, latencies, wall))


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("VL_THREADS", None)
    sys.path.insert(0, str(SRC))

    cases, paths = write_pool(name, seed, WORK / name)
    try:
        runner, metrics, notes = measure(workload, cases, paths, seconds, trace, nproc)
    finally:
        shutil.rmtree(WORK / name, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           f"match BENCHMARK.json")
    print(machine_line(nproc))
    print(f"# workload {name}, seed {seed}, trace {trace}: {runner.attempted} ops "
          f"(1 warm-up), {runner.failed} failed, error_rate "
          f"{runner.failed / runner.attempted:.4g}, max_err_ratio {runner.max_err_ratio:.4g}")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {value:.6g} {units[key]}{note}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(args):
    from workloads import WORKLOADS
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=900)
        code = code or proc.returncode
    return code


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vortexlattice" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
