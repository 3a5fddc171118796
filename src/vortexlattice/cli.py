"""Command-line interface.

Subcommands: field-map, spring-sweep, rings, ferris, trajectory.  All take
--config (JSON run configuration) and --out (output directory); trajectory
also takes --mode, the force model ("reduced" by default).  --threads is
accepted and checked but ignored: everything runs on one thread.  Exit
codes: 0 success, 2 configuration problems, 3 any other package error
(numerical, resolution or geometry failures, or an output that is not
finite), 4 I/O failures.  Each command returns its outputs in order, as
(file name, content) pairs computed by the module that owns its physics;
``main`` writes them all with ``output.write_outputs``, which checks each.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .atom_forces import FORCE_MODELS, central_ring_radius, ferris_rate, lift_speed, \
    spring_sweep
from .config import RunConfig
# estimate_frequency and trap_frequency are not called here; they stay module
# attributes because perfbench/spans.py traces calls by rebinding these names
from .dynamics import estimate_frequency, integrate, summarize_trajectory, trap_frequency
from .errors import ConfigError, VortexLatticeError
from .output import write_outputs
from .ring_analysis import compare_rings, find_rings, fringe_drift_speed, \
    measure_axial_drift, measure_rotation_rate, suggested_sample_dt
from .superpose import intensity_map

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO = 0, 2, 3, 4


def _need_atom(cfg):
    if cfg.atom is None:
        raise ConfigError("this command needs an 'atom' config section")
    return cfg.atom


def cmd_field_map(cfg):
    grids = [("field_map_rho_z.csv", cfg.grid)] if cfg.grid is not None else []
    grids += [(f"field_map_xy_{j}.csv", grid) for j, grid in enumerate(cfg.xy_grids())]
    if not grids:
        raise ConfigError("field-map needs a 'grid' or 'xy_grid' section")
    return [(name, intensity_map(cfg.pair, grid)) for name, grid in grids]


def cmd_spring_sweep(cfg):
    atom = _need_atom(cfg)
    if cfg.sweep is None:
        raise ConfigError("spring-sweep needs a 'sweep' config section")
    rows = spring_sweep(atom, cfg.pair, np.linspace(*cfg.sweep))
    return [("spring_sweep.csv", ("d,K0_analytic,K0_numeric", rows))]


def cmd_rings(cfg):
    if cfg.rings_grid is None:
        raise ConfigError("rings needs a 'rings_grid' section")
    ringset = find_rings(cfg.pair, cfg.rings_grid)
    rows, summary = compare_rings(cfg.pair, ringset)
    outputs = [("rings.json", ringset.to_json_dict())]
    if len(rows):
        outputs.append(("ring_comparison.csv", (
            "z,r_inner,r_outer,w1,w2,delta_rho_measured,delta_rho_exact,"
            "delta_rho_approx,alpha", rows)))
    return outputs + [("rings_summary.json", summary)]


def cmd_ferris(cfg):
    pair = cfg.pair
    if pair.delta_omega == 0.0:
        raise ConfigError("ferris needs pair.delta_omega != 0")
    if pair.azimuthal_order == 0:
        raise ConfigError("ferris needs beams with azimuthal spokes (l1 + l2 != 0)")
    if not cfg.ferris_times:
        raise ConfigError("ferris needs a 'ferris.t_samples' config section")
    grids = cfg.xy_grids()
    if not grids:
        raise ConfigError("ferris needs an 'xy_grid' section")

    outputs = [(f"ferris_xy_t{i}_z{j}.csv", intensity_map(pair, replace(grid, time=t)))
               for i, t in enumerate(cfg.ferris_times) for j, grid in enumerate(grids)]

    # the measurements stay here, where perfbench/spans.py traces them
    rho_probe = central_ring_radius(pair)
    if rho_probe == 0.0:
        rho_probe = pair.beam1.waist_w0
    t0 = cfg.ferris_times[0]
    dt = suggested_sample_dt(pair)
    rot = measure_rotation_rate(pair, rho_probe, grids[0].z_slice, t0, t0 + dt)
    drift = measure_axial_drift(pair, rho_probe, t0, t0 + dt)
    rot_ref = ferris_rate(pair)
    drift_ref = fringe_drift_speed(pair, rho_probe)
    return outputs + [("ferris_summary.json", {
        "rotation_rate_measured": rot,
        "rotation_rate_analytic": rot_ref,
        "rotation_rel_err": abs(rot - rot_ref) / abs(rot_ref),
        "drift_speed_measured": drift,
        "drift_speed_analytic": lift_speed(pair),
        "drift_speed_phase_slope": drift_ref,
        "drift_rel_err": abs(drift - drift_ref) / abs(drift_ref),
        "measurement_times": [t0, t0 + dt],
        "probe_radius": rho_probe,
    })]


def cmd_trajectory(cfg):
    atom = _need_atom(cfg)
    if cfg.trajectory_init is None or cfg.trajectory_config is None:
        raise ConfigError("trajectory needs a 'trajectory' config section")
    states = integrate(atom, cfg.pair, cfg.trajectory_init, cfg.trajectory_config)
    rows, summary = summarize_trajectory(atom, cfg.pair, states)
    return [("trajectory.csv", ("t,x,y,z,vx,vy,vz,rho,phi", rows)),
            ("trajectory_summary.json", summary)]


# subcommand -> (command, help)
COMMANDS = {
    "field-map": (cmd_field_map, "amplitude/phase/intensity maps on configured grids"),
    "spring-sweep": (cmd_spring_sweep, "axial spring constant vs focal-plane separation"),
    "rings": (cmd_rings, "detect bright rings and compare with closed forms"),
    "ferris": (cmd_ferris, "rotating-pattern maps and rotation/drift rates"),
    "trajectory": (cmd_trajectory, "integrate one atom trajectory"),
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="ignored (must be >= 1): maps run on one thread; "
                             "kept so existing scripts and the benchmark still parse")

    parser = argparse.ArgumentParser(
        prog="vortexlattice",
        description="Interference lattices of counter-propagating "
                    "Laguerre-Gaussian beams and the traps they form")
    parser.set_defaults(mode=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(func=func)
        if func is cmd_trajectory:      # the one command that computes a force
            p.add_argument("--mode", choices=FORCE_MODELS, default=None,
                           help="force model (default: reduced)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.mode is not None and cfg.trajectory_config is not None:
            cfg = replace(cfg, trajectory_config=replace(
                cfg.trajectory_config, force_model=args.mode))
        if args.threads < 1:
            raise ConfigError("thread count must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs = args.func(cfg)
        meta = {"command": args.command, "config": cfg.to_si_dict(),
                "outputs": [name for name, _ in outputs]}
        if cfg.trajectory_config is not None:   # a run setting (--mode), not a config key
            meta["force_model"] = cfg.trajectory_config.force_model
        outputs.append((f"{args.command}_metadata.json", meta))
        write_outputs(out, outputs)
        for name, _ in outputs:
            print(out / name)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VortexLatticeError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
