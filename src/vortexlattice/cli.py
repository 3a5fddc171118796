"""Command-line interface.

Subcommands: field-map, spring-sweep, rings, ferris, trajectory.  All take
--config (JSON run configuration) and --out (output directory); trajectory
also takes --mode, the force model ("reduced" by default).  --threads is
accepted and checked but ignored: everything runs on one thread.  Exit
codes: 0 success, 2 configuration problems, 3 any other package error
(numerical, resolution or geometry failures), 4 I/O failures.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .atom_forces import FORCE_MODELS, central_ring_radius, ferris_rate, lift_speed, \
    axial_force_slope, spring_constant_k0
from .config import RunConfig
from .dynamics import _extents, angular_momentum, estimate_frequency, integrate, \
    trap_frequency
from .errors import ConfigError, DegenerateGeometryError, VortexLatticeError
from .ring_analysis import double_ring_radii, find_rings, fringe_drift_speed, \
    measure_axial_drift, measure_rotation_rate, radial_separation, suggested_sample_dt
from .superpose import intensity_map, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _write_json(path, payload):
    # NaN and Infinity are not JSON; a value that can be undefined is written
    # as null by its producer, so a non-finite float here raises
    # one write: json.dump would write each of its small pieces separately
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _metadata(out, command, cfg, outputs):
    path = out / f"{command}_metadata.json"
    payload = {"command": command, "config": cfg.to_si_dict(),
               "outputs": [p.name for p in outputs]}
    # the force model is a run setting (trajectory --mode), not a config key
    if cfg.trajectory_config is not None:
        payload["force_model"] = cfg.trajectory_config.force_model
    _write_json(path, payload)
    return path


def _need_atom(cfg):
    if cfg.atom is None:
        raise ConfigError("this command needs an 'atom' config section")
    return cfg.atom


def cmd_field_map(cfg, out):
    written = []
    if cfg.grid is not None:
        fmap = intensity_map(cfg.pair, cfg.grid)
        path = out / "field_map_rho_z.csv"
        fmap.to_csv(path)
        written.append(path)
    for j, grid in enumerate(cfg.xy_grids()):
        fmap = intensity_map(cfg.pair, grid)
        path = out / f"field_map_xy_{j}.csv"
        fmap.to_csv(path)
        written.append(path)
    if not written:
        raise ConfigError("field-map needs a 'grid' or 'xy_grid' section")
    return written


def cmd_spring_sweep(cfg, out):
    atom = _need_atom(cfg)
    if cfg.sweep is None:
        raise ConfigError("spring-sweep needs a 'sweep' config section")
    rows = []
    for d in np.linspace(*cfg.sweep):
        pair_d = dataclasses.replace(cfg.pair, separation_d=float(d))
        k0 = spring_constant_k0(atom, pair_d)
        numeric = -axial_force_slope(atom, pair_d, central_ring_radius(pair_d))
        rows.append((d, k0, numeric))
    path = out / "spring_sweep.csv"
    write_csv(path, "d,K0_analytic,K0_numeric", rows)
    return [path]


def cmd_rings(cfg, out):
    if cfg.rings_grid is None:
        raise ConfigError("rings needs a 'rings_grid' section")
    ringset = find_rings(cfg.pair, cfg.rings_grid)
    json_path = out / "rings.json"
    _write_json(json_path, ringset.to_json_dict())
    written = [json_path]

    pair = cfg.pair
    half_d = 0.5 * pair.separation_d
    rows = []
    for split in ringset.splittings:
        delta = abs(split.z_pos)
        if not 0.0 < delta < half_d:
            continue
        w1, w2 = double_ring_radii(pair, delta)
        sep = radial_separation(pair, delta)
        rows.append((split.z_pos, split.r_inner, split.r_outer, w1, w2,
                     split.delta_rho, sep.exact, sep.approx, sep.alpha))
    if rows:
        csv_path = out / "ring_comparison.csv"
        write_csv(csv_path, "z,r_inner,r_outer,w1,w2,delta_rho_measured,"
                            "delta_rho_exact,delta_rho_approx,alpha", rows)
        written.append(csv_path)

    central = [r for r in ringset.rings if r.classification == "central"]
    summary = {
        "n_rings": len(ringset.rings),
        "fringe_delta": None if math.isnan(ringset.fringe_delta)
        else ringset.fringe_delta,
        "half_wavelength": math.pi / pair.beam1.wavenumber,
        "central_radius_formula": central_ring_radius(pair),
    }
    if central:
        summary["central_z"] = central[0].z_pos
        summary["central_radius"] = central[0].radius
    if rows:
        # compare the two readings of the offset delta in the double-ring
        # radii: distance from the midplane vs distance from a focal plane
        z0, r_in, r_out, w1_mid, w2_mid = rows[0][:5]
        err_mid = abs(w1_mid - r_in) / r_in + abs(w2_mid - r_out) / r_out
        summary["delta_reading"] = {"midplane_offset_err": err_mid}
        alt = half_d - abs(z0)
        if 0.0 < alt < half_d:
            w1_alt, w2_alt = double_ring_radii(pair, alt)
            err_alt = abs(w1_alt - r_in) / r_in + abs(w2_alt - r_out) / r_out
            summary["delta_reading"]["focal_plane_offset_err"] = err_alt
            summary["delta_reading"]["matching"] = (
                "midplane_offset" if err_mid <= err_alt else "focal_plane_offset")
        alpha_first = rows[0][8]
        summary["alpha_first_split"] = alpha_first
        summary["alpha_lt_1"] = bool(alpha_first < 1.0)
    summary_path = out / "rings_summary.json"
    _write_json(summary_path, summary)
    written.append(summary_path)
    return written


def cmd_ferris(cfg, out):
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

    written = []
    for i, t in enumerate(cfg.ferris_times):
        for j, grid in enumerate(grids):
            fmap = intensity_map(pair, dataclasses.replace(grid, time=t))
            path = out / f"ferris_xy_t{i}_z{j}.csv"
            fmap.to_csv(path)
            written.append(path)

    rho_probe = central_ring_radius(pair)
    if rho_probe == 0.0:
        rho_probe = pair.beam1.waist_w0
    t0 = cfg.ferris_times[0]
    dt = suggested_sample_dt(pair)
    rot = measure_rotation_rate(pair, rho_probe, grids[0].z_slice, t0, t0 + dt)
    drift = measure_axial_drift(pair, rho_probe, t0, t0 + dt)
    rot_ref = ferris_rate(pair)
    drift_ref = fringe_drift_speed(pair, rho_probe)
    summary = {
        "rotation_rate_measured": rot,
        "rotation_rate_analytic": rot_ref,
        "rotation_rel_err": abs(rot - rot_ref) / abs(rot_ref),
        "drift_speed_measured": drift,
        "drift_speed_analytic": lift_speed(pair),
        "drift_speed_phase_slope": drift_ref,
        "drift_rel_err": abs(drift - drift_ref) / abs(drift_ref),
        "measurement_times": [t0, t0 + dt],
        "probe_radius": rho_probe,
    }
    path = out / "ferris_summary.json"
    _write_json(path, summary)
    written.append(path)
    return written


def cmd_trajectory(cfg, out):
    atom = _need_atom(cfg)
    if cfg.trajectory_init is None or cfg.trajectory_config is None:
        raise ConfigError("trajectory needs a 'trajectory' config section")
    states = integrate(atom, cfg.pair, cfg.trajectory_init, cfg.trajectory_config)
    # math, not numpy: np.hypot and np.arctan2 differ in the last bit on some samples
    rho = [math.hypot(st.x, st.y) for st in states]
    phi = [math.atan2(st.y, st.x) for st in states]
    rows = np.column_stack((np.array(states), rho, phi))
    path = out / "trajectory.csv"
    write_csv(path, "t,x,y,z,vx,vy,vz,rho,phi", rows)

    lz = [angular_momentum(atom, st) for st in states]
    omega = estimate_frequency(rows[:, 0], rows[:, 3])
    summary = {
        "n_samples": len(states),
        # NaN (fewer than three crossings) is written as null
        "oscillation_omega_measured": None if math.isnan(omega) else omega,
        "lz_initial": lz[0],
        "lz_final": lz[-1],
        "lz_monotone_nondecreasing": bool(np.all(np.diff(lz) >= -1e-12 * max(
            1e-60, float(np.max(np.abs(lz)))))),
        "final": {"rho": rho[-1], "phi": phi[-1], "z": states[-1].z},
    }
    # the farthest the atom got, against the beam extent itself (the
    # divergence guard allows DIVERGENCE_FACTOR times it)
    radial, axial = _extents(cfg.pair)
    summary["max_rho"] = float(np.max(rows[:, 7]))
    summary["max_abs_z"] = float(np.max(np.abs(rows[:, 3])))
    summary["left_beam_extent"] = bool(summary["max_rho"] > radial
                                       or summary["max_abs_z"] > axial)
    try:
        summary["oscillation_omega_analytic"] = trap_frequency(atom, cfg.pair)
    except DegenerateGeometryError:
        summary["oscillation_omega_analytic"] = None
    spath = out / "trajectory_summary.json"
    _write_json(spath, summary)
    return [path, spath]


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

    p = sub.add_parser("field-map", parents=[common],
                       help="amplitude/phase/intensity maps on configured grids")
    p.set_defaults(func=cmd_field_map)

    p = sub.add_parser("spring-sweep", parents=[common],
                       help="axial spring constant vs focal-plane separation")
    p.set_defaults(func=cmd_spring_sweep)

    p = sub.add_parser("rings", parents=[common],
                       help="detect bright rings and compare with closed forms")
    p.set_defaults(func=cmd_rings)

    p = sub.add_parser("ferris", parents=[common],
                       help="rotating-pattern maps and rotation/drift rates")
    p.set_defaults(func=cmd_ferris)

    p = sub.add_parser("trajectory", parents=[common],
                       help="integrate one atom trajectory")
    p.add_argument("--mode", choices=FORCE_MODELS, default=None,
                   help="force model (default: reduced)")
    p.set_defaults(func=cmd_trajectory)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.mode is not None and cfg.trajectory_config is not None:
            cfg = dataclasses.replace(cfg, trajectory_config=dataclasses.replace(
                cfg.trajectory_config, force_model=args.mode))
        if args.threads < 1:
            raise ConfigError("thread count must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        written = args.func(cfg, out)
        written.append(_metadata(out, args.command, cfg, written))
        for path in written:
            print(path)
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
