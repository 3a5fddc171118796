"""Golden outputs of the README's `configs/` commands.

Each command has one JSON here, named after it.  It records the lines the
command printed (its outputs' names, in order), numpy's version and the
machine the files were made on, and for each output file its sha256 and a
tolerance digest (``digest``).  ``tests/test_golden.py`` runs every command
in-process and checks the digests everywhere, and the sha256 where numpy's
version and the machine match the recorded ones.

A change that moves any output must regenerate these files in the same
commit and say by how much each column moved.  From the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Before it overwrites a golden file, it prints for each output whose sha256
changed how far each column's digest moved: the largest move of a sampled
value, and the moves of max |value| and of the sum, in units of the
recorded max |value|.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from vortexlattice import cli

GOLDEN = Path(__file__).resolve().parent
REPO = GOLDEN.parents[1]

# golden file name -> the README command line, without --out
COMMANDS = {
    "field-map": ["field-map", "--config", "configs/ring_lattice_xy.json"],
    "rings": ["rings", "--config", "configs/ring_lattice.json"],
    "spring-sweep": ["spring-sweep", "--config", "configs/spring_sweep.json"],
    "ferris": ["ferris", "--config", "configs/ferris.json"],
    "trajectory": ["trajectory", "--config", "configs/trajectory.json"],
    "trajectory-full": ["trajectory", "--config", "configs/trajectory.json",
                        "--mode", "full"],
}

# about this many rows of each column are kept at full precision
SAMPLES = 32


def run(argv, out):
    """Run one command in-process into ``out``; return its exit code and the
    names of the paths it printed, in order."""
    argv = [str(REPO / a) if a.startswith("configs/") else a for a in argv]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv + ["--out", str(out)])
    return code, [Path(line).name for line in printed.getvalue().splitlines()]


def _number(value):
    return None if math.isnan(value) else value


def column_digest(values):
    """Digest of one column: its row count, every k-th value, the count of
    NaN and the sum and max |value| of the rest.  A column that is not all
    numbers (strings, flags, nulls) is kept whole."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return {"values": list(values)}
    col = np.asarray(values, dtype=float)
    finite = col[~np.isnan(col)]
    every = max(1, -(-col.size // SAMPLES))
    return {"rows": int(col.size), "every": every,
            "sample": [_number(v) for v in col[::every].tolist()],
            "nan": int(col.size - finite.size),
            "sum": float(np.sum(finite)),
            "max_abs": float(np.max(np.abs(finite))) if finite.size else 0.0}


def _leaves(node, path, columns):
    if isinstance(node, dict):
        for key, value in node.items():
            _leaves(value, f"{path}.{key}" if path else key, columns)
    elif isinstance(node, list):
        for value in node:
            _leaves(value, f"{path}.*" if path else "*", columns)
    else:
        columns.setdefault(path, []).append(node)


def columns_of(path):
    """Columns of an output: a CSV's by header name; a JSON document's by
    the path of each leaf, with list indices as "*", so a list of records
    gives one column per key."""
    if path.suffix == ".csv":
        header = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return {name: data[:, j].tolist() for j, name in enumerate(header)}
    columns = {}
    _leaves(json.loads(path.read_text()), "", columns)
    return columns


def file_record(path):
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "columns": {name: column_digest(values)
                        for name, values in columns_of(path).items()}}


def golden_record(argv):
    """What the golden file of one command holds, from a fresh run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code, printed = run(argv, out)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return {"argv": argv, "numpy": np.__version__, "machine": platform.machine(),
                "printed": printed,
                "files": {name: file_record(out / name) for name in printed}}


def column_move(new, old):
    """How far a column's digest moved from the recorded one: the largest
    move of its sampled values, and the moves of max_abs and sum, each in
    units of the recorded max_abs (absolute where that is 0); what else
    differs where they cannot be compared; None where nothing moved."""
    if "values" in new or "values" in old:
        return None if new == old else "values differ"
    counts = [f"{key} {old[key]} -> {new[key]}" for key in ("rows", "every", "nan")
              if new[key] != old[key]]
    if counts:
        return ", ".join(counts)
    if [v is None for v in new["sample"]] != [v is None for v in old["sample"]]:
        return "sampled NaN positions differ"
    moves = {"sample": max((abs(a - b) for a, b in zip(new["sample"], old["sample"])
                            if a is not None), default=0.0),
             "max_abs": abs(new["max_abs"] - old["max_abs"]),
             "sum": abs(new["sum"] - old["sum"])}
    if not any(moves.values()):
        return None
    unit = old["max_abs"] or 1.0
    return ", ".join(f"{key} {move / unit:.3g}" for key, move in moves.items())


def print_moves(old, new):
    """Print each column's move (``column_move``) in every output whose
    sha256 differs between the recorded golden record ``old`` and ``new``."""
    for name, record in new["files"].items():
        recorded = old["files"].get(name)
        if recorded is None:
            print(f"  {name}: new output")
        elif recorded["sha256"] != record["sha256"]:
            print(f"  {name}: sha256 changed; moves in units of the recorded max_abs")
            for column, digest in record["columns"].items():
                move = column_move(digest, recorded["columns"].get(column, {"values": None}))
                if move:
                    print(f"    {column}: {move}")


def main():
    for name, argv in COMMANDS.items():
        path = GOLDEN / f"{name}.json"
        record = golden_record(argv)
        if path.exists():
            print_moves(json.loads(path.read_text()), record)
        path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
        print(path)


if __name__ == "__main__":
    sys.exit(main())
