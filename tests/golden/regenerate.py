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


def main():
    for name, argv in COMMANDS.items():
        text = json.dumps(golden_record(argv), indent=1, allow_nan=False)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
        print(GOLDEN / f"{name}.json")


if __name__ == "__main__":
    sys.exit(main())
