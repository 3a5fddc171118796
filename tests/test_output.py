"""The output module: its non-finite policy, its one write stage, the former
writers as byte oracles of its CSV writer, and the rule that no other
package module writes a file."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from vortexlattice import output
from vortexlattice.cli import main
from vortexlattice.errors import DegenerateGeometryError
from vortexlattice.output import write_outputs
from vortexlattice.superpose import FieldMap, GridSpec

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "vortexlattice"
MAP_HEADER = "coord1,coord2,amplitude,phase,intensity"
# rows per % operation of the former writer; its bytes do not depend on it
ORACLE_BLOCK_ROWS = 16_000


def run_cli(args):
    return main([str(a) for a in args])


# ------------------------------------------------------------------ oracles

def _column_values(col):
    """Return (values, fmt): the column's cells and their field in the row
    format.  A column of mostly distinct values is passed as floats under
    "%.17g"; a column whose values repeat formats each distinct bit pattern
    once and is passed as strings under "%s" (-0.0 stays apart from 0.0)."""
    bits = col.view(np.int64)
    ordered = np.sort(bits)
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > bits.size:
        return col.tolist(), "%.17g"
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = "\n".join(["%.17g"] * distinct.size) % tuple(distinct.view(np.float64).tolist())
    return np.array(text.split("\n"), dtype=object)[inverse].tolist(), "%s"


def percent_write_csv(path, header, data):
    """The package's former CSV writer, kept as the oracle of write_rows:
    each block of at most ORACLE_BLOCK_ROWS rows is formatted column by
    column into one argument list and written with a single % operation."""
    data = np.asarray(data, dtype=float)
    data = data[:, None] if data.ndim == 1 else np.atleast_2d(data)
    n_cols = data.shape[1]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, data.shape[0], ORACLE_BLOCK_ROWS):
            block = data[start:start + ORACLE_BLOCK_ROWS]
            cells = [None] * block.size
            formats = []
            for j, col in enumerate(block.T):
                values, fmt = _column_values(col)
                cells[j::n_cols] = values
                formats.append(fmt)
            fh.write((",".join(formats) + "\n") * block.shape[0] % tuple(cells))


def percent_to_csv(fmap, path):
    """The package's former FieldMap.to_csv, kept as the oracle of a map's
    write: the column stack of the tiled axis1, the repeated axis2 and the
    three field columns, written by percent_write_csv."""
    n2, n1 = fmap.amplitude.shape
    data = np.column_stack([np.tile(fmap.grid.axis1, n2), np.repeat(fmap.grid.axis2, n1),
                            fmap.amplitude.ravel(), fmap.phase.ravel(),
                            fmap.intensity.ravel()])
    percent_write_csv(path, MAP_HEADER, data)


def percent_write_rows(path, header, data, axes=()):
    """write_rows by the former writers: a map's rows, which come with its
    two axes, by percent_to_csv, and a table's by percent_write_csv."""
    if not axes:
        percent_write_csv(path, header, data)
        return
    assert header == MAP_HEADER
    axis1, axis2 = axes
    fields = data.T.reshape(3, axis2.size, axis1.size)
    percent_to_csv(FieldMap(GridSpec(kind="xy", axis1=axis1, axis2=axis2), *fields), path)


def test_csv_commands_write_the_percent_writers_bytes(tmp_path, monkeypatch):
    """ferris, field-map on the xy and the rho-z lattice configs, and
    trajectory write the same files, byte for byte, with write_rows as with
    the former % writer and map writer bound in its place."""
    runs = [["ferris", "--config", REPO / "configs" / "ferris.json"],
            ["field-map", "--config", REPO / "configs" / "ring_lattice_xy.json"],
            ["field-map", "--config", REPO / "configs" / "ring_lattice.json"],
            ["trajectory", "--config", REPO / "configs" / "trajectory.json"]]
    for side in ("writer", "oracle"):
        if side == "oracle":
            monkeypatch.setattr(output, "write_rows", percent_write_rows)
        for i, args in enumerate(runs):
            assert run_cli(args + ["--out", tmp_path / side / str(i)]) == 0
    for i in range(len(runs)):
        names = sorted(p.name for p in (tmp_path / "writer" / str(i)).iterdir())
        assert any(name.endswith(".csv") for name in names)
        assert names == sorted(p.name for p in (tmp_path / "oracle" / str(i)).iterdir())
        for name in names:
            assert (tmp_path / "writer" / str(i) / name).read_bytes() \
                == (tmp_path / "oracle" / str(i) / name).read_bytes()


# ------------------------------------------------------- non-finite policy

def _map(**fields):
    """A 2 x 3 map of finite fields, with ``fields`` replacing some."""
    grid = GridSpec(kind="xy", axis1=np.array([0.0, 1.0, 2.0]), axis2=np.array([-1.0, 1.0]))
    values = {name: np.full((2, 3), 0.5) for name in ("amplitude", "phase", "intensity")}
    values.update(fields)
    return FieldMap(grid, **values)


def test_csv_allows_nan_only_in_a_phase_column(tmp_path):
    """NaN is written in a "phase" column, of a table or a map; NaN in any
    other column, or an infinity in any column, phase included, is refused
    with the package's error, naming the file and the column."""
    nan, inf = math.nan, math.inf
    accepted = [("table.csv", ("t,phase", [[0.0, nan], [1.0, 2.0]])),
                ("map.csv", _map(phase=np.array([[nan, 0.1, 0.2], [0.3, 0.4, nan]])))]
    write_outputs(tmp_path, accepted)
    assert b"nan" in (tmp_path / "table.csv").read_bytes()
    assert (tmp_path / "map.csv").read_bytes().count(b"nan") == 2

    refused = [(("t,x", [[0.0, nan]]), "column x"),
               (("t,phase", [[0.0, inf]]), "column phase"),
               (("t,x,phase", [[-inf, nan, 1.0]]), "column t, x"),
               (_map(intensity=np.array([[0.5, inf, 0.5], [0.5, 0.5, 0.5]])), "column intensity"),
               (_map(amplitude=np.full((2, 3), nan)), "column amplitude"),
               (_map(phase=np.full((2, 3), -inf)), "column phase")]
    for content, column in refused:
        with pytest.raises(DegenerateGeometryError, match=f"bad.csv: .*{column}$"):
            write_outputs(tmp_path / "refused", [("bad.csv", content)])
    assert not (tmp_path / "refused").exists()


def test_map_axes_are_checked_too(tmp_path):
    """A map's coordinate columns come from its grid's axes, which are
    checked like the field columns."""
    fmap = _map()
    grid = GridSpec(kind="xy", axis1=np.array([0.0, 1.0, math.nan]), axis2=fmap.grid.axis2)
    with pytest.raises(DegenerateGeometryError, match="column coord1$"):
        write_outputs(tmp_path, [("map.csv", FieldMap(grid, fmap.amplitude, fmap.phase,
                                                      fmap.intensity))])
    assert list(tmp_path.iterdir()) == []


def test_every_output_is_checked_before_the_first_file_is_opened(tmp_path, monkeypatch):
    """A refused output anywhere in the list, last included, leaves the
    directory as it was: no file of the outputs before it is opened."""
    opened = []
    monkeypatch.setattr(output, "write_rows", lambda path, *args: opened.append(path))
    good = [("a.csv", ("t,x", [[0.0, 1.0]])), ("b.json", {"x": 1.0}), ("c.csv", _map())]
    for bad in (("z.json", {"x": [math.inf]}), ("z.csv", ("t,x", [[0.0, math.nan]]))):
        with pytest.raises(DegenerateGeometryError, match="z\\."):
            write_outputs(tmp_path, good + [bad])
    assert opened == [] and list(tmp_path.iterdir()) == []
    write_outputs(tmp_path, good)
    assert opened == [tmp_path / "a.csv", tmp_path / "c.csv"]
    assert [p.name for p in tmp_path.iterdir()] == ["b.json"]


def test_table_rows_as_tuples_write_the_arrays_bytes(tmp_path):
    """A (header, rows) table may give its rows as a list of tuples: the
    bytes are those of the same rows as a 2-D array."""
    rows = np.array([[0.0, -0.0, 1.0 / 3.0], [5e-324, 1.7976931348623157e308, -2.5e-17]])
    write_outputs(tmp_path, [("array.csv", ("a,b,c", rows)),
                             ("tuples.csv", ("a,b,c", [tuple(row) for row in rows.tolist()]))])
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "tuples.csv").read_bytes()


# ------------------------------------------------------------- structure

READ_MODES = set("rbt")
# calls that write a file whatever their arguments
WRITE_CALLS = {"write_text", "write_bytes", "savetxt", "save", "savez", "tofile"}


def _open_mode(call):
    """The mode of an open call: its mode keyword, or the positional argument
    after the path (the first one of a method such as Path.open); "r" where
    none is given and None where it is not a literal string."""
    first = 1 if isinstance(call.func, ast.Name) else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[first] if len(call.args) > first else None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def file_writes(path):
    """Line numbers of the calls in a source file that can write a file."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        mode = _open_mode(node) if name == "open" else None
        if name in WRITE_CALLS or (name == "open" and (mode is None or set(mode) - READ_MODES)):
            lines.append(node.lineno)
    return lines


def test_only_the_output_module_writes_files():
    """Of the package modules only output opens a file to write it (config
    opens its JSON to read), so a second writer cannot grow back unseen."""
    writes = {path.stem: file_writes(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem for stem, lines in writes.items() if lines} == {"output"}
    assert writes["config"] == [] and "open(path)" in (PACKAGE / "config.py").read_text()
