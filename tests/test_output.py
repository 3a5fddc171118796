"""The output module: its CSV writer's bytes against np.savetxt and Python's
"%.17g", its non-finite policy, its one write stage, the former writers as
byte oracles of its CSV writer, and the rule that no other package module
writes a file."""

import ast
import io
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_superpose import pair
from vortexlattice import output
from vortexlattice.cli import main
from vortexlattice.errors import DegenerateGeometryError
from vortexlattice.output import write_outputs, write_rows
from vortexlattice.superpose import FieldMap, GridSpec, intensity_map

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


# --------------------------------------------------------------- the CSV bytes

def test_field_map_csv_round_trip(tmp_path):
    pr = pair(l1=2)
    g = GridSpec.rho_z(rho_min=0.0, rho_max=1.2e-5, n_rho=12, z_min=-3e-5,
                       z_max=3e-5, n_z=9)
    fm = intensity_map(pr, g)
    path = tmp_path / "map.csv"
    write_outputs(tmp_path, [(path.name, fm)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    header = raw.splitlines()[0].decode()
    assert header == "coord1,coord2,amplitude,phase,intensity"
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (12 * 9, 5)
    # %.17g preserves doubles exactly
    grid_c1 = np.tile(g.axis1, 9)
    np.testing.assert_array_equal(data[:, 0], grid_c1)
    np.testing.assert_array_equal(data[:, 2], fm.amplitude.ravel())
    np.testing.assert_array_equal(data[:, 4], fm.intensity.ravel())


def test_write_csv_matches_savetxt(tmp_path):
    data = np.array([[0.0, -0.0, 1.0 / 3.0],
                     [np.nan, np.inf, -np.inf],
                     [5e-324, 1.7976931348623157e308, -2.5e-17],
                     [123456789.0, -1e-300, 0.1]])
    header = "a,b,c"
    path = tmp_path / "data.csv"
    write_rows(path, header, data)
    ref = io.StringIO()
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=header, comments="")
    assert path.read_bytes() == ref.getvalue().encode()


def _savetxt_bytes(header, data):
    ref = io.StringIO()
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return ref.getvalue().encode()


def _savetxt_map_bytes(fm):
    """np.savetxt's bytes of a map's column stack: axis1 tiled, axis2
    repeated, then amplitude, phase and intensity."""
    n2, n1 = fm.amplitude.shape
    data = np.column_stack([np.tile(fm.grid.axis1, n2), np.repeat(fm.grid.axis2, n1),
                            fm.amplitude.ravel(), fm.phase.ravel(), fm.intensity.ravel()])
    return _savetxt_bytes("coord1,coord2,amplitude,phase,intensity", data)


def _bits(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


# doubles whose "%.17g" text or bit pattern is easy to get wrong: both zeros,
# NaN with either sign bit and with a payload, both infinities, subnormals
SPECIAL_VALUES = [0.0, -0.0, math.nan, -math.nan, _bits(0x7FF8000000000001),
                  _bits(0xFFF0000000000123), math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0]
csv_values = st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES))


@st.composite
def csv_columns(draw, n_rows):
    """A column of n_rows doubles: arbitrary values, signed zeros, NaNs and
    infinities mixed, a few values drawn repeatedly, or a few values tiled or
    repeated, as a map's coordinate columns repeat its axes."""
    kind = draw(st.sampled_from(["free", "signed", "pool", "tiled", "repeated"]))
    if kind == "free":
        return draw(st.lists(csv_values, min_size=n_rows, max_size=n_rows))
    if kind == "signed":
        pool = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    pool = draw(st.lists(csv_values, min_size=1, max_size=5))
    if kind == "pool":
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    reps = -(-n_rows // len(pool))
    laid_out = np.tile(pool, reps) if kind == "tiled" else np.repeat(pool, reps)
    return laid_out[:n_rows].tolist()


@st.composite
def csv_arrays(draw):
    """A 2-D array, or a 1-D one, which np.savetxt writes as one column."""
    n_rows = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return np.array(draw(csv_columns(n_rows)))
    n_cols = draw(st.integers(1, 6))
    return np.array([draw(csv_columns(n_rows)) for _ in range(n_cols)]).T


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=csv_arrays(), chunk_values=st.sampled_from([1, 2, 5, 7, output._CHUNK_VALUES]))
def test_write_csv_matches_savetxt_on_generated_arrays(tmp_path_factory, data, chunk_values):
    """Byte for byte np.savetxt's output (a 1-D array is one column, as
    np.savetxt writes it), across row-block boundaries: chunks of as few as
    one row."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    with mock.patch.object(output, "_CHUNK_VALUES", chunk_values):
        write_rows(path, "h1,h2", data[:, None] if data.ndim == 1 else data)
    assert path.read_bytes() == _savetxt_bytes("h1,h2", data)


@pytest.mark.parametrize("kind", ["rho_z", "xy"])
def test_field_map_csv_matches_savetxt(tmp_path, kind):
    """A FieldMap is written as np.savetxt's bytes of its column stack; its
    coordinate columns repeat, and each grid has an on-axis NaN phase."""
    pr = pair(l1=2)
    if kind == "rho_z":
        g = GridSpec.rho_z(rho_max=1.2e-5, n_rho=23, z_min=-3e-5, z_max=3e-5, n_z=17)
    else:
        g = GridSpec.xy(half_width=1.6e-5, n=33, z=1e-6)
    fm = intensity_map(pr, g)
    assert np.isnan(fm.phase).any()
    write_outputs(tmp_path, [("map.csv", fm)])
    assert (tmp_path / "map.csv").read_bytes() == _savetxt_map_bytes(fm)


# axis samples the formatter's Python fallback writes (below 1e-280 or above
# 1e280 in magnitude, subnormals among them) and some it writes in numpy
FALLBACK_AXIS_VALUES = [5e-324, -5e-324, 1e-310, -1e-300, 1e281, -1e300, -2.5e-5,
                        1000000000000000.25, 1.0 / 3.0]


@st.composite
def map_axes(draw):
    """A strictly increasing axis: integer multiples of a drawn spacing,
    negative ones and an exact 0.0 among them, joined by drawn values."""
    spacing = draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e285]) | st.floats(1e-12, 1e3))
    below, above = draw(st.integers(0, 36)), draw(st.integers(2, 36))
    extra = draw(st.lists(st.sampled_from(FALLBACK_AXIS_VALUES)
                          | st.floats(-1e300, 1e300).filter(bool), max_size=4))
    return np.unique(np.concatenate([spacing * np.arange(-below, above), extra]))


def _map_values(rng, shape):
    """Field columns for a map: values of every decimal exponent, exact zeros
    in all three columns and NaN phases, at the zeros and elsewhere."""
    amplitude, phase, intensity = (rng.standard_normal(shape)
                                   * 10.0 ** rng.integers(-310, 300, shape)
                                   for _ in range(3))
    zeros = rng.random(shape) < 0.2
    amplitude[zeros] = intensity[zeros] = 0.0
    phase[zeros | (rng.random(shape) < 0.1)] = np.nan
    return amplitude, phase, intensity


@pytest.mark.parametrize("chunk_values", [7, 64, output._CHUNK_VALUES])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(axis1=map_axes(), axis2=map_axes(), seed=st.integers(0, 2 ** 32 - 1))
def test_field_map_csv_matches_savetxt_on_generated_grids(tmp_path_factory, chunk_values,
                                                          axis1, axis2, seed):
    """A FieldMap's write, which formats each axis once, gives np.savetxt's
    bytes of its column stack on generated axes and field values, over maps
    of one chunk or several, the last one partial, at the package's chunk
    size and at small ones."""
    g = GridSpec(kind="xy", axis1=axis1, axis2=axis2)
    fm = FieldMap(g, *_map_values(np.random.default_rng(seed), (axis2.size, axis1.size)))
    directory = tmp_path_factory.mktemp("map")
    with mock.patch.object(output, "_CHUNK_VALUES", chunk_values):
        write_outputs(directory, [("map.csv", fm)])
    assert (directory / "map.csv").read_bytes() == _savetxt_map_bytes(fm)


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def _write_column_bytes(tmp_path, values):
    path = tmp_path / "column.csv"
    write_rows(path, "x", np.array(values, dtype=float)[:, None])
    return path.read_bytes()


# every power of ten a double can be near, with both neighbours and signs; the
# %g switch between fixed and scientific notation; subnormals; NaN with a sign
# or a payload; and exact ties of the 17th digit, which round half to even
EDGE_VALUES = ([s * y for k in range(-323, 309) for y in _neighbours(float(f"1e{k}"))
                for s in (1.0, -1.0)]
               + [s * y for x in (1e-5, 1e-4, 1e16, 1e17) for y in _neighbours(x)
                  for s in (1.0, -1.0)]
               + [_bits(b) for b in (0x1, 0x2, 0x000FFFFFFFFFFFFF, 0x0008000000000001,
                                     0x800FFFFFFFFFFFFF, 0x8000000000000001)]
               + SPECIAL_VALUES + [1000000000000000.25, 1000000000000000.75, -2.5e-5])


def test_write_csv_formats_edge_values_as_percent_17g(tmp_path):
    """write_rows' numpy formatter writes Python's "%.17g" byte for byte at
    every value where scaling, rounding or the %g layout could slip."""
    assert _write_column_bytes(tmp_path, EDGE_VALUES) \
        == ("x\n" + "".join("%.17g\n" % x for x in EDGE_VALUES)).encode()
    assert _write_column_bytes(tmp_path, [1000000000000000.25, 1000000000000000.75]) \
        == b"x\n1000000000000000.2\n1000000000000000.8\n"


def test_zeros_nan_and_infinities_are_formatted_in_numpy(tmp_path):
    """Signed zeros, NaN of either sign, with a payload or not, and both
    infinities, alone and among ordinary values, come out as Python's
    "%.17g" without reaching the formatter's Python fallback."""
    special = [0.0, -0.0, math.nan, -math.nan, _bits(0x7FF8000000000001),
               _bits(0xFFF0000000000123), math.inf, -math.inf]
    values = special + [0.5, -3.25] + special[::-1] + [0.0] * 5
    with mock.patch.object(output, "_percent_slots", side_effect=AssertionError):
        for column in (special, values):
            assert _write_column_bytes(tmp_path, column) \
                == ("x\n" + "".join("%.17g\n" % x for x in column)).encode()


def test_write_csv_writes_rows_of_no_columns_as_savetxt(tmp_path):
    """Rows of no columns are empty lines, as np.savetxt writes them."""
    path = tmp_path / "empty.csv"
    for data in (np.zeros((3, 0)), np.zeros((0, 4))):
        write_rows(path, "h", data)
        assert path.read_bytes() == _savetxt_bytes("h", data)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_write_csv_formats_raw_bit_patterns_as_percent_17g(tmp_path_factory, patterns):
    """Any 64-bit pattern viewed as a double: NaNs, infinities, subnormals and
    normals of both signs come out as Python's "%.17g"."""
    values = np.array(patterns, dtype=np.uint64).view(np.float64).tolist()
    assert _write_column_bytes(tmp_path_factory.mktemp("csv"), values) \
        == ("x\n" + "".join("%.17g\n" % x for x in values)).encode()


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
