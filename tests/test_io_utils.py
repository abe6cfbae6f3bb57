import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbohm import io_utils
from relbohm.io_utils import (_column_text, metadata_lines, write_csv,
                              write_json)
from relbohm.modes import Trajectory, TrajectorySet
from relbohm.numerics import Grid2D

CFG = {"k": [0.0, 1.0]}
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1,
           1e16, -123456789.123, 2.0 ** 60]


def _row_fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _row_writer_text(header, rows, config) -> str:
    """Oracle: the value-by-value, row-by-row CSV writer."""
    buf = io.StringIO()
    for line in metadata_lines(config):
        buf.write(line + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_row_fmt(v) for v in row) + "\n")
    return buf.getvalue()


COLUMN_CASES = {
    "float64": np.array(SPECIAL),
    "float32": np.array(SPECIAL, dtype=np.float32),
    "int64": np.arange(-5, 6) * 10 ** 12,
    "int32": np.arange(11, dtype=np.int32) - 3,
    "uint8": np.arange(11, dtype=np.uint8),
    "bool": np.arange(11) % 3 == 0,
    "py_mixed": [1, 0.5, -0.0, float("nan"), 7, 1e-300, True, -2,
                 float("inf"), 3, 0.25],
    "np_scalars": [np.float64(v) for v in SPECIAL],
    "np_int_scalars": [np.int64(v) for v in range(11)],
    # repeated values, formatted once per distinct bit pattern: 0.0 and
    # -0.0 interleave, and must not share a string
    "float64_tiled": np.tile(SPECIAL, 3),
    "float32_tiled": np.tile(np.array(SPECIAL, dtype=np.float32), 2),
    "float64_strided": np.tile(SPECIAL, 4)[::2],
    "grid_axis": np.repeat(np.linspace(-2.0, 2.0, 7), 5),
    "int64_repeated": np.repeat(np.arange(-3, 4), 3),
}


@pytest.mark.parametrize("name", sorted(COLUMN_CASES))
def test_columnar_text_matches_row_writer(tmp_path, name):
    col = COLUMN_CASES[name]
    # every value, the non-finite ones included, formats as the row
    # writer's; write_csv refuses those, so the file holds the rest
    assert _column_text(col) == [_row_fmt(v) for v in col]
    keep = np.isfinite(np.asarray(col, dtype=float))
    col = (col[keep] if isinstance(col, np.ndarray)
           else [v for v, k in zip(col, keep) if k])
    n = keep.size
    columns = [np.linspace(-1.0, 1.0, n)[keep], col, np.arange(n)[keep]]
    header = ["x", name, "i"]
    write_csv(tmp_path / "a.csv", header, columns, CFG)
    expect = _row_writer_text(header, zip(*columns), CFG)
    assert (tmp_path / "a.csv").read_bytes() == expect.encode()


#: values whose strings a dedup by float value would get wrong or merge:
#: both zeros, NaNs of either sign, subnormals and the smallest normal
POOL = [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 1e-310,
        2.2250738585072014e-308, 1.0, -1.0, 0.1, np.inf]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(picks=st.lists(st.integers(0, len(POOL) - 1), max_size=40),
       dtype=st.sampled_from([np.float64, np.float32]),
       step=st.integers(1, 3))
def test_distinct_value_text_matches_row_writer(picks, dtype, step):
    col = np.array([POOL[i] for i in picks], dtype=dtype)[::step]
    assert _column_text(col) == [_row_fmt(v) for v in col]


@pytest.mark.parametrize("header", [["x"], ["x", "y", "z"]])
def test_write_csv_refuses_header_column_mismatch(tmp_path, header):
    # a column without a name used to skip the finiteness check and
    # print inf and nan under a one-name header
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="header names"):
        write_csv(path, header, [[1.0, 2.0], [np.inf, np.nan]], CFG)
    assert not path.exists()


@pytest.mark.parametrize("column, value", [
    ("rho", np.nan), ("rho", np.inf), ("v", np.inf), ("f", -np.inf)])
def test_write_csv_refuses_non_finite(tmp_path, column, value):
    path = tmp_path / "out.csv"
    with pytest.raises(FloatingPointError,
                       match=f"in column {column} of .*out.csv"):
        write_csv(path, ["x", column], [[0.0, 1.0], [2.0, value]], CFG)
    assert not path.exists()


def test_write_csv_keeps_nan_flags(tmp_path):
    # NaN marks a missing value in the NaN-flagged columns
    path = tmp_path / "out.csv"
    write_csv(path, ["x", "v"], [[0.0, 1.0], np.array([2.0, np.nan])], CFG)
    assert path.read_text().splitlines()[-1] == "1.0,nan"


def test_trajectory_columns_match_rows(tmp_path):
    rng = np.random.default_rng(3)
    trajs = TrajectorySet([
        Trajectory(points=rng.normal(size=(n, 2)), rho=rng.normal(size=n),
                   v=np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n)))
        for n in (4, 1, 9)])
    rows = [(li, vi, x, t, int(np.sign(tr.rho[vi])), tr.v[vi])
            for li, tr in enumerate(trajs.trajectories)
            for vi, (x, t) in enumerate(tr.points)]
    header = ["level_id", "vertex_id", "x", "t", "rho_sign", "v"]
    for name, ts in (("some.csv", trajs), ("none.csv", TrajectorySet())):
        write_csv(tmp_path / name, header, ts.columns(), CFG)
        expect = _row_writer_text(header, rows if ts is trajs else [], CFG)
        assert (tmp_path / name).read_bytes() == expect.encode()


def _one_piece_text(header, columns, config) -> str:
    """Oracle: write_csv's text formatted in one piece, each whole column
    by _column_text and every row joined at once."""
    cols = [_column_text(c) for c in columns]
    lines = [*metadata_lines(config), ",".join(header),
             *map(",".join, zip(*cols))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, io_utils.CSV_BLOCK_ROWS,
                               2 * io_utils.CSV_BLOCK_ROWS + 37])
def test_csv_blocks_match_one_piece_text(tmp_path, n):
    # a block at a time, with blocks formatted apart: a grid axis whose
    # values repeat across blocks, random floats and ints, Python lists
    # and NaN in a NaN-flagged column, over zero rows, one, one block and
    # more than two
    rng = np.random.default_rng(n)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    columns = [np.repeat(np.linspace(-1.0, 1.0, 7), -(-n // 7))[:n],
               floats, rng.integers(-10 ** 12, 10 ** 12, n),
               rng.integers(0, 5, n).astype(np.int32),
               np.where(rng.random(n) < 0.1, np.nan, rng.random(n)),
               rng.normal(size=n).tolist(),
               [int(v) for v in rng.integers(-3, 3, n)]]
    header = ["x", "rho", "i64", "i32", "v", "py_float", "py_int"]
    write_csv(tmp_path / "a.csv", header, columns, CFG)
    assert (tmp_path / "a.csv").read_bytes() == \
        _one_piece_text(header, columns, CFG).encode()


def test_write_csv_working_set_is_bounded(tmp_path):
    # a 121 x 121 f_grid.csv on modes-pairs' window: the encoded blocks
    # and one block's strings, under twice the file's bytes (4.5 MB for
    # a 0.8 MB file when every row string, the text and its bytes were
    # held at once)
    grid = Grid2D(-0.005, 0.005, 121, 0.0, 0.01, 121)
    F = np.random.default_rng(1).normal(size=(121, 121))
    columns = [np.repeat(grid.x, grid.n_t), np.tile(grid.t, grid.n_x),
               F.ravel()]
    path = tmp_path / "f_grid.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["x", "t", "F"], columns, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


def test_shrinking_rewrite_leaves_no_tail(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["x"], [np.linspace(0.0, 1.0, 5000)], CFG)
    write_csv(path, ["x"], [np.array([0.5])], CFG)
    assert path.read_bytes() == _row_writer_text(
        ["x"], [(0.5,)], CFG).encode()
    jpath = tmp_path / "out.json"
    write_json(jpath, {"v": list(range(2000))}, CFG)
    write_json(jpath, {"v": 1}, CFG)
    assert json.loads(jpath.read_text())["v"] == 1
    assert jpath.read_text().endswith("}\n")


def test_rewrite_keeps_the_inode(tmp_path):
    # a rewrite that replaces or truncates the file frees its blocks,
    # which waits tens of ms per file on a filesystem mounted with discard
    for path, write in (
            (tmp_path / "a.csv",
             lambda p, n: write_csv(p, ["x"], [np.arange(n) * 0.5], CFG)),
            (tmp_path / "a.json",
             lambda p, n: write_json(p, {"v": list(range(n))}, CFG))):
        write(path, 1000)
        before = os.stat(path)
        write(path, 1200)
        after = os.stat(path)
        assert after.st_ino == before.st_ino
        assert after.st_size > before.st_size


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


@pytest.mark.parametrize("bad_write", [
    lambda p: write_csv(p, ["x", "y"],
                        [[1.0, 2.0], [3.0, _Unprintable()]], CFG),
    lambda p: write_csv(p, ["x", "y"], [np.zeros(3), np.zeros(2)], CFG),
    lambda p: write_json(p, {"v": object()}, CFG),
])
def test_failed_formatting_keeps_previous_file(tmp_path, bad_write):
    path = tmp_path / "out"
    write_csv(path, ["x"], [np.linspace(0.0, 1.0, 50)], CFG)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, ValueError, TypeError)):
        bad_write(path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("payload, where", [
    ({"a": float("nan")}, "a"),
    ({"a": {"b": [1.0, np.inf]}}, "a.b[1]"),
    ({"a": np.array([[0.0, 1.0], [-np.inf, 2.0]])}, "a[1][0]"),
    ({"a": (np.float32("nan"),)}, "a[0]"),
])
def test_write_json_refuses_non_finite(tmp_path, payload, where):
    path = tmp_path / "out.json"
    write_json(path, {"v": 1}, CFG)
    before = path.read_bytes()
    with pytest.raises(FloatingPointError, match=f"at {re.escape(where)} "):
        write_json(path, payload, CFG)
    assert path.read_bytes() == before


def _scipy_modules(code: str) -> list[str]:
    """The scipy modules loaded after code runs in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy():
    # every run pays the import; perfbench's setup_s times it
    assert _scipy_modules("import relbohm.cli") == []


def test_no_command_loads_scipy(tmp_path):
    # relbohm runs on numpy alone; scipy is a test oracle only
    runs = [["modes", "two_mode.json"], ["explode", "cos2.json", "--quick"],
            ["nearnr", "gauss.json"], ["spin", "dirac3.json"],
            ["spin", "fw_hedgehog.json"]]
    code = "from relbohm.cli import main\n"
    for i, (command, config, *flags) in enumerate(runs):
        args = [command, "--config", config,
                "--out", str(tmp_path / str(i)), *flags]
        code += f"assert main({args!r}) == 0\n"
    assert _scipy_modules(code) == []
