"""Deterministic CSV/JSON output helpers and fixed-chunk parallel maps.

Every output file is written by _overwrite: the whole text is built in
memory first, as encoded blocks (a CSV file CSV_BLOCK_ROWS rows at a
time), then the file is opened without O_TRUNC, overwritten from the
start and truncated at the end of the new text.  The file keeps its
inode, permissions and symlinks, no temporary file is made, and no disk
block is freed unless the file shrinks.  Freeing blocks is what makes a
rewrite slow on a filesystem mounted with `discard`.  Rewriting a 45 kB
file already on disk (ext4 with discard, 2-vCPU KVM guest, median of 8)
took 63 ms by truncate-and-write, 42 ms by unlink-and-create and 33 ms
by a temporary file and os.replace, against 0.15 ms in place; shrinking
it to 20 kB in place took 47 ms.  Because the text is complete before
the file is opened, an exception while formatting leaves the previous
file as it was.  A non-finite float stops a write the same way, by a
FloatingPointError, bar NaN in the CSV columns it flags (NAN_FLAGGED).

A numeric CSV column is formatted once per distinct value and gathered
back by index: a grid axis holds few distinct values among many rows
(121 among 14 641 in a 121 x 121 f_grid.csv).  repr stays the formatter:
on 20 000 normal floats (2-vCPU KVM guest, best of 9) it took 12.0 ms,
against 23.0 ms for ndarray.astype(str) and 23.7 ms for StringDType.

parallel_rows maps a function over fixed blocks of rows, so that a
block's work can be one array pass and its result does not depend on
the thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__

__all__ = [
    "config_hash",
    "metadata_lines",
    "parallel_rows",
    "write_csv",
    "write_json",
]

UNITS_NOTE = "natural units: hbar = c = m0 = 1 (lengths in Compton wavelengths)"

#: rows per work unit; fixed so results never depend on the thread count
ROW_CHUNK = 16
#: CSV rows formatted and encoded at a time: the strings of a block of
#: f_grid.csv's three columns take ~0.4 MB, and only its bytes are kept
CSV_BLOCK_ROWS = 2048
#: CSV columns where NaN (never +-inf) marks a missing value: v, f and
#: x_mapped = x + f at a density zero, the Lambert branches past the fold
NAN_FLAGGED = frozenset({"v", "f", "x_mapped", "x_branch0",
                         "x_branch_minus1"})


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON form of a config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def metadata_lines(config: dict) -> list[str]:
    return [
        f"# version: {__version__}",
        f"# config: {config_hash(config)}",
        f"# units: {UNITS_NOTE}",
    ]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _column_text(col) -> list[str]:
    """One column's values as CSV fields, each as _fmt would give it.

    A float or int array is formatted once per distinct value (repr for
    floats, str for ints), and the strings are gathered back by the
    inverse index.  Values are told apart by their bit pattern, so 0.0
    and -0.0 (and NaNs of different payloads) stay apart.  A grid axis
    written as np.repeat or np.tile holds few distinct values among many
    rows.  Anything else goes value by value.
    """
    kind = col.dtype.kind if isinstance(col, np.ndarray) else None
    if kind not in ("f", "i", "u"):
        return [_fmt(v) for v in col]
    fmt = repr if kind == "f" else str
    distinct, inverse = np.unique(col.view(f"u{col.itemsize}"),
                                  return_inverse=True)
    if distinct.size == col.size:
        return list(map(fmt, col.tolist()))
    text = np.array(list(map(fmt, distinct.view(col.dtype).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _overwrite(path, blocks: list[bytes]) -> None:
    """Put the blocks in path in place: no O_TRUNC, truncate at the end."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.writelines(blocks)
        fh.truncate()


def write_csv(path, header: list[str], columns, config: dict) -> None:
    """Write equal-length columns under a metadata comment header.

    Floats are repr-exact; each distinct value of a numeric column in a
    block of CSV_BLOCK_ROWS rows is formatted once (_column_text), and
    the block is encoded before the next is formatted.  A header whose
    names do not match the columns one for one, or columns of unequal
    length, raise ValueError, and a non-finite value FloatingPointError
    (the CLI exits 3) naming the file and the column, all before the
    file is opened; a NaN in a NAN_FLAGGED column is allowed.
    """
    columns = list(columns)
    if len(header) != len(columns):
        raise ValueError(f"CSV header names {len(header)} columns, "
                         f"{len(columns)} given")
    for name, values in zip(header, map(np.asarray, columns)):
        if values.dtype.kind != "f":
            continue
        bad = np.isinf(values) if name in NAN_FLAGGED else ~np.isfinite(values)
        if bad.any():
            raise FloatingPointError(f"non-finite value {values[bad][0]} in "
                                     f"column {name} of {os.fspath(path)}")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    blocks = ["\n".join([*metadata_lines(config), ",".join(header)])
              .encode() + b"\n"]
    for lo in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
        cols = [_column_text(c[lo:lo + CSV_BLOCK_ROWS]) for c in columns]
        blocks.append(("\n".join(map(",".join, zip(*cols))) + "\n").encode())
    _overwrite(path, blocks)


def _jsonable(obj, where: str = ""):
    """obj with numpy values as Python ones; FloatingPointError names the
    key path (e.g. "lambert.rho_slope" or "f_range[1]") of a non-finite
    float, which JSON cannot hold."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{where}.{k}" if where else str(k))
                for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise FloatingPointError(f"non-finite value {float(obj)} at "
                                     f"{where} of a JSON output")
        return float(obj)
    return obj


def write_json(path, payload: dict, config: dict) -> None:
    """Write payload under the version/config/units header.

    A non-finite float anywhere in payload raises FloatingPointError
    (an ArithmeticError, so the CLI exits 3) before the file is opened.
    """
    doc = {
        "version": __version__,
        "config_hash": config_hash(config),
        "units": UNITS_NOTE,
        **_jsonable(payload),
    }
    _overwrite(path, [(json.dumps(doc, indent=2, sort_keys=True)
                       + "\n").encode()])


def parallel_rows(fn, n_rows: int, n_threads: int) -> list:
    """Evaluate fn(rows) for each block of rows, optionally threaded.

    The rows range(n_rows) are split into fixed blocks of ROW_CHUNK, and
    fn gets each block as a slice and returns that block's result; the
    results come back in block order.  The blocks do not depend on
    n_threads and each block's arithmetic is self-contained, so neither
    does the result.  No thread pool is started for a single block, and
    never more workers than blocks.
    """
    blocks = [slice(s, min(s + ROW_CHUNK, n_rows))
              for s in range(0, n_rows, ROW_CHUNK)]
    workers = min(n_threads, len(blocks))
    if workers <= 1:
        return [fn(rows) for rows in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))
