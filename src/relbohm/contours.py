"""Marching-squares iso-contour extraction on a rectangular grid.

Per level, numpy does the per-cell work on whole arrays, in the
case-table form of Lorensen & Cline, "Marching cubes" (SIGGRAPH 1987):

- the 4-bit case index of every cell comes from ``values > level`` at
  its corners (i, j), (i+1, j), (i+1, j+1), (i, j+1), in bits 0 to 3;
- the crossed cells are taken in (i, j) scan order, and each one's
  segments, as pairs of cell edges, are looked up in the 16-row table
  ``_CASES``;
- saddle cells (cases 5 and 10) compare the cell-centre average with
  the level; when the centre is not above it, the cell takes the other
  saddle row, which separates the corners that are above;
- every crossed edge gets one vertex by linear interpolation,
  ``s = (level - va) / (vb - va)`` from its lower-index end a (0 when
  vb == va).

Only the chaining of segments into polylines runs in Python.  An edge
is an integer key: ``i * n_t + j`` for the t-edge from (i, j) to
(i, j+1), and ``n_x * n_t + i * n_t + j`` for the x-edge from (i, j) to
(i+1, j), so all t-edges sort before all x-edges, then by i, then by j.
The output order follows from that: per level, open polylines first,
each walked from its lower end key, in key order; then closed loops,
in the order of the first segment of each in the cell scan, walked
from that segment's first edge.  A closed loop repeats its first
vertex at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ContourLine", "extract_contours"]

# cell edges: left is the t-edge at i, right the t-edge at i+1, bottom
# the x-edge at j, top the x-edge at j+1
_LEFT, _BOTTOM, _RIGHT, _TOP = range(4)

#: segments of each case as up to two edge pairs; -1 pads a one-segment
#: cell.  Row 5 separates the two below corners (centre above the
#: level), row 10 the two above corners.
_CASES = np.array([
    (-1, -1, -1, -1),
    (_LEFT, _BOTTOM, -1, -1),
    (_BOTTOM, _RIGHT, -1, -1),
    (_LEFT, _RIGHT, -1, -1),
    (_RIGHT, _TOP, -1, -1),
    (_BOTTOM, _RIGHT, _TOP, _LEFT),
    (_BOTTOM, _TOP, -1, -1),
    (_LEFT, _TOP, -1, -1),
    (_TOP, _LEFT, -1, -1),
    (_BOTTOM, _TOP, -1, -1),
    (_BOTTOM, _LEFT, _TOP, _RIGHT),
    (_RIGHT, _TOP, -1, -1),
    (_LEFT, _RIGHT, -1, -1),
    (_BOTTOM, _RIGHT, -1, -1),
    (_LEFT, _BOTTOM, -1, -1),
    (-1, -1, -1, -1),
], dtype=np.intp)


@dataclass
class ContourLine:
    """One polyline of an iso-contour: points[:, 0] = x, points[:, 1] = t."""

    level: float
    points: np.ndarray
    closed: bool = False


def _segments(values, level):
    """Edge-key pairs (n, 2) of the level's segments, in cell scan order."""
    n_x, n_t = values.shape
    a = (values > level).view(np.uint8)
    case = (a[:-1, :-1] | (a[1:, :-1] << 1) | (a[1:, 1:] << 2)
            | (a[:-1, 1:] << 3))
    ci, cj = np.nonzero((case != 0) & (case != 15))
    c = case[ci, cj]
    saddle = np.flatnonzero((c == 5) | (c == 10))
    si, sj = ci[saddle], cj[saddle]
    centre = 0.25 * (values[si, sj] + values[si + 1, sj]
                     + values[si + 1, sj + 1] + values[si, sj + 1])
    c[saddle[~(centre > level)]] ^= 15
    edges = _CASES[c]
    # key of the left, bottom, right and top edge less the cell's i*n_t + j
    offset = np.array([0, n_x * n_t, n_t, n_x * n_t + 1])
    keys = (ci * n_t + cj)[:, None] + offset[edges]
    return keys[edges >= 0].reshape(-1, 2)


def _chain(idx, n):
    """Polylines through segments idx (pairs of indices in range(n)).

    A crossed edge borders at most two cells, so every index ends at
    most two segments and each connected piece is a path or a loop.
    Returns (index path, closed) pairs: paths from their lower end, in
    index order, then loops in segment order.
    """
    deg = np.bincount(idx.ravel(), minlength=n).tolist()
    # sum of an index's neighbours: the next step is link - previous
    link = np.zeros(n, dtype=np.intp)
    np.add.at(link, idx, idx[:, ::-1])
    link = link.tolist()
    seen = [False] * n

    def walk(start, first):
        path = [start, first]
        prev, cur = start, first
        while deg[cur] == 2 and cur != start:
            prev, cur = cur, link[cur] - prev
            path.append(cur)
        for k in path:
            seen[k] = True
        return path, cur == start

    chains = [walk(k, link[k]) for k in range(n)
              if deg[k] == 1 and not seen[k]]
    chains += [walk(a, b) for a, b in idx.tolist() if not seen[a]]
    return chains


def _vertices(keys, x, t, values, level):
    """Interpolated (x, t) of the crossing on each edge key, shape (n, 2)."""
    n_x, n_t = values.shape
    along_x = keys >= n_x * n_t
    i, j = np.divmod(keys - along_x * (n_x * n_t), n_t)
    ib, jb = i + along_x, j + ~along_x
    va, vb = values[i, j], values[ib, jb]
    s = np.divide(level - va, vb - va, out=np.zeros(va.shape),
                  where=vb != va)
    x0, t0 = x[i], t[j]
    return np.stack([np.where(along_x, x0 + s * (x[ib] - x0), x0),
                     np.where(along_x, t0, t0 + s * (t[jb] - t0))], axis=1)


def extract_contours(x, t, values, levels):
    """Extract iso-contour polylines of a sampled field.

    Parameters
    ----------
    x, t : 1-d coordinate arrays (strictly increasing).
    values : array of shape (len(x), len(t)); must be finite everywhere.
    levels : iterable of contour levels.

    Returns a list of ContourLine.  A level that is never bracketed simply
    contributes no lines.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (x.size, t.size):
        raise ValueError("values must have shape (len(x), len(t))")
    if not np.all(np.isfinite(values)):
        raise ValueError("contour field contains non-finite values")

    out = []
    for level in levels:
        seg = _segments(values, level)
        if seg.size == 0:
            continue
        keys, idx = np.unique(seg, return_inverse=True)
        pts = _vertices(keys, x, t, values, level)
        for path, closed in _chain(idx.reshape(seg.shape), keys.size):
            out.append(ContourLine(level=float(level), points=pts[path],
                                   closed=closed))
    return out
