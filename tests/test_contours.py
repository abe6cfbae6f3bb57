import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbohm.contours import ContourLine, extract_contours


# -- reference: marching squares one cell at a time ------------------------
#
# A deliberate oracle for the vectorized extract_contours: one Python call
# per cell per level, tuple edge keys ("t" | "x", i, j) and a chaining walk
# over visited segments.  The vectorized code must return the same lines,
# bytewise, in the same order.


def _edge_point(key, x, t, values, level):
    """Interpolated (x, t) coordinates of the crossing on a grid edge."""
    kind, i, j = key
    va = values[i, j]
    if kind == "x":
        vb = values[i + 1, j]
        s = 0.0 if vb == va else (level - va) / (vb - va)
        return (x[i] + s * (x[i + 1] - x[i]), t[j])
    vb = values[i, j + 1]
    s = 0.0 if vb == va else (level - va) / (vb - va)
    return (x[i], t[j] + s * (t[j + 1] - t[j]))


def _cell_segments(i, j, above, values, level):
    """Edge-key pairs for the segments crossing cell (i, j)."""
    case = (above[i, j] | (above[i + 1, j] << 1) | (above[i + 1, j + 1] << 2)
            | (above[i, j + 1] << 3))
    if case in (0, 15):
        return ()
    bottom = ("x", i, j)
    top = ("x", i, j + 1)
    left = ("t", i, j)
    right = ("t", i + 1, j)
    table = {
        1: ((left, bottom),),
        2: ((bottom, right),),
        3: ((left, right),),
        4: ((right, top),),
        6: ((bottom, top),),
        7: ((left, top),),
        8: ((top, left),),
        9: ((bottom, top),),
        11: ((right, top),),
        12: ((left, right),),
        13: ((bottom, right),),
        14: ((left, bottom),),
    }
    if case == 5 or case == 10:
        center = 0.25 * (values[i, j] + values[i + 1, j]
                         + values[i + 1, j + 1] + values[i, j + 1])
        if (case == 5) == (center > level):
            return ((bottom, right), (top, left))
        return ((bottom, left), (top, right))
    return table[case]


def _chain(segments):
    """Join segments (pairs of hashable keys) into key polylines."""
    adj: dict = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    visited = set()
    chains = []

    def walk(start, first):
        path = [start, first]
        visited.add(frozenset((start, first)))
        cur, prev = first, start
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand != prev and frozenset((cur, cand)) not in visited:
                    nxt = cand
                    break
            if nxt is None:
                return path, False
            visited.add(frozenset((cur, nxt)))
            path.append(nxt)
            if nxt == start:
                return path, True
            prev, cur = cur, nxt

    # open chains start at degree-1 keys, in key order
    for key in sorted(adj):
        if len(adj[key]) == 1 and frozenset((key, adj[key][0])) not in visited:
            chains.append(walk(key, adj[key][0]))
    # the remaining segments belong to closed loops
    for a, b in segments:
        if frozenset((a, b)) not in visited:
            chains.append(walk(a, b))
    return chains


def _reference_contours(x, t, values, levels):
    out = []
    for level in levels:
        above = values > level
        segments = []
        for i in range(x.size - 1):
            for j in range(t.size - 1):
                segments.extend(_cell_segments(i, j, above, values, level))
        for keys, closed in _chain(segments):
            pts = np.array([_edge_point(k, x, t, values, level)
                            for k in keys])
            out.append(ContourLine(level=float(level), points=pts,
                                   closed=closed))
    return out


@st.composite
def _sampled_fields(draw):
    """Grids of 2x2 to 30x30 on non-uniform axes, with levels.

    Integer fields give ties, plateaus, levels equal to grid values and
    saddles of both orientations; normal fields give generic crossings.
    """
    n_x, n_t = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.cumsum(rng.uniform(0.05, 1.0, n_x)) - 0.7 * n_x
    t = np.cumsum(rng.uniform(0.05, 1.0, n_t))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, (n_x, n_t)).astype(float)
        levels = [-1.5, -1.0, 0.0, 0.5, 1.0]
    else:
        values = rng.normal(size=(n_x, n_t))
        levels = np.concatenate([rng.choice(values.ravel(), 2),
                                 np.linspace(-1.5, 1.5, 4)])
    return x, t, values, levels


@given(_sampled_fields())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_matches_cell_by_cell_reference(case):
    x, t, values, levels = case
    got = extract_contours(x, t, values, levels)
    want = _reference_contours(x, t, values, levels)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.level == w.level
        assert g.closed == w.closed
        assert g.points.shape == w.points.shape
        assert g.points.tobytes() == w.points.tobytes()


def test_affine_field_vertical_line():
    x = np.linspace(0, 1, 11)
    t = np.linspace(0, 1, 7)
    vals = np.broadcast_to(x[:, None], (11, 7)).copy()
    lines = extract_contours(x, t, vals, [0.55])
    assert len(lines) == 1
    assert np.allclose(lines[0].points[:, 0], 0.55, atol=1e-12)


def test_unit_circle_closed():
    x = np.linspace(-2, 2, 201)
    t = np.linspace(-2, 2, 201)
    vals = x[:, None] ** 2 + t[None, :] ** 2
    lines = extract_contours(x, t, vals, [1.0])
    assert len(lines) == 1
    line = lines[0]
    assert line.closed
    r = np.hypot(line.points[:, 0], line.points[:, 1])
    cell_diag = np.hypot(x[1] - x[0], t[1] - t[0])
    assert np.max(np.abs(r - 1.0)) < cell_diag


def test_unbracketed_level_empty():
    x = np.linspace(0, 1, 5)
    t = np.linspace(0, 1, 5)
    vals = np.zeros((5, 5))
    assert extract_contours(x, t, vals, [10.0]) == []


def test_rejects_nonfinite():
    x = np.linspace(0, 1, 3)
    vals = np.zeros((3, 3))
    vals[1, 1] = np.nan
    with pytest.raises(ValueError):
        extract_contours(x, x, vals, [0.5])


def test_saddle_disambiguation():
    # f = x*t has a saddle at the origin; center sampling must produce
    # two separate arcs, not a crossing.
    x = np.linspace(-1, 1, 2)
    t = np.linspace(-1, 1, 2)
    vals = x[:, None] * t[None, :]
    lines = extract_contours(x, t, vals, [0.5])
    assert len(lines) == 2
    for line in lines:
        assert not line.closed
        assert len(line.points) == 2


def test_open_chain_spans_domain():
    x = np.linspace(0, 1, 21)
    t = np.linspace(0, 1, 21)
    vals = x[:, None] + 0.3 * t[None, :]
    lines = extract_contours(x, t, vals, [0.6])
    assert len(lines) == 1
    pts = lines[0].points
    # one connected polyline from boundary to boundary
    assert pts[:, 1].min() == pytest.approx(0.0, abs=1e-12)
    assert pts[:, 1].max() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pts[:, 0] + 0.3 * pts[:, 1], 0.6, atol=1e-12)
