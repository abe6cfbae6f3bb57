"""Shared numerical machinery: the dispersion relation, the charge and
current bilinears of a scalar field, the (x, t) grid, Gauss-Legendre
nodes, Lambert W, and the error that refuses an array past its size
limit.

The bilinears are single-valued forms of psi and its first derivatives,
so no phase is ever unwrapped.  The charge density may legitimately be
negative, and the velocity J / rho diverges where it crosses zero: a pair
creation/annihilation locus, not a numerical failure.

All routines are pure functions of their arguments and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GRID_MAX_POINTS",
    "Grid2D",
    "SizeError",
    "bilinear_j",
    "bilinear_rho",
    "gauss_legendre",
    "omega",
    "lambert_w",
    "lambert_w_domain",
]


class SizeError(ValueError):
    """An array past its size limit, refused before it is allocated: an
    FFT row or k rule over packets.FFT_MAX_POINTS points, a face rule over
    dirac.BALANCE_MAX_N nodes per axis, a grid over GRID_MAX_POINTS nodes,
    a block of mode pairs over modes.PAIR_MAX_PRODUCTS or a contour family
    over modes.CONTOUR_MAX_CELL_LEVELS.  The CLI exits 2 on it."""


def omega(k):
    """Relativistic dispersion relation omega(k) = sqrt(1 + k^2).

    Natural units; accepts scalars or arrays.  Even in k and >= 1.
    """
    k = np.asarray(k, dtype=float)
    out = np.sqrt(1.0 + k * k)
    return out if out.ndim else float(out)


#: Relative density floor below which the velocity J / rho is flagged as
#: divergent; each caller scales it by a density scale of its field, so
#: small amplitudes are not misclassified.
EPS_RHO_SCALE = 1e-12


def bilinear_rho(psi, dpsi_dt):
    """Charge density (i/2)[psi* dpsi/dt - dpsi*/dt psi] = -Im(psi*
    dpsi/dt); may be negative.  Elementwise on scalars or arrays."""
    return -(np.conj(psi) * dpsi_dt).imag


def bilinear_j(psi, dpsi_dx):
    """Spatial current (1/2i)[psi* dpsi/dx - dpsi*/dx psi] = Im(psi*
    dpsi/dx), elementwise."""
    return (np.conj(psi) * dpsi_dx).imag


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]
    (np.polynomial.legendre.leggauss, an eigensolve and Newton steps),
    made once per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


#: most nodes n_x n_t of a Grid2D, 32 MB per float field on it: it admits
#: 2048^2 nodes; past it Grid2D raises SizeError, before any array is made
GRID_MAX_POINTS = 2 ** 22


@dataclass(frozen=True)
class Grid2D:
    """Uniform (x, t) grid; x and t are cached and shared: do not modify."""

    x_min: float
    x_max: float
    n_x: int
    t_min: float
    t_max: float
    n_t: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.t_min < self.t_max):
            raise ValueError("grid extents must satisfy min < max")
        for axis, lo, hi in (("x", self.x_min, self.x_max),
                             ("t", self.t_min, self.t_max)):
            if not math.isfinite(float(hi) - float(lo)):
                raise ValueError(f"{axis} window [{lo:g}, {hi:g}] is wider "
                                 "than the float range")
        if self.n_x < 2 or self.n_t < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if self.n_x * self.n_t > GRID_MAX_POINTS:
            raise SizeError(f"a grid of {self.n_x} x {self.n_t} nodes is over "
                            f"the limit of 2^22 = {GRID_MAX_POINTS}")

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @cached_property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_t)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)


_INV_E = np.exp(-1.0)
# 1/e = _INV_E + _INV_E_LO: near -1/e, (y + _INV_E) is exact (Sterbenz),
# so y + 1/e keeps its digits where W's slope is infinite
_INV_E_LO = -1.2428753672788363e-17

#: Series of W about its branch point in p = +-sqrt(2(e y + 1)), + on
#: branch 0 and - on branch -1 (Corless et al., Adv. Comput. Math. 5
#: (1996) 329, eq. 4.22): W = sum(c_n p^n).
_BRANCH_SERIES = (-1.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280,
                  -221 / 8505, 680863 / 43545600, -1963 / 204120,
                  226287557 / 37623398400, -5776369 / 1515591000,
                  169709463197 / 69528040243200)
#: Below this |p| the series is W to rounding (its first omitted term is
#: under 4e-19) and is returned as it is: Halley steps there only add the
#: rounding of w e^w - y, whose slope vanishes at the branch point.
_P_EXACT = 0.05
#: Every starting point is within 7 % of W (the Pade guess near y = e is
#: the farthest), and three Halley steps take that to rounding on both
#: branches, where two leave errors of 1e-13.
_HALLEY_STEPS = 3
#: Below this w, e^w is subnormal (y > -4e-306 on branch -1): w e^w - y
#: loses digits there, and is 0 / 0 at y = -5e-324, so Halley runs on the
#: log form w + ln(-w) = ln(-y) instead
_W_SUBNORMAL = math.log(np.finfo(float).tiny)


def lambert_w_domain(branch: int, y) -> np.ndarray:
    """Mask of the y at which the real branch 0 or -1 of Lambert W exists.

    Branch 0 is real for y >= -1/e, branch -1 for -1/e <= y < 0; values
    up to 1e-15 below -1/e count as the branch point.
    """
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(y) & (y >= -_INV_E - 1e-15)
    return ok & (y < 0.0) if branch == -1 else ok


def _w_start(branch: int, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Starting points for Halley on a 1-D y in the branch's domain: the
    branch-point series for |p| < 1 (y < -1/2e), the (2, 2) Pade
    approximant at 0 up to y = e on branch 0, and the log/log-log
    asymptotics beyond (y >= e on branch 0, -1/2e <= y < 0 on -1)."""
    w = np.empty_like(y)
    near = np.abs(p) < 1.0
    p_near = p[near]
    series = np.full(p_near.shape, _BRANCH_SERIES[-1])
    for c in _BRANCH_SERIES[-2::-1]:
        series = series * p_near + c
    w[near] = series
    far = ~near if branch == -1 else y >= np.e
    mid = ~near & ~far
    r = y[mid]
    w[mid] = r * (6.0 + 8.0 * r) / (6.0 + r * (14.0 + 5.0 * r))
    l1 = np.log(np.abs(y[far]))
    l2 = np.log(np.abs(l1))
    w[far] = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
    return w


def _halley(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One Halley step on f(w) = w e^w - y, with f scaled by e^-w where
    w >= 0 so that no exponential overflows."""
    e = np.exp(-np.abs(w))
    pos = w >= 0.0
    f = np.where(pos, w - y * e, w * e - y)
    slope = np.where(pos, 1.0, e) * (w + 1.0)
    return w - f / (slope - (w + 2.0) * f / (2.0 * (w + 1.0)))


def _halley_log(w: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """One Halley step on g(w) = w + ln(-w) - ln(-y) for w < -1, the log
    form of w e^w = y on branch -1: g' = 1 + 1/w and g'' = -1/w^2."""
    g = w + np.log(-w) - log_y
    slope = 1.0 + 1.0 / w
    return w - g / (slope + g / (2.0 * w * w * slope))


def lambert_w(branch: int, y):
    """Real Lambert W on branch 0 or -1: returns w with w*exp(w) = y.

    Accepts a scalar or an array; every entry must lie in the branch's
    real domain (see lambert_w_domain), and y below -1/e counts as -1/e.
    Halley steps from the starting points of _w_start, a fixed number of
    them and elementwise, so an entry's result does not depend on the
    other entries.  Where e^w is subnormal (branch -1 at y > -4e-306) the
    steps solve the log form w + ln(-w) = ln(-y), so W stays finite and
    exact down to y = -5e-324.
    """
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if not np.all(lambert_w_domain(branch, y)):
        raise ValueError(f"y outside the real domain of branch {branch}")
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    # y + 1/e, clipped to [0, 1]: the clamp below -1/e, and only |p| < 1
    # is ever used
    u = np.clip((flat + _INV_E) + _INV_E_LO, 0.0, 1.0)
    p = np.sqrt(2.0 * np.e * u)
    if branch == -1:
        p = -p
    w = _w_start(branch, flat, p)
    tiny = w < _W_SUBNORMAL
    polish = (np.abs(p) >= _P_EXACT) & ~tiny
    w_p, y_p = w[polish], flat[polish]
    w_t, log_y = w[tiny], np.log(-flat[tiny])
    for _ in range(_HALLEY_STEPS):
        w_p = _halley(w_p, y_p)
        w_t = _halley_log(w_t, log_y)
    w[polish], w[tiny] = w_p, w_t
    w = w.reshape(y.shape)
    return float(w) if w.ndim == 0 else w
