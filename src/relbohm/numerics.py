"""Shared numerical machinery: the dispersion relation, the charge and
current bilinears of a scalar field, the (x, t) grid, Lambert W, and
the error that refuses an array past its size limit.

The bilinears are single-valued forms of psi and its first derivatives,
so no phase is ever unwrapped.  The charge density may legitimately be
negative, and the velocity J / rho diverges where it crosses zero: a pair
creation/annihilation locus, not a numerical failure.

All routines are pure functions of their arguments and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid2D",
    "SizeError",
    "bilinear_j",
    "bilinear_rho",
    "omega",
    "lambert_w",
    "lambert_w_domain",
]


class SizeError(ValueError):
    """An array past its size limit, refused before it is allocated: an
    FFT row or k rule over packets.FFT_MAX_POINTS points, a W kernel over
    nearnr.WKernel.MAX_NODES nodes, a face rule over
    dirac.BALANCE_MAX_N nodes per axis.  The CLI exits 2 on it."""


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


def lambert_w_domain(branch: int, y) -> np.ndarray:
    """Mask of the y at which the real branch 0 or -1 of Lambert W exists.

    Branch 0 is real for y >= -1/e, branch -1 for -1/e <= y < 0; values
    up to 1e-15 below -1/e count as the branch point.
    """
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(y) & (y >= -_INV_E - 1e-15)
    return ok & (y < 0.0) if branch == -1 else ok


def lambert_w(branch: int, y):
    """Real Lambert W on branch 0 or -1: returns w with w*exp(w) = y.

    Accepts a scalar or an array; every entry must lie in the branch's
    real domain (see lambert_w_domain).  Wraps scipy.special.lambertw.
    """
    # imported here: scipy.special is a few tenths of a second to import,
    # only explode's Lambert fit needs it, and numerics stays numpy-only
    from scipy.special import lambertw

    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if not np.all(lambert_w_domain(branch, y)):
        raise ValueError(f"y outside the real domain of branch {branch}")
    w = lambertw(np.maximum(y, -_INV_E), branch).real
    return float(w) if w.ndim == 0 else w
