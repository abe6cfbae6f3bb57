"""Discrete plane-wave superpositions in 1+1 dimensions.

A ModeSet is a finite list of (wavenumber, complex coefficient) pairs
defining psi = sum_k omega_k^{-1/2} phi_k exp(i(k z - omega_k t)).  The
module evaluates the density, current and velocity in their double-sum
form, the conserved integral of motion F, and extracts trajectory
families as iso-contours of F annotated with the particle/anti-particle
classification.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import io_utils
from .contours import extract_contours
from .numerics import EPS_RHO_SCALE, Grid2D, SizeError, omega

__all__ = [
    "ModeSet",
    "Trajectory",
    "TrajectorySet",
    "integral_F",
    "grid_fields",
    "check_levels",
    "contour_family",
    "analyse",
    "mean_rest_frame_check",
]

#: largest |Re| / max |Im| of the double sum that integral_F accepts
PURITY_TOL = 1e-9
#: most pair products conj(u_a) u_b of one block of grid_fields, 64 MB
#: per complex array: ROW_CHUNK rows of n_t times, M^2 for M modes.  It
#: admits 641^2 with 8 modes (656 384), 1281^2 with 3 (184 464) and
#: two_mode.json's grid with up to 50 modes; past it grid_fields raises
#: SizeError, before any array is made
PAIR_MAX_PRODUCTS = 2 ** 22
#: most grid cells times levels of a contour family: each level is one
#: pass over every cell.  It admits 1281^2 at 81 levels, 641^2 at 327 and
#: cos2.json's grid at 3 495; past it contour_family raises SizeError,
#: before the levels are made
CONTOUR_MAX_CELL_LEVELS = 2 ** 27


@dataclass(frozen=True)
class ModeSet:
    """Plane-wave modes: wavenumbers k and complex coefficients phi."""

    k: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k, dtype=float))
        phi = np.atleast_1d(np.asarray(self.phi, dtype=complex))
        if k.size == 0 or k.size != phi.size:
            raise ValueError("need equally many wavenumbers and coefficients")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(phi))):
            raise ValueError("wavenumbers and coefficients must be finite")
        if np.unique(k).size != k.size:
            raise ValueError("wavenumbers must be pairwise distinct")
        # sum |phi|^2 normalizes F and the mean group velocity
        if not 0.0 < np.sum(np.abs(phi) ** 2) < np.inf:
            raise ValueError("sum |phi|^2 of the coefficients must be "
                             "positive and finite")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "phi", phi)

    @property
    def omega(self) -> np.ndarray:
        return omega(self.k)

    @property
    def weight(self) -> float:
        """Total weight sum |phi|^2 normalizing the expectation values."""
        return float(np.sum(np.abs(self.phi) ** 2))

    @cached_property
    def _rho_floor(self) -> float:
        """Absolute density below which the velocity is flagged divergent."""
        return EPS_RHO_SCALE * float(np.sum(np.abs(self.phi) ** 2)
                                     * np.max(np.abs(self.k) + self.omega))


def _mode_amplitudes(state: ModeSet, z, t) -> np.ndarray:
    """u_k = phi_k omega_k^{-1/2} exp(i(k z - omega t)), shape (n_modes,)."""
    w = state.omega
    return state.phi * w ** -0.5 * np.exp(
        1j * (state.k * np.asarray(z)[..., None]
              - w * np.asarray(t)[..., None]))


def _pair_products(state: ModeSet, z, t) -> np.ndarray:
    """conj(u_a) u_b of every mode pair, shape (..., n_modes, n_modes)."""
    u = _mode_amplitudes(state, z, t)
    return np.conj(u)[..., :, None] * u[..., None, :]


def _rho_of_pairs(state: ModeSet, uu: np.ndarray) -> np.ndarray:
    """Charge density from the pair products of _pair_products."""
    w = state.omega
    return np.sum(0.5 * (w[:, None] + w[None, :]) * uu.real, axis=(-2, -1))


def _rho_j(state: ModeSet, z, t):
    """Charge density and current from the symmetrized double sums."""
    uu = _pair_products(state, z, t)
    j = np.sum(0.5 * (state.k[:, None] + state.k[None, :]) * uu.real,
               axis=(-2, -1))
    return _rho_of_pairs(state, uu), j


def integral_F(state: ModeSet, z, t):
    """Conserved integral F = Im(I) of the equations of motion.

    F = (z - <k/omega> t) + Im(double sum)/sum|phi|^2, where the double
    sum runs over distinct mode pairs.  The double sum must be pure
    imaginary; its stray real part is asserted against PURITY_TOL.

    Accepts scalars or broadcastable arrays for z and t.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    re, im = double_sum_parts(state, z, t)
    _check_purity(re, im)
    out = _F_of(state, z, t, im)
    return float(out) if out.ndim == 0 else out


def _check_purity(re: np.ndarray, im: np.ndarray) -> None:
    """ArithmeticError unless max |re| <= PURITY_TOL max |im|."""
    scale = np.max(np.abs(im)) + 1e-14
    if np.max(np.abs(re)) > PURITY_TOL * scale:
        raise ArithmeticError(
            "double sum of the integral of motion is not pure imaginary: "
            f"max |Re| = {np.max(np.abs(re)):.3e}")


def _F_of(state: ModeSet, z, t, im) -> np.ndarray:
    """F from the imaginary part of the double sum at (z, t)."""
    return (z - mean_rest_frame_check(state) * t) + im / state.weight


def _double_sum(state: ModeSet, uu: np.ndarray) -> np.ndarray:
    """The double sum from the pair products of _pair_products: pair
    (a, b) weighs (omega_a + omega_b)/(k_b - k_a), and a = b nothing."""
    k = state.k
    w = state.omega
    dk = k[None, :] - k[:, None]
    coef = np.where(dk != 0.0,
                    (w[:, None] + w[None, :]) / np.where(dk != 0.0, dk, 1.0),
                    0.0)
    return 0.5 * np.sum(uu * coef, axis=(-2, -1))


def double_sum_parts(state: ModeSet, z, t):
    """Real and imaginary part of the Eq-of-motion double sum.

    The real part must vanish identically (pure-imaginary claim); this
    helper exposes both parts so callers can measure the stray real
    residue directly.
    """
    dbl = _double_sum(state, _pair_products(
        state, np.asarray(z, dtype=float), np.asarray(t, dtype=float)))
    return dbl.real, dbl.imag


def grid_fields(state: ModeSet, grid: Grid2D, threads: int = 1):
    """F and rho on grid, each of shape (n_x, n_t).

    Each block of io_utils.ROW_CHUNK rows takes one set of mode
    amplitudes and one pair product conj(u_a) u_b, and sums from it both
    the double sum of F and rho; the blocks run through
    io_utils.parallel_rows, so the result does not depend on threads.
    Each value equals integral_F at its row and _rho_j on the whole grid
    bit for bit.  The purity check is integral_F's, row by row.
    """
    pairs = min(io_utils.ROW_CHUNK, grid.n_x) * grid.n_t * state.k.size ** 2
    if pairs > PAIR_MAX_PRODUCTS:
        raise SizeError(f"{state.k.size} modes on {grid.n_t} times make "
                        f"{pairs} pair products a block, over the limit of "
                        f"2^22 = {PAIR_MAX_PRODUCTS}")
    t = grid.t

    def block(rows):
        z = grid.x[rows, None]
        uu = _pair_products(state, z, t[None, :])
        dbl = _double_sum(state, uu)
        for re, im in zip(dbl.real, dbl.imag):
            _check_purity(re, im)
        return _F_of(state, z, t, dbl.imag), _rho_of_pairs(state, uu)

    F, rho = zip(*io_utils.parallel_rows(block, grid.n_x, threads))
    return np.concatenate(F), np.concatenate(rho)


def mean_rest_frame_check(state: ModeSet) -> float:
    """Weighted mean group velocity <k/omega> = sum|phi|^2 k/w / sum|phi|^2."""
    w2 = np.abs(state.phi) ** 2
    return float(np.sum(w2 * state.k / state.omega) / np.sum(w2))


@dataclass
class Trajectory:
    """One iso-contour of F with per-vertex Bohmian annotations.

    The sign of rho marks particle (rho > 0) and anti-particle (rho < 0)
    arcs; under the Feynman-Stueckelberg reading the latter are traversed
    backward in t.  v is NaN where the velocity diverges (density zero).
    """

    points: np.ndarray           # (n, 2): columns x, t
    rho: np.ndarray              # (n,)
    v: np.ndarray                # (n,), NaN at divergence flags


@dataclass
class TrajectorySet:
    trajectories: list[Trajectory] = field(default_factory=list)

    @property
    def n_pair_events(self) -> int:
        """Count of rho sign changes along all contour polylines."""
        return sum(int(np.sum(np.diff(np.sign(tr.rho)) != 0))
                   for tr in self.trajectories)

    def columns(self) -> list[np.ndarray]:
        """CSV-ready columns: level_id, vertex_id, x, t, rho_sign, v."""
        if not self.trajectories:
            return [np.zeros(0, dtype=int)] * 2 + [np.zeros(0)] * 4
        parts = [(np.full(len(tr.rho), li), np.arange(len(tr.rho)),
                  tr.points[:, 0], tr.points[:, 1],
                  np.sign(tr.rho).astype(int), tr.v)
                 for li, tr in enumerate(self.trajectories)]
        return [np.concatenate(col) for col in zip(*parts)]


def annotate_contours(lines, rho_j_fn, floor: float) -> TrajectorySet:
    """Turn raw contour polylines into an annotated TrajectorySet.

    rho_j_fn(x_array, t_array) must return (rho, j) arrays; it is called
    once, on the vertices of all lines, which share the grid times.
    floor is the absolute density threshold below which the velocity is
    flagged (NaN).
    """
    out = TrajectorySet()
    if not lines:
        return out
    points = np.concatenate([line.points for line in lines])
    rho, j = rho_j_fn(points[:, 0], points[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(np.abs(rho) < floor, np.nan, j / rho)
    ends = np.cumsum([len(line.points) for line in lines])[:-1]
    for line, r, vl in zip(lines, np.split(rho, ends), np.split(v, ends)):
        out.trajectories.append(Trajectory(points=line.points, rho=r, v=vl))
    return out


def check_levels(grid: Grid2D, n_levels: int) -> None:
    """Refuse a contour family of n_levels levels on grid before any work:
    ValueError below one level, SizeError past CONTOUR_MAX_CELL_LEVELS
    grid cells times levels."""
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    cells = (grid.n_x - 1) * (grid.n_t - 1)
    if cells * n_levels > CONTOUR_MAX_CELL_LEVELS:
        raise SizeError(f"n_levels = {n_levels} on {cells} grid cells is over "
                        f"the limit of 2^27 = {CONTOUR_MAX_CELL_LEVELS} cell "
                        "levels")


def contour_family(F: np.ndarray, grid: Grid2D, n_levels: int, rho_j_fn,
                   floor: float) -> TrajectorySet:
    """Iso-contours of a field F at n_levels even levels, annotated.

    F holds the field on grid, shape (n_x, n_t).  Levels sit at
    lo + (hi - lo)(i + 1/2)/n_levels over the range of F; rho_j_fn and
    floor are as in annotate_contours.
    """
    check_levels(grid, n_levels)
    lo, hi = float(F.min()), float(F.max())
    levels = lo + (hi - lo) * (np.arange(n_levels) + 0.5) / n_levels
    lines = extract_contours(grid.x, grid.t, F, levels)
    return annotate_contours(lines, rho_j_fn, floor)


def analyse(state: ModeSet, grid: Grid2D, n_levels: int, threads: int = 1):
    """The modes analysis on grid: (F, TrajectorySet, summary dict).

    F (shape (n_x, n_t)) and rho come from grid_fields, so neither
    depends on threads; the trajectories are the iso-contours of F at
    n_levels even levels (contour_family).  The summary holds the mean
    group velocity, the pair-event and contour counts, the signs of rho
    over the grid and the range of F.  ArithmeticError if F is not
    finite anywhere on the grid.  Warns (RuntimeWarning) if F varies
    by more than one level spacing across a grid cell: contours can then
    miss structure.
    """
    F, rho = grid_fields(state, grid, threads)
    if not np.all(np.isfinite(F)):
        raise ArithmeticError("F is not finite on the grid: the double sum "
                              "overflows (wavenumbers too close or too large)")
    traj = contour_family(F, grid, n_levels,
                          lambda x, t: _rho_j(state, x, t), state._rho_floor)
    spacing = float(F.max() - F.min()) / n_levels
    cell_jump = max(np.max(np.abs(np.diff(F, axis=0))),
                    np.max(np.abs(np.diff(F, axis=1))))
    if spacing > 0 and cell_jump > spacing:
        warnings.warn(
            f"grid too coarse for the requested levels: F jumps by up to "
            f"{cell_jump:.3g} per cell vs level spacing {spacing:.3g}",
            RuntimeWarning, stacklevel=2)
    return F, traj, {
        "mean_group_velocity": mean_rest_frame_check(state),
        "pair_events": traj.n_pair_events,
        "n_contours": len(traj.trajectories),
        "rho_sign_census": {"positive": int(np.sum(rho > 0)),
                            "negative": int(np.sum(rho < 0))},
        "f_range": [float(F.min()), float(F.max())],
    }
