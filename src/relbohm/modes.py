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

import numpy as np

from . import io_utils
from .contours import extract_contours
from .numerics import EPS_RHO_SCALE, Grid2D, omega

__all__ = [
    "ModeSet",
    "Trajectory",
    "TrajectorySet",
    "velocity_discrete",
    "integral_F",
    "contour_family",
    "trajectories",
    "mean_rest_frame_check",
]

#: largest |Re| / max |Im| of the double sum that integral_F accepts
PURITY_TOL = 1e-9


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
        if not np.any(phi):
            raise ValueError("coefficients must not all vanish")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "phi", phi)

    @property
    def omega(self) -> np.ndarray:
        return omega(self.k)

    @property
    def weight(self) -> float:
        """Total weight sum |phi|^2 normalizing the expectation values."""
        return float(np.sum(np.abs(self.phi) ** 2))


def _mode_amplitudes(state: ModeSet, z, t) -> np.ndarray:
    """u_k = phi_k omega_k^{-1/2} exp(i(k z - omega t)), shape (n_modes,)."""
    w = state.omega
    return state.phi * w ** -0.5 * np.exp(
        1j * (state.k * np.asarray(z)[..., None]
              - w * np.asarray(t)[..., None]))


def _rho_j(state: ModeSet, z, t):
    """Charge density and current from the symmetrized double sums."""
    u = _mode_amplitudes(state, z, t)
    uu = np.conj(u)[..., :, None] * u[..., None, :]
    w = state.omega
    rho = np.sum(0.5 * (w[:, None] + w[None, :]) * uu.real, axis=(-2, -1))
    j = np.sum(0.5 * (state.k[:, None] + state.k[None, :]) * uu.real,
               axis=(-2, -1))
    return rho, j


def _rho_floor(state: ModeSet) -> float:
    """Absolute density below which the velocity is flagged divergent."""
    return EPS_RHO_SCALE * float(np.sum(np.abs(state.phi) ** 2)
                                 * np.max(np.abs(state.k) + state.omega))


def velocity_discrete(state: ModeSet, z: float, t: float):
    """Velocity from the mode-pair double sums; None at a density zero.

    The RK4 oracle of the trajectory tests integrates it.  It agrees
    with the bilinear J/rho of the summed psi to rounding; the tests keep
    that second formula path as their own oracle.
    """
    rho, j = _rho_j(state, z, t)
    if abs(rho) < _rho_floor(state):
        return None
    return float(j / rho)


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
    scale = np.max(np.abs(im)) + 1e-14
    if np.max(np.abs(re)) > PURITY_TOL * scale:
        raise ArithmeticError(
            "double sum of the integral of motion is not pure imaginary: "
            f"max |Re| = {np.max(np.abs(re)):.3e}")
    mean_v = mean_rest_frame_check(state)
    out = (z - mean_v * t) + im / state.weight
    return float(out) if out.ndim == 0 else out


def double_sum_parts(state: ModeSet, z, t):
    """Real and imaginary part of the Eq-of-motion double sum.

    The real part must vanish identically (pure-imaginary claim); this
    helper exposes both parts so callers can measure the stray real
    residue directly.
    """
    u = _mode_amplitudes(state, np.asarray(z, dtype=float),
                         np.asarray(t, dtype=float))
    k = state.k
    w = state.omega
    dk = k[None, :] - k[:, None]
    coef = np.where(dk != 0.0,
                    (w[:, None] + w[None, :]) / np.where(dk != 0.0, dk, 1.0),
                    0.0)
    dbl = 0.5 * np.sum(np.conj(u)[..., :, None] * u[..., None, :] * coef,
                       axis=(-2, -1))
    return dbl.real, dbl.imag


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

    rho_j_fn(x_array, t_array) must return (rho, j) arrays; floor is the
    absolute density threshold below which the velocity is flagged (NaN).
    """
    out = TrajectorySet()
    for line in lines:
        xs, ts = line.points[:, 0], line.points[:, 1]
        rho, j = rho_j_fn(xs, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(np.abs(rho) < floor, np.nan, j / rho)
        out.trajectories.append(Trajectory(
            points=line.points, rho=rho, v=v))
    return out


def contour_family(F: np.ndarray, grid: Grid2D, n_levels: int, rho_j_fn,
                   floor: float) -> TrajectorySet:
    """Iso-contours of a field F at n_levels even levels, annotated.

    F holds the field on grid, shape (n_x, n_t).  Levels sit at
    lo + (hi - lo)(i + 1/2)/n_levels over the range of F; rho_j_fn and
    floor are as in annotate_contours.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    lo, hi = float(F.min()), float(F.max())
    levels = lo + (hi - lo) * (np.arange(n_levels) + 0.5) / n_levels
    lines = extract_contours(grid.x, grid.t, F, levels)
    return annotate_contours(lines, rho_j_fn, floor)


def trajectories(state: ModeSet, grid: Grid2D, n_levels: int,
                 threads: int = 1):
    """Trajectory family: iso-contours of F at n_levels even levels.

    F is evaluated row by row at fixed x through io_utils.parallel_rows,
    so the result does not depend on threads.  Returns (F, TrajectorySet)
    with F of shape (n_x, n_t).  Warns if F varies by more than one level
    spacing across a grid cell (contours can then miss structure).
    """
    F = np.array(io_utils.parallel_rows(
        lambda i: np.asarray(integral_F(state, grid.x[i], grid.t)),
        grid.n_x, threads))
    traj = contour_family(F, grid, n_levels,
                          lambda x, t: _rho_j(state, x, t), _rho_floor(state))
    spacing = float(F.max() - F.min()) / n_levels
    cell_jump = max(np.max(np.abs(np.diff(F, axis=0))),
                    np.max(np.abs(np.diff(F, axis=1))))
    if spacing > 0 and cell_jump > spacing:
        warnings.warn(
            f"grid too coarse for the requested levels: F jumps by up to "
            f"{cell_jump:.3g} per cell vs level spacing {spacing:.3g}",
            RuntimeWarning, stacklevel=2)
    return F, traj

