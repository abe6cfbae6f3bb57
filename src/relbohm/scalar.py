"""Bohm/de Broglie kinematics for a scalar field at a single point.

Densities, currents and velocities are computed from the single-valued
bilinear forms of psi and its first derivatives; the phase is never
globally unwrapped.  The charge density may legitimately be negative, and
the velocity diverges where it crosses zero (a pair creation/annihilation
locus, not a numerical failure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldSample",
    "bilinear_j",
    "bilinear_rho",
    "density_rho",
    "current_j",
    "velocity",
    "quantum_potential",
]

#: Relative density threshold below which the velocity is flagged as
#: divergent.  Scales with the local |psi * dpsi| magnitude so small
#: amplitudes are not misclassified.
EPS_RHO_SCALE = 1e-12


@dataclass(frozen=True)
class FieldSample:
    """psi and its first space/time derivatives at one (x, t) point."""

    psi: complex
    dpsi_dx: complex
    dpsi_dt: complex


def bilinear_rho(psi, dpsi_dt):
    """Charge density (i/2)[psi* dpsi/dt - dpsi*/dt psi]; may be negative.

    Elementwise on scalars or arrays.
    """
    return (0.5j * (np.conj(psi) * dpsi_dt - np.conj(dpsi_dt) * psi)).real


def bilinear_j(psi, dpsi_dx):
    """Spatial current (1/2i)[psi* dpsi/dx - dpsi*/dx psi], elementwise."""
    return (-0.5j * (np.conj(psi) * dpsi_dx - np.conj(dpsi_dx) * psi)).real


def density_rho(s: FieldSample) -> float:
    """Charge density of a FieldSample."""
    return float(bilinear_rho(s.psi, s.dpsi_dt))


def current_j(s: FieldSample) -> float:
    """Spatial current of a FieldSample."""
    return float(bilinear_j(s.psi, s.dpsi_dx))


def velocity(s: FieldSample):
    """Particle velocity J/rho, or None where the density vanishes.

    |v| may exceed 1 near rho -> 0; that superluminal excursion is
    physical content, not an error.  None marks a divergence locus.
    """
    rho = density_rho(s)
    scale = abs(s.psi) * max(abs(s.dpsi_dx), abs(s.dpsi_dt), 1e-300)
    if abs(rho) < EPS_RHO_SCALE * scale:
        return None
    return current_j(s) / rho


def quantum_potential(A_field, x: float, t: float, h: float = 1e-4,
                      spatial_only: bool = False) -> float:
    """Quantum potential Phi = -(1/2) A^{-1} box A by central differences.

    The d'Alembertian here is the spacelike-positive form
    box = d^2/dx^2 - d^2/dt^2 (the sign that makes Eq-of-state
    (mu0)^2 = 1 + 2 Phi hold for on-shell fields in natural units).
    With spatial_only=True only the spatial Laplacian is used (the
    non-relativistic form).

    A_field(x, t) must be positive on the whole stencil.
    """
    a0 = A_field(x, t)
    axp = A_field(x + h, t)
    axm = A_field(x - h, t)
    stencil = [a0, axp, axm]
    if not spatial_only:
        atp = A_field(x, t + h)
        atm = A_field(x, t - h)
        stencil += [atp, atm]
    if min(stencil) <= 0.0:
        raise ValueError("amplitude not positive on the stencil "
                         "(node of the wavefunction)")
    d2x = (axp - 2.0 * a0 + axm) / (h * h)
    box = d2x
    if not spatial_only:
        box -= (atp - 2.0 * a0 + atm) / (h * h)
    return -0.5 * box / a0
