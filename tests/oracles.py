"""Point-wise oracles the tests compare the program against.

The program evaluates psi and the Bohm velocity through vectorized
passes (the double sums of relbohm.modes, Packet.fields).  These
functions take one point at a time by a separate formula path, so a
test that agrees with them checks the program and not itself.
"""

import numpy as np

from relbohm.dirac import SpinorSample
from relbohm.numerics import EPS_RHO_SCALE, bilinear_j, bilinear_rho, omega


def mode_sum(state, z, t):
    """(psi, dpsi/dx, dpsi/dt) of a ModeSet at one point, mode by mode."""
    psi = psix = psit = 0j
    for k, phi in zip(state.k, state.phi):
        w = omega(k)
        u = phi * w ** -0.5 * np.exp(1j * (k * z - w * t))
        psi += u
        psix += 1j * k * u
        psit += -1j * w * u
    return psi, psix, psit


def point_velocity(psi, dpsi_dx, dpsi_dt):
    """Bohm velocity J / rho at one point, or None where the density
    vanishes relative to the local |psi dpsi| scale (a divergence
    locus, the flag ode.integrate_trajectory halts on)."""
    rho = bilinear_rho(psi, dpsi_dt)
    scale = abs(psi) * max(abs(dpsi_dx), abs(dpsi_dt), 1e-300)
    if abs(rho) < EPS_RHO_SCALE * scale:
        return None
    return float(bilinear_j(psi, dpsi_dx) / rho)


def gauge_transform(s: SpinorSample, f: complex, df) -> SpinorSample:
    """Sample of f(x) psi given f and its gradient df[mu] at the point."""
    df = np.asarray(df, dtype=complex)
    return SpinorSample(psi=f * s.psi,
                        dpsi=f * s.dpsi + df[:, None] * s.psi[None, :])
