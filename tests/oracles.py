"""Point-wise oracles the tests compare the program against.

The program evaluates psi and the Bohm velocity through vectorized
passes (the double sums of relbohm.modes, Packet.fields, the plane-wave
terms of relbohm.dirac).  These functions take one point at a time by a
separate formula path, so a test that agrees with them checks the
program and not itself; packet_fields takes one complex exponential per
(point, k-node) where Packet.fields builds the plane waves as products.  Where
the program takes a derivative in closed form, the oracle here takes it
by finite differences of the underlying function.  Where the program
takes an integral as a boundary flux, the oracle differences the
integrand for a volume rule.
"""

import numpy as np

from relbohm.dirac import SpinorSample, _plane_spinor
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


def spinor_mode_sum(field, x) -> SpinorSample:
    """psi and dpsi of a DiracField at one point x (4,), mode by mode."""
    x = np.asarray(x, dtype=float)
    psi = np.zeros(4, dtype=complex)
    dpsi = np.zeros((4, 4), dtype=complex)
    for m in field.modes:
        w = omega(np.linalg.norm(m.k))
        phase = np.exp(1j * (m.k @ x[1:] - w * x[0]))
        term = m.coeff * phase * _plane_spinor(m.k, m.spin)
        psi += term
        dpsi[0] += -1j * w * term
        for j in range(3):
            dpsi[j + 1] += 1j * m.k[j] * term
    return SpinorSample(psi=psi, dpsi=dpsi)


def packet_fields(packet, x, t, orders, nw=False):
    """Packet.fields with one complex exponential e^{i(kx - omega t)} per
    (point, k-node), summed order by order."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    phase = np.exp(1j * (packet.k * x[..., None]
                         - packet.omega * t[..., None]))
    return [phase @ packet._coef(dx, dt, bool(flag)) for (dx, dt), flag
            in zip(orders, np.broadcast_to(nw, len(orders)))]


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


def d2w_dx2_5point(kernel, x, t, h: float = 1e-3):
    """5-point central second x-derivative of a WKernel's W, O(h^4)."""
    x = np.asarray(x, dtype=float)
    w = [kernel.evaluate(x + m * h, t) for m in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    return (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12.0 * h * h)


def stress_divergence(field, x, h: float = 1e-4):
    """d_i (A^2 T_{ji}) of an FWField at points x (..., 3) by central
    differences of step h, O(h^2); T_{ji} = (1/4) d_j s_l d_i s_l and
    A = exp(-|x|^2 / 2).  Returns shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    div = np.zeros_like(x)
    for i in range(3):
        for sign in (1.0, -1.0):
            p = x.copy()
            p[..., i] += sign * h
            d = np.asarray(field.ds(p), dtype=float)
            col = 0.25 * np.einsum("...jl,...l->...j", d, d[..., i, :])
            a2 = np.exp(-np.sum(p * p, axis=-1))
            div += sign * a2[..., None] * col / (2.0 * h)
    return div
