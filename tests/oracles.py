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
integrand for a volume rule.  Where the program integrates a fixed-t
FFT row, the oracle takes the row finer and sums its Fourier series
directly, one exponential per (point, mode).  Where the program sums a
k-integral on the rule of a reach, the reference is a deliberately finer
rule (fine_rule).  Where the program takes W from an FFT row, the oracle
sums W's double k-integral on a dense kernel matrix (WKernel).  Where the
program follows Bohm trajectories as contours of F, the oracle integrates
the double-sum velocity (velocity_discrete) by RK4 (integrate_trajectory).
"""

import cmath
import functools

import numpy as np

from relbohm.dirac import SpinorSample, _plane_spinor
from relbohm.numerics import (EPS_RHO_SCALE, SizeError, bilinear_j,
                              bilinear_rho, omega)
from relbohm.packets import _gl_panels, _k_weights, _Rule, fft_row_size


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


def packet_fields(rule, x, t, orders, nw=False):
    """The fields of a packet's k rule (Packet.rule_at) with one complex
    exponential e^{i(kx - omega t)} per (point, k-node), summed order by
    order."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    phase = np.exp(1j * (rule.k * x[..., None] - rule.omega * t[..., None]))
    return [phase @ rule._coef(dx, dt, bool(flag)) for (dx, dt), flag
            in zip(orders, np.broadcast_to(nw, len(orders)))]


def fine_rule(packet, reach, factor: int = 4):
    """The packet's coefficients (same spec, k_cut and norm) on a
    Gauss-Legendre rule of order 32 with factor times the panels of the
    rule Packet.fields takes for points of that reach, and so a panel
    width at most REACH_ORDER / (factor R).  No engine check: it is the
    reference, not the program."""
    panels = factor * packet.rule_nodes(reach) // packet.REACH_ORDER
    k, w, split = _gl_panels(-packet.k_cut, packet.k_cut, panels, 32)
    return _Rule(k, w, split, packet.norm * packet.spectrum(k))


def point_velocity(psi, dpsi_dx, dpsi_dt):
    """Bohm velocity J / rho at one point, or None where the density
    vanishes relative to the local |psi dpsi| scale (a divergence
    locus, the flag integrate_trajectory halts on)."""
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


class WKernel:
    """Tabulated exact density-difference potential W(x, t), the dense
    oracle for nearnr.correction_field's W on the FFT row.

    W = -(1/2) iint dk dk' c(k) c(k') (w w')^{-1/2}
        (k + k')^2 / ((sqrt w + sqrt w')^2 (w + w')^2)
        cos[(k - k') x - (w - w') t]

    so that d^2 W / dx^2 = rho - rho_nw identically (the kernel is the
    difference kernel (sqrt w - sqrt w')^2 / (2 sqrt(w w')) divided by
    -(k - k')^2, which is finite on the diagonal).  Built on the k rule
    that the points (x, t) need (Packet.rule_at), on which Packet.fields
    evaluates them; evaluation is a weighted cosine sum.  The matrix is
    O(N^2) in the N k-nodes: SizeError for a rule of over MAX_NODES
    nodes, before it is made.
    """

    #: most k-nodes of a rule the dense kernel matrix accepts
    MAX_NODES = 4096

    def __init__(self, packet, x, t):
        rule = packet.rule_at(x, t)
        if rule.k.size > self.MAX_NODES:
            raise SizeError(
                f"the k rule has {rule.k.size} nodes; the dense W kernel "
                f"accepts at most {self.MAX_NODES}.  Set a smaller k_cut "
                "or a narrower x window (narrow-k regime).")
        k = rule.k
        w = rule.omega
        ws = rule.ws                          # quad weight * coefficient
        sw = np.sqrt(w)
        kern = ((k[:, None] + k[None, :]) ** 2
                / ((sw[:, None] + sw[None, :]) ** 2
                   * (w[:, None] + w[None, :]) ** 2))
        self._M = (-0.5 * np.outer(ws, ws)
                   * (w[:, None] * w[None, :]) ** -0.5 * kern)
        self.k = k
        self.omega = w

    def _phases(self, x, t):
        """cos and sin of theta = k x - omega t at broadcastable x, t."""
        theta = np.multiply.outer(x, self.k) - np.multiply.outer(t, self.omega)
        return np.cos(theta), np.sin(theta)

    def evaluate(self, x, t) -> np.ndarray:
        """W at broadcastable x, t via cos(a-b) = cos a cos b + sin a sin b."""
        a, b = self._phases(x, t)
        return (np.sum(a * (a @ self._M), axis=-1)
                + np.sum(b * (b @ self._M), axis=-1))

    def d2_dx2(self, x, t) -> np.ndarray:
        """d^2 W / dx^2 at broadcastable x, t: W's sum with M_ab times
        -(k_a - k_b)^2, which for symmetric M is -2 sum_a q_a [k_a (u M)_a
        - (q M)_a] with q = k u, summed over u = cos theta, sin theta."""
        k, M = self.k, self._M
        return -2.0 * sum(np.sum(k * u * (k * (u @ M) - (k * u) @ M), axis=-1)
                          for u in self._phases(x, t))


def d2w_dx2_5point(W, x, h: float = 1e-3):
    """5-point central second derivative of a function W of x, O(h^4)."""
    x = np.asarray(x, dtype=float)
    w = [W(x + m * h) for m in (-2.0, -1.0, 0.0, 1.0, 2.0)]
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


def _series_antiderivative(x, fh, k, n):
    """G(x) = mean x + Re sum_m c_m e^{ik_m x} / (i k_m) of a real row
    with rfft fh of n points on modes k, one exponential per entry."""
    weight = np.full(k.size, 2.0 / n)
    if n % 2 == 0 and k.size == n // 2 + 1:
        weight[-1] = 1.0 / n
    table = np.exp(1j * np.multiply.outer(x, k[1:]))
    return (x * fh[0].real / n
            + (table @ (weight[1:] * fh[1:] / (1j * k[1:]))).real)


def front_kernel_fine(packet, x, t, factor: int = 2):
    """FrontKernel's F on the grid x * t from rows of factor times the
    points fft_row_size takes, on the same box: each row's spectrum is
    formed on all its modes, and F = 2 (G(x) - G(-L)) with x held to
    [-L, L] is a direct Fourier sum."""
    x = np.ravel(x)
    F = np.empty((x.size, np.size(t)))
    for i, s in enumerate(np.ravel(t)):
        dx, n = fft_row_size(packet, s)
        dx, n = dx / factor, n * factor
        dk = 2.0 * np.pi / (n * dx)
        m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
        w = omega(m * dk)
        c = (n * packet.norm * _k_weights(m, dk, packet.k_cut)
             * packet.spectrum(m * dk) * np.exp(-1j * w * s))
        rho = bilinear_rho(np.fft.ifft(c / np.sqrt(w)),
                           np.fft.ifft(-1j * np.sqrt(w) * c))
        L = packet.decay_window() + abs(s)
        G = _series_antiderivative(np.append(np.clip(x, -L, L), -L),
                                   np.fft.rfft(rho),
                                   2.0 * np.pi * np.fft.rfftfreq(n, d=dx), n)
        F[:, i] = 2.0 * (G[:-1] - G[-1])
    return F


def abs_mass(f, dx: float, band: float, factor: int = 16) -> float:
    """int |f| over the period of a row f (samples at j dx) band-limited
    to band.  The zeros of its Fourier series are bracketed on a row
    factor times finer (zero-padded spectrum), taken from the linear
    root there and polished by Newton steps on the direct sum, each held
    to its cell; between consecutive zeros the integral is the direct
    sum antiderivative's difference.  Sign changes where f stays below
    1e-12 of its peak on both sides are rounding in the tails and are
    skipped: a merged segment is off by twice the skipped part, under
    1e-12 of the peak times the period."""
    n = f.size
    fh = np.fft.rfft(f)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    keep = k <= band
    fh, k = fh[keep], k[keep]
    fine = np.fft.irfft(fh * factor, n * factor)
    neg = fine < 0
    after = np.roll(np.arange(fine.size), -1)
    j = np.nonzero((neg != neg[after]) & (np.maximum(
        np.abs(fine), np.abs(fine[after])) > 1e-12 * np.max(np.abs(fine))))[0]
    h = dx / factor
    z = (j + fine[j] / (fine[j] - fine[after[j]])) * h
    c = np.where(k > 0, 2.0, 1.0) * fh / n      # f(x) = Re sum c e^{ikx}
    for _ in range(3):
        table = np.exp(1j * np.multiply.outer(z, k))
        z = np.clip(z - (table @ c).real / (table @ (1j * k * c)).real,
                    j * h, (j + 1) * h)
    G = _series_antiderivative(z, fh, k, n)
    steps = np.diff(np.append(G, G[0] + fh[0].real * dx))
    return float(np.sum(np.abs(steps)))


@functools.lru_cache(maxsize=16)
def _scalar_modes(k: bytes, phi: bytes) -> list:
    """(k, omega, phi omega^{-1/2}) of each mode as Python scalars, from
    the bytes of a ModeSet's k and phi: an RK4 step asks for one state's
    modes four times."""
    k, phi = np.frombuffer(k), np.frombuffer(phi, dtype=complex)
    w = omega(k)
    return list(zip(k.tolist(), w.tolist(), (phi * w ** -0.5).tolist()))


def velocity_discrete(state, z: float, t: float):
    """Velocity of a ModeSet from the mode-pair double sums; None at a
    density zero.

    It takes one point at a time, on Python scalars: (M, M) numpy
    temporaries cost more than the sums.  It agrees with the bilinear
    J/rho of the summed psi (point_velocity) to rounding.
    """
    z, t = float(z), float(t)
    u = [(k, w, c * cmath.exp(1j * (k * z - w * t)))
         for k, w, c in _scalar_modes(state.k.tobytes(), state.phi.tobytes())]
    rho = j = 0.0
    for ka, wa, ua in u:
        for kb, wb, ub in u:
            re = (ua.conjugate() * ub).real
            rho += 0.5 * (wa + wb) * re
            j += 0.5 * (ka + kb) * re
    if abs(rho) < state._rho_floor:
        return None
    return j / rho


class DivergenceHalt(Exception):
    """Internal signal: the velocity field flagged a density zero."""


def integrate_trajectory(velocity_fn, z0: float, t0: float, t1: float,
                         dt: float, v_refine: float = 5.0,
                         max_halvings: int = 12):
    """Integrate dz/dt = v(z, t) from t0 to t1 with classical RK4.

    The contour method is the program's trajectory machinery because the
    velocity diverges at pair events; this integrator is an independent
    check away from those loci.  velocity_fn(z, t) returns a float or
    None (divergence flag).  The step is halved (up to max_halvings
    times) whenever |v| at the step start exceeds v_refine.  Integration
    stops early at a divergence flag.

    Returns (t_array, z_array); t_array ends at t1 unless halted.
    """
    def vel(z, t):
        v = velocity_fn(z, t)
        if v is None:
            raise DivergenceHalt
        return v

    ts = [t0]
    zs = [z0]
    t, z = t0, z0
    direction = 1.0 if t1 >= t0 else -1.0
    dt = abs(dt)
    try:
        while direction * (t1 - t) > 1e-15:
            h = dt
            v0 = vel(z, t)
            halvings = 0
            while abs(v0) > v_refine and halvings < max_halvings:
                h *= 0.5
                halvings += 1
            h = min(h, direction * (t1 - t))
            hs = direction * h
            k1 = v0
            k2 = vel(z + 0.5 * hs * k1, t + 0.5 * hs)
            k3 = vel(z + 0.5 * hs * k2, t + 0.5 * hs)
            k4 = vel(z + hs * k3, t + hs)
            z = z + hs * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            t = t + hs
            ts.append(t)
            zs.append(z)
    except DivergenceHalt:
        pass
    return np.array(ts), np.array(zs)
