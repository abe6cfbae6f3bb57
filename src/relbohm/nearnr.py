"""Bridge between the charge density and the localized-position density.

The two densities differ by a total second derivative, rho - rho_nw =
d^2 W / dx^2, with W given exactly by a smooth double k-integral; in the
near-non-relativistic regime W collapses to a local expression in psi
and the difference becomes a time-derivative form that feeds a position
map x -> x + f(x, t).  Pushing the charge density through that map
reproduces the localized-position density to the next expansion order.

Everything here is the 1-d specialization; the tensor indices of the
3-d form are diagonal under it.  Fields at points x come from
Packet.fields, which runs on the k rule those points need, as explode's
do; the W kernel asks the packet for the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EPS_RHO_SCALE, SizeError, bilinear_rho
from .packets import Packet, _fft_row

__all__ = [
    "CorrectionField",
    "WKernel",
    "correction_field",
    "density_difference_timeform",
    "moments",
    "nw_position_map",
    "pushforward_l1",
    "w_approx",
]

#: samples of the pushforward L1 window
PUSHFORWARD_N = 2001
#: largest w_approx_rel and timeform_rel_27b of the narrow-k regime
NARROW_K_REL = 0.25


class WKernel:
    """Tabulated exact density-difference potential W(x, t).

    W = -(1/2) iint dk dk' c(k) c(k') (w w')^{-1/2}
        (k + k')^2 / ((sqrt w + sqrt w')^2 (w + w')^2)
        cos[(k - k') x - (w - w') t]

    so that d^2 W / dx^2 = rho - rho_nw identically (the kernel is the
    difference kernel (sqrt w - sqrt w')^2 / (2 sqrt(w w')) divided by
    -(k - k')^2, which is finite on the diagonal).  Built on the k rule
    that the points (x, t) need (Packet.rule_at), on which Packet.fields
    evaluates them; evaluation is a weighted cosine sum.  SizeError for a
    rule of over MAX_NODES nodes, before the kernel matrix is made.
    """

    #: most k-nodes of a rule the dense kernel matrix accepts
    MAX_NODES = 4096

    def __init__(self, packet: Packet, x, t):
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


def w_approx(packet: Packet, x, t):
    """Near-non-relativistic local form of W.

    (1/32)[d^2(psi* psi)/dx^2 - 2(dpsi*/dx dpsi/dx + c.c.)] with the
    omega ~ 1 (localized-position) amplitude and analytic derivatives.
    Valid when the k-support is narrow compared to 1.
    """
    psi, psix, psixx = packet.fields(x, t, [(0, 0), (1, 0), (2, 0)],
                                     nw=True)
    d2_abs2 = 2.0 * (np.conj(psi) * psixx).real + 2.0 * np.abs(psix) ** 2
    out = (d2_abs2 - 4.0 * np.abs(psix) ** 2) / 32.0
    return float(out) if np.ndim(out) == 0 else out


def density_difference_timeform(packet: Packet, x, t: float):
    """(lhs, rhs27a, rhs27b) of the time-derivative difference identity.

    lhs     = rho - rho_nw
    rhs27a  = (1/8) d^2 J/dt dx = (1/8) Im(psi_t* psi_xx + psi* psi_xxt)
    rhs27b  = -(1/8) d^2 rho/dt^2 = (1/8) Im(psi_t* psi_tt + psi* psi_ttt)

    Every derivative is exact: the packet is a finite plane-wave sum.
    The two right-hand sides are linked by the continuity equation, so
    they agree to rounding; they agree with lhs to the expansion order
    of the packet's k-spread.
    """
    x = np.asarray(x, dtype=float)
    psi, psit, psixx, psitt, psixxt, psittt, psi_nw = packet.fields(
        x, t, [(0, 0), (0, 1), (2, 0), (0, 2), (2, 1), (0, 3), (0, 0)],
        nw=[0, 0, 0, 0, 0, 0, 1])
    lhs = bilinear_rho(psi, psit) - np.abs(psi_nw) ** 2
    rhs27a = (np.conj(psit) * psixx + np.conj(psi) * psixxt).imag / 8.0
    rhs27b = (np.conj(psit) * psitt + np.conj(psi) * psittt).imag / 8.0
    return lhs, rhs27a, rhs27b


def nw_position_map(packet: Packet, x, t: float):
    """(x_mapped, f, rho, rho_nw): localized position x + f with
    f = (1/8) rho^{-1} dJ/dt.

    dJ/dt = Im(psi_t* psi_x + psi* psi_xt), exact.  f is NaN where the
    density is below the divergence floor.  The densities rho and rho_nw
    come from the same Packet.fields pass, so callers need not evaluate
    them again.
    """
    x = np.asarray(x, dtype=float)
    psi, psix, psit, psixt, psi_nw = packet.fields(
        x, t, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)], nw=[0, 0, 0, 0, 1])
    rho = bilinear_rho(psi, psit)
    dj_dt = (np.conj(psit) * psix + np.conj(psi) * psixt).imag
    floor = EPS_RHO_SCALE * float(np.max(np.abs(rho)) + 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(np.abs(rho) < floor, np.nan, dj_dt / (8.0 * rho))
    return x + f, f, rho, np.abs(psi_nw) ** 2


@dataclass
class CorrectionField:
    """Per-node correction data along one fixed-t row."""

    x: np.ndarray
    t: float
    W: np.ndarray
    d2W_dx2: np.ndarray
    rho: np.ndarray
    rho_nw: np.ndarray
    f: np.ndarray          # NaN where the density is at a zero
    x_mapped: np.ndarray


def correction_field(packet: Packet, x, t: float) -> CorrectionField:
    """W, its second x-derivative, the densities and the position map at
    x, all on the k rule that the points need."""
    x = np.asarray(x, dtype=float)
    kernel = WKernel(packet, x, t)
    x_mapped, f, rho, rho_nw = nw_position_map(packet, x, t)
    return CorrectionField(
        x=x, t=float(t),
        W=kernel.evaluate(x, np.full(x.shape, t)),
        d2W_dx2=kernel.d2_dx2(x, t),
        rho=rho, rho_nw=rho_nw,
        f=f, x_mapped=x_mapped)


def moments(packet: Packet, t: float):
    """Zeroth and first moments of rho - rho_nw at time t.

    Both must vanish: the two densities share their normalization and
    mean.  They are sums over the FFT rows of rho and rho_nw at t
    (packets.fft_row_size), whose periodic box holds [-L, L] with L =
    decay_window() + |t|:
    m0 = dx sum d_j and m1 = dx sum x_j d_j for d = rho - rho_nw, with
    x_j the signed sample positions.  d is band-limited below the row's
    Nyquist limit, so dx sum d_j is its exact integral over the period
    and m0 vanishes to rounding (Parseval); m1 also needs d to vanish at
    the box ends, as it does past L.  Returns (m0, m1).
    """
    rho, rho_nw = _fft_row(packet, t), _fft_row(packet, t, nw=True)
    n, dx = rho.n, rho.dx
    d = rho.f - rho_nw.f
    x = dx * np.fft.fftfreq(n, 1.0 / n)
    return float(dx * np.sum(d)), float(dx * np.sum(x * d))


def pushforward_l1(packet: Packet, t: float = 0.0):
    """L1 distances (unmapped, mapped) between rho and rho_nw.

    Pushes rho through x -> x + f via the change-of-variables Jacobian
    1 + df/dx and interpolates back to PUSHFORWARD_N samples over the
    packet's width, on the k rule of that window.  The mapped distance
    should beat the unmapped one by the next expansion order.
    """
    # Position-space width: ~1/sigma_k for a gaussian shape.
    if packet.spec.shape == "gaussian":
        half_width = 4.0 / packet.spec.sigma_k + abs(t)
    else:
        half_width = packet.support_edge + abs(t) + 6.0
    x = np.linspace(-half_width, half_width, PUSHFORWARD_N)
    x_mapped, f, rho, rho_nw = nw_position_map(packet, x, t)
    if not np.all(np.isfinite(f)):
        raise ValueError("density zero inside the pushforward window; "
                         "the map is only defined for rho > 0")
    jac = np.gradient(x_mapped, x)
    if np.any(jac <= 0):
        raise ValueError("position map is not monotone on the window")
    pushed_on_mapped = rho / jac
    pushed = np.interp(x, x_mapped, pushed_on_mapped)
    dx = x[1] - x[0]
    l1_raw = float(np.sum(np.abs(rho - rho_nw)) * dx)
    l1_mapped = float(np.sum(np.abs(pushed - rho_nw)) * dx)
    return l1_raw, l1_mapped
