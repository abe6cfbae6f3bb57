"""Continuous positive-energy packets in 1+1 dimensions.

The configuration-space field is psi(x, t) = N int dk s(k) omega^{-1/2}
exp(i(kx - omega t)) for a real k-space shape s(k); the localized-position
amplitude drops the omega^{-1/2} factor.  Built-in shapes:

* ``cos2``: the Fourier transform of a Cos^2 pulse supported on |x| < a,
  s(k) = sin(ka) / (k (1 - k^2 a^2 / pi^2)), with the removable
  singularities at k = 0 and k = +-pi/a filled in by their limits.
* ``gaussian``: exp(-(k - k0)^2 / (2 sigma_k^2)).

All k-integrals are evaluated on a fixed composite Gauss-Legendre grid
over [-k_cut, k_cut], tabulated once per packet (see Packet for the
panel rule).  Evaluations are plain weighted sums and therefore
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .modes import contour_family
from .numerics import Grid2D, lambert_w, lambert_w_domain, omega
from .scalar import EPS_RHO_SCALE, bilinear_j, bilinear_rho

__all__ = [
    "PacketSpec",
    "Packet",
    "DensityProfile",
    "FrontKernel",
    "LambertLocalFamily",
    "acausal_probability",
    "annihilation_fronts",
    "densities",
    "lambert_local_trajectories",
    "zero_crossings",
]

#: the default k_cut is where |s(k)| drops below this fraction of its peak
ENVELOPE_TOL = 1e-6
#: Gauss-Legendre order of the x-space panel quadratures
PANEL_ORDER = 12


@dataclass(frozen=True)
class PacketSpec:
    """k-space shape of a 1-d positive-energy packet.

    total_charge is the normalization of int rho dx (= int rho_nw dx);
    the default 2 makes the half-line localized charge equal to 1 for the
    cos2 packet, matching the convention used for the threshold integrals.
    """

    shape: str = "cos2"
    a: float = 1.0
    k0: float = 0.0
    sigma_k: float = 0.05
    total_charge: float = 2.0

    def __post_init__(self):
        if self.shape not in ("cos2", "gaussian"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.shape == "cos2" and self.a <= 0:
            raise ValueError("cos2 packet needs a > 0")
        if self.shape == "gaussian" and self.sigma_k <= 0:
            raise ValueError("gaussian packet needs sigma_k > 0")
        if self.total_charge <= 0:
            raise ValueError("total_charge must be positive")

    def shape_values(self, k) -> np.ndarray:
        """s(k) on an array of wavenumbers (real, unnormalized)."""
        k = np.asarray(k, dtype=float)
        if self.shape == "gaussian":
            return np.exp(-0.5 * ((k - self.k0) / self.sigma_k) ** 2)
        u = k * self.a
        near0 = np.abs(u) < 1e-7
        nearpi = np.abs(np.abs(u) - np.pi) < 1e-9
        safe_u = np.where(near0 | nearpi, 1.0, u)
        s = np.sin(safe_u) / (safe_u * (1.0 - safe_u ** 2 / np.pi ** 2))
        s = np.where(near0, 1.0, s)
        s = np.where(nearpi, 0.5, s)
        return self.a * s

    def default_k_cut(self) -> float:
        """Truncation where the envelope drops below ENVELOPE_TOL * peak."""
        if self.shape == "gaussian":
            return abs(self.k0) + self.sigma_k * np.sqrt(
                -2.0 * np.log(ENVELOPE_TOL))
        # |s(k)| <= pi^2 / (a^2 |k|^3) for |k| a > pi; peak is a.
        return max((np.pi ** 2 / (self.a ** 3 * ENVELOPE_TOL)) ** (1 / 3.0),
                   4.0 * np.pi / self.a)


def _gl_panels(k_lo, k_hi, panel_width, order):
    """Composite Gauss-Legendre nodes/weights on [k_lo, k_hi]."""
    n_panels = max(1, int(np.ceil((k_hi - k_lo) / panel_width)))
    edges = np.linspace(k_lo, k_hi, n_panels + 1)
    xg, wg = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


class Packet:
    """A PacketSpec with its tabulated quadrature grid and normalization.

    The k grid has gl_order Gauss-Legendre nodes on each equal panel of
    [-k_cut, k_cut]; the panel width is the least of pi / (2 max(x_scale,
    1)), k_cut / 8 and, for a gaussian, sigma_k / 2.  x_scale is no reach
    bound: at the default 15, cos2 densities at |x| = 32 are exact.
    """

    #: max entries of any (points x k-nodes) phase matrix
    _CHUNK_BUDGET = 4_000_000

    def __init__(self, spec: PacketSpec, k_cut: float | None = None,
                 gl_order: int = 10, x_scale: float = 15.0):
        self.spec = spec
        self.k_cut = float(k_cut if k_cut is not None
                           else spec.default_k_cut())
        panel = min(0.25 * 2.0 * np.pi / max(x_scale, 1.0),
                    self.k_cut / 8.0)
        if spec.shape == "gaussian":
            panel = min(panel, spec.sigma_k / 2.0)
        self.k, w = _gl_panels(-self.k_cut, self.k_cut, panel, gl_order)
        self.omega = omega(self.k)
        s = spec.shape_values(self.k)
        # int rho_nw dx = 2 pi N^2 int s^2 dk  ==  total_charge.
        s2 = float(np.sum(w * s * s))
        self.norm = np.sqrt(spec.total_charge / (2.0 * np.pi * s2))
        # quadrature weight * normalized k-space coefficient
        self._ws = w * (self.norm * s)

    # -- field evaluation ---------------------------------------------

    def _coef(self, dx: int, dt: int, nw: bool = False) -> np.ndarray:
        coef = self._ws if nw else self._ws * self.omega ** -0.5
        if dx:
            coef = coef * (1j * self.k) ** dx
        if dt:
            coef = coef * (-1j * self.omega) ** dt
        return coef

    def fields(self, x, t, orders, nw: bool = False) -> list[np.ndarray]:
        """Evaluate several derivative orders of psi in one pass.

        orders is a sequence of (dx, dt) pairs; x and t broadcast
        against each other.  The exponential phase factor is shared
        between the orders, and points are processed in fixed-size
        chunks so memory stays bounded.
        """
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(t, dtype=float))
        shape = x.shape
        xf = x.ravel()
        tf = t.ravel()
        coefs = [self._coef(dx, dt, nw=nw) for dx, dt in orders]
        outs = [np.empty(xf.size, dtype=complex) for _ in orders]
        chunk = max(1, self._CHUNK_BUDGET // self.k.size)
        for i in range(0, xf.size, chunk):
            sl = slice(i, i + chunk)
            E = np.exp(1j * (self.k * xf[sl, None]
                             - self.omega * tf[sl, None]))
            for out, coef in zip(outs, coefs):
                out[sl] = E @ coef
        return [o.reshape(shape) for o in outs]

    # -- densities ----------------------------------------------------

    def rho(self, x, t) -> np.ndarray:
        psi, psid = self.fields(x, t, [(0, 0), (0, 1)])
        return bilinear_rho(psi, psid)

    def rho_nw(self, x, t) -> np.ndarray:
        """Localized-position density |psi_nw|^2 (no omega^{-1/2} weight)."""
        return np.abs(self.fields(x, t, [(0, 0)], nw=True)[0]) ** 2

    def rho_j(self, x, t):
        psi, psix, psid = self.fields(x, t, [(0, 0), (1, 0), (0, 1)])
        return bilinear_rho(psi, psid), bilinear_j(psi, psix)

    @cached_property
    def support_edge(self) -> float:
        """Initial support edge of the localized amplitude."""
        if self.spec.shape == "cos2":
            return self.spec.a
        return 5.0 / self.spec.sigma_k  # effective width, not compact

    def decay_window(self) -> float:
        """Half-width beyond which the t = 0 field is negligible."""
        # Exponential Compton-scale tails past the support edge.
        return self.support_edge + 30.0


def _panel_integral(fn, a, b, n_panels: int = 64) -> float:
    """Fixed composite GL integral of a vectorized real function."""
    nodes, weights = _gl_panels(a, b, (b - a) / n_panels, PANEL_ORDER)
    return float(np.sum(weights * fn(nodes)))


@dataclass
class DensityProfile:
    """Densities along one fixed-t row of a grid."""

    x: np.ndarray
    rho: np.ndarray
    rho_nw: np.ndarray
    rho_nw0: np.ndarray
    j: np.ndarray


def densities(packet: Packet, x, t: float) -> DensityProfile:
    """rho, rho_nw, its zeroth-order |rho| approximation, and J at fixed t.

    rho_nw0 is |rho| rescaled so its full-line integral matches the
    packet's total charge (the charge-blind zeroth-order reading).
    """
    x = np.asarray(x, dtype=float)
    L = packet.decay_window() + abs(t)
    abs_mass = _panel_integral(lambda xx: np.abs(packet.rho(xx, t)),
                               -L, L, n_panels=max(128, int(4 * L)))
    factor = packet.spec.total_charge / abs_mass
    rho, j = packet.rho_j(x, t)
    return DensityProfile(
        x=x, rho=rho, rho_nw=packet.rho_nw(x, t),
        rho_nw0=factor * np.abs(rho), j=j)


def acausal_probability(packet: Packet, t: float) -> float:
    """Probability of a localized-position outcome outside the light cone.

    The light cone is measured from the outermost initial support edge;
    requires t >= 0 and an initially compact (cos2) packet.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if packet.spec.shape != "cos2":
        raise ValueError("acausal probability needs a compactly "
                         "supported (cos2) packet")
    edge = packet.support_edge + t
    L = packet.decay_window() + t
    outer = _panel_integral(lambda xx: packet.rho_nw(xx, t), edge, L,
                            n_panels=max(192, int(8 * (L - edge))))
    total = _panel_integral(lambda xx: packet.rho_nw(xx, t), -L, L,
                            n_panels=max(192, int(4 * L)))
    return 2.0 * outer / total


def zero_crossings(packet: Packet):
    """(x_th, x_0) at t = 0 for a cos2 packet.

    x_0 is the smallest positive zero of rho(x, 0); x_th solves
    int_{x_th}^{inf} rho dx = 0 (only virtual pairs beyond the
    threshold).  Both to 1e-6.
    """
    if packet.spec.shape != "cos2":
        raise ValueError("zero crossings are defined for the cos2 packet")
    a = packet.spec.a

    def rho0(x):
        return packet.rho(np.asarray(x, dtype=float), 0.0)

    # Smallest positive root of rho by scan + brentq.
    xs = np.linspace(1e-3 * a, 2.5 * a, 400)
    r = rho0(xs)
    sign_change = np.nonzero(np.diff(np.sign(r)) != 0)[0]
    if sign_change.size == 0:
        raise ValueError("rho(x, 0) has no sign change; wrong packet "
                         "configuration")
    i = sign_change[0]
    x0 = brentq(lambda x: float(rho0(x)), xs[i], xs[i + 1], xtol=1e-8)

    # Tail integral int_x^inf rho: tabulate rho once on composite GL
    # panels over [0, L] and accumulate from the right, then refine.
    L = packet.decay_window()
    n_panels = max(256, int(8 * L))
    edges = np.linspace(0.0, L, n_panels + 1)
    xg, wg = np.polynomial.legendre.leggauss(PANEL_ORDER)
    half = 0.5 * (edges[1] - edges[0])
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None]
             + half * xg[None, :])
    vals = packet.rho(nodes.ravel(), 0.0).reshape(nodes.shape)
    panel_ints = half * np.sum(wg * vals, axis=1)
    tail_at_edge = np.concatenate(
        [np.cumsum(panel_ints[::-1])[::-1], [0.0]])

    def tail(x):
        j = min(np.searchsorted(edges, x, side="right"), n_panels)
        out = tail_at_edge[j]
        if edges[j] > x:
            out += _panel_integral(lambda xx: packet.rho(xx, 0.0),
                                   x, edges[j], n_panels=2)
        return out

    lo, hi = 0.1 * a, x0
    flo, fhi = tail(lo), tail(hi)
    if flo * fhi > 0:
        # a cos2 packet always has a threshold: the k quadrature aliases rho
        raise ArithmeticError("tail integral does not bracket a root in "
                              f"[{lo}, {hi}]; k quadrature too coarse")
    x_th = brentq(tail, lo, hi, xtol=1e-7)
    return float(x_th), float(x0)


class FrontKernel:
    """Tabulated double-sum kernel for the continuous integral of motion.

    F(x, t) is the (sign-fixed) imaginary part of the integral of the
    equations of motion: a double k-integral with the smooth kernel
    sin[(k'-k)x - (w'-w)t]/(k'-k), whose diagonal is the removable limit
    x - (k/omega) t.  The principal-value real part cancels by symmetry
    for real s(k) and the regulator's delta term is an additive constant,
    both dropped analytically.

    The kernel is precomputed on its own (coarser) Gauss-Legendre grid
    over the packet's [-k_cut, k_cut], so its gradient is (2 rho, -2 J)
    of that packet; evaluation at a batch of points is one matrix product.
    """

    def __init__(self, packet: Packet, n_nodes: int = 801,
                 phase_scale: float = 8.0):
        order = 8
        panel = max(0.25 * 2.0 * np.pi / max(phase_scale, 1.0), 1e-3)
        # Honor the requested node budget.
        panel = max(panel, 2.0 * packet.k_cut * order / max(n_nodes, order))
        k, w = _gl_panels(-packet.k_cut, packet.k_cut, panel, order)
        wq = omega(k)
        c = packet.norm * packet.spec.shape_values(k)
        ws = w * c
        s_mat = (np.outer(ws, ws) * (wq[:, None] * wq[None, :]) ** -0.5
                 * (wq[:, None] + wq[None, :]))
        dk = k[None, :] - k[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            self._A = np.where(dk != 0.0, s_mat / np.where(dk != 0.0, dk, 1.0),
                               0.0)
        np.fill_diagonal(self._A, 0.0)
        diag = np.diag(s_mat)  # = 2 w_i^2 c_i^2
        self._diag_x = float(np.sum(diag))
        self._diag_t = float(np.sum(diag * k / wq))
        self.k = k
        self.omega_k = wq

    def evaluate(self, x, t) -> np.ndarray:
        """F at broadcastable arrays of x and t."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        theta = (self.k * x[..., None] - self.omega_k * t[..., None])
        a = np.cos(theta)
        b = np.sin(theta)
        off = 2.0 * np.sum(a * (b @ self._A.T), axis=-1)
        return off + self._diag_x * x - self._diag_t * t


def annihilation_fronts(packet: Packet, grid: Grid2D, n_levels: int,
                        threads: int = 1):
    """Iso-contours of the continuous integral of motion, annotated.

    Returns (F, TrajectorySet) as modes.contour_family does; contours
    meeting the rho = 0 locus carry the particle/anti-particle cusp
    structure.
    """
    kernel = FrontKernel(
        packet, phase_scale=max(abs(grid.x_max), abs(grid.x_min))
        + abs(grid.t_max))
    scale = float(np.max(np.abs(packet.rho(
        np.linspace(grid.x_min, grid.x_max, 64), 0.0))))
    return contour_family(
        lambda i: kernel.evaluate(np.full(grid.n_t, grid.x[i]), grid.t), grid,
        n_levels, packet.rho_j, EPS_RHO_SCALE * scale, threads)


@dataclass
class LambertLocalFamily:
    """Closed-form local trajectories near a pair annihilation point.

    The two Lambert-W branches are the particle and anti-particle arms of
    the cusp; entries are NaN where a time sample lies beyond the fold.
    """

    t: np.ndarray
    x_branch0: np.ndarray
    x_branch_minus1: np.ndarray
    degenerate: bool = False


def lambert_local_trajectories(rho_slope: float, rho_zero: float,
                               j_slope: float, j_zero: float,
                               t_samples, t_ref: float,
                               x_ref: float) -> LambertLocalFamily:
    """Solve dx/dt = J/rho for linearized rho and J near an annihilation.

    rho ~ rho_slope (x - rho_zero) and J ~ j_slope (x - j_zero); the
    solution through (t_ref, x_ref) is expressed with Lambert W on
    branches 0 and -1.  A degenerate common zero gives a straight line.
    """
    if rho_slope == 0.0 or j_slope == 0.0:
        raise ValueError("both linear slopes must be nonzero")
    t = np.asarray(t_samples, dtype=float)
    d = j_zero - rho_zero
    if d == 0.0:
        x = x_ref + (j_slope / rho_slope) * (t - t_ref)
        return LambertLocalFamily(t=t, x_branch0=x, x_branch_minus1=x,
                                  degenerate=True)
    u_ref = x_ref - j_zero
    if u_ref == 0.0:
        raise ValueError("reference point sits exactly on the current zero")
    ratio = rho_slope / j_slope
    # t(x) = ratio (u + d ln|u|) + C with u = x - j_zero.
    const = t_ref - ratio * (u_ref + d * np.log(abs(u_ref)))
    tau = (t - const) / ratio
    y = np.sign(u_ref) * np.exp(tau / d) / d

    def solve(branch):
        out = np.full(t.shape, np.nan)
        real = lambert_w_domain(branch, y)
        out[real] = d * lambert_w(branch, y[real])
        return out + j_zero

    return LambertLocalFamily(t=t, x_branch0=solve(0),
                              x_branch_minus1=solve(-1))
