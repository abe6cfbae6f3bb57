"""Continuous positive-energy packets in 1+1 dimensions.

The configuration-space field is psi(x, t) = N int dk s(k) omega^{-1/2}
exp(i(kx - omega t)) for a real k-space shape s(k); the localized-position
amplitude drops the omega^{-1/2} factor.  Built-in shapes:

* ``cos2``: the Fourier transform of a Cos^2 pulse supported on |x| < a,
  s(k) = sin(ka) / (k (1 - k^2 a^2 / pi^2)), with the removable
  singularities at k = 0 and k = +-pi/a filled in by their limits.
* ``gaussian``: exp(-(k - k0)^2 / (2 sigma_k^2)).

Two engines evaluate the same truncated spectrum.  Field values at given
points are k-integrals on a composite Gauss-Legendre rule over
[-k_cut, k_cut] (Packet.fields); evaluations are plain weighted sums and
therefore deterministic.  Scattered points run on the rule their reach
max(|x| + |t|) needs (Packet.at_reach).  The x-integrals over a whole
fixed-t row (the acausal probability, the |rho| mass, the threshold tail
and charges, and FrontKernel's F) sample it by FFT on a periodic box
(fft_row_size) and integrate there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modes import contour_family
from .numerics import (EPS_RHO_SCALE, Grid2D, bilinear_j, bilinear_rho,
                       lambert_w, lambert_w_domain, omega)

__all__ = [
    "PacketSpec",
    "Packet",
    "DensityProfile",
    "FFT_MAX_POINTS",
    "FrontKernel",
    "LambertLocalFamily",
    "acausal_probability",
    "annihilation_fronts",
    "densities",
    "fft_row_size",
    "lambert_local_trajectories",
    "threshold_charges",
    "zero_crossings",
]

#: the default k_cut is where |s(k)| drops below this fraction of its peak
ENVELOPE_TOL = 1e-6
#: Gauss-Legendre order of the x-space panel quadratures
PANEL_ORDER = 12
#: most points of an FFT row (a fixed-t x-integral); fft_row_size grows
#: with t, and a row of this size holds 64 MB per complex field
FFT_MAX_POINTS = 2 ** 22
#: largest gap between Packet.fields and the t = 0 FFT row, relative to
#: max |rho|, before a k rule counts as too coarse for its reach
#: (well-resolved rules stay below 1e-7; an aliasing one reaches 1e-2 and
#: more)
ENGINE_GAP_TOL = 1e-6


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


def _gl_panels(k_lo, k_hi, n_panels, order):
    """Composite Gauss-Legendre nodes/weights on n_panels equal panels of
    [k_lo, k_hi]."""
    edges = np.linspace(k_lo, k_hi, n_panels + 1)
    xg, wg = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


class Packet:
    """A PacketSpec with its tabulated quadrature grid and normalization.

    The configured k grid has gl_order Gauss-Legendre nodes on each equal
    panel of [-k_cut, k_cut]; the panel width is the least of
    pi / (2 max(x_scale, 1)), k_cut / 8 and, for a gaussian, sigma_k / 2.
    It fixes the normalization, is the rule the explode engine check
    holds against the FFT row over the whole decay window, and bounds the
    nodes of every view.  at_reach(R) is this packet on the coarser rule
    that points with |x| + |t| <= R need: same spec, k_cut and norm.
    """

    #: max entries of any (points x k-nodes) phase matrix
    _CHUNK_BUDGET = 4_000_000
    #: Gauss-Legendre order of the rules at_reach makes
    REACH_ORDER = 24
    #: least reach at_reach sizes a rule for; below it the branch points
    #: of omega at k = +-i, not the phase, bound the panels next to k = 0
    REACH_FLOOR = 4.0

    def __init__(self, spec: PacketSpec, k_cut: float | None = None,
                 gl_order: int = 10, x_scale: float = 15.0):
        self.spec = spec
        self.k_cut = float(k_cut if k_cut is not None
                           else spec.default_k_cut())
        panel = min(0.25 * 2.0 * np.pi / max(x_scale, 1.0),
                    self.k_cut / 8.0)
        if spec.shape == "gaussian":
            panel = min(panel, spec.sigma_k / 2.0)
        k, w = _gl_panels(-self.k_cut, self.k_cut,
                          max(1, int(np.ceil(2.0 * self.k_cut / panel))),
                          gl_order)
        s = spec.shape_values(k)
        # int rho_nw dx = 2 pi N^2 int s^2 dk  ==  total_charge.
        s2 = float(np.sum(w * s * s))
        self.norm = np.sqrt(spec.total_charge / (2.0 * np.pi * s2))
        self._tabulate(k, w)

    def _tabulate(self, k: np.ndarray, w: np.ndarray) -> None:
        """Take k, w as the k rule, under the packet's norm."""
        self.k = k
        self.omega = omega(k)
        # quadrature weight * normalized k-space coefficient
        self._ws = w * (self.norm * self.spec.shape_values(k))

    def at_reach(self, reach: float) -> Packet:
        """This packet on the k rule that points with |x| + |t| <= reach
        need.

        The rule has REACH_ORDER Gauss-Legendre nodes on each of an even
        number of equal panels of [-k_cut, k_cut], so that k = 0 sits on a
        panel edge, away from the nodes next to omega's branch points.
        The panel width h is at most REACH_ORDER / max(reach, REACH_FLOOR),
        so the phase kx - omega t turns by at most REACH_ORDER radians
        across a panel: half of where such a rule starts to lose digits
        (h reach / 2 ~ REACH_ORDER).  For a gaussian, h is also at most
        sigma_k / 2.  The view shares spec, k_cut and norm with this
        packet; this packet is returned itself when the rule would hold as
        many nodes or more.

        Raises ArithmeticError when the view departs from the t = 0 FFT
        row by more than ENGINE_GAP_TOL within its reach, or within the
        decay window when the reach passes it: the row holds the field
        only there, and beyond it the t = 0 field is negligible.
        """
        reach = max(float(reach), self.REACH_FLOOR)
        h = self.REACH_ORDER / reach
        if self.spec.shape == "gaussian":
            h = min(h, self.spec.sigma_k / 2.0)
        n_panels = 2 * int(np.ceil(self.k_cut / h))
        if n_panels * self.REACH_ORDER >= self.k.size:
            return self
        row = self.t0_row  # made before the copy, so the view shares it
        view = copy.copy(self)
        view._tabulate(*_gl_panels(-self.k_cut, self.k_cut, n_panels,
                                   self.REACH_ORDER))
        _check_rule(view, row, min(reach, self.decay_window()))
        return view

    @cached_property
    def t0_row(self) -> _Row:
        """rho and rho_nw on the t = 0 FFT row (fft_row_size), made once
        and shared with every view."""
        return _fft_row(self, 0.0, nw=True)

    # -- field evaluation ---------------------------------------------

    def _coef(self, dx: int, dt: int, nw: bool) -> np.ndarray:
        coef = self._ws if nw else self._ws * self.omega ** -0.5
        if dx:
            coef = coef * (1j * self.k) ** dx
        if dt:
            coef = coef * (-1j * self.omega) ** dt
        return coef

    def fields(self, x, t, orders, nw=False) -> list[np.ndarray]:
        """Evaluate several derivative orders of psi in one pass.

        orders is a sequence of (dx, dt) pairs, of psi_nw where nw is true
        and of psi otherwise; nw is a flag or one flag per order.  x and t
        broadcast against each other.  The exponential phase factor is
        shared between the orders, and points are processed in fixed-size
        chunks so memory stays bounded.
        """
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(t, dtype=float))
        shape = x.shape
        xf = x.ravel()
        tf = t.ravel()
        coefs = [self._coef(dx, dt, bool(flag)) for (dx, dt), flag
                 in zip(orders, np.broadcast_to(nw, len(orders)))]
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
    """Fixed composite GL integral of a vectorized real function.

    Nothing in the library integrates this way any more; the tests keep
    it as a direct-sum oracle for the FFT-row integrals below.
    """
    nodes, weights = _gl_panels(a, b, n_panels, PANEL_ORDER)
    return float(np.sum(weights * fn(nodes)))


# -- fixed-t rows by FFT ----------------------------------------------------


def fft_row_size(packet: Packet, t: float) -> tuple[float, int]:
    """(dx, n) of the periodic FFT row at time t (an array: its largest |t|).

    dx is the largest power of two <= pi / (3 k_cut): a product of two
    fields (band 2 k_cut) is then sampled below its Nyquist limit.  The
    box n dx is the least power of two >= 2 (decay_window() + |t|), so
    periodic images of the field stay outside [-L, L].  For the default
    cos2 packet (k_cut = 214.5) that is 2^14 points on a box of 64 up to
    t = 1 and 2^15 on 128 up to t = 33.
    """
    c = int(np.ceil(np.log2(3.0 * packet.k_cut / np.pi)))
    e_box = 1 + int(np.ceil(np.log2(packet.decay_window() + np.abs(t).max())))
    return 2.0 ** -c, 2 ** (e_box + c)


@dataclass
class _Row:
    """rho and rho_nw on x_j = j dx of a periodic box, a row per time (the
    negative half of the line is the upper half of a row); None where the
    caller did not ask for it."""

    dx: float
    rho: np.ndarray | None
    rho_nw: np.ndarray | None


def _k_weights(m: np.ndarray, dk: float, k_cut: float) -> np.ndarray:
    """Weights of the modes k = m dk for int_{-k_cut}^{k_cut} dk.

    dk inside, zero beyond k_cut.  At each end, the three last modes also
    carry the trapezoid rule's Euler-Maclaurin term and the partial cell
    up to k_cut, both through f'' by backward differences.  A plain
    Riemann sum would part from the Gauss-Legendre k quadrature of
    Packet.fields by O(dk s(k_cut)), 1e-6 of rho for k_cut = 40; these
    weights close that gap to ~1e-9 at any k_cut.
    """
    end = int(np.floor(k_cut / dk))
    d = k_cut - end * dk
    a0 = d - 0.5 * dk                    # times f at the last mode
    a1 = 0.5 * d * d - dk * dk / 12.0    # times f' there
    a2 = d ** 3 / 6.0                    # times f'' there
    w = np.where(np.abs(m) <= end, dk, 0.0)
    for j, c in enumerate((a0 + 1.5 * a1 / dk + a2 / dk ** 2,
                           -2.0 * a1 / dk - 2.0 * a2 / dk ** 2,
                           0.5 * a1 / dk + a2 / dk ** 2)):
        for side in (1, -1):
            w[m == side * (end - j)] += c
    return w


def _fft_row(packet: Packet, t, refine: int = 1, rho: bool = True,
             nw: bool = False) -> _Row:
    """Sample rho (from psi and psi_t) and/or rho_nw (from psi_nw) at time
    t, by one inverse FFT per field.

    The spectrum is the packet's own norm * s(k) on the FFT frequencies,
    zeroed beyond k_cut like the k quadrature of Packet.fields and
    weighted by _k_weights.  refine multiplies n, the box and k_cut of
    fft_row_size (dx unchanged).  t may be an array of one row size.
    """
    dx, n = fft_row_size(packet, t)
    n *= refine
    if n > FFT_MAX_POINTS:
        raise ValueError(f"FFT row at |t| = {np.max(np.abs(t)):g} needs "
                         f"{n} points, over the limit of 2^22")
    dk = 2.0 * np.pi / (n * dx)
    m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    k = m * dk
    w = omega(k)
    # psi(j dx) = sum_k weight N s(k) w^-1/2 e^{i(k j dx - w t)}
    c = (n * packet.norm * _k_weights(m, dk, refine * packet.k_cut)
         * packet.spec.shape_values(k)
         * np.exp(np.multiply.outer(t, -1j * w)))
    ifft = np.fft.ifft
    return _Row(dx=dx,
                rho=bilinear_rho(ifft(c / np.sqrt(w)),
                                 ifft(-1j * np.sqrt(w) * c)) if rho else None,
                rho_nw=np.abs(ifft(c)) ** 2 if nw else None)


def _check_rule(packet: Packet, row: _Row, reach: float) -> None:
    """Raise ArithmeticError when packet's k rule departs from the t = 0
    row by more than ENGINE_GAP_TOL of max |rho| at <= 129 points of
    [0, reach]: the rule then aliases rho there."""
    n_in = int(reach / row.dx)
    j = np.arange(0, n_in + 1, max(1, -(-n_in // 128)))
    gap = float(np.max(np.abs(packet.rho(j * row.dx, 0.0) - row.rho[j])))
    if gap > ENGINE_GAP_TOL * np.max(np.abs(row.rho)):
        raise ArithmeticError(
            f"Packet.fields on {packet.k.size} k-nodes departs from the FFT "
            f"row by {gap:.2g} in rho within |x| <= {reach:g}; k "
            "quadrature too coarse")


class _RowIntegral:
    """Integrals of a real periodic row on its trigonometric interpolant.

    f holds samples at x_j = j dx over one period (a stack of rows along
    its last axis, for antiderivative).  When band-limited below the
    Nyquist limit, as FFT-row densities are, the interpolant is f itself
    and the integrals below are exact up to rounding.
    """

    def __init__(self, f: np.ndarray, dx: float):
        self.f, self.dx = f, dx
        n = f.shape[-1]
        self.fh = np.fft.rfft(f)
        self.k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
        self.mean = self.fh[..., 0].real / n
        # rfft of the periodic part of the antiderivative
        self.anti = np.zeros_like(self.fh)
        self.anti[..., 1:] = self.fh[..., 1:] / (1j * self.k[1:])
        # its Fourier series: the conjugate half doubles all but the
        # zero and Nyquist terms
        weight = np.full(self.k.size, 2.0 / n)
        weight[0] = 0.0
        if n % 2 == 0:
            weight[-1] = 1.0 / n
        self.series = weight * self.anti

    def antiderivative(self, x, band: float) -> np.ndarray:
        """G(x) = mean x + Re sum_m f_m e^{ik_m x} / (i k_m), so G' = f, at
        a 1-d array x; one column per row of a stack.  Only the modes
        k_m <= band enter: a row band-limited to it holds nothing but
        rounding above.  The rows share each table of e^{ik_m x}, of at
        most 2^21 entries to bound memory."""
        m = int(np.searchsorted(self.k, band, side="right"))
        k, series = self.k[:m], self.series[..., :m]
        G = np.multiply.outer(x, self.mean)
        step = max(1, 2 ** 21 // m)
        for i in range(0, x.size, step):
            table = np.multiply.outer(x[i:i + step], 1j * k)
            G[i:i + step] += (np.exp(table, out=table) @ series.T).real
        return G

    def __call__(self, a: float, b: float) -> float:
        """int_a^b f dx = G(b) - G(a) for one row, summed term by term:
        the two series cancel before rounding."""
        return float(self.mean * (b - a)
                     + np.sum(self.series * (np.exp(1j * self.k * b)
                                             - np.exp(1j * self.k * a))).real)

    def abs_total(self) -> float:
        """int |f| over the period: +-int f between consecutive zeros.

        The antiderivative is tabulated on the grid by FFT and carried
        from the sample before each zero to the zero by its Taylor
        series through f''.  The zero is the linear root in its cell;
        its error enters only at second order, because f vanishes there.
        """
        f, dx, n = self.f, self.dx, self.f.size
        period = n * dx
        neg = f < 0
        j = np.nonzero(neg != np.roll(neg, -1))[0]
        if j.size == 0:
            return abs(self.mean) * period
        F = np.fft.irfft(self.anti, n) + self.mean * dx * np.arange(n)
        f1 = np.fft.irfft(1j * self.k * self.fh, n)
        f2 = np.fft.irfft(-self.k ** 2 * self.fh, n)
        after = (j + 1) % n
        d = dx * f[j] / (f[j] - f[after])
        Fz = F[j] + d * (f[j] + d * (0.5 * f1[j] + d * f2[j] / 6.0))
        step = np.diff(np.append(Fz, Fz[0] + self.mean * period))
        return float(np.sum(np.where(neg[after], -step, step)))


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
    packet's total charge (the charge-blind zeroth-order reading).  The
    |rho| mass comes from the FFT row at t (fft_row_size) as the sum of
    +-int rho between the zeros of rho, each exact on the row
    (_RowIntegral.abs_total); it agrees with 32-fold oversampled
    trapezoid sums to ~2e-9 relative for the default cos2 packet.  (A
    plain trapezoid sum on the row is off by O(dx^2) at each kink of
    |rho|: 1.5e-6 at t = 0.  The composite Gauss-Legendre sum used
    before, 128 panels across the kinks, was off by 3.7e-4 at t = 0
    and 2.5e-5 at t = 0.5.)  The densities on x come from one
    Packet.fields pass on the rule of reach max |x| + |t|.
    """
    x = np.asarray(x, dtype=float)
    row = _fft_row(packet, t)
    factor = (packet.spec.total_charge
              / _RowIntegral(row.rho, row.dx).abs_total())
    view = packet.at_reach(np.max(np.abs(x), initial=0.0) + abs(t))
    psi, psix, psit, psi_nw = view.fields(
        x, t, [(0, 0), (1, 0), (0, 1), (0, 0)], nw=[0, 0, 0, 1])
    rho = bilinear_rho(psi, psit)
    return DensityProfile(
        x=x, rho=rho, rho_nw=np.abs(psi_nw) ** 2,
        rho_nw0=factor * np.abs(rho), j=bilinear_j(psi, psix))


def acausal_probability(packet: Packet, t: float, refine: int = 1) -> float:
    """Probability of a localized-position outcome outside the light cone.

    The light cone is measured from the outermost initial support edge;
    requires t >= 0 and an initially compact (cos2) packet.  P is the
    share of int rho_nw over |x| in [edge + t, L] (L = decay_window() +
    t) within [-L, L], both integrals taken exactly on the FFT row at t
    (_RowIntegral).  refine = 2 doubles the row's box, n and k_cut; the
    shift it causes is the error bar the explode command reports.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if packet.spec.shape != "cos2":
        raise ValueError("acausal probability needs a compactly "
                         "supported (cos2) packet")
    row = _fft_row(packet, t, refine, rho=False, nw=True)
    integral = _RowIntegral(row.rho_nw, row.dx)
    edge = packet.support_edge + t
    L = packet.decay_window() + t
    outer = integral(edge, L) + integral(-L, -edge)
    return outer / integral(-L, L)


def zero_crossings(packet: Packet):
    """(x_th, x_0) at t = 0 for a cos2 packet.

    x_0 is the smallest positive zero of rho(x, 0), found by a scan of
    [0, 2.5 a] and brentq on Packet.fields, on the rule of that reach.
    x_th solves int_{x_th}^{L} rho dx = 0 (only virtual pairs beyond the
    threshold; L = decay_window()); brentq runs on that tail integral
    taken exactly on the t = 0 FFT row (_RowIntegral).  Both to 1e-8 or
    better.

    Raises ArithmeticError when the packet's configured k rule departs
    from the FFT row by more than ENGINE_GAP_TOL within the decay window:
    it then aliases rho where the row integrals reach.
    """
    # imported here: scipy.optimize is most of the import time of
    # relbohm.cli, and only explode needs it
    from scipy.optimize import brentq

    if packet.spec.shape != "cos2":
        raise ValueError("zero crossings are defined for the cos2 packet")
    a = packet.spec.a
    view = packet.at_reach(2.5 * a)

    def rho0(x):
        return view.rho(np.asarray(x, dtype=float), 0.0)

    # Smallest positive root of rho by scan + brentq.
    xs = np.linspace(1e-3 * a, 2.5 * a, 400)
    r = rho0(xs)
    sign_change = np.nonzero(np.diff(np.sign(r)) != 0)[0]
    if sign_change.size == 0:
        raise ValueError("rho(x, 0) has no sign change; wrong packet "
                         "configuration")
    i = sign_change[0]
    x0 = brentq(lambda x: float(rho0(x)), xs[i], xs[i + 1], xtol=1e-8)

    row = packet.t0_row
    L = packet.decay_window()
    # Packet.fields and the row sample the same truncated field; a k
    # quadrature that aliases within the decay window parts them
    _check_rule(packet, row, L)
    integral = _RowIntegral(row.rho, row.dx)

    def tail(x):
        return integral(x, L)

    lo, hi = 0.1 * a, x0
    if tail(lo) * tail(hi) > 0:
        raise ArithmeticError("tail integral does not bracket a root in "
                              f"[{lo}, {hi}]")
    x_th = brentq(tail, lo, hi, xtol=1e-12)
    return float(x_th), float(x0)


def threshold_charges(packet: Packet, x_th: float):
    """Charges at t = 0 that test the threshold reading x_th.

    Returns (int_0^{x_th} rho, int_{x_th}^{L} rho, int_0^{a} rho_nw) with
    L = decay_window(), each taken exactly on the t = 0 FFT row.  At the
    threshold of zero_crossings the first is half the total charge and
    the second vanishes; the third is half the total by symmetry.
    """
    row = packet.t0_row
    rho = _RowIntegral(row.rho, row.dx)
    rho_nw = _RowIntegral(row.rho_nw, row.dx)
    return (rho(0.0, x_th), rho(x_th, packet.decay_window()),
            rho_nw(0.0, packet.spec.a))


class FrontKernel:
    """The integral of motion F, twice the charge left of x.

    The paper's F (a double k-integral with the kernel
    sin[(k'-k)x - (w'-w)t]/(k'-k)) has gradient (2 rho, -2 J), and so has
    2 int_{-L}^{x} rho dx' for L = decay_window() + |t|, as J vanishes at
    -L.  The two differ by a constant, which the levels of contour_family
    (fractions of F's range) do not see.  The integral is exact on each
    FFT row; past +-L, where the row's periodic images begin, F is held
    at 0 and at twice the charge in [-L, L].  k holds the t = 0 row's
    modes inside [-k_cut, k_cut].
    """

    def __init__(self, packet: Packet):
        self.packet = packet
        self.dx, n = fft_row_size(packet, 0.0)
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
        self.k = k[np.abs(k) <= packet.k_cut]

    def evaluate(self, x, t) -> np.ndarray:
        """F on the tensor grid x * t, shape (x.size, t.size).  Times are
        grouped by row size, each group with one e^{ikx} table."""
        x, t = np.ravel(x), np.ravel(t)
        # rho is band-limited to 2 k_cut, below the rows' Nyquist limit
        band = 2.0 * self.packet.k_cut
        F = np.empty((x.size, t.size))
        sizes = np.array([fft_row_size(self.packet, s)[1] for s in t])
        for n in np.unique(sizes):
            cols = np.nonzero(sizes == n)[0]
            # rows in parts of at most 2^19 points, to bound memory
            parts = np.array_split(cols, -(-cols.size * n // 2 ** 19))
            rows = (_fft_row(self.packet, t[p]) for p in parts)
            integral = _RowIntegral(np.concatenate([r.rho for r in rows]),
                                    self.dx)
            L = self.packet.decay_window() + np.abs(t[cols])
            lo, hi = (np.diagonal(integral.antiderivative(e, band))
                      for e in (-L, L))
            G = np.where(x[:, None] > L, hi,
                         integral.antiderivative(x, band))
            F[:, cols] = 2.0 * (np.where(x[:, None] < -L, lo, G) - lo)
        return F


def annihilation_fronts(packet: Packet, grid: Grid2D, n_levels: int):
    """Iso-contours of FrontKernel's F, annotated.

    Returns (F, TrajectorySet) with F of shape (n_x, n_t); contours
    meeting the rho = 0 locus carry the particle/anti-particle cusp
    structure.  F is twice the charge left of x: the paper's double-sum
    integral up to a constant (see FrontKernel).  rho and J on the
    contours run on the rule of the grid window's reach.
    """
    F = FrontKernel(packet).evaluate(grid.x, grid.t)
    view = packet.at_reach(max(abs(grid.x_min), abs(grid.x_max))
                           + max(abs(grid.t_min), abs(grid.t_max)))
    scale = float(np.max(np.abs(view.rho(
        np.linspace(grid.x_min, grid.x_max, 64), 0.0))))
    return F, contour_family(F, grid, n_levels, view.rho_j,
                             EPS_RHO_SCALE * scale)


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
