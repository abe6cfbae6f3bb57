"""Continuous positive-energy packets in 1+1 dimensions.

The configuration-space field is psi(x, t) = N int dk s(k) omega^{-1/2}
exp(i(kx - omega t)) for a real k-space shape s(k); the localized-position
amplitude drops the omega^{-1/2} factor.  A Packet is its spectrum s(k),
its k_cut, a width and whether its localized amplitude has compact
support at t = 0; Packet.cos2 and Packet.gaussian build the two packets
the configs name.

Two engines evaluate the same truncated spectrum.  Field values at given
points are k-integrals on a composite Gauss-Legendre rule over
[-k_cut, k_cut] (Packet.fields); evaluations are plain weighted sums and
therefore deterministic.  Every k rule is the rule of a reach, and
Packet.fields picks the one its points need, that of max |x| + max |t|
(Packet.rule_at), from the packet's cache: each rule, the packet's own
included, is built and held against the t = 0 FFT row (_check_rule) once
per packet.  The packet's own rule, which fixes its normalization, is
that of its decay window.  No rule is configured and no caller sizes
one.  The x-integrals over a whole fixed-t row (the acausal probability,
the |rho| mass, the threshold tail and charges, FrontKernel's F and
nearnr's W) sample it by FFT on a periodic box (fft_row_size), the
least even 2^a 3^b 5^c length that holds [-L, L] for L = decay_window()
+ |t|, at the fewest points that hold a density's band 2 k_cut below the
row's Nyquist limit, and integrate on the row's trigonometric interpolant
(_RowIntegral); _fft_row makes every such row, in place.  explode's t =
0 roots x_0 and x_th are roots of that interpolant on the t = 0 row
(zero_crossings), found to rounding by Newton steps; the row's k_cut
bounds them, as doubling it moves x_0 by 1.8-4.1e-6 (a = 0.5, 1 and 2).

Neither engine takes one complex exponential per (point, k-node).  Node
p J + j of a Gauss-Legendre rule is its panel's centre plus an offset,
mid_p + off_j, and e^{ikx} the product of e^{i x mid_p} and e^{i x
off_j} (_waves).  A rule's fields (_Rule.fields) group the points by
distinct t.  A t that several points share takes C(t) = coefs e^{-i
omega t} once and sums psi = sum_j e^{i x off_j} sum_p e^{i x mid_p}
C_pj(t): per group and order, one matrix product and a short sum, with
no array of points x k-nodes and a working set that does not grow with
the number of orders.  The points whose t no other point shares are
summed together, one (points x k-nodes) product a chunk.  omega is even
and every rule mirror-exact (_gl_panels), so e^{-i omega t} is taken
once per |k|, in the FFT rows too.  Both paths agree with one exponential per
(point, node) to 4e-15 of max |psi| for |x| <= 3 and 5.3e-14 for |x| <=
25.  The antiderivative of an FFT row splits its modes m = q B + r alike
and sums the series of a stack of rows on one such table, as one real
product (_fourier_re); FrontKernel makes its rows in blocks of bounded
size and keeps only their series.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modes import contour_family
from .numerics import (EPS_RHO_SCALE, Grid2D, SizeError, bilinear_j,
                       bilinear_rho, gauss_legendre, lambert_w,
                       lambert_w_domain, omega)

__all__ = [
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

#: the default cos2 k_cut is where |s(k)| drops below this fraction of its
#: peak (the cos2 envelope falls only as k^-3)
ENVELOPE_TOL = 1e-6
#: the default gaussian k_cut is where its envelope falls to this fraction
#: of its peak, 8.6 sigma_k past |k0|.  Over sigma_k = 0.0104-0.1 and k0 =
#: 0-0.1, a cut at 1e-6 (5.3 sigma_k) parts the own rule from the t = 0
#: FFT row by up to 6.5e-5 of max |rho|, as the row's _k_weights only
#: approximate the cut, and the row's charge from total_charge by 2.7e-7;
#: at 1e-16 by <= 2.7e-13 and 4.4e-16, for 1.2-1.7 times the k-nodes
GAUSS_ENVELOPE_TOL = 1e-16
#: Gauss-Legendre order of the x-space panel quadratures
PANEL_ORDER = 12
#: most points of an FFT row (a fixed-t x-integral) and most nodes of a
#: k rule: fft_row_size grows with |t| and Packet.rule_nodes with the
#: reach, and a row or rule of this size holds 64 MB per complex array.
#: Past it both raise SizeError, before any array is made.
FFT_MAX_POINTS = 2 ** 22
#: largest gap between a k rule and the t = 0 FFT row, relative to
#: max |rho|, before the engine check (_check_rule) fails (well-resolved
#: rules stay below 1e-7; an aliasing one reaches 1e-2 and more)
ENGINE_GAP_TOL = 1e-6
#: most steps of a Newton solve (_newton) before it raises ArithmeticError
NEWTON_STEPS = 20


def _gl_panels(k_lo, k_hi, n_panels, order):
    """Composite Gauss-Legendre nodes/weights on n_panels equal panels of
    [k_lo, k_hi], and their split (mid, off): node p * order + j is
    mid[p] + off[j], the panel's centre plus the node's offset in it.

    The edges are c + r (2 i - n_panels) / n_panels, for the interval's
    centre c and half-width r, and leggauss's nodes are antisymmetric:
    on [-k, k] (c = 0) node -k is then bitwise the negation of node k.
    """
    c, r = 0.5 * (k_lo + k_hi), 0.5 * (k_hi - k_lo)
    edges = c + r * ((2 * np.arange(n_panels + 1) - n_panels) / n_panels)
    xg, wg = gauss_legendre(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights, (mid, 0.5 * (k_hi - k_lo) / n_panels * xg)


def _waves(x, split, out=None) -> np.ndarray:
    """e^{i x (a_p + b_j)} at the points of a 1-d x on the flat (p, j)
    nodes, split = (a, b), shape (x.size, a.size * b.size); written into
    out, a complex array of shape (x.size, a.size, b.size), when given.

    Each point takes a.size + b.size complex exponentials and one product
    per node, instead of an exponential per node.  The product carries
    the rounding of both phases, as e^{i x k} carries that of x k.
    """
    a, b = split
    ea = np.exp(np.multiply.outer(x, 1j * a))
    eb = np.exp(np.multiply.outer(x, 1j * b))
    return np.multiply(ea[:, :, None], eb[:, None, :],
                       out=out).reshape(x.size, -1)


class _Densities:
    """rho, rho_nw and J from the fields(x, t, orders, nw) of a class."""

    def rho(self, x, t) -> np.ndarray:
        psi, psid = self.fields(x, t, [(0, 0), (0, 1)])
        return bilinear_rho(psi, psid)

    def rho_nw(self, x, t) -> np.ndarray:
        """Localized-position density |psi_nw|^2 (no omega^{-1/2} weight)."""
        return np.abs(self.fields(x, t, [(0, 0)], nw=True)[0]) ** 2

    def rho_j(self, x, t):
        psi, psix, psid = self.fields(x, t, [(0, 0), (1, 0), (0, 1)])
        return bilinear_rho(psi, psid), bilinear_j(psi, psix)


class _Rule(_Densities):
    """psi on one k rule: nodes k, omega, their panel split (mid, off)
    and ws, the quadrature weights times the packet's coefficients
    N s(k); no reference to a packet.  The rule must be mirror-exact
    (_gl_panels on [-k_cut, k_cut]): fields takes e^{-i omega t} once
    per |k|."""

    #: entries of a fields chunk's largest arrays: points x k-nodes at
    #: unshared t (their e^{ikx}, which takes e^{-i omega t} in place),
    #: and twice that for points x (panels + 2 J) at a shared t, for J
    #: nodes a panel (its e^{i x mid}, e^{i x off} and one order's inner
    #: sums), whatever the number of orders.  63 unshared points a chunk
    #: on the 1 968-node rule of the explode-cos2 benchmark grid: 2 693
    #: points there, each of its own t, peak at 3.6 MB under tracemalloc
    #: (the waves and the upper half's e^{-i omega t}, taken in place on
    #: its phases), against 10.8 MB with 250 000 and a separate e^{-i
    #: omega t}.
    #: Shared-t chunks of 125 000 entries gave nearnr-spin ~3 000 minor
    #: faults a batch and 15 % more time (glibc's heap trimmed and
    #: refaulted); at 250 000 it takes none.  Its 2 001-point pushforward
    #: is one chunk, 2.0 MB under tracemalloc at 3 orders and 2.2 MB at 7
    #: (3.5 and 5.6 MB with the inner sums of all orders in one product)
    _CHUNK_BUDGET = 125_000

    def __init__(self, k: np.ndarray, weights: np.ndarray, split,
                 coef: np.ndarray):
        self.k = k
        self.split = split
        self.omega = omega(k)
        if not np.array_equal(self.omega, self.omega[::-1]):
            raise ValueError("the k rule is not mirror-exact")
        self.ws = weights * coef

    def _coef(self, dx: int, dt: int, nw: bool) -> np.ndarray:
        coef = self.ws if nw else self.ws * self.omega ** -0.5
        if dx:
            coef = coef * (1j * self.k) ** dx
        if dt:
            coef = coef * (-1j * self.omega) ** dt
        return coef

    def _wave_t(self, t, out=None) -> np.ndarray:
        """e^{-i omega t} on the k-nodes, shape t.shape + (k.size,): one
        row per t of an array; with out, of that shape, out times it, in
        place.  omega is even and the rule mirror-exact, so the nodes of
        one |k| share a value, taken once on the upper half and mirrored
        onto the lower."""
        n = self.k.size
        half = n // 2
        upper = np.multiply.outer(t, -1j * self.omega[half:])
        np.exp(upper, out=upper)
        lower = upper[..., n - 2 * half:][..., ::-1]
        if out is None:
            out = np.empty(np.shape(t) + (n,), dtype=complex)
            out[..., half:], out[..., :half] = upper, lower
        else:
            out[..., half:] *= upper
            out[..., :half] *= lower
        return out

    def fields(self, x, t, orders, nw=False) -> list[np.ndarray]:
        """Packet.fields on this rule, whatever the points' reach.

        Points are grouped by distinct t.  A t shared by several points
        takes C(t) = coefs e^{-i omega t} once (_wave_t: one exponential
        per |k|).  Node p J + j of the rule is mid_p + off_j (the panel
        split of _gl_panels), so psi = sum_j e^{i x off_j} sum_p e^{i x
        mid_p} C_{pj}(t): one order at a time, a matrix product of the
        points' e^{i x mid} with that order's C(t) as P x J gives its
        inner sums, and a sum over j against e^{i x off} finishes them.
        An order's values therefore do not depend on the other orders of
        the call.  The points whose t no other point shares (contour
        vertices on grid columns) are summed together instead, a chunk at
        a time: their e^{ikx} (_waves) times their e^{-i omega t} in place
        (_wave_t, K/2 exponentials a point), then one product with the
        coefs.  Both paths take chunks sized by _CHUNK_BUDGET.
        """
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(t, dtype=float))
        shape = x.shape
        by_t = np.argsort(t, axis=None, kind="stable")
        xf, tf = x.ravel()[by_t], t.ravel()[by_t]
        times, starts, counts = np.unique(tf, return_index=True,
                                          return_counts=True)
        coefs = np.stack([self._coef(dx, dt, bool(flag)) for (dx, dt), flag
                          in zip(orders, np.broadcast_to(nw, len(orders)))],
                         axis=1)
        out = np.empty((len(orders), xf.size), dtype=complex)
        alone = starts[counts == 1]
        chunk = max(1, self._CHUNK_BUDGET // self.k.size)
        for i in range(0, alone.size, chunk):
            # unnamed, a chunk's waves are freed before the next is made
            j = alone[i:i + chunk]
            out[:, by_t[j]] = (self._wave_t(tf[j], _waves(xf[j], self.split))
                               @ coefs).T
        mid, off = self.split
        chunk = max(1, 2 * self._CHUNK_BUDGET // (mid.size + 2 * off.size))
        shared = counts > 1
        for s, lo, hi in zip(times[shared], starts[shared],
                             (starts + counts)[shared]):
            # one contiguous (P, J) block of C(t) per order
            C = np.multiply(coefs.T, self._wave_t(s), order="C").reshape(
                len(orders), mid.size, -1)
            for i in range(lo, hi, chunk):
                sl = slice(i, min(i + chunk, hi))
                idx = by_t[sl]
                e_mid = np.exp(np.multiply.outer(xf[sl], 1j * mid))
                e_off = np.exp(np.multiply.outer(xf[sl], 1j * off))
                for o, c in enumerate(C):
                    out[o, idx] = np.einsum("nj,nj->n", e_off, e_mid @ c)
        return [o.reshape(shape) for o in out]


class Packet(_Densities):
    """A real spectrum s(k), cut at k_cut, with its normalization and its
    k rules.

    width is the support edge of the localized amplitude at t = 0 where
    compact is true, and its effective width otherwise.  total_charge is
    int rho dx (= int rho_nw dx); at 2 a symmetric packet's half-line
    localized charge is 1, as the threshold integrals take it.  rho, J and
    F are bilinear, so a constant phase of s would drop out of them.
    window is the decay window (decay_window), width + 30 unless given.
    fields, rho, rho_nw and rho_j run on the k rule of their points'
    reach (rule_at).  The packet's own rule is that of its decay window:
    it fixes the normalization and k holds its nodes.  Like every rule,
    it is checked by rule_at on its first use.
    """

    #: Gauss-Legendre order of every k rule
    REACH_ORDER = 24
    #: least reach a rule is sized for; below it the branch points of
    #: omega at k = +-i, not the phase, bound the panels next to k = 0
    REACH_FLOOR = 4.0

    def __init__(self, spectrum, k_cut: float, width: float, compact: bool,
                 total_charge: float = 2.0, window: float | None = None):
        if total_charge <= 0:
            raise ValueError("total_charge must be positive")
        self.spectrum, self.compact = spectrum, bool(compact)
        self.k_cut, self.width = float(k_cut), float(width)
        self.window = self.width + 30.0 if window is None else float(window)
        self.total_charge = float(total_charge)
        k, w, split = self._gl_rule(self.rule_nodes(self.decay_window()))
        s = spectrum(k)
        # int rho_nw dx = 2 pi N^2 int s^2 dk  ==  total_charge.
        s2 = float(np.sum(w * s * s))
        self.norm = np.sqrt(self.total_charge / (2.0 * np.pi * s2))
        self.k = k
        #: the own rule, on these nodes; rule_at checks it on first use
        self._own = _Rule(k, w, split, self.norm * s)
        #: node count -> checked rule (rule_at)
        self._rules = {}

    @classmethod
    def cos2(cls, a: float, k_cut: float | None = None,
             total_charge: float = 2.0) -> Packet:
        """The Fourier transform of a Cos^2 pulse supported on |x| < a,
        s(k) = sin(ka) / (k (1 - k^2 a^2 / pi^2)), with the removable
        singularities at k = 0 and k = +-pi/a filled in by their limits."""
        if a <= 0:
            raise ValueError("cos2 packet needs a > 0")

        def spectrum(k):
            u = np.asarray(k, dtype=float) * a
            near0 = np.abs(u) < 1e-7
            nearpi = np.abs(np.abs(u) - np.pi) < 1e-9
            safe_u = np.where(near0 | nearpi, 1.0, u)
            s = np.sin(safe_u) / (safe_u * (1.0 - safe_u ** 2 / np.pi ** 2))
            s = np.where(near0, 1.0, s)
            s = np.where(nearpi, 0.5, s)
            return a * s

        if k_cut is None:
            # |s(k)| <= pi^2 / (a^2 |k|^3) for |k| a > pi; peak is a.
            k_cut = max((np.pi ** 2 / (a ** 3 * ENVELOPE_TOL)) ** (1 / 3.0),
                        4.0 * np.pi / a)
        return cls(spectrum, k_cut, a, True, total_charge)

    @classmethod
    def gaussian(cls, k0: float, sigma_k: float, k_cut: float | None = None,
                 total_charge: float = 2.0) -> Packet:
        """s(k) = exp(-(k - k0)^2 / (2 sigma_k^2)), not compact, of
        effective width 5 / sigma_k."""
        if sigma_k <= 0:
            raise ValueError("gaussian packet needs sigma_k > 0")

        def spectrum(k):
            return np.exp(-0.5 * ((np.asarray(k, dtype=float) - k0)
                                  / sigma_k) ** 2)

        if k_cut is None:
            k_cut = abs(k0) + sigma_k * np.sqrt(
                -2.0 * np.log(GAUSS_ENVELOPE_TOL))
        # rho's envelope e^{-sigma_k^2 x^2} falls to GAUSS_ENVELOPE_TOL of
        # its peak at x = 6.07 / sigma_k, past 5 / sigma_k + 30 for sigma_k
        # < 0.036
        window = max(5.0 / sigma_k + 30.0,
                     np.sqrt(-np.log(GAUSS_ENVELOPE_TOL)) / sigma_k)
        return cls(spectrum, k_cut, 5.0 / sigma_k, False, total_charge,
                   window)

    def _reach(self, reach: float) -> float:
        """The reach a rule is sized for: at least twice the width and
        REACH_FLOOR."""
        return max(float(reach), 2.0 * self.width, self.REACH_FLOOR)

    def rule_nodes(self, reach: float) -> int:
        """k-nodes of the rule that points with |x| + |t| <= reach need.

        The rule has REACH_ORDER Gauss-Legendre nodes on each of an even
        number of equal panels of [-k_cut, k_cut], so that k = 0 sits on a
        panel edge, away from the nodes next to omega's branch points.
        The panel width h is at most REACH_ORDER / R, R = _reach(reach):
        with a compact spectrum's phases e^{+-ik width} (cos2: width = a),
        the phase turns by at most h (R + width) / 2 <= 18 radians across
        a panel, below the ~24 (h R / 2 ~ REACH_ORDER) at which such a rule
        starts to lose digits.  For a gaussian, R >= 2 width = 10 / sigma_k
        bounds h by 2.4 sigma_k.  About 2 k_cut R nodes; SizeError past
        FFT_MAX_POINTS of them, a count past the float range or a NaN
        reach included.
        """
        R = self._reach(reach)
        h = self.REACH_ORDER / R    # 0 for an infinite reach
        n = 2 * np.ceil(self.k_cut / h) * self.REACH_ORDER if h > 0 else np.inf
        if not n <= FFT_MAX_POINTS:
            raise SizeError(f"the k rule of reach {R:g} needs {n:.0f} nodes, "
                            f"over the limit of 2^22 = {FFT_MAX_POINTS}")
        return int(n)

    def _gl_rule(self, n: int):
        """The (nodes, weights, split) of the n-node rule (rule_nodes)."""
        return _gl_panels(-self.k_cut, self.k_cut, n // self.REACH_ORDER,
                          self.REACH_ORDER)

    def rule_at(self, x, t) -> _Rule:
        """The k rule that the points (x, t) need, that of their reach
        max |x| + max |t| (rule_nodes): SizeError past FFT_MAX_POINTS
        nodes.  Built on first use and kept, a rule is then held against
        the t = 0 FFT row within that reach, or within the decay window
        when the reach passes it, where the row ends and the t = 0 field
        is negligible: ArithmeticError past ENGINE_GAP_TOL (_check_rule).
        This is the one place a packet makes a rule; its own rule (that of
        the decay window) is made with the packet, on the nodes of k, and
        checked here.
        """
        R = self._reach(np.max(np.abs(x), initial=0.0)
                        + np.max(np.abs(t), initial=0.0))
        n = self.rule_nodes(R)
        if n not in self._rules:
            if n == self.k.size:
                rule = self._own
            else:
                k, w, split = self._gl_rule(n)
                rule = _Rule(k, w, split, self.norm * self.spectrum(k))
            _check_rule(rule, self.t0_row, min(R, self.decay_window()))
            self._rules[n] = rule
        return self._rules[n]

    @cached_property
    def t0_row(self) -> _RowIntegral:
        """rho on the t = 0 FFT row (fft_row_size), made once."""
        return _fft_row(self, 0.0)

    def fields(self, x, t, orders, nw=False) -> list[np.ndarray]:
        """Evaluate several derivative orders of psi in one pass.

        orders is a sequence of (dx, dt) pairs, of psi_nw where nw is true
        and of psi otherwise; nw is a flag or one flag per order.  x and t
        broadcast against each other.  The sums run on the k rule that
        the points need (rule_at; _Rule.fields).
        """
        return self.rule_at(x, t).fields(x, t, orders, nw)

    def decay_window(self) -> float:
        """Half-width beyond which the t = 0 field is negligible: the
        window given to the packet, by default width + 30 for exponential
        Compton-scale tails past the width (cos2: a + 30; a gaussian's is
        the larger of that and where rho falls to GAUSS_ENVELOPE_TOL of
        its peak, Packet.gaussian)."""
        return self.window


def _panel_integral(fn, a, b, n_panels: int = 64) -> float:
    """Fixed composite GL integral of a vectorized real function.

    Nothing in the library integrates this way any more; the tests keep
    it as a direct-sum oracle for the FFT-row integrals below.
    """
    nodes, weights, _ = _gl_panels(a, b, n_panels, PANEL_ORDER)
    return float(np.sum(weights * fn(nodes)))


# -- fixed-t rows by FFT ----------------------------------------------------


@functools.lru_cache(maxsize=64)
def _smooth_size(bound: float) -> int:
    """The least even 2^a 3^b 5^c above bound: a size numpy's FFT takes
    fast (scipy.fft.next_fast_len gives the same on even sizes, but
    importing scipy.fft would add ~0.35 s to every run).  SizeError from
    2^62 points on, which no row could hold, and for a NaN bound."""
    if not bound < 2.0 ** 62:
        raise SizeError(f"an FFT row of over {bound:.3g} points")
    best = 2
    while best <= bound:
        best *= 2
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            n = 2 * f35
            while n <= bound:
                n *= 2
            best = min(best, n)
            f35 *= 3
        f5 *= 5
    return best


def fft_row_size(packet: Packet, t: float,
                 refine: int = 1) -> tuple[float, int]:
    """(dx, n) of the periodic FFT row at time t (an array: its largest |t|).

    The box n dx is refine times the least even 2^a 3^b 5^c >= 2 L, L =
    decay_window() + |t|, so periodic images of the field stay outside
    [-L, L]; it fixes the modes k = m dk, dk = 2 pi / (n dx).  The row's
    own k_cut is refine k_cut, and n is the least even 2^a 3^b 5^c above
    2 refine k_cut n dx / pi: a product of two fields (band 2 refine
    k_cut) is then sampled below its Nyquist limit pi / dx.  For the
    default cos2 packet (k_cut = 214.5, L = 31 + |t|) that is 8 748
    points on a box of 64 up to t = 1 and 10 000 on 72 up to t = 5;
    refine = 2 takes 34 992 points on 128 up to t = 1 and 39 366 on 144
    up to t = 5.  SizeError for a row past FFT_MAX_POINTS points, or a
    box past 2^62.
    """
    t_max = float(np.abs(t).max())
    # the least even 5-smooth count >= 2 L is the least above ceil(2 L) -
    # 1; a box past 2^62 (or of a NaN t) is an infinite row, which
    # _smooth_size refuses
    bound = np.ceil(2.0 * (packet.decay_window() + t_max)) - 1.0
    box = refine * (_smooth_size(bound) if bound < 2.0 ** 62 else np.inf)
    n = _smooth_size(2.0 * refine * packet.k_cut * box / np.pi)
    if n > FFT_MAX_POINTS:
        raise SizeError(f"FFT row at |t| = {t_max:g} needs {n} points, "
                        f"over the limit of 2^22 = {FFT_MAX_POINTS}")
    return box / n, n


def _k_weights(m: np.ndarray, dk: float, k_cut: float) -> np.ndarray:
    """Weights of the modes k = m dk for int_{-k_cut}^{k_cut} dk.

    dk inside, zero beyond k_cut.  At each end, the three last modes also
    carry the trapezoid rule's Euler-Maclaurin term and the partial cell
    up to k_cut, both through f'' by backward differences.  A plain
    Riemann sum would part from the Gauss-Legendre k quadrature of
    Packet.fields by O(dk s(k_cut)), 1e-6 of rho for k_cut = 40.  With
    these weights the t = 0 row of the a = 1 cos2 packet parts from a
    converged k rule, over the decay window, by 4e-10 of max |rho| at
    k_cut = 40 and 1.6e-8 at 20, but by 1.5e-4 at k_cut = 5: the
    differences for f'' cannot follow e^{ikx} at large |x|, and what
    they miss grows with the spectrum left at the cut.
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


def _fft_row(packet: Packet, t, refine: int = 1, nw: bool = False,
             work: np.ndarray | None = None,
             series: np.ndarray | None = None) -> _RowIntegral:
    """rho (from psi and psi_t), or rho_nw (from psi_nw) where nw is true,
    sampled at time t on x_j = j dx of a periodic box by one inverse FFT
    per field (the negative half of the line is the upper half of a row),
    as a _RowIntegral on the band 2 refine k_cut.

    The spectrum is the packet's own norm * s(k) on the FFT frequencies,
    zeroed beyond k_cut like the k quadrature of Packet.fields and
    weighted by _k_weights.  The row is fft_row_size(packet, t, refine):
    refine multiplies its box and its k_cut, and so n about refine^2
    times; SizeError past FFT_MAX_POINTS points, before any is made.  t
    may be an array of one row size.  The spectrum is formed on the modes
    inside k_cut alone, at the two ends of each row, and zero-filled
    between.  All is done in place in work, two complex arrays of shape
    t.shape + (n,), allocated unless given: the density is a view of the
    second and its rfft fills the head of the first; series, when given,
    receives the row's series.  FrontKernel passes the same arrays to
    each row.
    """
    dx, n = fft_row_size(packet, t, refine)
    dk = 2.0 * np.pi / (n * dx)
    k_cut = refine * packet.k_cut
    # the modes inside k_cut in FFT order: 0, ..., end, -end, ..., -1
    end = int(np.floor(k_cut / dk))
    m = np.concatenate([np.arange(end + 1), np.arange(-end, 0)])
    k = m * dk
    w = omega(k)
    weight = n * packet.norm * _k_weights(m, dk, k_cut) * packet.spectrum(k)
    root = np.sqrt(w)
    if work is None:
        work = np.empty((2,) + np.shape(t) + (n,), dtype=complex)
    c, psi = work
    # the modes 0, ..., end and -end, ..., -1 in a row and in FFT order
    ends = ((slice(0, end + 1), slice(0, end + 1)),
            (slice(n - end, n), slice(end + 1, None)))
    # psi(j dx) = sum_k weight N s(k) w^-1/2 e^{i(k j dx - w t)}.  Modes
    # +-m share e^{-i w t} (w is even): it is taken on 0, ..., end,
    # mirrored onto -end, ..., -1, and weighted in place
    lower = c[..., :end + 1]
    np.exp(np.multiply.outer(t, -1j * w[:end + 1], out=lower), out=lower)
    c[..., n - end:] = c[..., end:0:-1]
    for row, mode in ends:
        c[..., row] *= weight[mode]
    if not nw:
        # psi's spectrum c / sqrt(w) in psi, then psi_t's -i sqrt(w) c in c
        for row, mode in ends:
            np.divide(c[..., row], root[mode], out=psi[..., row])
            np.multiply(-1j * root[mode], c[..., row], out=c[..., row])
    for field in (c,) if nw else work:
        field[..., end + 1:n - end] = 0.0
        np.fft.ifft(field, out=field)
    if nw:
        f = np.abs(c, out=psi.real)
        f **= 2
    else:
        # rho = -Im(conj(psi) psi_t), as bilinear_rho forms it
        np.conjugate(psi, out=psi)
        psi *= c
        f = np.negative(psi.imag, out=psi.imag)
    return _RowIntegral(f, dx, 2.0 * k_cut,
                        np.fft.rfft(f, out=c[..., :n // 2 + 1]), series)


def _check_rule(rule: _Rule, row: _RowIntegral, reach: float) -> None:
    """Raise ArithmeticError when the k rule departs from the t = 0 rho
    row by more than ENGINE_GAP_TOL of max |rho| at <= 129 points of
    [0, reach]: the k rule is then too coarse for the reach, or the row's
    end correction at its k_cut, half its band, falls short (see
    _k_weights)."""
    n_in = int(reach / row.dx)
    j = np.arange(0, n_in + 1, max(1, -(-n_in // 128)))
    gap = float(np.max(np.abs(rule.rho(j * row.dx, 0.0) - row.f[j])))
    if gap > ENGINE_GAP_TOL * np.max(np.abs(row.f)):
        raise ArithmeticError(
            f"Packet.fields on {rule.k.size} k-nodes and the t = 0 FFT "
            f"row part by {gap:.2g} in rho within |x| <= {reach:g}: the k "
            "rule is too coarse, or the row's end correction at k_cut = "
            f"{0.5 * row.band:g} falls short")


#: most entries of _fourier_re's e^{i m dk x} table when no buffer is
#: given (8 MB), filled a chunk of x at a time; FrontKernel gives it the
#: work arrays of its block instead (~2^17 entries on the explode-cos2
#: benchmark grid).  With one BLAS thread F is bitwise that of one table
#: for all x.  acausal_probability's four points take 19 740 entries each
#: on the default cos2 packet's refine = 2 row past t = 1 (19 665 modes
#: on a box of 144); at 2^17 they would split 3 + 1 past t = 23 (32 774
#: modes on 240), which moves acausal_err by rounding (~1e-15 absolute),
#: and at 2^19 past t = 194
_TABLE_ENTRIES = 2 ** 19


def _fourier_re(x, dk, series, diagonal: bool = False,
                buffer: np.ndarray | None = None) -> np.ndarray:
    """Re sum_m c_m e^{i m dk x} at a 1-d array x for the coefficients c
    of series (one row, or a stack of rows along its first axis): one
    column per row, or with diagonal, row r at x[r] alone.

    The table of e^{i m dk x} is a product (_waves): with B = ceil(sqrt(
    M)) for M modes, mode m = q B + r takes e^{i x q B dk} e^{i x r dk},
    and the columns past M that fill the last q are dropped.  It is made
    a chunk of x at a time into one buffer, buffer when given (it must
    hold one point's q B entries) or one of _TABLE_ENTRIES: a chunk has
    as many points as the buffer holds, one at least and x.size at most.
    Each chunk is taken once for all rows, in one real product:
    Re(table c) = [Re table, -Im table] [Re c, Im c], with the real and
    imaginary parts interleaved.  That is the float view of the conjugate
    table, which _waves gives bitwise at -x, times that of c.
    """
    m = series.shape[-1]
    base = int(np.ceil(np.sqrt(m)))
    q = -(-m // base)
    entries = _TABLE_ENTRIES if buffer is None else buffer.size
    step = max(1, min(x.size, entries // (q * base)))
    buffer = (np.empty((step, q, base), dtype=complex) if buffer is None
              else buffer[:step * q * base].reshape(step, q, base))
    split = (dk * base * np.arange(q), dk * np.arange(base))
    coef = series.view(float)
    out = np.empty(x.shape if diagonal else x.shape + series.shape[:-1])
    for i in range(0, x.size, step):
        sl = slice(i, i + step)
        chunk = -x[sl]
        table = _waves(chunk, split, buffer[:chunk.size])[:, :m].view(float)
        out[sl] = (np.einsum("rm,rm->r", table, coef[sl]) if diagonal
                   else table @ coef.T)
    return out


def _band_modes(n: int, dx: float, band: float) -> tuple[np.ndarray, int]:
    """The wavenumbers of np.fft.rfft on an n-point row of step dx, and
    how many of them lie within band."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    return k, int(np.searchsorted(k, band, side="right"))


class _RowIntegral:
    """Integrals of a real periodic row on its trigonometric interpolant.

    f holds samples at x_j = j dx over one period (a stack of rows along
    its last axis, for antiderivative), band-limited to band as an FFT
    row's densities are (_fft_row); the integral keeps them and fh, their
    rfft (taken unless given).  Only the first m modes, k_m <= band,
    enter: above it f holds nothing but rounding.  series, the Fourier
    series of the antiderivative (written into series when given), holds
    them alone.  Below the Nyquist limit the interpolant is f itself and
    the integrals are exact up to rounding.
    """

    def __init__(self, f: np.ndarray, dx: float, band: float,
                 fh: np.ndarray | None = None,
                 series: np.ndarray | None = None):
        n = f.shape[-1]
        self.f, self.n, self.dx, self.band = f, n, dx, band
        self.fh = np.fft.rfft(f) if fh is None else fh
        self.dk = 2.0 * np.pi / (n * dx)
        self.k, self.m = _band_modes(n, dx, band)
        self.mean = self.fh[..., 0].real / n
        # the conjugate half doubles all but the zero and Nyquist terms
        weight = np.full(self.k.size, 2.0 / n)
        weight[0] = 0.0
        if n % 2 == 0:
            weight[-1] = 1.0 / n
        self.series = self._anti(series)
        self.series *= weight[:self.m]

    def _anti(self, out: np.ndarray | None = None) -> np.ndarray:
        """rfft of the antiderivative's periodic part up to the band, in
        out when given: fh / (i k), and 0 at k = 0."""
        if out is None:
            out = np.empty(self.fh.shape[:-1] + (self.m,), dtype=complex)
        out[..., 0] = 0.0
        np.divide(self.fh[..., 1:self.m], 1j * self.k[1:self.m],
                  out=out[..., 1:])
        return out

    def antiderivative(self, x, diagonal: bool = False) -> np.ndarray:
        """G(x) = mean x + Re sum_m f_m e^{ik_m x} / (i k_m), so G' = f, at
        a 1-d array x; one column per row of a stack, or with diagonal,
        G of row r at x[r] alone (_fourier_re on the modes up to the
        band)."""
        G = x * self.mean if diagonal else np.multiply.outer(x, self.mean)
        return G + _fourier_re(x, self.dk, self.series, diagonal)

    def derivatives(self, x, orders) -> np.ndarray:
        """The p-th derivative of G (antiderivative) at x for each p of
        orders, for one row: G, f = G', f', ... on the modes up to the
        band, in one real product (_fourier_re).  p = -1 gives the
        antiderivative of G's periodic part, without the term mean x^2 / 2
        (nearnr's W: there the mean is rounding, which x^2 / 2 would carry
        to 1.7e-10 of W at the box edge).  x is one point, giving one value
        per order, or a 1-d array, giving one row per order."""
        k, series = self.k[:self.m], self.series
        ik = 1j * k
        ik[0] = 1.0       # the zero mode's series term is 0
        stack = np.stack([ik ** p * series for p in orders])
        out = _fourier_re(np.reshape(x, -1), self.dk, stack).T
        # the mean's term mean x, and its slope
        for row, p in zip(out, orders):
            row += x * self.mean if p == 0 else self.mean if p == 1 else 0.0
        return out if np.ndim(x) else out[:, 0]

    def resampled(self):
        """(dx, spectrum, f, G) of one row resampled exactly, by
        zero-padding its spectrum up to the band, to n points of a step dx
        <= pi / (3 band): f = np.fft.irfft(spectrum, n) and its
        antiderivative G (antiderivative) at x_j = j dx, both by FFT."""
        period = self.n * self.dx
        n = _smooth_size(3.0 * self.band * period / np.pi)
        dx = period / n
        fh = self.fh[:self.m] * (n / self.n)
        G = (np.fft.irfft(self._anti() * (n / self.n), n)
             + self.mean * dx * np.arange(n))
        return dx, fh, np.fft.irfft(fh, n), G

    def abs_total(self) -> float:
        """int |f| over the period, for one row: +-int f between
        consecutive zeros.

        On the row resampled to a step <= pi / (3 band) (resampled) the
        antiderivative is carried from the sample before each zero to the
        zero by its Taylor series through f''.  The zero is the linear
        root in its cell; its error enters only at second order, because f
        vanishes there.  The error falls as the step's fourth power: ~4e-11
        of the mass for the default cos2 packet at this step, 6e-10 at
        twice it.
        """
        dx, fh, f, F = self.resampled()
        period, n, k = self.n * self.dx, f.size, self.k[:self.m]
        neg = f < 0
        j = np.nonzero(neg != np.roll(neg, -1))[0]
        if j.size == 0:
            return abs(self.mean) * period
        f1 = np.fft.irfft(1j * k * fh, n)
        f2 = np.fft.irfft(-k ** 2 * fh, n)
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
    +-int rho between the zeros of rho, each exact on the row, with the
    zeros found on the row resampled to a step <= pi / (6 k_cut)
    (_RowIntegral.abs_total); it agrees with the same integral on a
    16-fold finer row to ~4e-11 relative for the default cos2 packet.
    (A plain trapezoid sum on a row with dx = 2^-8 is off by O(dx^2) at
    each kink of |rho|: 1.5e-6 at t = 0.  The composite Gauss-Legendre
    sum used before, 128 panels across the kinks, was off by 3.7e-4 at
    t = 0 and 2.5e-5 at t = 0.5.)  The densities on x come from one
    Packet.fields pass.
    """
    x = np.asarray(x, dtype=float)
    factor = packet.total_charge / _fft_row(packet, t).abs_total()
    psi, psix, psit, psi_nw = packet.fields(
        x, t, [(0, 0), (1, 0), (0, 1), (0, 0)], nw=[0, 0, 0, 1])
    rho = bilinear_rho(psi, psit)
    return DensityProfile(
        x=x, rho=rho, rho_nw=np.abs(psi_nw) ** 2,
        rho_nw0=factor * np.abs(rho), j=bilinear_j(psi, psix))


def acausal_probability(packet: Packet, t: float, refine: int = 1) -> float:
    """Probability of a localized-position outcome outside the light cone.

    The light cone is measured from the outermost initial support edge,
    the packet's width; requires t >= 0 and an initially compact packet.
    P is the share of int rho_nw over |x| in [edge + t, L] (L =
    decay_window() + t) within [-L, L], both integrals taken exactly on
    the FFT row at t as G(b) - G(a) of its antiderivative
    (_RowIntegral.antiderivative, on the band 2 refine k_cut of rho_nw).
    refine = 2 doubles the row's box and k_cut (about four times the
    points, fft_row_size); the shift it causes is the error bar the
    explode command reports.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if not packet.compact:
        raise ValueError("acausal probability needs a compactly "
                         "supported packet")
    row = _fft_row(packet, t, refine, nw=True)
    edge = packet.width + t
    L = packet.decay_window() + t
    G = row.antiderivative(np.array([-L, -edge, edge, L]))
    return float((G[3] - G[2] + G[1] - G[0]) / (G[3] - G[0]))


def _newton(fn, lo: float, hi: float, x: float, xtol: float,
            what: str) -> float:
    """The root of fn in [lo, hi] by Newton steps from x, fn(x) giving
    (value, slope).  The signs of the values so far shrink the bracket,
    and a step that would leave it, or a zero slope, bisects it instead.
    The root is the first point reached by a step of at most xtol.
    ArithmeticError, naming what, when fn has one sign at both ends, and
    after NEWTON_STEPS steps: from a start within a cell of the root
    Newton takes 3-6, and bisection of a cell over 30, so a wrong slope
    fails."""
    f_lo, f_hi = fn(lo)[0], fn(hi)[0]
    if f_lo * f_hi > 0:
        raise ArithmeticError(f"{what} does not bracket a root in "
                              f"[{lo}, {hi}]")
    if f_lo == 0 or f_hi == 0:
        return lo if f_lo == 0 else hi
    for _ in range(NEWTON_STEPS):
        value, slope = fn(x)
        if value == 0:
            return x
        if (value > 0) == (f_lo > 0):
            lo = x
        else:
            hi = x
        new = x - value / slope if slope else np.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= xtol:
            return new
        x = new
    raise ArithmeticError(f"{what}: no root to {xtol:g} after {NEWTON_STEPS} "
                          f"Newton steps in [{lo}, {hi}]")


def zero_crossings(packet: Packet):
    """(x_th, x_0) at t = 0 for a compactly supported packet of support
    edge a (its width), both on the t = 0 FFT row (packet.t0_row) and its
    trigonometric interpolant.

    The row is resampled exactly to a step dx <= pi / (6 k_cut), with rho
    and its antiderivative G at each sample (_RowIntegral.resampled).  x_0
    is the smallest positive zero of rho(x, 0): the first sign change of
    the samples within (0, 2.5 a], polished by Newton steps on the
    interpolant from the linear root in its cell, with rho' from the same
    series (_RowIntegral.derivatives; _newton).  x_th solves
    int_{x_th}^{L} rho dx = G(L) - G(x_th) = 0 (only virtual pairs beyond
    the threshold; L = decay_window()) by the same Newton steps, slope
    -rho, inside [0.1 a, x_0], from the first sample where the tail is no
    longer positive (the tail falls on [0, x_0], where rho > 0).  Both are
    solved to rounding; what bounds them is the row's k_cut: doubling it
    moves x_0 by 1.8-4.1e-6 and x_th by 1.1e-8-2.7e-7 for a = 0.5, 1 and
    2.  x_0 parts from a root of a converged k rule by 9e-11 (a = 1) to
    1.3e-7 (a = 12, where k_cut is 17.9).

    Raises ArithmeticError when rho(x, 0) has no sign change on (0, 2.5 a]
    (a k_cut too small for a narrow packet), when a Newton solve does not
    converge, and when the packet's own k rule (that of its decay window)
    departs from the row by more than ENGINE_GAP_TOL within the decay
    window (rule_at's _check_rule): one of the two engines is then off
    where the row integrals reach.
    """
    if not packet.compact:
        raise ValueError("zero crossings are defined for a compactly "
                         "supported packet")
    a = packet.width
    row = packet.t0_row
    dx, _, rho, G = row.resampled()
    neg = rho[:int(2.5 * a / dx) + 1] < 0
    change = np.nonzero(neg[:-1] != neg[1:])[0]
    if change.size == 0:
        raise ArithmeticError("rho(x, 0) has no sign change on (0, 2.5 a] "
                              f"for a = {a:g}, k_cut = {packet.k_cut:g}")
    j = change[0]
    xtol = 1e-12 * a
    x0 = _newton(lambda x: row.derivatives(x, (1, 2)), j * dx, (j + 1) * dx,
                 dx * (j + rho[j] / (rho[j] - rho[j + 1])), xtol, "rho(x, 0)")

    L = packet.decay_window()
    # Packet.fields and the row sample the same truncated field; a k
    # quadrature that aliases within the decay window parts them, and
    # rule_at checks the packet's own rule on its first use
    packet.rule_at(L, 0.0)
    G_L = row.derivatives(L, (0,))[0]

    def tail(x):
        value, slope = row.derivatives(x, (0, 1))
        return G_L - value, -slope

    lo = 0.1 * a
    start = dx * np.searchsorted(G[:j + 1] - G_L, 0.0)
    x_th = _newton(tail, lo, x0, min(max(start, lo), x0), xtol,
                   "tail integral")
    return float(x_th), float(x0)


def threshold_charges(packet: Packet, x_th: float):
    """Charges at t = 0 that test the threshold reading x_th.

    Returns (int_0^{x_th} rho, int_{x_th}^{L} rho, int_0^{a} rho_nw) with
    a the packet's width and L = decay_window(), each taken exactly on
    the t = 0 FFT rows of rho and rho_nw as G(b) - G(a) of their
    antiderivatives (_RowIntegral.antiderivative).  At the threshold of
    zero_crossings the first is half the total charge and the second
    vanishes; the third is half the total by symmetry.
    """
    G = packet.t0_row.antiderivative(
        np.array([0.0, x_th, packet.decay_window()]))
    G_nw = _fft_row(packet, 0.0, nw=True).antiderivative(
        np.array([0.0, packet.width]))
    return (float(G[1] - G[0]), float(G[2] - G[1]), float(G_nw[1] - G_nw[0]))


class FrontKernel:
    """The integral of motion F, twice the charge left of x.

    The paper's F (a double k-integral with the kernel
    sin[(k'-k)x - (w'-w)t]/(k'-k)) has gradient (2 rho, -2 J), and so has
    2 int_{-L}^{x} rho dx' for L = decay_window() + |t|, as J vanishes at
    -L.  The two differ by a constant, which the levels of contour_family
    (fractions of F's range) do not see.  The integral is exact on each
    FFT row (fft_row_size: rho's band 2 k_cut lies below the row's
    Nyquist limit, and dx varies with the box); past +-L, where the
    row's periodic images begin, F is held at 0 and at twice the charge
    in [-L, L].  k holds the t = 0 row's modes inside [-k_cut, k_cut].

    evaluate keeps of each row only its Fourier series up to the band,
    and works in one complex array per call, reused for each row size
    (_plan): the series, then the work arrays of a block of rows
    (_fft_row), which x's e^{ikx} table takes over a chunk of x at a time
    once the rows are made.  Its tracemalloc peak is 7.3 MB on the
    explode-cos2 benchmark grid (121 x 81 points, rows of 8 748 and
    10 000 points) and 10.0 MB on cos2.json's 241 x 161 (15.2 and
    18.2 MB with a table of its own, 2^19 entries).  It is one array,
    not several, because separate arrays let glibc trim the heap between
    runs: ~3 000 page faults a run in a repeating process.
    """

    #: most row points made at once: 2^16, 1 MB per complex work array
    BLOCK_ROW_POINTS = 2 ** 16

    def __init__(self, packet: Packet):
        self.packet = packet
        dx, n = fft_row_size(packet, 0.0)
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        self.k = k[np.abs(k) <= packet.k_cut]

    def evaluate(self, x, t) -> np.ndarray:
        """F on the tensor grid x * t, shape (x.size, t.size).  Times are
        grouped by row size; rows of one size are made in blocks of at
        most BLOCK_ROW_POINTS row points (one row at least), and a block
        keeps only its series up to the band, its mean and G(-L), and
        G(+L) where some x passes it, each row at its own L alone.  Then
        one real product per row size gives G on x (_fourier_re)."""
        x, t = np.ravel(x), np.ravel(t)
        F = np.empty((x.size, t.size))
        sizes = np.array([fft_row_size(self.packet, s)[1] for s in t])
        plans = []
        for n in np.unique(sizes):
            cols = np.nonzero(sizes == n)[0]
            plans.append((cols, n) + self._plan(t[cols], n))
        space = np.empty(max((p[-1] for p in plans), default=0),
                         dtype=complex)
        for cols, n, m, block, _ in plans:
            F[:, cols] = self._rows(x, t[cols], n, m, block, space)
        return F

    def _plan(self, t, n: int) -> tuple[int, int, int]:
        """(m, block, entries) of F on the rows of the times t, all of n
        points: their modes up to the band, the rows of a block, and the
        complex entries _rows works in."""
        dx = fft_row_size(self.packet, t)[0]
        m = _band_modes(n, dx, 2.0 * self.packet.k_cut)[1]
        block = min(t.size, max(1, self.BLOCK_ROW_POINTS // n))
        return m, block, t.size * m + 2 * block * n

    def _rows(self, x, t, n: int, m: int, block: int,
              space) -> np.ndarray:
        """F at x on the rows of the times t, all of n points, with m modes
        and block rows a block (_plan), made in space: the series of the
        rows, and after them the work arrays of a block, then as many
        points of the e^{ikx} table as those hold (_fourier_re).  The
        m <= n / 2 + 1 modes take under 2 n entries a point."""
        L = self.packet.decay_window() + np.abs(t)
        x_max = np.max(x, initial=-np.inf)
        mean, lo = np.empty(t.size), np.empty(t.size)
        # G(+L) only where some x passes it: np.where picks no NaN
        hi = np.full(t.size, np.nan)
        series = space[:t.size * m].reshape(t.size, m)
        rest = space[t.size * m:]
        work = rest[:2 * block * n].reshape(2, block, n)
        for i in range(0, t.size, block):
            sl = slice(i, i + block)
            row = _fft_row(self.packet, t[sl], work=work[:, :t[sl].size],
                           series=series[sl])
            mean[sl] = row.mean
            lo[sl] = row.antiderivative(-L[sl], diagonal=True)
            if x_max > np.min(L[sl]):
                hi[sl] = row.antiderivative(L[sl], diagonal=True)
        # the table takes the place of the work arrays
        G = np.multiply.outer(x, mean) + _fourier_re(x, row.dk, series,
                                                     buffer=rest)
        G = np.where(x[:, None] > L, hi, G)
        return 2.0 * (np.where(x[:, None] < -L, lo, G) - lo)


def annihilation_fronts(packet: Packet, grid: Grid2D, n_levels: int):
    """Iso-contours of FrontKernel's F, annotated.

    Returns (F, TrajectorySet) with F of shape (n_x, n_t); contours
    meeting the rho = 0 locus carry the particle/anti-particle cusp
    structure.  F is twice the charge left of x: the paper's double-sum
    integral up to a constant (see FrontKernel).  rho and J on the
    contours come from one Packet.fields pass on their vertices.
    """
    F = FrontKernel(packet).evaluate(grid.x, grid.t)
    scale = float(np.max(np.abs(packet.rho(
        np.linspace(grid.x_min, grid.x_max, 64), 0.0))))
    return F, contour_family(F, grid, n_levels, packet.rho_j,
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
                               x_ref) -> LambertLocalFamily:
    """Solve dx/dt = J/rho for linearized rho and J near an annihilation.

    rho ~ rho_slope (x - rho_zero) and J ~ j_slope (x - j_zero); the
    solution through (t_ref, x_ref) is expressed with Lambert W on
    branches 0 and -1.  A degenerate common zero gives a straight line.
    x_ref may be an array that broadcasts against t_samples, one family
    member per reference point; the branches then take the broadcast
    shape, and every step is elementwise, so a member's values do not
    depend on the others.
    """
    if rho_slope == 0.0 or j_slope == 0.0:
        raise ValueError("both linear slopes must be nonzero")
    t = np.asarray(t_samples, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    d = j_zero - rho_zero
    if d == 0.0:
        x = x_ref + (j_slope / rho_slope) * (t - t_ref)
        return LambertLocalFamily(t=t, x_branch0=x, x_branch_minus1=x,
                                  degenerate=True)
    u_ref = x_ref - j_zero
    if np.any(u_ref == 0.0):
        raise ValueError("reference point sits exactly on the current zero")
    ratio = rho_slope / j_slope
    # t(x) = ratio (u + d ln|u|) + C with u = x - j_zero.
    const = t_ref - ratio * (u_ref + d * np.log(np.abs(u_ref)))
    tau = (t - const) / ratio
    y = np.sign(u_ref) * np.exp(tau / d) / d

    def solve(branch):
        out = np.full(y.shape, np.nan)
        real = lambert_w_domain(branch, y)
        out[real] = d * lambert_w(branch, y[real])
        return out + j_zero

    return LambertLocalFamily(t=t, x_branch0=solve(0),
                              x_branch_minus1=solve(-1))
