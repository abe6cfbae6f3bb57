"""Bridge between the charge density and the localized-position density.

The two densities differ by a total second derivative, rho - rho_nw =
d^2 W / dx^2 (Newton and Wigner, Rev. Mod. Phys. 21 (1949) 400 define
rho_nw); in the near-non-relativistic regime W collapses to a local
expression in psi and the difference becomes a time-derivative form that
feeds a position map x -> x + f(x, t).  Pushing the charge density
through that map reproduces the localized-position density to the next
expansion order.

Everything here is the 1-d specialization; the tensor indices of the
3-d form are diagonal under it.  Fields at points x come from
Packet.fields, which runs on the k rule those points need, as explode's
do.  W and the moments come from the FFT rows of rho and rho_nw at t
(packets._fft_row), as explode's row integrals do.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import EPS_RHO_SCALE, bilinear_rho
from .packets import Packet, _fft_row, _RowIntegral

__all__ = [
    "CorrectionField",
    "analyse",
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


def _difference_row(packet: Packet, t: float) -> _RowIntegral:
    """d = rho - rho_nw on the FFT rows at t (packets._fft_row), whose
    periodic box holds [-L, L] with L = decay_window() + |t|, on the band
    of rho's row."""
    rho, rho_nw = _fft_row(packet, t), _fft_row(packet, t, nw=True)
    return _RowIntegral(rho.f - rho_nw.f, rho.dx, rho.band)


def correction_field(packet: Packet, x, t: float) -> CorrectionField:
    """W, its second x-derivative, the densities and the position map at
    x.

    W = -sum_m d_m / k_m^2 e^{i k_m x} is the second antiderivative of d
    = rho - rho_nw on its FFT row at t (_difference_row;
    _RowIntegral.derivatives at order -1), with its constant fixed so
    that W = 0 at the box edge; d^2 W / dx^2 is d at x.  Past +-L, where
    the row's periodic images begin, both are held at 0, as FrontKernel
    holds F.  The densities and the map come from Packet.fields, so
    d^2 W / dx^2 - (rho - rho_nw) compares the two engines.
    """
    return _correction_field(packet, x, t, _difference_row(packet, t))


def _correction_field(packet: Packet, x, t: float,
                      row: _RowIntegral) -> CorrectionField:
    """correction_field on the difference row of packet at t."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= packet.decay_window() + abs(t)
    W, d2W = np.zeros((2,) + x.shape)
    w, d = row.derivatives(np.append(x[inside], 0.5 * row.n * row.dx),
                           (-1, 1))
    W[inside], d2W[inside] = w[:-1] - w[-1], d[:-1]
    x_mapped, f, rho, rho_nw = nw_position_map(packet, x, t)
    return CorrectionField(x=x, t=float(t), W=W, d2W_dx2=d2W, rho=rho,
                           rho_nw=rho_nw, f=f, x_mapped=x_mapped)


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
    return _moments(_difference_row(packet, t))


def _moments(d: _RowIntegral):
    """moments on the difference row d."""
    x = d.dx * np.fft.fftfreq(d.n, 1.0 / d.n)
    return float(d.dx * np.sum(d.f)), float(d.dx * np.sum(x * d.f))


def pushforward_l1(packet: Packet, t: float = 0.0):
    """L1 distances (unmapped, mapped) between rho and rho_nw.

    Pushes rho through x -> x + f via the change-of-variables Jacobian
    1 + df/dx and interpolates back to PUSHFORWARD_N samples over |x| <=
    0.8 width + |t| (4 / sigma_k + |t| for a gaussian), on the k rule of
    that window.  The mapped distance should beat the unmapped one by the
    next expansion order.
    """
    half_width = 0.8 * packet.width + abs(t)
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


def analyse(packet: Packet, x, t: float):
    """The nearnr analysis at x and t: (CorrectionField, summary dict).

    The summary holds eq22_max_residual (max |rho - rho_nw - d^2 W /
    dx^2| over x), w_approx_rel (the RMS gap of w_approx to W, relative
    to W's RMS), the two moments, timeform_rel_27b and
    timeform_rel_27a_vs_27b (the largest relative gaps of eq. 27b to lhs
    and of 27a to 27b, where |lhs| exceeds a tenth of its maximum), and
    narrow_k_regime: whether both relative gaps are within NARROW_K_REL,
    the regime where the expansion measurably holds (NaN is outside).
    For a packet that is not compact it also holds pushforward, the
    pushforward_l1 pair and its ratio, or None outside the regime, where
    the map need not be monotone, or where it is undefined on the window.
    Leaving the regime and a null pushforward each warn (RuntimeWarning).
    """
    # one difference row serves W and the moments
    row = _difference_row(packet, t)
    field = _correction_field(packet, x, t, row)
    eq22_res = float(np.max(np.abs(field.rho - field.rho_nw
                                   - field.d2W_dx2)))
    w_gap = field.W - w_approx(packet, field.x, t)
    m0, m1 = _moments(row)
    lhs_t, r27a, r27b = density_difference_timeform(packet, field.x, t)
    mask = np.abs(lhs_t) > 0.1 * np.max(np.abs(lhs_t))
    rel27b = float(np.max(np.abs((lhs_t - r27b)[mask] / lhs_t[mask])))
    rel27ab = float(np.max(np.abs((r27a - r27b)[mask] / lhs_t[mask])))
    w_rel = float(np.sqrt(np.mean(w_gap ** 2) / np.mean(field.W ** 2)))
    narrow = bool(np.max([w_rel, rel27b]) <= NARROW_K_REL)
    if not narrow:
        warnings.warn(f"w_approx_rel {w_rel:.3g} or timeform_rel_27b "
                      f"{rel27b:.3g} over {NARROW_K_REL:g}: outside "
                      "the narrow-k regime", RuntimeWarning)
    summary = {
        "eq22_max_residual": eq22_res,
        "w_approx_rel": w_rel,
        "moment0": m0, "moment1": m1,
        "timeform_rel_27b": rel27b,
        "timeform_rel_27a_vs_27b": rel27ab,
        "narrow_k_regime": narrow,
    }
    if not packet.compact:
        summary["pushforward"] = None
        if narrow:
            try:
                raw, mapped = pushforward_l1(packet, t)
            except ValueError as exc:
                warnings.warn(f"pushforward is null: {exc}", RuntimeWarning)
            else:
                summary["pushforward"] = {"l1_raw": raw, "l1_mapped": mapped,
                                          "improvement": raw / mapped}
    return field, summary
