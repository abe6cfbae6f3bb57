import json

import numpy as np
import pytest

from oracles import WKernel, d2w_dx2_5point
from relbohm.cli import _packet_from
from relbohm.nearnr import (analyse, correction_field,
                            density_difference_timeform, moments,
                            nw_position_map, pushforward_l1, w_approx)
from relbohm.packets import Packet, _fft_row


@pytest.fixture(scope="module")
def gauss():
    return Packet.gaussian(0.1, 0.05, total_charge=1.0)


#: the points the gaussian kernel is built for: x and t of the tests
#: below, which share one k rule
GAUSS_X, GAUSS_T = np.linspace(-15.0, 15.0, 31), 0.3


@pytest.fixture(scope="module")
def gauss_kernel(gauss):
    return WKernel(gauss, GAUSS_X, GAUSS_T)


@pytest.fixture(scope="module")
def cos2_coarse():
    # k_cut = 40 keeps the dense kernel matrix affordable (2 496 k-nodes
    # on the decay window's rule) while the identity below stays exact at
    # matched truncation
    return Packet.cos2(1.0, k_cut=40.0)


def test_kernel_node_guard():
    big = Packet.cos2(1.0)
    assert big.k.size > WKernel.MAX_NODES
    with pytest.raises(ValueError):
        WKernel(big, big.decay_window(), 0.0)


def test_anchor_identity_gaussian(gauss, gauss_kernel):
    # d^2 W / dx^2 == rho - rho_nw pointwise
    x, t = GAUSS_X, GAUSS_T
    # wide FD step: W varies on the packet width ~1/sigma_k, and a small
    # step runs into roundoff because the difference itself is tiny
    lhs = d2w_dx2_5point(lambda xs: gauss_kernel.evaluate(xs, t), x, h=1e-2)
    rhs = gauss.rho(x, t) - gauss.rho_nw(x, t)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-7 * scale


def test_anchor_identity_cos2(cos2_coarse):
    x = np.linspace(-2.0, 2.0, 21)
    kernel = WKernel(cos2_coarse, x, 0.0)
    lhs = d2w_dx2_5point(lambda xs: kernel.evaluate(xs, 0.0), x)
    rhs = cos2_coarse.rho(x, 0.0) - cos2_coarse.rho_nw(x, 0.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * np.max(np.abs(rhs))


def test_exact_d2w_dx2_closes_the_identity(gauss, gauss_kernel, cos2_coarse):
    # the weighted cosine sum of d^2 W / dx^2 meets rho - rho_nw to
    # rounding, where the stencil above gets 1e-7 to 1e-6
    xc = np.linspace(-2.0, 2.0, 21)
    for packet, kernel, x, t in (
            (gauss, gauss_kernel, GAUSS_X, GAUSS_T),
            (cos2_coarse, WKernel(cos2_coarse, xc, 0.0), xc, 0.0)):
        rho = packet.rho(x, t)
        gap = kernel.d2_dx2(x, t) - (rho - packet.rho_nw(x, t))
        assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(rho))


def test_w_parity(gauss, gauss_kernel):
    # for k0 != 0 W is not even, but for a symmetric packet it is
    sym = Packet.gaussian(0.0, 0.05, total_charge=1.0)
    x = np.linspace(0.5, 12.0, 9)
    kern = WKernel(sym, x, 0.0)
    assert np.allclose(kern.evaluate(x, 0.0), kern.evaluate(-x, 0.0),
                       atol=1e-14)


def test_w_approx_matches_exact(gauss, gauss_kernel):
    x = np.linspace(-12.0, 12.0, 49)
    t = 0.3
    exact = gauss_kernel.evaluate(x, np.full(x.shape, t))
    approx = w_approx(gauss, x, t)
    num = np.sqrt(np.mean((exact - approx) ** 2))
    den = np.sqrt(np.mean(exact ** 2))
    assert num / den < 0.05


def test_timeform_identity(gauss):
    x = np.linspace(-10.0, 10.0, 41)
    lhs, rhs27a, rhs27b = density_difference_timeform(gauss, x, 0.3)
    scale = np.max(np.abs(lhs))
    # the two exact time-derivative routes agree to rounding (continuity)
    # and with lhs only to the expansion order
    assert np.max(np.abs(rhs27a - rhs27b)) < 1e-9 * scale
    assert np.max(np.abs(lhs - rhs27b)) < 0.1 * scale


def test_exact_time_derivatives_match_central_differences(gauss):
    # oracle: central differences in t of the densities and of the exact
    # first-order derivatives; O(h^2), so halving h shrinks the gap ~4x
    x = np.linspace(-40.0, 40.0, 41)
    t = 0.3

    def central(fn, h):
        return (fn(t + h) - fn(t - h)) / (2.0 * h)

    def dj_dx(tt):
        psi, psixx = gauss.fields(x, tt, [(0, 0), (2, 0)])
        return (np.conj(psi) * psixx).imag

    def drho_dt(tt):
        psi, psitt = gauss.fields(x, tt, [(0, 0), (0, 2)])
        return -(np.conj(psi) * psitt).imag

    rho, _ = gauss.rho_j(x, t)
    lhs, rhs27a, rhs27b = density_difference_timeform(gauss, x, t)
    _, f, _, _ = nw_position_map(gauss, x, t)
    lhs_scale = np.max(np.abs(lhs))
    for exact, oracle, scale in [
            (rhs27a, lambda h: central(dj_dx, h) / 8.0, lhs_scale),
            (rhs27b, lambda h: -central(drho_dt, h) / 8.0, lhs_scale),
            (f, lambda h: central(lambda tt: gauss.rho_j(x, tt)[1], h)
             / (8.0 * rho), np.max(np.abs(f)))]:
        gap_h, gap_h2 = (np.max(np.abs(oracle(h) - exact))
                         for h in (2e-2, 1e-2))
        assert gap_h2 <= 1e-7 * scale
        assert 3.0 <= gap_h / gap_h2 <= 5.0


def test_moments_vanish(gauss):
    for t in (0.0, 0.3):
        m0, m1 = moments(gauss, t)
        assert abs(m0) < 1e-10
        assert abs(m1) < 1e-10


@pytest.mark.parametrize("k_cut", [100.0, 150.0, 200.0])
def test_moments_vanish_on_wide_cos2(k_cut):
    # wide packets whose rho - rho_nw fixed x panels over the decay
    # window resolve only to ~1e-3
    p = Packet.cos2(1.0, k_cut=k_cut)
    for t in (0.0, 0.3):
        m0, m1 = moments(p, t)
        assert abs(m0) <= 1e-12
        assert abs(m1) <= 1e-12


def test_position_map_odd_shift(gauss):
    # for a symmetric packet at t = 0 the shift field f is odd
    sym = Packet.gaussian(0.0, 0.05, total_charge=1.0)
    x = np.linspace(0.5, 10.0, 9)
    _, f_pos, _, _ = nw_position_map(sym, x, 0.0)
    _, f_neg, _, _ = nw_position_map(sym, -x, 0.0)
    assert np.allclose(f_pos, -f_neg, atol=1e-10)


def test_position_map_nan_at_zero():
    cos2 = Packet.cos2(1.0, k_cut=40.0)
    from scipy.optimize import brentq
    root = brentq(lambda xx: float(cos2.rho(xx, 0.0)), 0.6, 0.9,
                  xtol=1e-15, rtol=8.9e-16)
    x = np.array([0.0, np.nextafter(root, -np.inf), root,
                  np.nextafter(root, np.inf), 2.0])
    _, f, _, _ = nw_position_map(cos2, x, 0.0)
    assert np.isnan(f[1:4]).any()     # the density zero flags the map
    assert np.isfinite(f[0]) and np.isfinite(f[4])


def test_pushforward_improvement(gauss):
    raw, mapped = pushforward_l1(gauss, 0.0)
    assert mapped < raw / 5.0


def test_pushforward_rejects_zero_crossing(cos2_coarse):
    with pytest.raises(ValueError):
        pushforward_l1(cos2_coarse, 0.0)


def test_sigma_doubling_quadruples(gauss):
    # peak-normalized max density difference scales like sigma_k^2
    narrow = Packet.gaussian(0.1, 0.025, total_charge=1.0)
    x_w = np.linspace(-15.0, 15.0, 1501)
    x_n = np.linspace(-30.0, 30.0, 3001)

    def metric(p, x):
        rho = p.rho(x, 0.0)
        return np.max(np.abs(rho - p.rho_nw(x, 0.0))) / np.max(rho)

    ratio = metric(gauss, x_w) / metric(narrow, x_n)
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3


def test_correction_field_consistency(gauss):
    x = np.linspace(-8.0, 8.0, 17)
    cf = correction_field(gauss, x, 0.3)
    assert cf.t == 0.3
    assert np.allclose(cf.x_mapped, cf.x + cf.f, equal_nan=True)
    assert np.max(np.abs(cf.d2W_dx2 - (cf.rho - cf.rho_nw))) < 1e-7 * np.max(
        np.abs(cf.rho))


@pytest.mark.parametrize("case", ["gauss", "cos2", "wide"])
def test_row_w_matches_the_dense_kernel(request, case):
    # W and d^2 W / dx^2 from the FFT row of rho - rho_nw against the
    # dense kernel oracle, W's constant included.  sigma_k = 0.5 has a row
    # period of 128: the window [-300, 300] passes it, and both must hold
    # at 0 past +-L rather than repeat the row's periodic images (x =
    # -256 is one)
    if case == "gauss":
        packet, x, t = request.getfixturevalue("gauss"), GAUSS_X, GAUSS_T
    elif case == "cos2":
        packet = request.getfixturevalue("cos2_coarse")
        x, t = np.linspace(-3.0, 3.0, 61), 0.0
    else:
        packet = Packet.gaussian(0.0, 0.5)
        x, t = np.linspace(-300.0, 300.0, 151), 0.2
        assert -256.0 in x
    kernel = WKernel(packet, x, t)
    cf = correction_field(packet, x, t)
    # d^2 W / dx^2 is the row's d, which parts from the k rule's by the
    # two engines' gap: 5e-9 of max |d| for cos2 at k_cut = 40
    for got, exact, tol in ((cf.W, kernel.evaluate(x, t), 1e-10),
                            (cf.d2W_dx2, kernel.d2_dx2(x, t), 1e-8)):
        assert np.max(np.abs(got - exact)) <= tol * np.max(np.abs(exact))


@pytest.mark.parametrize("k0", [0.0, 0.1])
@pytest.mark.parametrize("sigma_k", [0.1, 0.05, 0.025, 0.0125])
def test_gaussian_own_rule_and_row_charge_at_rounding(sigma_k, k0):
    # cut where the envelope falls to 1e-16, the gaussian's own rule (that
    # of its decay window) meets the refine-1 t = 0 row to rounding, and
    # the row holds the packet's charge
    p = Packet.gaussian(k0, sigma_k)
    L = p.decay_window()
    row = _fft_row(p, 0.0)
    # the row's samples within [-L, L]: j dx, and -j dx at index -j
    j = np.arange(-int(L / row.dx), int(L / row.dx) + 1)
    rho = p.rule_at(L, 0.0).rho(j * row.dx, 0.0)
    assert np.max(np.abs(rho - row.f[j])) <= 1e-12 * np.max(np.abs(row.f))
    assert abs(row.mean * row.n * row.dx - p.total_charge) <= 1e-14


def test_analyse_returns_the_command_summary(written):
    # floats are repr-exact in JSON, so the round trip compares exactly
    cfg, summary = written("nearnr", "gauss.json", "summary.json")
    x = np.linspace(cfg["x"]["min"], cfg["x"]["max"], cfg["x"]["n"])
    field, got = analyse(_packet_from(cfg), x, cfg["t"])
    assert json.loads(json.dumps(got)) == summary
    assert got["narrow_k_regime"] and got["pushforward"] is not None
    assert np.array_equal(field.x, x)
