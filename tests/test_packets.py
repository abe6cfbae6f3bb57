import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from relbohm import packets
from relbohm.cli import ConfigError, _packet_from
from relbohm.numerics import Grid2D, SizeError, bilinear_rho, omega
from relbohm.packets import (FrontKernel, Packet, _fft_row,
                             _k_weights, _panel_integral, _Rule,
                             _smooth_size, acausal_probability,
                             annihilation_fronts, densities,
                             fft_row_size, lambert_local_trajectories,
                             threshold_charges, zero_crossings)
from oracles import (abs_mass, fine_rule, front_kernel_fine,
                     integrate_trajectory, packet_fields, point_velocity)


def velocity(packet, x, t):
    """The point_velocity oracle on psi and its first derivatives from
    Packet.fields at one point."""
    return point_velocity(*(complex(v) for v in packet.fields(
        x, t, [(0, 0), (1, 0), (0, 1)])))


@pytest.fixture(scope="module")
def cos2():
    return Packet.cos2(1.0)


@pytest.fixture(scope="module")
def gauss():
    return Packet.gaussian(0.1, 0.05, total_charge=1.0)


def test_spec_validation():
    with pytest.raises(ConfigError, match="'box'"):
        _packet_from({"packet": {"shape": "box"}})
    with pytest.raises(ValueError):
        Packet.cos2(-1.0)
    with pytest.raises(ValueError):
        Packet.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Packet.cos2(1.0, total_charge=-2.0)


def test_cos2_shape_values():
    spectrum = Packet.cos2(1.0).spectrum
    # removable singularities filled by their limits
    assert spectrum(0.0) == pytest.approx(1.0, abs=1e-12)
    assert spectrum(np.pi) == pytest.approx(0.5, abs=1e-12)
    assert spectrum(-np.pi) == pytest.approx(0.5, abs=1e-12)
    # generic point against the explicit formula
    k = 1.3
    expect = np.sin(k) / (k * (1.0 - k ** 2 / np.pi ** 2))
    assert spectrum(k) == pytest.approx(expect, abs=1e-12)


def test_nw_amplitude_is_cos2_pulse(cos2):
    # at t = 0 the localized amplitude is proportional to Cos^2(pi x / 2a)
    # inside |x| < a and negligible outside
    x = np.linspace(-0.9, 0.9, 19)
    amp, = cos2.fields(x, 0.0, [(0, 0)], nw=True)
    target = np.cos(0.5 * np.pi * x) ** 2
    ratio = amp.real / target
    assert np.max(np.abs(amp.imag)) < 1e-10 * np.max(np.abs(amp.real))
    assert np.max(np.abs(ratio - ratio[0])) < 1e-3 * abs(ratio[0])
    outside, = cos2.fields([1.5, 2.0, -1.7], 0.0, [(0, 0)], nw=True)
    assert np.max(np.abs(outside)) < 1e-3 * np.max(np.abs(amp))


def test_total_nw_charge(cos2, gauss):
    for p in (cos2, gauss):
        L = p.decay_window()
        q = _panel_integral(lambda x: p.rho_nw(x, 0.0), -L, L,
                            n_panels=max(128, int(4 * L)))
        assert q == pytest.approx(p.total_charge, rel=1e-8)


def test_total_rho_charge(cos2):
    L = cos2.decay_window()
    q = _panel_integral(lambda x: cos2.rho(x, 0.0), -L, L, n_panels=256)
    assert q == pytest.approx(cos2.total_charge, rel=1e-5)


def test_gaussian_matches_naive_riemann(gauss):
    # independent oracle: brute-force Riemann sum over the k-space shape
    k = np.linspace(-0.4, 0.6, 40001)
    dk = k[1] - k[0]
    w = np.sqrt(1.0 + k * k)
    s = np.exp(-0.5 * ((k - 0.1) / 0.05) ** 2)
    norm = np.sqrt(1.0 / (2.0 * np.pi * np.sum(s * s) * dk))
    for x, t in [(0.0, 0.0), (2.0, 0.3), (-5.0, 1.0)]:
        naive = norm * np.sum(s * w ** -0.5
                              * np.exp(1j * (k * x - w * t))) * dk
        psi, = gauss.fields(x, t, [(0, 0)])
        assert psi == pytest.approx(naive, abs=1e-7)


def _within_reach(rng, reach, n):
    """n random (x, t) with |x| + |t| <= reach."""
    x = rng.uniform(-reach, reach, n)
    t = rng.choice([-1.0, 1.0], n) * rng.uniform(0.0, 1.0, n) * (
        reach - np.abs(x))
    return x, t


@pytest.mark.parametrize("make, kwargs", [
    (Packet.cos2, {"a": 0.5}),
    (Packet.cos2, {"a": 1.0}),
    (Packet.cos2, {"a": 2.0}),
    (Packet.cos2, {"a": 1.0, "k_cut": 40.0}),
    (Packet.gaussian, {"k0": 0.5, "sigma_k": 2.0}),
], ids=["cos2-a0.5", "cos2-a1", "cos2-a2", "cos2-k_cut40", "gaussian"])
def test_view_matches_configured_rule(make, kwargs):
    # Packet.fields at points within a reach, on the rule it picks for
    # them; the reference is a deliberately fine rule (oracles.fine_rule),
    # not a rule the program makes
    p = make(**kwargs)
    rng = np.random.default_rng(3)
    # 55 and 70 pass the decay window, where the t = 0 row ends
    for reach in (0.0, 2.5, 4.5, 7.0, 55.0, 70.0):
        x, t = _within_reach(rng, reach, 64)
        rule = p.rule_at(x, t)
        assert rule.k.size == p.rule_nodes(
            np.max(np.abs(x)) + np.max(np.abs(t))) != p.k.size
        assert p.rule_at(x, t) is rule
        fine = fine_rule(p, reach)
        rho, j = fine.rho_j(x, t)
        rho_v, j_v = p.rho_j(x, t)
        scale = np.max(np.abs(fine.rho(np.linspace(-reach, reach, 65), 0.0)))
        assert np.max(np.abs(rho_v - rho)) <= 1e-13 * scale
        assert np.max(np.abs(j_v - j)) <= 1e-13 * scale


def test_view_panels_even_and_no_finer_than_parent(cos2, gauss):
    # no rule is capped: a rule may be finer than the packet's own
    for p in (cos2, gauss):
        for reach in (0.0, 1.0, 3.3, 4.5, 10.0, 31.0, 40.0, 1e3):
            rule = p.rule_at(reach, 0.0)
            panels = rule.k.size // Packet.REACH_ORDER
            assert rule.k.size % Packet.REACH_ORDER == 0 and panels % 2 == 0
            # k = 0 on a panel edge: the nodes mirror about it, none on it
            assert np.allclose(rule.k, -rule.k[::-1], rtol=0, atol=1e-12)
            assert np.min(np.abs(rule.k)) > 0
    # the packet's own rule is that of its decay window
    assert np.array_equal(cos2.rule_at(cos2.decay_window(), 0.0).k, cos2.k)
    assert np.array_equal(gauss.rule_at(1.0, 0.0).k, gauss.k)


def test_view_at_reach_zero(cos2):
    # the rule the point (0, 0) runs on against the packet's own rule
    assert cos2.rule_at(0.0, 0.0).k.size < cos2.k.size
    rho, j = cos2.rule_at(cos2.decay_window(), 0.0).rho_j(0.0, 0.0)
    rho_v, j_v = cos2.rho_j(0.0, 0.0)
    assert abs(rho_v - rho) <= 1e-13 * abs(rho)
    assert abs(j_v - j) <= 1e-13 * abs(rho)


def test_densities_past_the_decay_window(cos2):
    # reach 65: max |density_x| + t
    x = np.linspace(-5.0, 5.0, 11)
    prof = densities(cos2, x, 60.0)
    fine = fine_rule(cos2, 65.0)
    rho, j = fine.rho_j(x, 60.0)
    scale = np.max(np.abs(fine.rho(x, 0.0)))
    assert np.max(np.abs(prof.rho - rho)) <= 1e-13 * scale
    assert np.max(np.abs(prof.j - j)) <= 1e-13 * scale
    assert np.max(np.abs(prof.rho_nw - fine.rho_nw(x, 60.0))) <= 1e-13 * scale


#: orders of psi and psi_nw that explode and nearnr read
FIELD_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3), (0, 0)]
FIELD_NW = [0, 0, 0, 0, 0, 1]


def _times(kind, x):
    rng = np.random.default_rng(3)
    if kind == "scalar":
        return 0.7
    if kind == "shared":        # a few grid times, each at many points
        return rng.choice([0.0, 0.375, 1.5], x.size)
    if kind == "vertices":
        # as contour vertices lie: half on a few grid times, half at
        # distinct t on shared x columns (x is moved onto the columns)
        half = x.size // 2
        x[half:] = rng.choice(np.linspace(-3.0, 3.0, 7), x.size - half)
        return np.concatenate([rng.choice([0.0, 0.375, 1.5], half),
                               rng.uniform(0.0, 1.5, x.size - half)])
    return rng.uniform(0.0, 1.5, x.size)


@pytest.mark.parametrize("times", ["scalar", "shared", "vertices",
                                   "distinct"])
@pytest.mark.parametrize("packet, n", [("cos2", 40), ("view", 1200),
                                       ("gauss", 300)])
def test_fields_match_single_exp_oracle(request, packet, n, times):
    # the contraction over the panel split against one exp per (point,
    # k-node), on the rule that ran: for "cos2", the packet's own rule
    # (that of its decay window), and otherwise the rule Packet.fields
    # picks for the points
    pk = request.getfixturevalue("gauss" if packet == "gauss" else "cos2")
    x = np.random.default_rng(1).uniform(-3.0, 3.0, n)
    t = _times(times, x)
    if packet == "cos2":
        rule = pk.rule_at(pk.decay_window(), 0.0)
        got = rule.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    else:
        rule = pk.rule_at(x, t)
        got = pk.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    want = packet_fields(rule, x, t, FIELD_ORDERS, nw=FIELD_NW)
    for g, w in zip(got, want):
        assert g.shape == x.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_fields_group_over_several_chunks(cos2, monkeypatch):
    # one t shared by 300 points, taken 14 points a chunk, between groups
    # of one; the output is the same as in one chunk, up to rounding
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, 310)
    t = np.where(np.arange(x.size) < 300, 0.375, rng.uniform(0.0, 1.5, 310))
    rule = cos2.rule_at(x, t)
    want = packet_fields(rule, x, t, FIELD_ORDERS, nw=FIELD_NW)
    one = cos2.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    mid, off = rule.split
    monkeypatch.setattr(_Rule, "_CHUNK_BUDGET", 7 * (mid.size + 2 * off.size))
    got = cos2.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    for g, o, w in zip(got, one, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
        assert np.max(np.abs(g - o)) <= 1e-13 * np.max(np.abs(w))


def test_fields_of_unshared_t_over_several_chunks(cos2, monkeypatch):
    # 300 points, each of its own t, summed together 110 points a chunk:
    # against one exponential per (point, k-node) and against one chunk
    rng = np.random.default_rng(6)
    x = rng.uniform(-3.0, 3.0, 300)
    t = rng.uniform(0.0, 1.5, 300)
    assert np.unique(t).size == t.size
    rule = cos2.rule_at(x, t)
    want = packet_fields(rule, x, t, FIELD_ORDERS, nw=FIELD_NW)
    monkeypatch.setattr(_Rule, "_CHUNK_BUDGET", x.size * rule.k.size)
    one = rule.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    monkeypatch.setattr(_Rule, "_CHUNK_BUDGET", 110 * rule.k.size)
    got = rule.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    for g, o, w in zip(got, one, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
        assert np.max(np.abs(g - o)) <= 1e-13 * np.max(np.abs(w))


def test_unshared_t_take_one_cis_a_chunk(cos2, monkeypatch):
    # points of distinct t (contour vertices on grid columns) once took
    # e^{-i omega t} one point at a time; a chunk of them takes one
    # _wave_t, which exponentiates all its points' phases at once
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 3.0, 1000)
    t = rng.uniform(0.0, 1.5, 1000)
    rule = cos2.rule_at(x, t)
    calls = []

    def counting(self, t, out=None):
        calls.append(np.shape(t))
        return wave_t(self, t, out)

    wave_t = _Rule._wave_t
    monkeypatch.setattr(_Rule, "_wave_t", counting)
    rule.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    chunk = _Rule._CHUNK_BUDGET // rule.k.size
    assert len(calls) <= -(-x.size // chunk) < x.size // 50


def test_unshared_t_fields_working_set_is_bounded(cos2):
    # 2 693 points, each of its own t, on the explode-cos2 benchmark
    # window and its 1 968-node rule (made before tracing): a chunk's
    # e^{ikx} takes e^{-i omega t} in place and is freed before the next
    # chunk is made.  10.8 MB with chunks of 250 000 entries, a separate
    # e^{-i omega t} and the last chunk's waves kept
    rng = np.random.default_rng(5)
    x, t = rng.uniform(0.0, 3.0, 2693), rng.uniform(0.0, 1.5, 2693)
    assert cos2.rule_at(x, t).k.size == 1968
    tracemalloc.start()
    try:
        cos2.fields(x, t, [(0, 0), (1, 0), (0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_shared_t_fields_working_set_is_bounded():
    # nearnr's pushforward window, 2 001 points at one t on its 288-node
    # rule (made before tracing): the inner sums run one order at a time,
    # so the peak does not grow with the orders.  5.6 MB at 7 orders and
    # 3.5 MB at 3 with the inner sums of all orders in one product
    packet = Packet.gaussian(0.17, 0.035)
    x = np.linspace(-0.8 * packet.width, 0.8 * packet.width, 2001)
    assert packet.rule_at(x, 0.0).k.size == 288
    orders = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (2, 0), (0, 2)]
    nw = [0, 0, 0, 0, 1, 0, 0]
    peaks = {}
    for n_ord in (3, 7):
        tracemalloc.start()
        try:
            packet.fields(x, 0.0, orders[:n_ord], nw=nw[:n_ord])
            peaks[n_ord] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[7] <= 3.2 * 2 ** 20
    assert peaks[7] <= 1.1 * peaks[3]


@pytest.mark.parametrize("times", ["scalar", "shared"])
def test_shared_t_orders_do_not_couple(cos2, times):
    # at a shared t each order comes out bit for bit as in a call with
    # that order alone, so callers may merge the orders of several calls
    # on the same points without moving a byte
    x = np.random.default_rng(8).uniform(-3.0, 3.0, 400)
    t = _times(times, x)
    merged = cos2.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)
    for order, nw, got in zip(FIELD_ORDERS, FIELD_NW, merged):
        alone, = cos2.fields(x, t, [order], nw=nw)
        assert np.array_equal(got, alone)


def test_fields_of_no_points(cos2):
    for x in (np.empty(0), np.empty((0, 3))):
        got = cos2.fields(x, 0.5, FIELD_ORDERS, nw=FIELD_NW)
        assert len(got) == len(FIELD_ORDERS)
        assert all(g.shape == x.shape and g.dtype == complex for g in got)


@pytest.mark.parametrize("make, kwargs", [
    (Packet.cos2, {"a": 1.0}), (Packet.cos2, {"a": 0.3}),
    (Packet.gaussian, {"k0": 0.5, "sigma_k": 0.2}),
    (Packet.gaussian, {"k0": -0.1, "sigma_k": 0.05})],
    ids=["cos2-a1", "cos2-a0.3", "gaussian-k0.5", "gaussian-k-0.1"])
def test_rules_are_mirror_exact(make, kwargs):
    # fields takes e^{-i omega t} once per |k|: node -k must be bitwise
    # the negation of node k, and omega bitwise even, on every rule
    p = make(**kwargs)
    for reach in (0.0, 3.3, 10.0, 55.0, 400.0):
        rule = p.rule_at(reach, 0.0)
        assert np.array_equal(rule.k, -rule.k[::-1])
        assert np.array_equal(rule.omega, rule.omega[::-1])


def _dsinc(x):
    """d/dx sin(x) / x, by its Taylor series where |x| < 0.01."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.01
    u = np.where(small, 1.0, x)
    series = x * (-1.0 / 3.0 + x * x * (1.0 / 30.0 - x * x / 840.0))
    return np.where(small, series, (u * np.cos(u) - np.sin(u)) / (u * u))


def _cos2_slope(k):
    """s'(k) of the a = 1 cos2 spectrum in closed form.  cos^2(pi x / 2)
    = (1 + cos(pi x)) / 2 on |x| < 1 makes s(k) = sinc(k) + (sinc(k - pi)
    + sinc(k + pi)) / 2 with sinc(u) = sin(u) / u, which has no singular
    point but u = 0."""
    return _dsinc(k) + 0.5 * (_dsinc(k - np.pi) + _dsinc(k + np.pi))


@pytest.mark.parametrize("k_cut", [None, 40.0], ids=["default", "k_cut40"])
@pytest.mark.parametrize("kind", ["odd", "asymmetric"])
def test_spectra_that_are_not_even(cos2, kind, k_cut):
    # the engines take any real spectrum: the odd slope of the cos2
    # spectrum (a Newton-Wigner-localized ball's radial packet) and the
    # asymmetric cos2 (1 + k / omega) / 2 pass rule_at's engine check
    # against their t = 0 rows on the rules of every reach, and each rule
    # is mirror-exact, as omega alone needs
    s = cos2.spectrum
    spectrum = (_cos2_slope if kind == "odd"
                else lambda k: s(k) * 0.5 * (1.0 + k / omega(k)))
    p = Packet(spectrum, cos2.k_cut if k_cut is None else k_cut, 1.0,
               kind == "odd")
    for reach in (0.0, 3.0, 10.0, 40.0, 400.0):
        rule = p.rule_at(reach, 0.0)
        assert np.array_equal(rule.k, -rule.k[::-1])
        assert np.array_equal(rule.omega, rule.omega[::-1])


def test_cos2_slope_is_x_times_the_pulse(cos2):
    # the localized amplitude of s' is -i x times that of s: on |x| < 1,
    # proportional to x cos^2(pi x / 2), and negligible outside
    p = Packet(_cos2_slope, cos2.k_cut, 1.0, True)
    x = np.concatenate([np.linspace(-0.9, -0.1, 9), np.linspace(0.1, 0.9, 9)])
    amp, = p.fields(x, 0.0, [(0, 0)], nw=True)
    ratio = amp.imag / (x * np.cos(0.5 * np.pi * x) ** 2)
    assert np.max(np.abs(amp.real)) < 1e-10 * np.max(np.abs(amp.imag))
    assert np.max(np.abs(ratio - ratio[0])) < 1e-3 * abs(ratio[0])
    outside, = p.fields([1.5, 2.0, -1.7], 0.0, [(0, 0)], nw=True)
    assert np.max(np.abs(outside)) < 1e-3 * np.max(np.abs(amp))


def test_fields_refuse_a_rule_that_is_not_mirror_exact(cos2):
    k, w, split = packets._gl_panels(-cos2.k_cut, 0.9 * cos2.k_cut, 4, 24)
    with pytest.raises(ValueError, match="mirror-exact"):
        _Rule(k, w, split, cos2.norm * cos2.spectrum(k))


def test_fields_broadcast_shape(cos2):
    x = np.linspace(-1.0, 1.0, 3)[:, None]
    t = np.linspace(0.0, 1.0, 4)
    psi, psix = cos2.fields(x, t, [(0, 0), (1, 0)])
    want = packet_fields(cos2.rule_at(x, t), x, t, [(0, 0), (1, 0)])
    assert psi.shape == psix.shape == (3, 4)
    assert np.max(np.abs(psi - want[0])) <= 1e-13 * np.max(np.abs(want[0]))


@pytest.mark.parametrize("packet", ["cos2", "gauss"])
def test_fields_run_on_the_rule_of_their_reach(request, packet):
    # bitwise the sum on the rule of max |x| + max |t|, built here from
    # rule_nodes alone, at scattered points of three reaches
    p = request.getfixturevalue(packet)
    rng = np.random.default_rng(7)
    for half in (0.5, 3.0, 40.0):
        x = rng.uniform(-half, half, 50)
        t = rng.uniform(-1.0, 1.5, 50)
        n = p.rule_nodes(np.max(np.abs(x)) + np.max(np.abs(t)))
        k, w, split = packets._gl_panels(-p.k_cut, p.k_cut,
                                         n // Packet.REACH_ORDER,
                                         Packet.REACH_ORDER)
        rule = _Rule(k, w, split, p.norm * p.spectrum(k))
        for got, want in zip(p.fields(x, t, FIELD_ORDERS, nw=FIELD_NW),
                             rule.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)):
            assert np.array_equal(got, want)


def test_each_rule_is_built_and_checked_once(monkeypatch):
    # explode's library calls on a fresh packet, and all but
    # zero_crossings (whose engine check holds the packet's own rule
    # against the row) once more: every rule they run on is checked once
    p = Packet.cos2(1.0, k_cut=40.0)
    checked = []
    check = packets._check_rule

    def counting(rule, row, reach):
        checked.append(rule.k.size)
        check(rule, row, reach)

    monkeypatch.setattr(packets, "_check_rule", counting)
    grid = Grid2D(0.0, 3.0, 31, 0.0, 1.5, 21)
    zero_crossings(p)
    for _ in range(2):
        for t in (0.0, 1.5):
            densities(p, np.linspace(-5.0, 5.0, 41), t)
        annihilation_fronts(p, grid, 10)
        p.rho_j(np.linspace(-2.0, 2.0, 5), 0.5)
    assert len(checked) == len(set(checked)) == len(p._rules) == 4
    assert p.k.size in checked


def test_own_rule_runs_on_the_packet_nodes():
    # the decay window's rule takes the nodes Packet.k holds, not a copy,
    # and sums as the rule built from rule_nodes alone does, bit for bit
    p = Packet.cos2(1.0)
    rule = p.rule_at(p.decay_window(), 0.0)
    assert rule.k is p.k
    k, w, split = packets._gl_panels(-p.k_cut, p.k_cut,
                                     p.k.size // Packet.REACH_ORDER,
                                     Packet.REACH_ORDER)
    built = _Rule(k, w, split, p.norm * p.spectrum(k))
    x = np.linspace(-p.decay_window(), p.decay_window(), 40)
    t = np.linspace(0.0, 0.5, 40)
    for got, want in zip(rule.fields(x, t, FIELD_ORDERS, nw=FIELD_NW),
                         built.fields(x, t, FIELD_ORDERS, nw=FIELD_NW)):
        assert np.array_equal(got, want)


def test_no_cycle_keeps_a_packet_alive():
    # nothing that zero_crossings leaves behind (its Newton closures, the
    # packet's cached row and rules) may hold the packet in a reference
    # cycle: with the cyclic GC off, the packet must still go when its
    # last reference does
    p = Packet.cos2(1.0, k_cut=40.0)
    ref = weakref.ref(p)
    gc.disable()
    try:
        zero_crossings(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_antiderivative_matches_direct_table(cos2_k40):
    p = cos2_k40
    integral = _fft_row(p, np.array([0.0, 0.5, 1.0]))
    m = int(np.searchsorted(integral.k, integral.band, side="right"))

    def direct(x):
        table = np.exp(1j * np.multiply.outer(x, integral.k[:m]))
        return (np.multiply.outer(x, integral.mean)
                + (table @ integral.series[:, :m].T).real)

    L = p.decay_window() + 1.0
    x = np.linspace(-L, L, 301)
    want = direct(x)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(integral.antiderivative(x) - want)) \
        <= 1e-13 * scale
    ends = np.array([-L, 0.3, L])   # one point per row
    assert np.max(np.abs(integral.antiderivative(ends, diagonal=True)
                         - np.diagonal(direct(ends)))) <= 1e-13 * scale


def test_fourier_re_over_several_chunks(cos2_k40, monkeypatch):
    # tables of 23 points each (and of one, for the diagonal) sum what one
    # table for every point does, up to the order in which BLAS sums a
    # product of another row count (1.7e-15 of max |G| measured)
    row = _fft_row(cos2_k40, np.array([0.0, 0.5, 1.0]))
    L = cos2_k40.decay_window() + 1.0
    x, ends = np.linspace(-L, L, 301), np.array([-L, 0.3, L])
    got = []
    for budget in (2 ** 30, 20_000):
        monkeypatch.setattr(packets, "_TABLE_ENTRIES", budget)
        got.append(row.antiderivative(x))
    assert np.max(np.abs(got[1] - got[0])) <= 4e-15 * np.max(np.abs(got[0]))
    one = row.antiderivative(ends, diagonal=True)
    monkeypatch.setattr(packets, "_TABLE_ENTRIES", 1)
    many = row.antiderivative(ends, diagonal=True)
    assert np.max(np.abs(many - one)) <= 4e-15 * np.max(np.abs(one))


def test_fft_row_spectrum_only_inside_k_cut(cos2_k40):
    # forming the spectrum on the modes inside k_cut alone leaves the
    # rows byte-identical to the full-spectrum formula
    p = cos2_k40
    t = np.array([0.0, 0.75])
    for refine in (1, 2):
        dx, n = fft_row_size(p, t, refine)
        dk = 2.0 * np.pi / (n * dx)
        m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
        w = omega(m * dk)
        c = (n * p.norm * _k_weights(m, dk, refine * p.k_cut)
             * p.spectrum(m * dk)
             * np.exp(np.multiply.outer(t, -1j * w)))
        rho = bilinear_rho(np.fft.ifft(c / np.sqrt(w)),
                           np.fft.ifft(-1j * np.sqrt(w) * c))
        assert np.array_equal(_fft_row(p, t, refine).f, rho)
        assert np.array_equal(_fft_row(p, t, refine, nw=True).f,
                              np.abs(np.fft.ifft(c)) ** 2)


def test_view_too_coarse_raises(monkeypatch):
    # a rule on an eighth of the panels its reach needs aliases rho
    # there; a fresh packet, whose cache cannot hold the rule yet
    p = Packet.cos2(1.0)
    rule = packets._gl_panels
    monkeypatch.setattr(packets, "_gl_panels", lambda lo, hi, n, order:
                        rule(lo, hi, max(2, n // 8), order))
    with pytest.raises(ArithmeticError, match="too coarse"):
        p.fields(4.5, 0.0, [(0, 0)])


def test_parity_cos2(cos2):
    x = np.linspace(0.1, 2.0, 7)
    assert np.allclose(cos2.rho(x, 0.4), cos2.rho(-x, 0.4), atol=1e-12)
    assert np.allclose(cos2.rho_j(x, 0.4)[1], -cos2.rho_j(-x, 0.4)[1],
                       atol=1e-12)


def test_rho_signs(cos2):
    x = np.linspace(-3.0, 3.0, 601)
    rho = cos2.rho(x, 0.0)
    assert np.min(rho) < 0          # virtual anti-particle tail
    assert np.max(rho) > 0
    assert np.all(cos2.rho_nw(x, 0.5) >= 0)


def test_rho_nw_conserved(cos2):
    L = cos2.decay_window() + 1.0
    charges = [
        _panel_integral(lambda x: cos2.rho_nw(x, t), -L, L, n_panels=256)
        for t in (0.0, 0.5, 1.0)]
    assert np.allclose(charges, cos2.total_charge, rtol=1e-5)


def test_rho_nw0_near_center(cos2):
    prof = densities(cos2, np.linspace(-0.3, 0.3, 13), 0.0)
    rel = np.abs(prof.rho_nw0 - prof.rho_nw) / np.max(prof.rho_nw)
    assert np.max(rel) < 0.02


def test_zero_crossings_values(cos2):
    x_th, x0 = zero_crossings(cos2)
    assert x_th < x0
    assert x_th == pytest.approx(0.5565, abs=2e-3)
    assert x0 == pytest.approx(0.7249, abs=2e-3)
    # threshold meaning: the charge inside [0, x_th] is exactly half the
    # total, i.e. 1 for total_charge = 2
    q_in = _panel_integral(lambda x: cos2.rho(x, 0.0), 0.0, x_th,
                           n_panels=128)
    assert q_in == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("a, tol", [(0.5, 5e-9), (1.0, 5e-9), (2.0, 5e-9),
                                    (12.0, 2e-7)])
def test_row_roots(a, tol):
    # oracle: the first sign change of rho on a k rule (Packet.rho) over
    # 400 points of (0, 2.5 a], polished by brentq to 1e-15 as in
    # test_velocity_none_at_density_zero; the row's k_cut bounds the gap
    # (17.9 at a = 12)
    from scipy.optimize import brentq
    p = Packet.cos2(a)
    x_th, x0 = zero_crossings(p)
    xs = np.linspace(1e-3 * a, 2.5 * a, 400)
    i = np.nonzero(np.diff(np.sign(p.rho(xs, 0.0))))[0][0]
    root = brentq(lambda x: float(p.rho(x, 0.0)), xs[i], xs[i + 1],
                  xtol=1e-15, rtol=8.9e-16)
    assert abs(x0 - root) <= tol
    # x_th zeroes the row's tail to rounding
    assert 0.1 * a < x_th < x0
    G = p.t0_row.antiderivative(np.array([x_th, p.decay_window()]))
    assert abs(G[1] - G[0]) <= 1e-14


def test_newton_steps_are_bounded():
    # Newton from within a cell takes a few steps; a wrong slope leaves
    # bisection, which needs ~36 steps here, and raises after NEWTON_STEPS
    calls = []

    def cos_minus_x(sign):
        def fn(x):
            calls.append(x)
            return np.cos(x) - x, sign * (-np.sin(x) - 1.0)
        return fn

    root = packets._newton(cos_minus_x(1), 0.7, 0.75, 0.72, 1e-12, "f")
    assert abs(np.cos(root) - root) <= 2e-16
    assert len(calls) <= 7
    calls.clear()
    with pytest.raises(ArithmeticError, match="f: no root to 1e-12 after"):
        packets._newton(cos_minus_x(-1), 0.7, 0.75, 0.72, 1e-12, "f")
    assert len(calls) == packets.NEWTON_STEPS + 2
    with pytest.raises(ArithmeticError, match="f does not bracket a root"):
        packets._newton(cos_minus_x(1), 0.8, 0.9, 0.85, 1e-12, "f")


def test_acausal_probability_curve(cos2):
    p0 = acausal_probability(cos2, 0.0)
    assert p0 < 1e-6
    p01 = acausal_probability(cos2, 0.1)
    assert p01 > 0
    # the curve decreases after its early peak
    ps = [acausal_probability(cos2, t) for t in (0.75, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert all(0 < p < 1 for p in ps)
    with pytest.raises(ValueError):
        acausal_probability(cos2, -0.5)


@pytest.fixture(scope="module")
def cos2_k40():
    # k_cut = 40 keeps direct sums cheap; the rule of the decay window
    # keeps them exact out to its edge
    return Packet.cos2(1.0, k_cut=40.0)


def test_fft_rows_match_direct_sums(cos2_k40):
    # oracle: Packet.fields integrated by _panel_integral at 8x the panels
    # of the direct-sum code the FFT rows replaced
    p = cos2_k40
    dx, n = fft_row_size(p, 2.0)
    assert n * dx == 72.0     # L = 33 > 32 at t = 2 takes the next box
    for t in (0.25, 0.75, 2.0):
        edge, L = p.width + t, p.decay_window() + t

        def rho_nw(x):
            return p.rho_nw(x, t)

        outer = _panel_integral(rho_nw, edge, L,
                                n_panels=8 * max(192, int(8 * (L - edge))))
        # rho_nw is even: half of [-L, L] at the same panel width
        half = _panel_integral(rho_nw, 0.0, L,
                               n_panels=4 * max(192, int(4 * L)))
        assert acausal_probability(p, t) == pytest.approx(outer / half,
                                                          rel=1e-7)

    def rho0(x):
        return p.rho(x, 0.0)

    x_th, _ = zero_crossings(p)
    L = p.decay_window()
    q_in = _panel_integral(rho0, 0.0, x_th, n_panels=8 * 64)
    q_tail = _panel_integral(rho0, x_th, L, n_panels=8 * 256)
    q_nw = _panel_integral(lambda x: p.rho_nw(x, 0.0), 0.0, p.width,
                           n_panels=8 * 64)
    # the direct-sum tail at x_th over rho there is the shift of the root
    assert abs(q_tail / float(rho0(x_th))) < 1e-9
    assert threshold_charges(p, x_th) == pytest.approx((q_in, q_tail, q_nw),
                                                       abs=1e-9)
    for t in (0.0, 1.0):
        L = p.decay_window() + t
        mass = _panel_integral(lambda x: np.abs(p.rho(x, t)), -L, L,
                               n_panels=8 * max(128, int(4 * L)))
        prof = densities(p, [0.0], t)
        # rho_nw0 = total_charge |rho| / (|rho| mass)
        assert (p.total_charge * np.abs(prof.rho) / prof.rho_nw0
                == pytest.approx(mass, rel=1e-6))


#: every even 2^a 3^b 5^c below 2^18, in order
_EVEN_SMOOTH = sorted(2 ** a * 3 ** b * 5 ** c for a in range(1, 18)
                      for b in range(12) for c in range(8)
                      if 2 ** a * 3 ** b * 5 ** c < 2 ** 18)


def test_smooth_size_is_least_even_five_smooth():
    bounds = np.random.default_rng(3).uniform(0.0, 1e5, 200)
    for bound in [0.5, 1.0, 2.0, 8.0, 8739.64, *bounds]:
        assert _smooth_size(bound) == next(n for n in _EVEN_SMOOTH
                                           if n > bound)
    with pytest.raises(SizeError):
        _smooth_size(1e300)


@pytest.mark.parametrize("packet", ["cos2", "cos2_k40", "gauss"])
def test_fft_row_size_rule(request, packet):
    # the box is the least even 5-smooth length that holds [-L, L], times
    # refine, the bound inclusive: for a = 1 (L = 31 + t) the box of 64
    # holds t = 1 and t = 1.25 takes 72; n is the least even 5-smooth
    # count that puts the row's band 2 refine k_cut below its Nyquist
    # limit pi / dx
    p = request.getfixturevalue(packet)
    for t in (0.0, 0.75, 1.0, 1.25, 2.0):
        box = next(b for b in _EVEN_SMOOTH
                   if b >= 2.0 * (p.decay_window() + t))
        if p.compact:
            assert box == {1.0: 64, 1.25: 72}.get(t, box)
        for refine in (1, 2):
            band = 2.0 * refine * p.k_cut
            dx, n = fft_row_size(p, t, refine)
            assert n * dx == refine * box
            assert n == next(m for m in _EVEN_SMOOTH
                             if np.pi * m / (refine * box) > band)
            assert np.pi / dx > band
            row = _fft_row(p, t, refine, nw=True)
            assert row.f.size == n and row.band == band


@pytest.mark.parametrize("packet", ["cos2", "gauss"])
def test_sizes_past_the_float_range_are_size_errors(request, packet):
    # a box 2^e past 2^1023, a row past 2^62 points, a rule count past
    # the float range and a NaN reach are size errors, not OverflowError
    # (an ArithmeticError) or a NaN-to-int ValueError
    p = request.getfixturevalue(packet)
    for far in (1e308, np.inf, np.nan):
        with pytest.raises(SizeError, match="k rule of reach"):
            p.rule_nodes(far)
        with pytest.raises(SizeError, match="k rule of reach"):
            p.fields(far, 0.0, [(0, 0)])
    for t in (1e308, np.inf, np.nan):
        for refine in (1, 2):
            with pytest.raises(SizeError, match="FFT row"):
                fft_row_size(p, t, refine)
    if packet == "cos2":
        with pytest.raises(SizeError, match="FFT row"):
            acausal_probability(p, 1e308)


@pytest.fixture(scope="module")
def cos2_gl24():
    # the benchmark's explode packet, whose gl_order 24 and x_scale 0.5
    # keys are ignored: the bundled cos2 packet
    return Packet.cos2(1.0)


@pytest.fixture(scope="module")
def cos2_k44():
    # 1 800 row points on the box of 64 and 2 048 on 72: the two boxes'
    # rows have different dx, and as for the default (8 748 and 10 000)
    # but unlike k_cut = 40 (1 728 and 1 920) the rows on 72 are the
    # finer.  At k_cut = 45 both boxes' rows take dx = 1/30
    p = Packet.cos2(1.0, k_cut=44.0)
    assert fft_row_size(p, 0.0)[0] > fft_row_size(p, 1.5)[0]
    return p


@pytest.mark.parametrize("packet", ["cos2_k40", "cos2_gl24", "cos2_k44"])
def test_front_kernel_matches_finer_rows(request, packet):
    # oracle: F on rows of twice the points on the same box, by a direct
    # Fourier sum; x reaches past +-L on both sides, t spans both boxes
    p = request.getfixturevalue(packet)
    x = np.concatenate([np.linspace(0.0, 3.0, 31), [-40.0, -32.5, 32.5,
                                                   40.0]])
    t = np.linspace(0.0, 1.5, 7)
    want = front_kernel_fine(p, x, t)
    got = FrontKernel(p).evaluate(x, t)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.ptp(want)


def test_front_kernel_rows_in_blocks(cos2_k40, monkeypatch):
    # blocks of two rows: the seven rows on the box of 64 take four, the
    # three on the box of 72 (over two rows' points each) one apiece;
    # against the finer rows, with x past +-L (every block takes G(+L))
    # and with x inside it (no block does)
    p = cos2_k40
    t = np.linspace(0.0, 1.5, 10)
    n = fft_row_size(p, 0.0)[1]
    monkeypatch.setattr(FrontKernel, "BLOCK_ROW_POINTS", 2 * n)
    made = []

    def counting(packet, t, *args, **kwargs):
        made.append(np.size(t))
        return fft_row(packet, t, *args, **kwargs)

    fft_row = packets._fft_row
    monkeypatch.setattr(packets, "_fft_row", counting)
    kernel = FrontKernel(p)
    for x in (np.concatenate([np.linspace(0.0, 3.0, 31),
                              [-40.0, -32.5, 32.2, 32.5, 40.0]]),
              np.linspace(-30.0, 30.0, 41)):
        made.clear()
        got = kernel.evaluate(x, t)
        assert made == [2, 2, 2, 1, 1, 1, 1]
        want = front_kernel_fine(p, x, t)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.ptp(want)


@pytest.mark.parametrize("n_x, n_t, most_mb", [(121, 81, 9),
                                              (241, 161, 12)])
def test_front_kernel_working_set_is_bounded(n_x, n_t, most_mb):
    # the explode-cos2 benchmark grid and cos2.json's, on a fresh packet
    # (its row spectra count): 21.5 and 40.5 MB when each row size took
    # one e^{ikx} table for every x and a list of the rows' series, 13.5
    # and 16.3 MB when the table had 2^19 entries of its own beside the
    # work arrays
    grid = Grid2D(0.0, 3.0, n_x, 0.0, 1.5, n_t)
    kernel = FrontKernel(Packet.cos2(1.0))
    tracemalloc.start()
    try:
        kernel.evaluate(grid.x, grid.t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most_mb * 2 ** 20


def test_front_kernel_limits_leave_f_bitwise():
    # F in blocks of BLOCK_ROW_POINTS row points, its e^{ikx} table in
    # chunks of x that fit a block's work arrays, is F from one block and
    # one table, bit for bit, on the same two grids.  With one BLAS thread, as the benchmark
    # runs: a threaded BLAS splits a product by its row count, so there
    # chunks of x may move F by rounding
    code = """
import numpy as np
from relbohm import packets
from relbohm.cli import ConfigError, _packet_from
from relbohm.numerics import Grid2D
p = packets.Packet.cos2(1.0)
for n_x, n_t in ((121, 81), (241, 161)):
    grid = Grid2D(0.0, 3.0, n_x, 0.0, 1.5, n_t)
    limits = packets.FrontKernel.BLOCK_ROW_POINTS, packets._TABLE_ENTRIES
    got = packets.FrontKernel(p).evaluate(grid.x, grid.t)
    packets.FrontKernel.BLOCK_ROW_POINTS = packets._TABLE_ENTRIES = 2 ** 30
    one = packets.FrontKernel(p).evaluate(grid.x, grid.t)
    packets.FrontKernel.BLOCK_ROW_POINTS, packets._TABLE_ENTRIES = limits
    assert np.array_equal(got, one), (n_x, n_t)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_abs_total_matches_finer_row(cos2_gl24):
    # oracle: the zeros of rho polished on its Fourier series, bracketed
    # on a row 16 times finer, and the direct-sum antiderivative
    for t in (0.0, 0.5, 1.0, 1.5):
        row = _fft_row(cos2_gl24, t)
        want = abs_mass(row.f, row.dx, row.band)
        got = row.abs_total()
        assert got == pytest.approx(want, rel=1e-9)


def test_acausal_requires_compact_support(gauss):
    with pytest.raises(ValueError):
        acausal_probability(gauss, 0.5)


def test_velocity_none_at_density_zero(cos2):
    from scipy.optimize import brentq
    _, x0 = zero_crossings(cos2)
    # refine the root to machine precision so rho drops below the
    # local-scale floor at the nearest representable abscissa
    root = brentq(lambda x: float(cos2.rho(x, 0.0)), x0 - 1e-4, x0 + 1e-4,
                  xtol=1e-15, rtol=8.9e-16)
    candidates = [root]
    for _ in range(3):
        candidates.append(np.nextafter(candidates[-1], np.inf))
        candidates.insert(0, np.nextafter(candidates[0], -np.inf))
    assert any(velocity(cos2, x, 0.0) is None for x in candidates)
    assert velocity(cos2, 0.0, 0.0) is not None


def test_front_kernel_gradients(cos2):
    kernel = FrontKernel(cos2)
    h = 1e-5
    for x, t in [(0.3, 0.2), (0.9, 0.6), (1.4, 0.1)]:
        dF_dx = (kernel.evaluate(x + h, t)
                 - kernel.evaluate(x - h, t)).item() / (2 * h)
        dF_dt = (kernel.evaluate(x, t + h)
                 - kernel.evaluate(x, t - h)).item() / (2 * h)
        rho = float(cos2.rho(x, t))
        j = float(cos2.rho_j(x, t)[1])
        assert dF_dx == pytest.approx(2.0 * rho, abs=1e-4)
        assert dF_dt == pytest.approx(-2.0 * j, abs=1e-4)


def test_front_kernel_uses_packet_truncation():
    # a configured k_cut must reach the kernel: its gradient is then
    # (2 rho, -2 J) of the same truncated packet, not of a wider one
    p = Packet.cos2(1.0, k_cut=40.0)
    kernel = FrontKernel(p)
    assert np.max(np.abs(kernel.k)) <= p.k_cut
    h = 1e-5
    for x, t in [(0.3, 0.2), (0.9, 0.6), (1.4, 0.1), (2.0, 1.0)]:
        dF_dx = (kernel.evaluate(x + h, t)
                 - kernel.evaluate(x - h, t)).item() / (2 * h)
        if fft_row_size(p, t + h) == fft_row_size(p, t):
            dF_dt = (kernel.evaluate(x, t + h)
                     - kernel.evaluate(x, t - h)).item() / (2 * h)
        else:
            # the box switches from 64 to 72 just past t = 1: a centred
            # difference there measures F's step between the two row
            # sizes (test_front_kernel_step_at_a_row_size_switch) over 2 h,
            # so it takes the second-order one-sided one on t <= 1
            F = kernel.evaluate(x, t - np.array([0.0, h, 2 * h]))[0]
            dF_dt = (3.0 * F[0] - 4.0 * F[1] + F[2]) / (2 * h)
        rho, j = p.rho_j(x, t)
        assert abs(dF_dx - 2.0 * rho) <= 1e-6
        assert abs(dF_dt + 2.0 * j) <= 1e-6


@pytest.mark.parametrize("k_cut, switch, most", [
    (40.0, 1.0, 1e-10), (40.0, 5.0, 1e-9),
    (None, 1.0, 4e-12), (None, 5.0, 4e-12)])
def test_front_kernel_step_at_a_row_size_switch(k_cut, switch, most):
    # F from the rows on either side of a box switch (64 -> 72 past t = 1,
    # 72 -> 80 past t = 5 for a = 1) at the least float where the row
    # size changes: the step is the two rows' discretization gap, as F
    # moves by ~1e-14 over that dt.  Measured 5.4e-11 and 5.2e-10 of F's
    # range at k_cut = 40, and 1.9e-12 and 1.4e-12 at the default
    p = Packet.cos2(1.0, k_cut=k_cut)
    past = switch
    for _ in range(64):
        past = np.nextafter(past, np.inf)
        if fft_row_size(p, past) != fft_row_size(p, switch):
            break
    assert fft_row_size(p, past)[1] != fft_row_size(p, switch)[1]
    F = FrontKernel(p).evaluate(np.linspace(-40.0, 40.0, 801),
                                np.array([switch, past]))
    assert np.max(np.abs(F[:, 1] - F[:, 0])) <= most * np.ptp(F)


def test_front_kernel_conserved_along_ode(cos2):
    kernel = FrontKernel(cos2)
    x0, t0, t1 = 0.2, 0.0, 1.0
    ts, xs = integrate_trajectory(
        lambda x, t: velocity(cos2, x, t), z0=x0, t0=t0, t1=t1,
        dt=0.002)
    f0 = kernel.evaluate(x0, t0).item()
    f1 = kernel.evaluate(xs[-1], ts[-1]).item()
    assert abs(f1 - f0) < 1e-4 * cos2.width


def test_front_kernel_monotone_on_core(cos2):
    # rho > 0 across the packet core, so F is strictly increasing there
    kernel = FrontKernel(cos2)
    x = np.linspace(-0.6, 0.6, 41)
    F = kernel.evaluate(x, 0.0)[:, 0]
    assert np.all(np.diff(F) > 0)


def _grad_error(packet, kernel, x, t, h=1e-4):
    """Largest |dF/dx - 2 rho| and |dF/dt + 2 J| at the points (x, t),
    by fourth-order central differences."""
    steps = h * np.array([-2.0, -1.0, 1.0, 2.0])
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    ex = et = 0.0
    for xi, ti in zip(x, t):
        dF_dx = stencil @ kernel.evaluate(xi + steps, ti)[:, 0]
        dF_dt = stencil @ kernel.evaluate(xi, ti + steps)[0]
        rho, j = packet.rho_j(xi, ti)
        ex = max(ex, abs(dF_dx - 2.0 * rho))
        et = max(et, abs(dF_dt + 2.0 * j))
    return ex, et


def test_front_kernel_gradient_on_explode_window(cos2):
    # the window and packet of the bundled cos2.json, at the kernel
    # explode builds: (2 rho, -2 J) of Packet.fields to 1e-8 of max|2 rho|
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 3.0, 24)
    t = rng.uniform(0.0, 1.5, 24)
    scale = 2.0 * np.max(np.abs(cos2.rho(np.linspace(0.0, 3.0, 301), 0.0)))
    ex, et = _grad_error(cos2, FrontKernel(cos2), x, t)
    assert ex <= 1e-8 * scale
    assert et <= 1e-8 * scale


def test_front_kernel_flat_beyond_decay_window():
    # an explode grid reaching past L = decay_window() + |t|: F is 0 left
    # of -L and twice the total charge right of L, with no periodic image
    p = Packet.cos2(1.0, k_cut=40.0)
    x = np.linspace(-60.0, 60.0, 481)
    t = np.array([0.0, 0.75, 1.5])
    F = FrontKernel(p).evaluate(x, t)
    for c, L in enumerate(p.decay_window() + t):
        assert np.all(F[x < -L, c] == 0.0)
        right = F[x > L, c]
        assert np.all(right == right[0])
        assert right[0] == pytest.approx(2.0 * p.total_charge, abs=1e-8)
        # no jump where the clip starts: the field is already flat there
        inside = F[(x > L - 5.0) & (x <= L), c]
        assert np.max(np.abs(inside - right[0])) < 1e-8


def test_front_kernel_negative_times():
    # a grid with t_min < 0: the real, even spectrum makes rho even in t,
    # so F(x, -t) = F(x, t), and the gradient still holds there
    p = Packet.cos2(1.0, k_cut=40.0)
    kernel = FrontKernel(p)
    x = np.linspace(-3.0, 3.0, 61)
    t = np.array([-1.2, -0.5, 0.0, 0.5, 1.2])
    F = kernel.evaluate(x, t)
    np.testing.assert_allclose(F, F[:, ::-1], rtol=0, atol=1e-12)
    scale = 2.0 * np.max(np.abs(p.rho(x, 0.0)))
    ex, et = _grad_error(p, kernel, [0.4, 1.3, -0.8], [-1.1, -0.3, -0.6])
    assert ex <= 1e-8 * scale
    assert et <= 1e-8 * scale
    fronts, traj = annihilation_fronts(
        p, Grid2D(0.0, 3.0, 31, -1.0, 1.0, 21), n_levels=10)
    assert fronts.shape == (31, 21)
    assert traj.trajectories


def test_lambert_degenerate_straight_line():
    t = np.linspace(0.0, 1.0, 11)
    fam = lambert_local_trajectories(
        rho_slope=2.0, rho_zero=0.5, j_slope=-1.0, j_zero=0.5,
        t_samples=t, t_ref=0.0, x_ref=1.0)
    assert fam.degenerate
    assert np.allclose(fam.x_branch0, 1.0 - 0.5 * t, atol=1e-12)


def test_lambert_fold_nan_and_ode_residual():
    rho_slope, rho_zero = 1.0, 0.2
    j_slope, j_zero = -0.5, 0.0
    t = np.linspace(-1.0, 4.0, 501)
    fam = lambert_local_trajectories(rho_slope, rho_zero, j_slope, j_zero,
                                     t, t_ref=0.0, x_ref=0.1)
    # beyond the fold both branches are NaN
    assert np.isnan(fam.x_branch0).any()
    # where defined, x(t) solves dx/dt rho_lin = J_lin
    for x in (fam.x_branch0, fam.x_branch_minus1):
        good = np.isfinite(x)
        # keep samples at least 6 steps away from the fold / NaN boundary
        idx = np.array([i for i in range(6, t.size - 6)
                        if good[i - 6:i + 7].all()])
        idx = idx[np.abs(x[idx] - rho_zero) > 0.05]
        dt = t[1] - t[0]
        dxdt = (x[idx + 1] - x[idx - 1]) / (2 * dt)
        rho_lin = rho_slope * (x[idx] - rho_zero)
        j_lin = j_slope * (x[idx] - j_zero)
        resid = np.abs(dxdt * rho_lin - j_lin)
        assert np.max(resid / np.maximum(1.0, np.abs(j_lin))) < 1e-3


def test_lambert_validation():
    with pytest.raises(ValueError):
        lambert_local_trajectories(0.0, 0.0, 1.0, 0.1, [0.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        lambert_local_trajectories(1.0, 0.0, 1.0, 0.1, [0.0], 0.0, 0.1)


@pytest.mark.parametrize("j_zero", [0.0, 0.2], ids=["fold", "degenerate"])
def test_lambert_members_match_scalar_calls(j_zero):
    # an array of reference points gives each member bit for bit what a
    # call with that point alone gives
    t = np.linspace(-1.0, 4.0, 101)
    x_refs = np.array([0.05, 0.1, 0.3, -0.2])
    fam = lambert_local_trajectories(1.0, 0.2, -0.5, j_zero, t, 0.0,
                                     x_refs[:, None])
    assert fam.x_branch0.shape == fam.x_branch_minus1.shape == (4, t.size)
    for m, x_ref in enumerate(x_refs):
        one = lambert_local_trajectories(1.0, 0.2, -0.5, j_zero, t, 0.0,
                                         x_ref)
        assert np.array_equal(fam.x_branch0[m], one.x_branch0,
                              equal_nan=True)
        assert np.array_equal(fam.x_branch_minus1[m], one.x_branch_minus1,
                              equal_nan=True)
    with pytest.raises(ValueError, match="current zero"):
        lambert_local_trajectories(1.0, 0.0, 1.0, 0.1, t, 0.0,
                                   np.array([[0.3], [0.1]]))
