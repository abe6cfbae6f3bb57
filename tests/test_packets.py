import numpy as np
import pytest

from relbohm import packets
from relbohm.numerics import Grid2D
from relbohm.ode import integrate_trajectory
from relbohm.packets import (FrontKernel, Packet, PacketSpec,
                             _panel_integral, acausal_probability,
                             annihilation_fronts, densities,
                             fft_row_size, lambert_local_trajectories,
                             threshold_charges, zero_crossings)
from oracles import point_velocity


def velocity(packet, x, t):
    """The point_velocity oracle on psi and its first derivatives from
    Packet.fields at one point."""
    return point_velocity(*(complex(v) for v in packet.fields(
        x, t, [(0, 0), (1, 0), (0, 1)])))


@pytest.fixture(scope="module")
def cos2():
    return Packet(PacketSpec(shape="cos2", a=1.0))


@pytest.fixture(scope="module")
def gauss():
    return Packet(PacketSpec(shape="gaussian", k0=0.1, sigma_k=0.05,
                             total_charge=1.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(shape="box")
    with pytest.raises(ValueError):
        PacketSpec(shape="cos2", a=-1.0)
    with pytest.raises(ValueError):
        PacketSpec(shape="gaussian", sigma_k=0.0)
    with pytest.raises(ValueError):
        PacketSpec(total_charge=-2.0)


def test_cos2_shape_values():
    spec = PacketSpec(shape="cos2", a=1.0)
    # removable singularities filled by their limits
    assert spec.shape_values(0.0) == pytest.approx(1.0, abs=1e-12)
    assert spec.shape_values(np.pi) == pytest.approx(0.5, abs=1e-12)
    assert spec.shape_values(-np.pi) == pytest.approx(0.5, abs=1e-12)
    # generic point against the explicit formula
    k = 1.3
    expect = np.sin(k) / (k * (1.0 - k ** 2 / np.pi ** 2))
    assert spec.shape_values(k) == pytest.approx(expect, abs=1e-12)


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
        assert q == pytest.approx(p.spec.total_charge, rel=1e-8)


def test_total_rho_charge(cos2):
    L = cos2.decay_window()
    q = _panel_integral(lambda x: cos2.rho(x, 0.0), -L, L, n_panels=256)
    assert q == pytest.approx(cos2.spec.total_charge, rel=1e-5)


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


@pytest.mark.parametrize("spec, kwargs", [
    (PacketSpec(shape="cos2", a=0.5), {}),
    (PacketSpec(shape="cos2", a=1.0), {}),
    (PacketSpec(shape="cos2", a=2.0), {}),
    (PacketSpec(shape="cos2", a=1.0), {"k_cut": 40.0}),
    (PacketSpec(shape="gaussian", k0=0.5, sigma_k=2.0), {}),
], ids=["cos2-a0.5", "cos2-a1", "cos2-a2", "cos2-k_cut40", "gaussian"])
def test_view_matches_configured_rule(spec, kwargs):
    p = Packet(spec, **kwargs)
    rng = np.random.default_rng(3)
    # 55 and 70 pass the decay window, where the t = 0 row ends
    for reach in (0.0, 2.5, 4.5, 7.0, 55.0, 70.0):
        view = p.at_reach(reach)
        assert view is not p and view.k.size < p.k.size
        assert (view.spec, view.k_cut, view.norm) == (p.spec, p.k_cut,
                                                      p.norm)
        assert view.t0_row is p.t0_row
        x, t = _within_reach(rng, reach, 64)
        rho, j = p.rho_j(x, t)
        rho_v, j_v = view.rho_j(x, t)
        scale = np.max(np.abs(p.rho(np.linspace(-reach, reach, 65), 0.0)))
        assert np.max(np.abs(rho_v - rho)) <= 1e-13 * scale
        assert np.max(np.abs(j_v - j)) <= 1e-13 * scale


def test_view_panels_even_and_no_finer_than_parent(cos2, gauss):
    for reach in (0.0, 1.0, 3.3, 4.5, 10.0, 31.0, 40.0, 1e3):
        view = cos2.at_reach(reach)
        assert view.k.size <= cos2.k.size
        if view is not cos2:
            panels = view.k.size // Packet.REACH_ORDER
            assert view.k.size % Packet.REACH_ORDER == 0 and panels % 2 == 0
            # k = 0 on a panel edge: the nodes mirror about it, none on it
            assert np.allclose(view.k, -view.k[::-1], rtol=0, atol=1e-12)
            assert np.min(np.abs(view.k)) > 0
    # the rule of the decay window is no coarser than the configured one
    assert cos2.at_reach(1e3) is cos2
    # sigma_k / 2 panels hold more nodes than the narrow gaussian's own
    assert gauss.at_reach(1.0) is gauss


def test_view_at_reach_zero(cos2):
    view = cos2.at_reach(0.0)
    assert view.k.size < cos2.k.size
    rho, j = cos2.rho_j(0.0, 0.0)
    rho_v, j_v = view.rho_j(0.0, 0.0)
    assert abs(rho_v - rho) <= 1e-13 * abs(rho)
    assert abs(j_v - j) <= 1e-13 * abs(rho)


def test_densities_past_the_decay_window(cos2):
    # reach 65: max |density_x| + t
    x = np.linspace(-5.0, 5.0, 11)
    prof = densities(cos2, x, 60.0)
    rho, j = cos2.rho_j(x, 60.0)
    scale = np.max(np.abs(cos2.rho(x, 0.0)))
    assert np.max(np.abs(prof.rho - rho)) <= 1e-13 * scale
    assert np.max(np.abs(prof.j - j)) <= 1e-13 * scale
    assert np.max(np.abs(prof.rho_nw - cos2.rho_nw(x, 60.0))) <= 1e-13 * scale


def test_view_too_coarse_raises(cos2, monkeypatch):
    # a view on an eighth of the panels its reach needs aliases rho there
    rule = packets._gl_panels
    monkeypatch.setattr(packets, "_gl_panels", lambda lo, hi, n, order:
                        rule(lo, hi, max(2, n // 8), order))
    with pytest.raises(ArithmeticError, match="too coarse"):
        cos2.at_reach(4.5)


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
    assert np.allclose(charges, cos2.spec.total_charge, rtol=1e-5)


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
    # k_cut = 40 keeps direct sums cheap; 24-point panels keep them exact
    # out to the edge of the decay window
    return Packet(PacketSpec(shape="cos2", a=1.0), k_cut=40.0, gl_order=24,
                  x_scale=1.0)


def test_fft_rows_match_direct_sums(cos2_k40):
    # oracle: Packet.fields integrated by _panel_integral at 8x the panels
    # of the direct-sum code the FFT rows replaced
    p = cos2_k40
    dx, n = fft_row_size(p, 2.0)
    assert n * dx == 128.0     # L = 33 > 32 at t = 2 doubles the box
    for t in (0.25, 0.75, 2.0):
        edge, L = p.support_edge + t, p.decay_window() + t

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
    q_nw = _panel_integral(lambda x: p.rho_nw(x, 0.0), 0.0, p.spec.a,
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
        assert (p.spec.total_charge * np.abs(prof.rho) / prof.rho_nw0
                == pytest.approx(mass, rel=1e-6))


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
    p = Packet(PacketSpec(shape="cos2", a=1.0), k_cut=40.0, gl_order=8,
               x_scale=4.0)
    kernel = FrontKernel(p)
    assert np.max(np.abs(kernel.k)) <= p.k_cut
    h = 1e-5
    for x, t in [(0.3, 0.2), (0.9, 0.6), (1.4, 0.1), (2.0, 1.0)]:
        dF_dx = (kernel.evaluate(x + h, t)
                 - kernel.evaluate(x - h, t)).item() / (2 * h)
        dF_dt = (kernel.evaluate(x, t + h)
                 - kernel.evaluate(x, t - h)).item() / (2 * h)
        rho, j = p.rho_j(x, t)
        assert abs(dF_dx - 2.0 * rho) <= 1e-6
        assert abs(dF_dt + 2.0 * j) <= 1e-6


def test_front_kernel_conserved_along_ode(cos2):
    kernel = FrontKernel(cos2)
    x0, t0, t1 = 0.2, 0.0, 1.0
    ts, xs = integrate_trajectory(
        lambda x, t: velocity(cos2, x, t), z0=x0, t0=t0, t1=t1,
        dt=0.002)
    f0 = kernel.evaluate(x0, t0).item()
    f1 = kernel.evaluate(xs[-1], ts[-1]).item()
    assert abs(f1 - f0) < 1e-4 * cos2.spec.a


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
    p = Packet(PacketSpec(shape="cos2", a=1.0), k_cut=40.0, gl_order=8,
               x_scale=4.0)
    x = np.linspace(-60.0, 60.0, 481)
    t = np.array([0.0, 0.75, 1.5])
    F = FrontKernel(p).evaluate(x, t)
    for c, L in enumerate(p.decay_window() + t):
        assert np.all(F[x < -L, c] == 0.0)
        right = F[x > L, c]
        assert np.all(right == right[0])
        assert right[0] == pytest.approx(2.0 * p.spec.total_charge, abs=1e-8)
        # no jump where the clip starts: the field is already flat there
        inside = F[(x > L - 5.0) & (x <= L), c]
        assert np.max(np.abs(inside - right[0])) < 1e-8


def test_front_kernel_negative_times():
    # a grid with t_min < 0: the real, even spectrum makes rho even in t,
    # so F(x, -t) = F(x, t), and the gradient still holds there
    p = Packet(PacketSpec(shape="cos2", a=1.0), k_cut=40.0, gl_order=8,
               x_scale=4.0)
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
