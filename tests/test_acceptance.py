"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with -s (or read the captured output) for the per-criterion lines.
Criterion 5 checks the acausal leak P(t) of the cos2 packet: it starts at
zero, rises strictly to a single peak inside (0, 2), falls strictly from
there through t = 2, and matches an independent FFT oracle (numpy only,
no relbohm) at every sampled time, peak included.
"""

import json

import numpy as np
import pytest

from oracles import (d2w_dx2_5point, gauge_transform, integrate_trajectory,
                     velocity_discrete)
from relbohm import dirac, modes, nearnr, packets
from relbohm.cli import main
from relbohm.numerics import Grid2D


def _line(n, ok, msg):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {msg}")


@pytest.fixture(scope="session")
def explode_dir(tmp_path_factory):
    """Full-resolution explode run on the bundled cos2 config."""
    out = tmp_path_factory.mktemp("explode_full")
    rc = main(["explode", "--config", "cos2.json", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def thresholds(explode_dir):
    return json.loads((explode_dir / "thresholds.json").read_text())


def test_criterion_01_thresholds(thresholds):
    x_th, x0 = thresholds["x_th"], thresholds["x_0"]
    ok_a1 = abs(x_th - 0.57) <= 0.02 and abs(x0 - 0.72) <= 0.02
    # the alternative half-width reading a = 2 rescales both crossings by
    # 2 and cannot reproduce the quoted values; a = 1 is the winner
    alt = packets.Packet.cos2(2.0, k_cut=20.0)
    x_th2, x02 = packets.zero_crossings(alt)
    ok_a2 = abs(x_th2 - 0.57) <= 0.02 and abs(x02 - 0.72) <= 0.02
    ok = (ok_a1 or ok_a2) and thresholds["a"] == 1.0
    _line(1, ok, f"a=1: x_th={x_th:.4f}, x_0={x0:.4f} (target 0.57/0.72); "
                 f"a=2 gives {x_th2:.3f}/{x02:.3f} (rejected)")
    assert ok_a1, "a = 1 must reproduce the documented crossings"
    assert not ok_a2


def test_criterion_02_charge_balance(thresholds):
    q_in = thresholds["charge_inside"]
    q_tail = thresholds["charge_tail"]
    q_nw = thresholds["charge_nw_inside"]
    ok = (abs(q_tail) < 1e-4 * abs(q_in)
          and abs(q_in - 1.0) < 1e-3 and abs(q_nw - 1.0) < 1e-3)
    _line(2, ok, f"q_in={q_in:.6f}, q_tail={q_tail:.2e}, q_nw={q_nw:.6f}")
    assert abs(q_tail) < 1e-4 * abs(q_in)
    assert q_in == pytest.approx(1.0, abs=1e-3)
    assert q_nw == pytest.approx(1.0, abs=1e-3)


def test_criterion_03_integral_of_motion():
    rng = np.random.default_rng(2024)
    worst_df, worst_re = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = rng.uniform(-2.0, 2.0, n)
        while np.unique(k).size != n:
            k = rng.uniform(-2.0, 2.0, n)
        phi = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        state = modes.ModeSet(k=k, phi=phi)
        dbl = modes._double_sum(state, modes._pair_products(
            state, rng.uniform(-1, 1), rng.uniform(0, 1)))
        worst_re = max(worst_re, abs(dbl.real) / (abs(dbl.imag) + 1e-300))
        done = False
        for z0 in np.linspace(-1.0, 1.0, 9):
            if velocity_discrete(state, z0, 0.0) is None:
                continue
            ts, zs = integrate_trajectory(
                lambda z, t: velocity_discrete(state, z, t),
                z0=z0, t0=0.0, t1=1.0, dt=0.002)
            if ts[-1] < 1.0 - 1e-12:
                continue            # halted at a divergence flag; retry
            window = ts[-1] - ts[0] + abs(zs[-1] - zs[0])
            df = abs(modes.integral_F(state, zs[-1], ts[-1])
                     - modes.integral_F(state, z0, 0.0))
            worst_df = max(worst_df, df / max(window, 1.0))
            done = True
            break
        assert done, "no divergence-free trajectory found for a state"
    ok = worst_df < 1e-8 and worst_re < 1e-12 + 1e-14
    _line(3, ok, f"max |dF|/window = {worst_df:.2e} (< 1e-8), "
                 f"max Re/Im = {worst_re:.2e} (< 1e-12)")
    assert worst_df < 1e-8
    assert worst_re < 1e-12 + 1e-14


def test_criterion_04_pair_creation(fig1_state):
    grid = Grid2D(-0.005, 0.005, 161, 0.0, 0.01, 161)
    _, fig1, _ = modes.analyse(fig1_state, grid, 30)
    mild_grid = Grid2D(-2.0, 2.0, 101, 0.0, 2.0, 101)
    _, mild, _ = modes.analyse(
        modes.ModeSet(k=[0.0, 0.1], phi=[1.0, 1.0]), mild_grid, 20)
    ok = fig1.n_pair_events >= 1 and mild.n_pair_events == 0
    _line(4, ok, f"three-mode pair events = {fig1.n_pair_events} (>= 1), "
                 f"two-mode = {mild.n_pair_events} (== 0)")
    assert fig1.n_pair_events >= 1
    assert mild.n_pair_events == 0


def _fft_acausal_oracle(a, times, n=2 ** 16, length=64.0):
    """P(t) for the cos2 packet by FFT propagation, independent of relbohm.

    The localized amplitude at t = 0 is cos^2(pi x / 2a) on |x| < a; each
    Fourier mode evolves by exp(-i omega t), omega = sqrt(k^2 + 1), and
    P(t) is the share of |amplitude|^2 beyond the light cone |x| > a + t.
    """
    # Periodic box of length 64 with 2^16 points: dx = 2^-10, k-cutoff
    # pi / dx ~ 3217.  The cell holding the light-cone edge is split at the
    # edge; summing whole cells instead biases P low by ~0.3%.  A 2^21-point
    # box of length 2048 (same dx) gives the same P to 3e-15, and a quarter
    # of this dx moves it by < 5e-6 relative.  Measured gap from the
    # program's default quadrature on cos2.json: < 7.2e-6 relative at every
    # sampled t > 0.
    dx = length / n
    x = (np.arange(n) - n // 2) * dx
    psi0 = np.where(np.abs(x) < a, np.cos(0.5 * np.pi * x / a) ** 2, 0.0)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    psi0_k = np.fft.fft(psi0)
    p = {}
    for t in times:
        rho = np.abs(np.fft.ifft(psi0_k * np.exp(-1j * np.sqrt(k * k + 1.0)
                                                 * t))) ** 2
        outside = np.clip((np.abs(x) - a - t) / dx + 0.5, 0.0, 1.0)
        p[t] = float(np.sum(outside * rho) / np.sum(rho))
    return p


def _acausal_curve(thresholds):
    return {float(t): v for t, v in thresholds["acausal"].items()}


def _acausal_clauses(p, oracle):
    """Criterion 5's clauses for a sampled curve P(t); also (t*, gap)."""
    ts = sorted(t for t in p if 0 <= t <= 2)
    vals = [p[t] for t in ts]
    i_peak = int(np.argmax(vals))
    t_peak = ts[i_peak]
    steps = np.diff(vals)
    gap = max(abs(p[t] / oracle[t] - 1.0) for t in ts if t > 0)
    clauses = {
        "small0": p[0.0] < 1e-6,
        "positive": all(p[t] > 0 for t in ts if t > 0),
        "rise_fall": (0 < t_peak < 2 and ts[-1] == 2
                      and bool(np.all(steps[:i_peak] > 0))
                      and bool(np.all(steps[i_peak:] < 0))),
        "oracle": gap <= 1e-2,
        "same_peak": max(ts, key=oracle.get) == t_peak,
    }
    return clauses, t_peak, gap


@pytest.fixture(scope="session")
def acausal_oracle(thresholds):
    return _fft_acausal_oracle(thresholds["a"], _acausal_curve(thresholds))


def test_criterion_05_acausality(thresholds, acausal_oracle):
    p = _acausal_curve(thresholds)
    clauses, t_peak, gap = _acausal_clauses(p, acausal_oracle)
    ok = all(clauses.values())
    curve = ", ".join(f"P({t:g})={p[t]:.3e}" for t in sorted(p))
    _line(5, ok, f"P(0)={p[0.0]:.1e} (<1e-6): {clauses['small0']}; P>0 on "
                 f"(0,2]: {clauses['positive']}; rises to t*={t_peak:g} "
                 f"then falls through t=2: {clauses['rise_fall']}; max "
                 f"|P/P_oracle - 1| = {gap:.1e} (<= 1e-2): "
                 f"{clauses['oracle']}; oracle peak at t*: "
                 f"{clauses['same_peak']} [{curve}]")
    assert clauses["small0"]
    assert clauses["positive"]
    assert clauses["rise_fall"], "P(t) must rise to one peak, then fall"
    assert clauses["oracle"], "P(t) departs from the FFT oracle"
    assert clauses["same_peak"], "P(t) peaks away from the oracle's peak"


def test_criterion_05_rejects_doctored_curves(thresholds, acausal_oracle):
    p = _acausal_curve(thresholds)
    _, t_peak, _ = _acausal_clauses(p, acausal_oracle)
    ts = sorted(p)
    i = ts.index(t_peak)
    doctored = [
        ("small0", {0.0: 1e-5}),
        # keeps rising all the way to t = 2
        ("rise_fall", {t: p[t_peak] * (1.0 + 0.01 * j)
                       for j, t in enumerate(ts[i + 1:], 1)}),
        # a second local maximum after the peak
        ("rise_fall", {ts[i + 2]: 1.01 * p[ts[i + 1]]}),
    ] + [("oracle", {t: 1.05 * p[t]}) for t in ts if t > 0]
    for clause, change in doctored:
        clauses, _, _ = _acausal_clauses({**p, **change}, acausal_oracle)
        assert not clauses[clause], (clause, change)


def test_criterion_06_exact_identity_and_moments():
    gauss = packets.Packet.gaussian(0.1, 0.05, total_charge=1.0)
    cos2 = packets.Packet.cos2(1.0, k_cut=40.0)
    # the program's W (nearnr.correction_field), differenced in x
    xg = np.linspace(-15.0, 15.0, 31)
    res_g = np.max(np.abs(
        d2w_dx2_5point(lambda x: nearnr.correction_field(gauss, x, 0.3).W,
                       xg, h=1e-2)
        - (gauss.rho(xg, 0.3) - gauss.rho_nw(xg, 0.3))))
    xc = np.linspace(-2.0, 2.0, 21)
    res_c = np.max(np.abs(
        d2w_dx2_5point(lambda x: nearnr.correction_field(cos2, x, 0.0).W, xc)
        - (cos2.rho(xc, 0.0) - cos2.rho_nw(xc, 0.0))))
    m = [nearnr.moments(p, 0.0) for p in (gauss, cos2)]
    mom = max(abs(v) for pair in m for v in pair)
    ok = res_g < 1e-9 and res_c < 1e-8 and mom < 1e-6
    _line(6, ok, f"identity residual gauss={res_g:.2e}, cos2={res_c:.2e}; "
                 f"max |moment| = {mom:.2e} (< 1e-6)")
    assert res_g < 1e-9
    assert res_c < 1e-8
    assert mom < 1e-6


def test_criterion_07_near_nr_chain():
    gauss = packets.Packet.gaussian(0.1, 0.05, total_charge=1.0)
    x = np.linspace(-10.0, 10.0, 41)
    lhs, _, r27b = nearnr.density_difference_timeform(gauss, x, 0.3)
    mask = np.abs(lhs) > 0.1 * np.max(np.abs(lhs))
    rel = float(np.max(np.abs((lhs - r27b)[mask] / lhs[mask])))
    raw, mapped = nearnr.pushforward_l1(gauss, 0.0)
    improvement = raw / mapped
    ok = rel < 0.10 and improvement >= 5.0
    _line(7, ok, f"timeform relative error = {rel:.3f} (< 0.10), "
                 f"pushforward improvement = {improvement:.1f}x (>= 5)")
    assert rel < 0.10
    assert improvement >= 5.0


def test_criterion_08_spinor_identities():
    field = dirac.DiracField.random(3, seed=7)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, (12, 4))
    m1, _ = dirac.verify_mass_identity(field, pts, h=2e-3)
    m2, _ = dirac.verify_mass_identity(field, pts, h=1e-3)
    e1, _ = dirac.verify_eom(field, pts[:8], h=2e-3)
    e2, _ = dirac.verify_eom(field, pts[:8], h=1e-3)
    ratios_ok = 3.0 < m1 / m2 < 5.0 and 3.0 < e1 / e2 < 5.0
    resid_ok = m2 < 1e-5 and e2 < 1e-5

    fw = dirac.fw_hedgehog_field()
    fpts = rng.uniform(-1.5, 1.5, (10, 3))
    bil, _ = dirac.verify_fw_spin_tensor(fw, fpts)
    s = dirac.eval_spinor(field, pts[0])
    T = dirac.spin_tensor(s)
    T2 = dirac.spin_tensor(gauge_transform(s, 0.8 - 0.6j, np.zeros(4)))
    gauge = float(np.max(np.abs(T2 - T)))
    curl, _ = dirac.verify_curl_formula(fw, fpts)
    bal = dirac.verify_ensemble_balance(dirac.fw_rotating_field(),
                                        box_half=7.0)
    fw_ok = bil < 1e-10 and gauge < 1e-10 and curl < 1e-13 and bal < 1e-4
    ok = ratios_ok and resid_ok and fw_ok
    _line(8, ok, f"mass ratio {m1 / m2:.2f}, eom ratio {e1 / e2:.2f} "
                 f"(in [3,5]); residuals {m2:.1e}/{e2:.1e} (< 1e-5); "
                 f"bilinears {bil:.1e}, gauge {gauge:.1e} (< 1e-10); "
                 f"curl {curl:.1e} (< 1e-13); balance {bal:.1e} (< 1e-4)")
    assert ratios_ok
    assert resid_ok
    assert fw_ok


def test_criterion_09_lambert_local_model(thresholds):
    lam = thresholds["lambert"]
    ok = (lam is not None and lam["within_one_cell"]
          and lam["max_contour_distance"] is not None)
    _line(9, ok, "no annihilation vertex found" if lam is None else
          f"contour distance {lam['max_contour_distance']:.4f} <= cell "
          f"diagonal {lam['grid_cell_diagonal']:.4f}: "
          f"{lam['within_one_cell']}")
    assert lam is not None
    assert lam["within_one_cell"]


def test_criterion_10_determinism(tmp_path):
    runs = [("modes", "two_mode.json",
             ["f_grid.csv", "trajectories.csv", "summary.json"]),
            ("explode", "cos2.json",
             ["thresholds.json", "fronts.csv", "acausal.csv"]),
            ("nearnr", "gauss.json", ["correction.csv", "summary.json"]),
            ("spin", "dirac3.json", ["report.json"])]
    identical = True
    for cmd, cfg, files in runs:
        outs = []
        for n in ("1", "8"):
            out = tmp_path / f"{cmd}_{n}"
            assert main([cmd, "--config", cfg, "--out", str(out),
                         "--threads", n]) == 0
            outs.append(out)
        for f in files:
            if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes():
                identical = False
    _line(10, identical,
          "full runs of all four subcommands byte-identical for "
          "--threads 1 vs 8" if identical else "outputs differ")
    assert identical
