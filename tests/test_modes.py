import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (integrate_trajectory, mode_sum, point_velocity,
                     velocity_discrete)
from relbohm import modes
from relbohm.contours import extract_contours
from relbohm.numerics import Grid2D, bilinear_j, bilinear_rho, omega


def boost(state: modes.ModeSet, chi: float) -> modes.ModeSet:
    """Boost by rapidity chi; amplitudes carry the omega^{-1/2} measure."""
    w = state.omega
    kp = state.k * np.cosh(chi) - w * np.sinh(chi)
    wp = w * np.cosh(chi) - state.k * np.sinh(chi)
    return modes.ModeSet(k=kp, phi=state.phi * np.sqrt(wp / w))


def random_state(rng, n_modes, k_max=5.0):
    k = rng.uniform(-k_max, k_max, n_modes)
    while np.unique(k).size != n_modes:
        k = rng.uniform(-k_max, k_max, n_modes)
    phi = rng.uniform(-1, 1, n_modes) + 1j * rng.uniform(-1, 1, n_modes)
    return modes.ModeSet(k=k, phi=phi)


def double_sum_parts(state: modes.ModeSet, z, t):
    """Real and imaginary part of the double sum of F at (z, t).

    The real part must vanish identically (pure-imaginary claim); both
    parts are returned so a test can measure the stray real residue.
    """
    dbl = modes._double_sum(state, modes._pair_products(
        state, np.asarray(z, dtype=float), np.asarray(t, dtype=float)))
    return dbl.real, dbl.imag


def test_modeset_validation():
    with pytest.raises(ValueError):
        modes.ModeSet(k=[0.0, 0.0], phi=[1.0, 1.0])
    with pytest.raises(ValueError):
        modes.ModeSet(k=[0.0, 1.0], phi=[1.0])
    with pytest.raises(ValueError):
        modes.ModeSet(k=[0.0], phi=[0.0])


def test_eval_single_mode():
    state = modes.ModeSet(k=[0.0], phi=[1.0])
    psi = np.sum(modes._mode_amplitudes(state, 0.37, 1.1))
    assert psi == pytest.approx(np.exp(-1.1j), abs=1e-14)
    assert abs(psi) == pytest.approx(1.0, abs=1e-14)


def test_eval_parity_pair():
    k = 0.6
    state = modes.ModeSet(k=[k, -k], phi=[1.0, 1.0])
    u = modes._mode_amplitudes(state, 0.0, 0.0)
    assert np.sum(u) == pytest.approx(2.0 * omega(k) ** -0.5, abs=1e-14)
    assert np.sum(1j * state.k * u) == pytest.approx(0.0, abs=1e-14)


def test_eval_matches_naive_sum():
    state = modes.ModeSet(k=[0.1, -0.7, 2.0], phi=[1.0, 0.3 - 0.2j, 0.5j])
    z, t = 0.42, 0.87
    naive = mode_sum(state, z, t)[0]
    assert np.sum(modes._mode_amplitudes(state, z, t)) == pytest.approx(
        naive, abs=1e-14)


def test_velocity_two_formula_paths():
    state = modes.ModeSet(k=[0.1, -0.7, 2.0], phi=[1.0, 0.3 - 0.2j, 0.5j])
    for z, t in [(0.0, 0.0), (0.5, 0.3), (-1.2, 0.9)]:
        v1 = velocity_discrete(state, z, t)
        v2 = point_velocity(*mode_sum(state, z, t))
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_velocity_single_mode_exact():
    state = modes.ModeSet(k=[0.75], phi=[1.0])
    assert velocity_discrete(state, 1.0, 2.0) == pytest.approx(
        0.6, abs=1e-15)


def test_integral_single_mode():
    state = modes.ModeSet(k=[0.75], phi=[2.0])
    z, t = 1.3, 0.4
    assert modes.integral_F(state, z, t) == pytest.approx(
        z - 0.6 * t, abs=1e-14)


def test_double_sum_pure_imaginary():
    rng = np.random.default_rng(42)
    for _ in range(30):
        state = random_state(rng, rng.integers(2, 5))
        z = rng.uniform(-3, 3)
        t = rng.uniform(0, 3)
        re, im = double_sum_parts(state, z, t)
        assert abs(re) < 1e-12 * abs(im) + 1e-14


def test_f_gradients_match_densities():
    # dF/dz = rho / sum|phi|^2 and dF/dt = -J / sum|phi|^2
    state = modes.ModeSet(k=[0.3, -0.9], phi=[1.0, 0.6 + 0.1j])
    h = 1e-6
    z, t = 0.2, 0.5
    dF_dz = (modes.integral_F(state, z + h, t)
             - modes.integral_F(state, z - h, t)) / (2 * h)
    dF_dt = (modes.integral_F(state, z, t + h)
             - modes.integral_F(state, z, t - h)) / (2 * h)
    psi, psix, psit = mode_sum(state, z, t)
    assert dF_dz == pytest.approx(bilinear_rho(psi, psit) / state.weight,
                                  abs=1e-8)
    assert dF_dt == pytest.approx(-bilinear_j(psi, psix) / state.weight,
                                  abs=1e-8)


def test_f_conserved_along_ode_trajectory():
    state = modes.ModeSet(k=[0.0, 0.4], phi=[1.0, 0.7])
    f0 = modes.integral_F(state, 0.3, 0.0)
    ts, zs = integrate_trajectory(
        lambda z, t: velocity_discrete(state, z, t),
        z0=0.3, t0=0.0, t1=2.0, dt=0.005)
    assert ts[-1] == pytest.approx(2.0)
    f1 = modes.integral_F(state, zs[-1], ts[-1])
    assert abs(f1 - f0) < 1e-8 * 4.0


def test_mean_rest_frame(fig1_state):
    assert modes.mean_rest_frame_check(modes.ModeSet(k=[0.0], phi=[1.0])) == 0
    pair = modes.ModeSet(k=[0.8, -0.8], phi=[1.0, 1.0])
    assert modes.mean_rest_frame_check(pair) == pytest.approx(0.0, abs=1e-15)
    assert abs(modes.mean_rest_frame_check(fig1_state)) < 1e-12


def test_single_mode_contours_straight():
    state = modes.ModeSet(k=[0.75], phi=[1.0])
    grid = Grid2D(-1.0, 1.0, 41, 0.0, 1.0, 41)
    _, traj, _ = modes.analyse(state, grid, 5)
    assert traj.n_pair_events == 0
    for tr in traj.trajectories:
        # z - 0.6 t = const along each contour
        c = tr.points[:, 0] - 0.6 * tr.points[:, 1]
        assert np.max(np.abs(c - c[0])) < 1e-10


def test_fig1_state_has_pair_events(fig1_state):
    grid = Grid2D(-0.005, 0.005, 121, 0.0, 0.01, 121)
    _, traj, _ = modes.analyse(fig1_state, grid, 25)
    assert traj.n_pair_events >= 1


def test_annotate_contours_one_call(fig1_state):
    # one rho_j_fn call on all vertices gives each line what a call on
    # its own vertices gives it
    grid = Grid2D(-0.005, 0.005, 61, 0.0, 0.01, 61)
    F, _, _ = modes.analyse(fig1_state, grid, 12)
    lines = extract_contours(grid.x, grid.t, F,
                                   np.linspace(F.min(), F.max(), 14)[1:-1])
    calls = []

    def rho_j(x, t):
        calls.append(x.size)
        return modes._rho_j(fig1_state, x, t)

    traj = modes.annotate_contours(lines, rho_j, fig1_state._rho_floor)
    assert len(lines) > 1 and calls == [sum(len(line.points) for line in lines)]
    for line, tr in zip(lines, traj.trajectories):
        rho, j = modes._rho_j(fig1_state, *line.points.T)
        assert np.array_equal(tr.points, line.points)
        assert np.array_equal(tr.rho, rho)
        assert np.array_equal(tr.v, np.where(
            np.abs(rho) < fig1_state._rho_floor, np.nan, j / rho),
            equal_nan=True)
    assert modes.annotate_contours([], rho_j, 1.0).trajectories == []


def test_mild_two_mode_no_pair_events():
    state = modes.ModeSet(k=[0.0, 0.1], phi=[1.0, 1.0])
    grid = Grid2D(-2.0, 2.0, 81, 0.0, 2.0, 81)
    _, traj, _ = modes.analyse(state, grid, 15)
    assert traj.n_pair_events == 0
    rho, _ = modes._rho_j(state, grid.x[:, None], grid.t[None, :])
    assert np.all(rho > 0)


def test_contours_shadowed_by_ode():
    # for a state with no density zeros each contour is a trajectory
    state = modes.ModeSet(k=[0.0, 0.1], phi=[1.0, 1.0])
    grid = Grid2D(-2.0, 2.0, 161, 0.0, 2.0, 161)
    _, traj, _ = modes.analyse(state, grid, 9)
    cell = np.hypot(grid.dx, grid.dt)
    tr = max(traj.trajectories, key=lambda tr: len(tr.points))
    pts = tr.points[np.argsort(tr.points[:, 1])]
    t0, z0 = pts[0, 1], pts[0, 0]
    ts, zs = integrate_trajectory(
        lambda z, t: velocity_discrete(state, z, t),
        z0=z0, t0=t0, t1=pts[-1, 1], dt=0.01)
    z_interp = np.interp(pts[:, 1], ts, zs)
    assert np.max(np.abs(z_interp - pts[:, 0])) < cell


def test_grid_warning_when_too_coarse(fig1_state):
    grid = Grid2D(-0.005, 0.005, 9, 0.0, 0.01, 9)
    with pytest.warns(RuntimeWarning):
        modes.analyse(fig1_state, grid, 40)


def test_boost_velocity_addition():
    state = modes.ModeSet(k=[0.0, 0.4], phi=[1.0, 0.7])
    chi = 0.6
    beta = np.tanh(chi)
    boosted = boost(state, chi)
    z, t = 0.3, 0.8
    zp = z * np.cosh(chi) - t * np.sinh(chi)
    tp = t * np.cosh(chi) - z * np.sinh(chi)
    v = velocity_discrete(state, z, t)
    vp = velocity_discrete(boosted, zp, tp)
    assert vp == pytest.approx((v - beta) / (1.0 - v * beta), abs=1e-10)


def test_boost_current_transforms_as_vector(fig1_state):
    # (rho, J) is a 2-vector: rho' at the boosted event equals
    # cosh(chi) rho - sinh(chi) J at the original event, and likewise for J'
    state = fig1_state
    chi = 0.5
    boosted = boost(state, chi)
    z = np.linspace(-0.004, 0.004, 17)
    t = np.full(z.shape, 0.003)
    rho, j = modes._rho_j(state, z, t)
    zp = z * np.cosh(chi) - t * np.sinh(chi)
    tp = t * np.cosh(chi) - z * np.sinh(chi)
    rho_p, j_p = modes._rho_j(boosted, zp, tp)
    scale = np.max(np.abs(rho)) + np.max(np.abs(j))
    assert np.allclose(rho_p, np.cosh(chi) * rho - np.sinh(chi) * j,
                       atol=1e-9 * scale)
    assert np.allclose(j_p, np.cosh(chi) * j - np.sinh(chi) * rho,
                       atol=1e-9 * scale)


@pytest.mark.parametrize("chi", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_fig1_antiparticles_in_every_frame(fig1_state, chi):
    state = boost(fig1_state, chi)
    grid_z = np.linspace(-0.02, 0.02, 301)
    grid_t = np.linspace(0.0, 0.02, 301)
    rho, _ = modes._rho_j(state, grid_z[:, None], grid_t[None, :])
    assert np.min(rho) < 0 < np.max(rho)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_f_purity_property(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, int(rng.integers(2, 5)))
    re, im = double_sum_parts(state, rng.uniform(-2, 2), rng.uniform(0, 2))
    assert abs(re) < 1e-12 * abs(im) + 1e-14


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("n_modes", range(1, 9))
def test_grid_fields_bitwise_per_row_and_full_grid(n_modes, threads):
    # 37 rows: two full blocks of io_utils.ROW_CHUNK and a short one
    state = random_state(np.random.default_rng(100 + n_modes), n_modes)
    grid = Grid2D(-2.0, 2.0, 37, 0.0, 3.0, 53)
    F, rho = modes.grid_fields(state, grid, threads)
    rows = np.array([modes.integral_F(state, x, grid.t) for x in grid.x])
    full, _ = modes._rho_j(state, grid.x[:, None], grid.t[None, :])
    assert F.tobytes() == rows.tobytes()
    assert rho.tobytes() == full.tobytes()


def test_grid_fields_purity_is_checked_per_row(monkeypatch):
    # a stray real part far below the block's max |Im| but above its own
    # row's: a check over the whole block would let it through
    double_sum = modes._double_sum

    def stray(state, uu):
        dbl = double_sum(state, uu)
        if dbl.shape[0] > 5:
            dbl[5] = 1e-11 + 1e-6j
        return dbl

    state = random_state(np.random.default_rng(7), 4)
    grid = Grid2D(-2.0, 2.0, 20, 0.0, 3.0, 30)
    _, im = double_sum_parts(state, grid.x[:16, None], grid.t)
    assert 1e-11 < modes.PURITY_TOL * np.max(np.abs(im))
    monkeypatch.setattr(modes, "_double_sum", stray)
    with pytest.raises(ArithmeticError, match="not pure imaginary: "
                       r"max \|Re\| = 1\.000e-11"):
        modes.grid_fields(state, grid)


def test_analyse_returns_the_command_summary(written):
    # floats are repr-exact in JSON, so the round trip compares exactly
    cfg, summary = written("modes", "two_mode.json", "summary.json")
    state = modes.ModeSet(k=cfg["k"],
                          phi=[complex(re, im) for re, im in cfg["phi"]])
    grid = Grid2D(**cfg["grid"])
    F, traj, got = modes.analyse(state, grid, cfg["n_levels"])
    assert json.loads(json.dumps(got)) == summary
    assert F.shape == (grid.n_x, grid.n_t)
    assert got["n_contours"] == len(traj.trajectories) > 0
