import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbohm.numerics import Grid2D, gauss_legendre, lambert_w, omega


def test_omega_values():
    assert omega(0.0) == 1.0
    assert omega(0.75) == pytest.approx(1.25, abs=1e-15)
    assert omega(-0.75) == pytest.approx(1.25, abs=1e-15)


def test_gauss_legendre_is_leggauss_made_once():
    for order in (12, 24, 61):
        nodes, weights = gauss_legendre(order)
        want = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, want[0])
        assert np.array_equal(weights, want[1])
        assert gauss_legendre(order)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_omega_difference_identity(k, kp):
    assert omega(k) ** 2 - omega(kp) ** 2 == pytest.approx(
        k ** 2 - kp ** 2, abs=1e-9)


@given(st.floats(-0.35, 100.0))
@settings(max_examples=200)
def test_lambert_branch0_roundtrip(y):
    w = lambert_w(0, y)
    assert w * np.exp(w) == pytest.approx(y, rel=1e-12, abs=1e-12)


@given(st.floats(-0.36, -1e-6))
@settings(max_examples=200)
def test_lambert_branch_minus1_roundtrip(y):
    w = lambert_w(-1, y)
    assert w <= -1.0 + 1e-12
    assert w * np.exp(w) == pytest.approx(y, rel=1e-12, abs=1e-12)


_EPS = np.finfo(float).eps
_INV_E = np.exp(-1.0)
# log-spaced sweeps of each branch's domain: up from -1/e (the first
# points round to -1/e itself), and in |y| from 1e-300 to 1/e and 1e300
_FROM_BRANCH_POINT = -_INV_E + np.logspace(-17, -0.5, 300)
_NEGATIVE = -np.logspace(-300, np.log10(_INV_E), 300)
_LAMBERT_SWEEPS = {
    0: np.concatenate([_FROM_BRANCH_POINT, _NEGATIVE, [0.0],
                       np.logspace(-300, 300, 600)]),
    -1: np.concatenate([_FROM_BRANCH_POINT, _NEGATIVE]),
}


@pytest.mark.parametrize("branch", [0, -1])
def test_lambert_matches_scipy_oracle(branch):
    from scipy.special import lambertw

    y = _LAMBERT_SWEEPS[branch]
    w = lambert_w(branch, y)
    # backward error: w e^w reproduces y to rounding in w and exp
    assert np.all(np.abs(w * np.exp(w) - y)
                  <= 4 * _EPS * (1 + np.abs(w)) * np.abs(y))
    assert np.all(w >= -1.0) if branch == 0 else np.all(w <= -1.0)
    # forward error against scipy, with the condition of W.  scipy returns
    # NaN at -1/e, and on branch -1 within 1e-6 of -1/e its Halley, started
    # from log(-y), stops early (7e-5 off at -1/e + 1e-9); the test below
    # covers that stretch
    far = y > -_INV_E + (1e-6 if branch == -1 else 0.0)
    y, w = y[far], w[far]
    cond = np.abs(y) / np.abs(np.exp(w) * (1 + w))
    assert np.all(np.abs(w - lambertw(y, branch).real)
                  <= 4 * _EPS * (np.abs(w) + cond))


@pytest.mark.parametrize("branch", [0, -1])
def test_lambert_inverts_w_exp_w_near_branch_point(branch):
    # W(w e^w) gives w back to the condition of W, where a backward error
    # cannot tell w from the other branch's value
    w = -1.0 + (1 if branch == 0 else -1) * np.logspace(-8, 0, 300)
    y = w * np.exp(w)
    cond = np.abs(y) / np.abs(np.exp(w) * (1 + w))
    assert np.all(np.abs(lambert_w(branch, y) - w)
                  <= 4 * _EPS * (np.abs(w) + cond))


@pytest.mark.parametrize("branch", [0, -1])
def test_lambert_branch_point_and_clamp(branch):
    # -1/e and the values up to 1e-15 below it are the branch point
    for y in (-_INV_E, -_INV_E - 5e-16, -_INV_E - 1e-15):
        assert lambert_w(branch, y) == -1.0
    assert lambert_w(branch, np.array([-_INV_E - 1e-15]))[0] == -1.0


@pytest.mark.parametrize("branch", [0, -1])
def test_lambert_array_equals_scalar_calls(branch):
    y = _LAMBERT_SWEEPS[branch]
    w = lambert_w(branch, y)
    assert np.array_equal(w, [lambert_w(branch, v) for v in y])
    grid = lambert_w(branch, y[:300].reshape(20, 15))
    assert np.array_equal(grid.ravel(), w[:300])


def test_lambert_branch_minus1_where_exp_w_is_subnormal():
    # below y = -4e-306, e^w is subnormal: w e^w - y loses digits and is
    # 0 / 0 at -5e-324.  W solves the log form w + ln(-w) = ln(-y) there
    y = -np.concatenate([np.logspace(-300, -323, 47), [5e-324]])
    w = lambert_w(-1, y)
    assert np.all(np.isfinite(w)) and np.all(w < -1.0)
    log_y = np.log(-y)
    assert np.all(np.abs(w + np.log(-w) - log_y) <= 4 * _EPS * np.abs(log_y))
    assert np.array_equal(w, [lambert_w(-1, v) for v in y])


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w(0, -1.0)
    with pytest.raises(ValueError):
        lambert_w(-1, 0.5)
    with pytest.raises(ValueError):
        lambert_w(2, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(1.0, 0.0, 10, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid2D(0.0, 1.0, 1, 0.0, 1.0, 10)
    g = Grid2D(0.0, 1.0, 11, 0.0, 2.0, 21)
    assert g.dx == pytest.approx(0.1)
    assert g.dt == pytest.approx(0.1)
