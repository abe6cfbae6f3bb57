import numpy as np
import pytest

from oracles import gauge_transform
from relbohm.dirac import (BALANCE_MAX_POINTS, GAMMA, GAMMA0, METRIC,
                           DiracField, DiracMode, FWField, SpinorSample,
                           _EPS3, _balance_terms, _du_ds, _metric_trace,
                           convective_momentum, effective_mass_sq,
                           eval_spinor, fw_gaussian_field, fw_hedgehog_field,
                           fw_rotating_field, fw_spinor, fw_u, fw_velocity,
                           quantum_potential_spinor, spin_tensor,
                           verify_curl_formula, verify_ensemble_balance,
                           verify_eom, verify_fw_spin_tensor,
                           verify_mass_identity)
from relbohm.numerics import omega


def single_mode(k=(0.0, 0.0, 0.75), spin="up", coeff=1.0):
    return DiracField([DiracMode(k=np.asarray(k, dtype=float), spin=spin,
                                 coeff=coeff)])


def rng_points(rng, n, half=1.0):
    return rng.uniform(-half, half, (n, 4))


def test_mode_validation():
    with pytest.raises(ValueError):
        DiracMode(k=[0.0, 0.0], spin="up", coeff=1.0)
    with pytest.raises(ValueError):
        DiracMode(k=[0.0, 0.0, 0.0], spin="sideways", coeff=1.0)
    with pytest.raises(ValueError):
        DiracField([])


def test_spinor_normalization_and_dirac_equation():
    k = np.array([0.3, -0.2, 0.5])
    field = single_mode(k=k, spin="down")
    s = eval_spinor(field, np.array([0.1, 0.2, 0.3, 0.4]))
    w = omega(np.linalg.norm(k))
    assert np.vdot(s.psi, s.psi).real == pytest.approx(2.0 * w, abs=1e-12)
    # (gamma^mu p_mu - 1) u = 0 with p = (w, k)
    u = s.psi
    op = w * GAMMA0 - sum(k[j] * GAMMA[j + 1] for j in range(3)) - np.eye(4)
    assert np.linalg.norm(op @ u) < 1e-12 * np.linalg.norm(u)


def test_plane_wave_momentum_and_mass():
    k = np.array([0.0, 0.0, 0.75])
    field = single_mode(k=k)
    s = eval_spinor(field, np.array([0.2, 0.0, 0.0, 0.3]))
    q = convective_momentum(s)
    assert np.allclose(q, [1.25, 0.0, 0.0, 0.75], atol=1e-12)
    assert q[3] / q[0] == pytest.approx(0.6, abs=1e-13)
    assert effective_mass_sq(s) == pytest.approx(1.0, abs=1e-12)


def test_plane_wave_quantum_potential_zero():
    field = single_mode()
    phi = quantum_potential_spinor(field, np.array([0.1, 0.5, -0.2, 0.4]))
    assert abs(phi) < 1e-8


def test_mass_identity_mild_superposition():
    field = DiracField([
        DiracMode(k=np.array([0.0, 0.0, 0.1]), spin="up", coeff=1.0),
        DiracMode(k=np.array([0.1, 0.0, 0.0]), spin="up", coeff=0.3)])
    s = eval_spinor(field, np.array([0.2, 0.1, 0.0, 0.3]))
    mu2 = effective_mass_sq(s)
    assert abs(mu2 - 1.0) < 0.1


def test_gauge_invariance_of_tensor_and_momentum():
    field = DiracField.random(3, seed=11)
    x = np.array([0.2, -0.4, 0.1, 0.3])
    s = eval_spinor(field, x)
    f = 0.8 - 0.6j
    s2 = gauge_transform(s, f, np.zeros(4))
    # constant rescale: T, q and mu0^2 unchanged
    assert np.allclose(spin_tensor(s2), spin_tensor(s), atol=1e-12)
    assert np.allclose(convective_momentum(s2), convective_momentum(s),
                       atol=1e-12)


def test_spin_tensor_symmetric_real():
    field = DiracField.random(4, seed=3)
    s = eval_spinor(field, np.array([0.1, 0.2, -0.3, 0.4]))
    T = spin_tensor(s)
    assert T.dtype == float
    assert np.allclose(T, T.T, atol=1e-12)


def test_spin_tensor_vanishes_scalar_like():
    # one spinor direction only: psi = g(x) u0 for a fixed spinor u0
    u0 = np.array([1.0, 0.0, 0.3, 0.0], dtype=complex)
    dg = np.array([0.2 + 0.1j, -0.3, 0.4j, 0.1])
    s = SpinorSample(psi=1.3 * u0, dpsi=dg[:, None] * u0[None, :])
    assert np.max(np.abs(spin_tensor(s))) < 1e-12


def test_mass_identity_converges():
    field = DiracField.random(3, seed=7)
    rng = np.random.default_rng(1)
    pts = rng_points(rng, 12)
    r1, _ = verify_mass_identity(field, pts, h=2e-3)
    r2, _ = verify_mass_identity(field, pts, h=1e-3)
    assert r2 < 1e-5
    assert 3.0 < r1 / r2 < 5.0


def test_eom_converges():
    field = DiracField.random(3, seed=7)
    rng = np.random.default_rng(1)
    pts = rng_points(rng, 8)
    r1, arr1 = verify_eom(field, pts, h=2e-3)
    r2, arr2 = verify_eom(field, pts, h=1e-3)
    assert arr2.shape == (8, 4)
    assert r2 < 1e-5
    assert 3.0 < r1 / r2 < 5.0


def test_identity_boost_oracle():
    # same physical content with all wavenumbers rotated rigidly: the
    # residual statistics must not blow up under the transformation
    base = DiracField.random(3, seed=5)
    c, s_ = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])
    rot = DiracField([DiracMode(k=R @ m.k, spin=m.spin, coeff=m.coeff)
                      for m in base.modes])
    rng = np.random.default_rng(2)
    pts = rng_points(rng, 8)
    r_base, _ = verify_mass_identity(base, pts)
    pts_rot = pts.copy()
    pts_rot[:, 1:] = pts[:, 1:] @ R.T
    r_rot, _ = verify_mass_identity(rot, pts_rot)
    assert r_rot < 10.0 * max(r_base, 1e-8)


# -- Foldy-Wouthuysen sector ------------------------------------------


def test_fw_u_examples():
    u = fw_u([0.0, 0.0, 1.0])
    assert np.allclose(u, [1, 0, 0, 0], atol=1e-14)
    u = fw_u([1.0, 0.0, 0.0])
    assert np.allclose(u, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-14)
    with pytest.raises(ValueError):
        fw_u([0.0, 0.0, -1.0])


def test_fw_u_bilinears():
    rng = np.random.default_rng(0)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                      [[1, 0], [0, -1]]])
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] < -0.9:
            continue
        u = fw_u(v)[:2]
        assert np.vdot(u, u).real == pytest.approx(1.0, abs=1e-12)
        for l in range(3):
            assert np.vdot(u, sigma[l] @ u).real == pytest.approx(
                v[l], abs=1e-12)


def test_du_ds_matches_fd():
    s0 = np.array([0.3, -0.2, 0.8])
    s0 /= np.linalg.norm(s0)
    ana = _du_ds(s0)
    h = 1e-6
    for l in range(3):
        e = np.zeros(3)
        e[l] = h
        fd = (fw_u(s0 + e) - fw_u(s0 - e)) / (2 * h)
        # compare only along unit-sphere-agnostic directions: _du_ds is
        # the unconstrained partial, same as the FD of the formula
        assert np.allclose(ana[l], fd, atol=1e-8)


def test_fw_spin_tensor_exact():
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.5, 1.5, (10, 3))
        r, _ = verify_fw_spin_tensor(field, pts)
        assert r < 1e-10


def test_fw_rotating_txx_hand_value():
    # s = (sin(x/2), 0, cos(x/2)): d_x s_l d_x s_l = 1/4, so T_xx = 1/16
    field = fw_rotating_field(rate=0.5)
    psi, dpsi4 = fw_spinor(field, np.array([0.3, -0.1, 0.2]))
    s = SpinorSample(psi=psi, dpsi=dpsi4)
    T = spin_tensor(s)
    assert T[1, 1] == pytest.approx(0.0625, abs=1e-12)


def test_curl_formula():
    # constant spin and a single rotation axis both give zero curl;
    # the hedgehog field has nonzero curl matched at O(h^2)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, (8, 3))
    r, _ = verify_curl_formula(fw_gaussian_field(), pts)
    assert r < 1e-9
    r, _ = verify_curl_formula(fw_rotating_field(), pts)
    assert r < 1e-7
    r1, _ = verify_curl_formula(fw_hedgehog_field(), pts, h=2e-4)
    r2, _ = verify_curl_formula(fw_hedgehog_field(), pts, h=1e-4)
    assert r2 < 1e-7
    assert r2 < r1


def test_ensemble_balance():
    r = verify_ensemble_balance(fw_gaussian_field(), box_half=7.0)
    assert r < 1e-6
    r = verify_ensemble_balance(fw_rotating_field(), box_half=7.0)
    assert r < 1e-4
    # the bundled fw_hedgehog.json field, and the --quick grid size
    r = verify_ensemble_balance(fw_hedgehog_field(), box_half=7.0)
    assert r < 1e-13
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        r = verify_ensemble_balance(field, box_half=7.0, n=41)
        assert r < 1e-13


def test_ensemble_balance_terms_vanish_on_their_own():
    # Both terms are total derivatives and odd on the centred box, so each
    # integrates to rounding level alone.  The balance therefore holds for
    # any relative weight of the stress term, a wrong one included: it
    # does not pin T (verify_fw_spin_tensor and the curl identity do).
    axis = np.linspace(-7.0, 7.0, 41)
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        _, phi_term, stress_term = _balance_terms(field, axis)
        for term in (phi_term, stress_term, phi_term - 3.0 * stress_term):
            integral = np.max(np.abs(term.sum(axis=1)))
            assert integral <= 1e-12 * np.sum(np.abs(term))
    _, _, stress_term = _balance_terms(fw_hedgehog_field(), axis)
    assert np.sum(np.abs(stress_term)) > 1.0


def test_ensemble_balance_point_limit():
    # the check comes before any grid is allocated
    n = round(BALANCE_MAX_POINTS ** (1 / 3)) + 1
    assert n ** 3 > BALANCE_MAX_POINTS
    with pytest.raises(ValueError, match="limit"):
        verify_ensemble_balance(fw_gaussian_field(), box_half=7.0, n=n)
    with pytest.raises(ValueError, match="limit"):
        verify_ensemble_balance(fw_gaussian_field(), box_half=7.0,
                                n=10 ** 6)


def _velocity_at(field, x):
    """Per-point oracle for fw_velocity: one (3,) point at a time."""
    shat = field.s(x)
    du = np.einsum("jl,la->ja", field.ds(x), _du_ds(shat))
    return np.einsum("a,ja->j", np.conj(fw_u(shat)), du).imag


def _curl_residuals(field, points, h):
    """Per-point oracle for verify_curl_formula's residuals."""
    res = []
    for x in points:
        curl = np.zeros(3)
        for k in range(3):
            j, i = (k + 1) % 3, (k + 2) % 3
            ej = np.zeros(3)
            ei = np.zeros(3)
            ej[j] = h
            ei[i] = h
            dvi_dj = (_velocity_at(field, x + ej)[i]
                      - _velocity_at(field, x - ej)[i]) / (2.0 * h)
            dvj_di = (_velocity_at(field, x + ei)[j]
                      - _velocity_at(field, x - ei)[j]) / (2.0 * h)
            curl[k] = dvi_dj - dvj_di
        rhs = 0.25 * np.einsum("kji,lmn,l,jm,in->k", _EPS3, _EPS3,
                               field.s(x), field.ds(x), field.ds(x))
        res.append(np.max(np.abs(curl - rhs)))
    return np.array(res)


def test_vectorized_velocity_and_curl_match_per_point_loop():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (12, 3))
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        v = fw_velocity(field, pts)
        assert v.shape == (12, 3)
        oracle = np.array([_velocity_at(field, x) for x in pts])
        assert np.max(np.abs(v - oracle)) < 1e-13
        # any leading shape
        grid = pts.reshape(3, 4, 3)
        assert np.max(np.abs(fw_velocity(field, grid).reshape(12, 3)
                             - oracle)) < 1e-13
        for h in (1e-3, 5e-4):
            r, res = verify_curl_formula(field, pts, h=h)
            assert res.shape == (12,)
            assert np.max(np.abs(res - _curl_residuals(field, pts, h))) \
                < 1e-13
            assert r == res.max()


def test_fw_u_rejects_s3_minus_one_in_an_array():
    s = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.0, -1.0]])
    with pytest.raises(ValueError):
        fw_u(s)
    assert fw_u(s[:2]).shape == (2, 4)
    assert np.array_equal(fw_u(s[:2])[1], fw_u(s[1]))


def test_fw_spinor_rejects_non_unit_spin():
    field = FWField(s=lambda p: np.array([0.0, 0.0, 1.1]),
                    ds=lambda p: np.zeros((3, 3)))
    with pytest.raises(ValueError, match="unit length"):
        fw_spinor(field, np.array([0.1, 0.2, 0.3]))


def test_ensemble_balance_boundary_warning():
    with pytest.warns(RuntimeWarning):
        verify_ensemble_balance(fw_gaussian_field(), box_half=1.0)
