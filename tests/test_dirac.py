import json
import tracemalloc

import numpy as np
import pytest

from oracles import gauge_transform, spinor_mode_sum, stress_divergence
from relbohm.dirac import (BALANCE_MAX_N, GAMMA, GAMMA0, METRIC,
                           DiracField, DiracMode, FWField, SpinorSample,
                           _EPS3, _du_ds, _face_fluxes, _metric_trace,
                           convective_momentum, effective_mass_sq,
                           eval_spinor, fw_gaussian_field, fw_hedgehog_field,
                           fw_rotating_field, fw_spinor, fw_u,
                           identity_report, identity_residuals, jets,
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


def test_batched_eval_spinor_matches_the_mode_sum_oracle():
    field = DiracField.random(4, seed=3)
    rng = np.random.default_rng(5)
    for shape in ((6, 4), (3, 2, 4, 4)):
        pts = rng.uniform(-2.0, 2.0, shape)
        s = eval_spinor(field, pts)
        assert s.psi.shape == shape[:-1] + (4,)
        assert s.dpsi.shape == shape[:-1] + (4, 4)
        for idx in np.ndindex(shape[:-1]):
            ref = spinor_mode_sum(field, pts[idx])
            assert np.max(np.abs(s.psi[idx] - ref.psi)) < 1e-14
            assert np.max(np.abs(s.dpsi[idx] - ref.dpsi)) < 1e-14


def test_bilinears_nan_at_a_node_and_per_point_elsewhere():
    # psibar psi = |psi_1|^2 + |psi_2|^2 - |psi_3|^2 - |psi_4|^2 vanishes
    # in the first row
    psi = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.2, 0.1j, 0.0]])
    rng = np.random.default_rng(2)
    dpsi = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    s = SpinorSample(psi=psi, dpsi=dpsi)
    q, mu2, T = convective_momentum(s), effective_mass_sq(s), spin_tensor(s)
    assert np.isnan(q[0]).all() and np.isnan(mu2[0]) and np.isnan(T[0]).all()
    one = SpinorSample(psi=psi[1], dpsi=dpsi[1])
    assert s.density[1] == pytest.approx(one.density, abs=1e-15)
    assert np.allclose(q[1], convective_momentum(one), rtol=0, atol=1e-14)
    assert mu2[1] == pytest.approx(effective_mass_sq(one), abs=1e-14)
    assert np.allclose(T[1], spin_tensor(one), rtol=0, atol=1e-14)


def test_verifiers_name_a_node():
    # seed 13 takes psibar psi through zero; brentq puts a point on it
    from scipy.optimize import brentq
    field = DiracField.random(2, seed=13)
    pts = rng_points(np.random.default_rng(0), 20)
    dens = eval_spinor(field, pts).density
    a, b = pts[np.argmax(dens)], pts[np.argmin(dens)]
    assert dens.max() > 0.0 > dens.min()
    frac = brentq(lambda f: eval_spinor(field, a + f * (b - a)).density,
                  0.0, 1.0, xtol=1e-15)
    node = a + frac * (b - a)
    assert np.isnan(effective_mass_sq(eval_spinor(field, node)))
    for verify in (verify_mass_identity, verify_eom):
        with pytest.raises(ValueError, match="node") as info:
            verify(field, np.array([a, node]))
        assert str(node) in str(info.value)


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



def _fd_gaps(field, pts, h):
    """Largest gaps of the jets' Phi, d Phi, d q and d (D T) from the
    finite-difference oracle at step h (central differences of the
    batched functions, Phi itself by quantum_potential_spinor)."""
    J = jets(field, pts)
    # xp[i, nu] = pts[i] + h e_nu
    xp, xm = pts[:, None] + h * np.eye(4), pts[:, None] - h * np.eye(4)
    sp, sm = eval_spinor(field, xp), eval_spinor(field, xm)

    def diff(f):
        return (f(sp) - f(sm)) / (2 * h)

    dq = diff(convective_momentum)
    dm = diff(lambda s: s.density[..., None, None] * spin_tensor(s))
    dphi = (quantum_potential_spinor(field, xp, h=h)
            - quantum_potential_spinor(field, xm, h=h)) / (2 * h)
    return np.array([
        np.max(np.abs(quantum_potential_spinor(field, pts, h=h) - J.phi)),
        np.max(np.abs(dphi - J.dphi)), np.max(np.abs(dq - J.dq)),
        np.max(np.abs(dm - J.dDT))])


def test_jets_match_the_finite_difference_oracle():
    # the criterion-8 field: each gap is the oracle's O(h^2) error
    field = DiracField.random(3, seed=7)
    pts = rng_points(np.random.default_rng(1), 4)
    coarse, fine = _fd_gaps(field, pts, 2e-3), _fd_gaps(field, pts, 1e-3)
    assert np.all(fine < 1e-5)
    assert np.all((3.0 < coarse / fine) & (coarse / fine < 5.0))
    # values without a derivative by differences agree to rounding
    J = jets(field, pts)
    for i, x in enumerate(pts):
        s = eval_spinor(field, x)
        assert J.density[i] == pytest.approx(s.density, abs=1e-13)
        assert np.max(np.abs(J.q[i] - convective_momentum(s))) < 1e-13
        assert abs(J.trace_T[i] - _metric_trace(spin_tensor(s))) < 1e-13


def test_identity_residuals_at_rounding_level():
    field = DiracField.random(3, seed=7)
    pts = rng_points(np.random.default_rng(1), 12)
    r = identity_residuals(field, pts)
    assert r.in_domain.all()
    assert np.all(r.mass <= r.mass_bound) and np.all(r.eom <= r.eom_bound)
    assert r.mass.max() < 1e-14 and r.eom.max() < 1e-14
    # the bounds are small enough to catch an O(1) sign error
    assert r.mass_bound.max() < 1e-9 and r.eom_bound.max() < 1e-9


def test_identity_bounds_grow_as_the_density_falls():
    # seed 13 reaches psibar psi < 0; the bounds rise with |psi|^2 / D
    # and are infinite outside the domain
    field = DiracField.random(2, seed=13)
    r = identity_residuals(field, rng_points(np.random.default_rng(0), 20))
    assert np.sum(~r.in_domain) == 3
    assert np.all(np.isinf(r.eom_bound[r.density_ratio <= 0.0]))
    inside = r.in_domain
    low = np.argmin(r.density_ratio[inside])       # psibar psi ~ 3e-3 |psi|^2
    assert np.argmax(r.eom_bound[inside]) == low
    assert r.eom_bound[inside][low] > 1e3 * r.eom_bound[inside].min()
    assert np.all(r.mass[inside] <= r.mass_bound[inside])
    assert np.all(r.eom[inside] <= r.eom_bound[inside])


def test_identity_residuals_single_plane_wave():
    # Phi = 0 and T = 0: the identities close with no cancellation
    field = single_mode(k=(0.3, -0.2, 0.5), spin="down", coeff=0.6 - 0.8j)
    pts = rng_points(np.random.default_rng(4), 5)
    J = jets(field, pts)
    assert np.max(np.abs(J.phi)) < 1e-15
    assert np.max(np.abs(J.dDT)) < 1e-14
    r = identity_residuals(field, pts)
    assert r.mass.max() < 1e-14 and r.eom.max() < 1e-14

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


def test_batched_fw_spinor_matches_per_point_calls():
    pts = np.random.default_rng(9).uniform(-1.5, 1.5, (7, 3))
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        psi, dpsi4 = fw_spinor(field, pts)
        assert psi.shape == (7, 4) and dpsi4.shape == (7, 4, 4)
        for i, x in enumerate(pts):
            one_psi, one_dpsi4 = fw_spinor(field, x)
            assert np.max(np.abs(psi[i] - one_psi)) < 1e-15
            assert np.max(np.abs(dpsi4[i] - one_dpsi4)) < 1e-15


def test_fw_rotating_txx_hand_value():
    # s = (sin(x/2), 0, cos(x/2)): d_x s_l d_x s_l = 1/4, so T_xx = 1/16
    field = fw_rotating_field(rate=0.5)
    psi, dpsi4 = fw_spinor(field, np.array([0.3, -0.1, 0.2]))
    s = SpinorSample(psi=psi, dpsi=dpsi4)
    T = spin_tensor(s)
    assert T[1, 1] == pytest.approx(0.0625, abs=1e-12)


def test_curl_formula():
    # constant spin and a single rotation axis both give zero curl; the
    # hedgehog field's nonzero curl is matched to rounding, both sides
    # in closed form
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, (8, 3))
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        r, res = verify_curl_formula(field, pts)
        assert res.shape == (8,) and r == res.max()
        assert r < 1e-15


def test_ensemble_balance():
    r = verify_ensemble_balance(fw_gaussian_field(), box_half=7.0)
    assert r < 1e-6
    r = verify_ensemble_balance(fw_rotating_field(), box_half=7.0)
    assert r < 1e-4
    # the bundled fw_hedgehog.json field, and a coarser grid of 41 nodes
    r = verify_ensemble_balance(fw_hedgehog_field(), box_half=7.0)
    assert r < 1e-13
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        r = verify_ensemble_balance(field, box_half=7.0, n=41)
        assert r < 1e-13


def test_ensemble_balance_terms_vanish_on_their_own():
    # Each term's flux through a single face is not zero, but opposite
    # faces cancel by parity, each term on its own.  The balance therefore
    # holds for any relative weight of the stress term, a wrong one
    # included: it does not pin T (verify_fw_spin_tensor and the curl
    # identity do).
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        phi, stress, _ = _face_fluxes(field, 1.5, 30)
        for term in (phi, stress, phi - 3.0 * stress):
            scale = np.max(np.abs(term))
            assert np.max(np.abs(term[0::2] + term[1::2])) <= 1e-15 * scale
        assert np.all(np.abs(phi[np.arange(6), np.arange(6) // 2]) > 0.1)
    _, stress, _ = _face_fluxes(fw_hedgehog_field(), 1.5, 30)
    assert np.max(np.abs(stress)) > 1e-3


def _offset_hedgehog(offset):
    """The hedgehog field moved off the amplitude's centre: no parity."""
    hedgehog = fw_hedgehog_field()
    return FWField(s=lambda p: hedgehog.s(np.asarray(p) - offset),
                   ds=lambda p: hedgehog.ds(np.asarray(p) - offset))


def test_face_flux_matches_the_differenced_volume_integral():
    # Gauss's theorem against the oracle: a Gauss-Legendre volume rule on
    # A^2 d_j Phi + d_i (A^2 T_ji), the divergence by central differences.
    # Off centre the flux vector is not zero, so a wrong sign or weight of
    # T shows (flipping T, or dropping its 1/4, moves it by O(1)).
    field = _offset_hedgehog(np.array([0.4, -0.3, 0.0]))
    half = 1.5
    for n in (30, 60):
        phi, stress, _ = _face_fluxes(field, half, n)
        flux = np.sum(phi + stress, axis=0)
        x, w = np.polynomial.legendre.leggauss(n)
        x, w = half * x, half * w
        grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
        dv = np.einsum("a,b,c->abc", w, w, w)
        a2 = np.exp(-np.sum(grid * grid, axis=-1))
        integrand = -grid * a2[..., None] + stress_divergence(field, grid)
        volume = np.einsum("abc,abcj->j", dv, integrand)
        assert np.max(np.abs(flux[:2])) > 1e-3
        assert np.max(np.abs(flux - volume)) < 1e-6 * np.max(np.abs(flux))


def test_face_flux_independent_of_ds_layout():
    # a field that returns d_j s_l C-ordered in (..., 3, 3), not in the
    # built-in fields' point-last layout, gets the same fluxes
    for field in (fw_hedgehog_field(),
                  _offset_hedgehog(np.array([0.4, -0.3, 0.0]))):
        c_order = FWField(s=field.s,
                          ds=lambda p, f=field: np.ascontiguousarray(f.ds(p)))
        want = _face_fluxes(field, 1.5, 30)
        got = _face_fluxes(c_order, 1.5, 30)
        for g, w in zip(got, want):
            assert np.max(np.abs(np.subtract(g, w))) <= 1e-15 * np.max(
                np.abs(w))
        assert verify_ensemble_balance(c_order, box_half=7.0) == \
            pytest.approx(verify_ensemble_balance(field, box_half=7.0),
                          rel=1e-12, abs=1e-15)


def test_face_fluxes_working_set_is_bounded():
    # the spin benchmark's face rule, box_half 7 and 61 nodes a face axis:
    # field.ds runs one face at a time into one point-last array.  5.3 MB
    # with one field.ds call on all six faces and its copy
    field = fw_hedgehog_field()
    tracemalloc.start()
    try:
        _face_fluxes(field, 7.0, 61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * 2 ** 20


def test_ensemble_balance_point_limit():
    # the check comes before the Gauss-Legendre rule is built
    for n in (BALANCE_MAX_N + 1, 10 ** 6):
        with pytest.raises(ValueError, match="over the limit of 128 "
                                             "Gauss-Legendre nodes per face"):
            verify_ensemble_balance(fw_gaussian_field(), box_half=7.0, n=n)


def _velocity_at(field, x):
    """Per-point velocity v_j = Im(u^dag d_j u), one (3,) point at a time."""
    shat = field.s(x)
    du = np.einsum("jl,la->ja", field.ds(x), _du_ds(shat))
    return np.einsum("a,ja->j", np.conj(fw_u(shat)), du).imag


def _curl_residuals(field, points, h):
    """Per-point oracle for verify_curl_formula's residuals: curl v by
    central differences of _velocity_at, so O(h^2)."""
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
    # the vectorized closed-form curl against the per-point velocity
    # loop: its residuals sit at rounding, and the differenced ones close
    # on them as O(h^2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (12, 3))
    for field in (fw_gaussian_field(), fw_rotating_field(),
                  fw_hedgehog_field()):
        _, exact = verify_curl_formula(field, pts)
        gaps = [np.max(np.abs(_curl_residuals(field, pts, h) - exact))
                for h in (1e-3, 5e-4)]
        assert gaps[1] < 1e-7
    # the hedgehog's curl is not zero, so its truncation error shows:
    # halving h cuts it 4x
    assert 3.0 < gaps[0] / gaps[1] < 5.0


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


def _points(point_seed, n, half=1.0):
    """The spin command's sample points."""
    return np.random.default_rng(point_seed).uniform(-half, half, (n, 4))


def test_identity_report_is_the_command_report(written):
    # floats are repr-exact in JSON, so the round trip compares exactly
    cfg, report = written("spin", "dirac3.json", "report.json")
    field = DiracField.random(n_modes=cfg["n_modes"], seed=cfg["seed"],
                              k_max=cfg["k_max"])
    got, failure = identity_report(field, _points(
        cfg["point_seed"], cfg["n_points"], cfg["point_range"]))
    assert failure is None and got["converged"] is True
    assert json.loads(json.dumps(got)) == report


def test_identity_report_names_an_empty_domain():
    # the draw of the CLI's exit-3 case: no point where psibar psi > 0
    report, failure = identity_report(DiracField.random(n_modes=2, seed=13),
                                      _points(151, 4))
    assert report["converged"] is False and report["excluded_points"] == 4
    assert report["mass_identity"]["max_residual"] is None
    assert failure.startswith("empty domain") and "all 4 sample" in failure
