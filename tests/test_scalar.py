import numpy as np
import pytest

from relbohm import modes
from relbohm.numerics import omega
from relbohm.scalar import (FieldSample, current_j, density_rho,
                            quantum_potential, velocity)


def plane_wave_sample(k, z=0.3, t=0.7):
    w = omega(k)
    psi = w ** -0.5 * np.exp(1j * (k * z - w * t))
    return FieldSample(psi=psi, dpsi_dx=1j * k * psi, dpsi_dt=-1j * w * psi)


def test_plane_wave_density():
    s = plane_wave_sample(0.0)
    assert density_rho(s) == pytest.approx(1.0, abs=1e-14)


def test_real_sample_zero_density_and_current():
    s = FieldSample(psi=0.7, dpsi_dx=0.2, dpsi_dt=-0.4)
    assert density_rho(s) == 0.0
    assert current_j(s) == 0.0


def test_plane_wave_current_ratio():
    s = plane_wave_sample(0.75)
    assert current_j(s) / density_rho(s) == pytest.approx(0.6, abs=1e-14)
    assert velocity(s) == pytest.approx(0.6, abs=1e-14)


def test_parity_superposition_current():
    state = modes.ModeSet(k=[0.75, -0.75], phi=[1.0, 1.0])
    s = modes.eval_psi(state, 0.0, 0.4)
    assert current_j(s) == pytest.approx(0.0, abs=1e-14)
    assert velocity(s) == pytest.approx(0.0, abs=1e-14)


def test_velocity_divergence_flag():
    # rho = 0 for a real psi with real time derivative
    s = FieldSample(psi=1.0, dpsi_dx=1.0j, dpsi_dt=0.5)
    assert velocity(s) is None


def test_quantum_potential_constant():
    assert quantum_potential(lambda x, t: 2.0, 0.1, 0.2) == pytest.approx(
        0.0, abs=1e-8)


def test_quantum_potential_static_gaussian():
    # spatial form: -(1/2) A''/A = -(1/2)(x^2 - 1) for A = exp(-x^2/2)
    A = lambda x, t: np.exp(-0.5 * x * x)
    assert quantum_potential(A, 0.0, 0.0, spatial_only=True) == pytest.approx(
        0.5, abs=1e-6)
    assert quantum_potential(A, 1.3, 0.0, spatial_only=True) == pytest.approx(
        -0.5 * (1.3 ** 2 - 1.0), abs=1e-6)


def test_quantum_potential_rejects_nodes():
    with pytest.raises(ValueError):
        quantum_potential(lambda x, t: x, 0.0, 0.0)


def test_mass_identity_scalar():
    # (mu0)^2 = (dS/dt)^2 - (dS/dx)^2 = 1 + 2 Phi for a two-mode state
    state = modes.ModeSet(k=[0.0, 0.3], phi=[1.0, 0.5])

    def A(x, t):
        return abs(modes.eval_psi(state, x, t).psi)

    x0, t0 = 0.4, 0.2
    s = modes.eval_psi(state, x0, t0)
    # dS from the bilinears: dS_mu = Im(conj(psi) dpsi_mu) / |psi|^2
    a2 = abs(s.psi) ** 2
    ds_dt = (np.conj(s.psi) * s.dpsi_dt).imag / a2
    ds_dx = (np.conj(s.psi) * s.dpsi_dx).imag / a2
    mu_sq = ds_dt ** 2 - ds_dx ** 2
    phi = quantum_potential(A, x0, t0, h=1e-4)
    assert mu_sq == pytest.approx(1.0 + 2.0 * phi, abs=1e-6)


def test_velocity_equals_phase_gradient_ratio():
    state = modes.ModeSet(k=[0.1, 0.4], phi=[1.0, 0.8])
    s = modes.eval_psi(state, 0.7, 0.3)
    a2 = abs(s.psi) ** 2
    ds_dt = (np.conj(s.psi) * s.dpsi_dt).imag / a2
    ds_dx = (np.conj(s.psi) * s.dpsi_dx).imag / a2
    assert velocity(s) == pytest.approx(-ds_dx / ds_dt, abs=1e-12)


def test_continuity_discrete_state():
    state = modes.ModeSet(k=[0.2, -0.5, 1.0], phi=[1.0, 0.3j, 0.5])
    h = 1e-5
    z, t = 0.3, 0.8
    drho_dt = (density_rho(modes.eval_psi(state, z, t + h))
               - density_rho(modes.eval_psi(state, z, t - h))) / (2 * h)
    dj_dx = (current_j(modes.eval_psi(state, z + h, t))
             - current_j(modes.eval_psi(state, z - h, t))) / (2 * h)
    assert drho_dt + dj_dx == pytest.approx(0.0, abs=1e-8)
