"""Bohm kinematics of a scalar field at single points: the charge and
current bilinears of relbohm.numerics, the velocity J / rho and the
quantum potential, on plane waves and mode sums."""

import numpy as np
import pytest

from oracles import mode_sum, point_velocity
from relbohm import modes
from relbohm.numerics import bilinear_j, bilinear_rho, omega


def quantum_potential(A_field, x: float, t: float, h: float = 1e-4,
                      spatial_only: bool = False) -> float:
    """Oracle: Phi = -(1/2) A^{-1} box A by central differences.

    box = d^2/dx^2 - d^2/dt^2 (spacelike-positive), or the spatial
    Laplacian alone with spatial_only=True (the non-relativistic form).
    A_field(x, t) must be positive on the whole stencil.
    """
    a0 = A_field(x, t)
    stencil = [A_field(x + h, t), A_field(x - h, t)]
    if not spatial_only:
        stencil += [A_field(x, t + h), A_field(x, t - h)]
    if min([a0] + stencil) <= 0.0:
        raise ValueError("amplitude not positive on the stencil "
                         "(node of the wavefunction)")
    box = (stencil[0] - 2.0 * a0 + stencil[1]) / (h * h)
    if not spatial_only:
        box -= (stencil[2] - 2.0 * a0 + stencil[3]) / (h * h)
    return -0.5 * box / a0


def plane_wave_sample(k, z=0.3, t=0.7):
    """(psi, dpsi/dx, dpsi/dt) of one plane wave."""
    w = omega(k)
    psi = w ** -0.5 * np.exp(1j * (k * z - w * t))
    return psi, 1j * k * psi, -1j * w * psi


def test_plane_wave_density():
    psi, _, psit = plane_wave_sample(0.0)
    assert bilinear_rho(psi, psit) == pytest.approx(1.0, abs=1e-14)


def test_real_sample_zero_density_and_current():
    assert bilinear_rho(0.7, -0.4) == 0.0
    assert bilinear_j(0.7, 0.2) == 0.0


def test_plane_wave_current_ratio():
    psi, psix, psit = plane_wave_sample(0.75)
    assert bilinear_j(psi, psix) / bilinear_rho(psi, psit) == pytest.approx(
        0.6, abs=1e-14)
    assert point_velocity(psi, psix, psit) == pytest.approx(0.6, abs=1e-14)


def test_parity_superposition_current():
    state = modes.ModeSet(k=[0.75, -0.75], phi=[1.0, 1.0])
    psi, psix, psit = mode_sum(state, 0.0, 0.4)
    assert bilinear_j(psi, psix) == pytest.approx(0.0, abs=1e-14)
    assert point_velocity(psi, psix, psit) == pytest.approx(0.0, abs=1e-14)


def test_velocity_divergence_flag():
    # rho = 0 for a real psi with real time derivative
    assert point_velocity(1.0, 1.0j, 0.5) is None


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
        return abs(mode_sum(state, x, t)[0])

    x0, t0 = 0.4, 0.2
    psi, psix, psit = mode_sum(state, x0, t0)
    # dS from the bilinears: dS_mu = Im(conj(psi) dpsi_mu) / |psi|^2
    a2 = abs(psi) ** 2
    ds_dt = (np.conj(psi) * psit).imag / a2
    ds_dx = (np.conj(psi) * psix).imag / a2
    mu_sq = ds_dt ** 2 - ds_dx ** 2
    phi = quantum_potential(A, x0, t0, h=1e-4)
    assert mu_sq == pytest.approx(1.0 + 2.0 * phi, abs=1e-6)


def test_velocity_equals_phase_gradient_ratio():
    state = modes.ModeSet(k=[0.1, 0.4], phi=[1.0, 0.8])
    psi, psix, psit = mode_sum(state, 0.7, 0.3)
    a2 = abs(psi) ** 2
    ds_dt = (np.conj(psi) * psit).imag / a2
    ds_dx = (np.conj(psi) * psix).imag / a2
    assert point_velocity(psi, psix, psit) == pytest.approx(-ds_dx / ds_dt,
                                                            abs=1e-12)


def test_continuity_discrete_state():
    state = modes.ModeSet(k=[0.2, -0.5, 1.0], phi=[1.0, 0.3j, 0.5])
    h = 1e-5
    z, t = 0.3, 0.8

    def rho_j(z, t):
        psi, psix, psit = mode_sum(state, z, t)
        return bilinear_rho(psi, psit), bilinear_j(psi, psix)

    drho_dt = (rho_j(z, t + h)[0] - rho_j(z, t - h)[0]) / (2 * h)
    dj_dx = (rho_j(z + h, t)[1] - rho_j(z - h, t)[1]) / (2 * h)
    assert drho_dt + dj_dx == pytest.approx(0.0, abs=1e-8)
