"""Convective-current Bohmian theory for free positive-energy spinors.

Fields are finite superpositions of positive-energy Dirac plane waves in
the Dirac representation, evaluated with analytic first derivatives.
From them: the convective momentum, effective mass, spinor quantum
potential, the spin stress tensor, and numerical verification of the
mass identity, the stress-tensor equations of motion, and the
Foldy-Wouthuysen (FW) reductions.

Metric dictionary
-----------------
All components are real-time with signature (+, -, -, -) and index order
(t, x, y, z); coordinate derivatives are plain (d/dt, d/dx, ...).  The
source identities are stated in the imaginary-time (x4 = ict) formalism;
the translation used throughout is

    Euclidean contraction  a_mu b_mu      ->  -g^{mu nu} a_mu b_nu
    Euclidean trace        T_mumu         ->  -g^{mu nu} T_{mu nu}
    proper velocity norm   u_mu u_mu=-c^2 ->  u_mu u^mu = +1

so the mass identity reads (mu0)^2 = 1 + 2 Phi - g^{mu nu} T_{mu nu} in
natural units.  The translation is verified, not assumed: the identity
and equation-of-motion residuals must vanish as O(h^2) under step
halving, which pins every sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import omega

__all__ = [
    "DiracField",
    "DiracMode",
    "FWField",
    "SpinorSample",
    "convective_momentum",
    "effective_mass_sq",
    "eval_spinor",
    "fw_gaussian_field",
    "fw_hedgehog_field",
    "fw_rotating_field",
    "fw_spinor",
    "fw_u",
    "fw_velocity",
    "quantum_potential_spinor",
    "spin_tensor",
    "verify_curl_formula",
    "verify_ensemble_balance",
    "verify_eom",
    "verify_fw_spin_tensor",
    "verify_mass_identity",
]

#: metric signature (+, -, -, -) as the diagonal
METRIC = np.array([1.0, -1.0, -1.0, -1.0])

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
GAMMA = np.empty((4, 4, 4), dtype=complex)
GAMMA[0] = GAMMA0
for _i in range(3):
    GAMMA[_i + 1] = np.block(
        [[np.zeros((2, 2)), _SIGMA[_i]], [-_SIGMA[_i], np.zeros((2, 2))]])

_CHI = {"up": np.array([1.0, 0.0], dtype=complex),
        "down": np.array([0.0, 1.0], dtype=complex)}

#: relative |psibar psi| floor marking a node of the field
EPS_NODE = 1e-12
#: central-difference step inside verify_ensemble_balance
BALANCE_H = 1e-3
#: most grid points (n^3 <= 128^3) of verify_ensemble_balance; its
#: arrays take ~104 bytes a point, ~220 MB at the limit
BALANCE_MAX_POINTS = 2 ** 21
#: grid points per pass of verify_ensemble_balance; a pass's temporaries
#: (~1 MB of field.ds) stay in cache
BALANCE_CHUNK = 2 ** 14
#: z component of the unnormalized hedgehog spin direction (x, y, c)
HEDGEHOG_C = 2.0


def _plane_spinor(k: np.ndarray, spin: str) -> np.ndarray:
    """Positive-energy spinor, u^dagger u = 2 omega normalization."""
    w = float(omega(np.linalg.norm(k)))
    chi = _CHI[spin]
    sk = np.einsum("i,iab->ab", k, _SIGMA)
    lower = sk @ chi / (w + 1.0)
    return np.sqrt(w + 1.0) * np.concatenate([chi, lower])


@dataclass(frozen=True)
class DiracMode:
    k: np.ndarray          # 3-vector wavenumber
    spin: str              # "up" | "down"
    coeff: complex

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.shape != (3,):
            raise ValueError("mode wavenumber must be a 3-vector")
        if self.spin not in _CHI:
            raise ValueError(f"spin must be 'up' or 'down', not {self.spin!r}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeff", complex(self.coeff))


class DiracField:
    """Superposition of positive-energy plane-wave modes.

    Each mode's spinor is checked against the free Dirac equation,
    (gamma^mu p_mu - 1) u = 0, to 1e-12 at construction.
    """

    def __init__(self, modes: list[DiracMode]):
        if not modes:
            raise ValueError("need at least one mode")
        self.modes = list(modes)
        self._u = []
        for m in self.modes:
            u = _plane_spinor(m.k, m.spin)
            w = float(omega(np.linalg.norm(m.k)))
            p = np.array([w, *m.k])
            slash = np.einsum("m,m,mab->ab", METRIC, p, GAMMA)
            res = np.linalg.norm(slash @ u - u) / np.linalg.norm(u)
            if res > 1e-12:
                raise AssertionError(
                    f"plane-wave spinor violates the Dirac equation: {res:.2e}")
            self._u.append(u)
        self._omega = np.array(
            [omega(np.linalg.norm(m.k)) for m in self.modes])

    @classmethod
    def random(cls, n_modes: int, seed: int, k_max: float = 1.0
               ) -> "DiracField":
        """Seeded random positive-energy field with |k| <= k_max."""
        rng = np.random.default_rng(seed)
        modes = []
        for _ in range(n_modes):
            k = rng.uniform(-1.0, 1.0, 3)
            k *= k_max * rng.uniform(0.1, 1.0) / max(np.linalg.norm(k), 1e-12)
            re, im = rng.uniform(-1.0, 1.0, 2)
            modes.append(DiracMode(k=k, spin=rng.choice(["up", "down"]),
                                   coeff=re + 1j * im))
        return cls(modes)


@dataclass
class SpinorSample:
    """psi and its coordinate derivatives at one spacetime point.

    dpsi[mu] = d psi / d x^mu with index order (t, x, y, z).
    """

    psi: np.ndarray        # (4,) complex
    dpsi: np.ndarray       # (4, 4) complex

    @property
    def psibar(self) -> np.ndarray:
        return np.conj(self.psi) @ GAMMA0

    @property
    def dpsibar(self) -> np.ndarray:
        """(4, 4): row mu is d psibar / d x^mu."""
        return np.conj(self.dpsi) @ GAMMA0

    @property
    def density(self) -> float:
        """psibar psi; real by construction (imaginary part asserted)."""
        val = self.psibar @ self.psi
        if abs(val.imag) > 1e-10 * (abs(val.real) + 1e-300):
            raise AssertionError("psibar psi not real")
        return float(val.real)


def eval_spinor(field: DiracField, x) -> SpinorSample:
    """psi(x) = sum c u(k, s) exp(i(k.r - w t)) with analytic derivatives."""
    x = np.asarray(x, dtype=float)
    psi = np.zeros(4, dtype=complex)
    dpsi = np.zeros((4, 4), dtype=complex)
    for m, u, w in zip(field.modes, field._u, field._omega):
        phase = np.exp(1j * (m.k @ x[1:] - w * x[0]))
        term = m.coeff * phase * u
        psi += term
        dpsi[0] += -1j * w * term
        for j in range(3):
            dpsi[j + 1] += 1j * m.k[j] * term
    return SpinorSample(psi=psi, dpsi=dpsi)


def convective_momentum(s: SpinorSample):
    """Contravariant convective momentum mu0 u^mu, or None at a node.

    Covariant components are (i/2)(psibar d_mu psi - c.c.)/(psibar psi);
    a single plane wave gives (omega, k) contravariant.  Real to
    rounding (asserted).
    """
    dens = s.density
    scale = float(np.linalg.norm(s.psi) * np.linalg.norm(s.dpsi) + 1e-300)
    if abs(dens) < EPS_NODE * scale:
        return None
    # covariant bilinear per index
    q = 0.5j * (np.einsum("a,ma->m", s.psibar, s.dpsi)
                - np.einsum("ma,a->m", s.dpsibar, s.psi)) / dens
    if np.max(np.abs(q.imag)) > 1e-10 * (np.max(np.abs(q.real)) + 1e-300):
        raise AssertionError("convective momentum not real")
    return METRIC * q.real


def effective_mass_sq(s: SpinorSample):
    """(mu0)^2 = q_mu q^mu; may go negative for extreme superpositions."""
    q = convective_momentum(s)
    if q is None:
        return None
    return float(np.sum(METRIC * q * q))


def _density(field: DiracField, x):
    """psibar psi in extended precision.

    The quantum potential and its gradient stack up to three finite
    differences; 80-bit evaluation of the density keeps the rounding
    floor below the O(h^2) truncation bias at h ~ 1e-3.
    """
    x = np.asarray(x, dtype=np.longdouble)
    psi = np.zeros(4, dtype=np.clongdouble)
    for m, u, w in zip(field.modes, field._u, field._omega):
        phase = np.exp(1j * (np.clongdouble(m.k @ x[1:])
                             - np.clongdouble(w) * x[0]))
        psi += np.clongdouble(m.coeff) * phase * u.astype(np.clongdouble)
    val = np.conj(psi) @ GAMMA0.astype(np.clongdouble) @ psi
    return val.real


def quantum_potential_spinor(field: DiracField, x, h: float = 1e-4) -> float:
    """Phi = -(1/2) R^{-1} (laplacian - d^2/dt^2) R, R = (psibar psi)^{1/2}.

    Central differences in all four coordinates with step h; the
    spacelike-positive d'Alembertian matches the scalar convention (so a
    single plane wave gives Phi = 0 and the mass identity closes).
    """
    x = np.asarray(x, dtype=float)
    center = _density(field, x)
    if center <= 0.0:
        raise ValueError("psibar psi not positive at the evaluation point")
    r0 = np.sqrt(center)
    box = 0.0
    for mu in range(4):
        step = np.zeros(4)
        step[mu] = h
        dp = _density(field, x + step)
        dm = _density(field, x - step)
        if dp <= 0.0 or dm <= 0.0:
            raise ValueError("psibar psi not positive on the stencil")
        second = (np.sqrt(dp) - 2.0 * r0 + np.sqrt(dm)) / np.longdouble(h * h)
        box += second if mu > 0 else -second
    return float(-0.5 * box / r0)


def spin_tensor(s: SpinorSample) -> np.ndarray:
    """Symmetric spin stress tensor from the first-derivative bilinears.

    T_{mu nu} = (1/2) D^{-1} [dbar_mu d_nu + dbar_nu d_mu]
              - (1/2) D^{-2} [(dbar_mu psi)(psibar d_nu) + (mu <-> nu)]

    with D = psibar psi; real and symmetric to rounding (asserted).
    Vanishes for any scalar-like (single spinor direction) field.
    """
    dens = s.density
    scale = float(np.linalg.norm(s.psi) ** 2 + 1e-300)
    if abs(dens) < EPS_NODE * scale:
        raise ValueError("spin tensor undefined at a node of psibar psi")
    db = s.dpsibar                       # (mu, a)
    d = s.dpsi                           # (nu, a)
    first = np.einsum("ma,na->mn", db, d)
    a = np.einsum("ma,a->m", db, s.psi)  # (dbar_mu psi)
    b = np.einsum("a,na->n", s.psibar, d)
    second = np.outer(a, b)
    T = (0.5 / dens) * (first + first.T) \
        - (0.5 / dens ** 2) * (second + second.T)
    # reality scale from the raw bilinears: T itself may be exactly 0
    term_scale = (np.max(np.abs(first)) / abs(dens)
                  + np.max(np.abs(second)) / dens ** 2 + 1e-300)
    if np.max(np.abs(T.imag)) > 1e-10 * term_scale:
        raise AssertionError("spin tensor not real")
    return T.real


def _metric_trace(T: np.ndarray) -> float:
    """g^{mu nu} T_{mu nu}."""
    return float(np.sum(METRIC * np.diag(T)))


def verify_mass_identity(field: DiracField, points, h: float = 1e-3):
    """Max residual of (mu0)^2 = 1 + 2 Phi - g^{mu nu} T_{mu nu}.

    Phi is finite-differenced (step h), everything else analytic, so the
    residual must scale as O(h^2).  Returns (max_residual, residuals).
    """
    res = []
    for x in points:
        s = eval_spinor(field, np.asarray(x, dtype=float))
        mu2 = effective_mass_sq(s)
        if mu2 is None:
            raise ValueError(f"sample point {x} sits on a node")
        phi = quantum_potential_spinor(field, x, h=h)
        res.append(abs(mu2 - (1.0 + 2.0 * phi - _metric_trace(spin_tensor(s)))))
    res = np.array(res)
    return float(res.max()), res


def _q_contra(field: DiracField, x) -> np.ndarray:
    q = convective_momentum(eval_spinor(field, np.asarray(x, dtype=float)))
    if q is None:
        raise ValueError(f"node at {x}")
    return q


def verify_eom(field: DiracField, points, h: float = 1e-3):
    """Max per-component residual of the stress-tensor equations of motion.

    R^mu = q^nu d_nu q^mu - g^{mu sigma} d_sigma Phi
           + g^{mu sigma} D^{-1} d^nu (D T_{nu sigma}),   D = psibar psi

    (the real-metric transcription of the covariant balance; a vanishing
    O(h^2) residual is what certifies the transcription).  Outer
    derivatives of q, Phi and D T by central differences with step h.
    Returns (max_residual, residuals (n_points, 4)).
    """
    def dens_T(x):
        s = eval_spinor(field, x)
        return s.density * spin_tensor(s)

    out = []
    for xp in points:
        xp = np.asarray(xp, dtype=float)
        s = eval_spinor(field, xp)
        dens = s.density
        q = _q_contra(field, xp)
        dq = np.empty((4, 4))        # dq[nu, mu] = d_nu q^mu
        dphi = np.empty(4)
        dM = np.empty((4, 4, 4))     # dM[lam, nu, sig] = d_lam (D T)_{nu sig}
        for nu in range(4):
            step = np.zeros(4)
            step[nu] = h
            dq[nu] = (_q_contra(field, xp + step)
                      - _q_contra(field, xp - step)) / (2.0 * h)
            dphi[nu] = (quantum_potential_spinor(field, xp + step, h=h)
                        - quantum_potential_spinor(field, xp - step, h=h)
                        ) / (2.0 * h)
            dM[nu] = (dens_T(xp + step) - dens_T(xp - step)) / (2.0 * h)
        conv = q @ dq                            # q^nu d_nu q^mu
        div = np.einsum("n,nns->s", METRIC, dM)  # d^nu (D T)_{nu sigma}
        resid = conv - METRIC * dphi + METRIC * div / dens
        out.append(np.abs(resid))
    out = np.array(out)
    return float(out.max()), out


# -- Foldy-Wouthuysen representation --------------------------------------
#
# FW directions, velocities and fields take points of shape (..., 3) and
# keep the leading shape, so a verifier evaluates all its points and
# stencil offsets in one call.


def _fw_w(s: np.ndarray) -> np.ndarray:
    """Unnormalized FW direction (1 + s3, s1 + i s2, 0, 0), shape (..., 4)."""
    w = np.zeros(s.shape[:-1] + (4,), dtype=complex)
    w[..., 0] = 1.0 + s[..., 2]
    w[..., 1] = s[..., 0] + 1j * s[..., 1]
    return w


def fw_u(s_hat) -> np.ndarray:
    """FW spinor direction u(s): upper components only, u^dagger u = 1.

    u = (1 + s3, s1 + i s2, 0, 0) / sqrt(2 (1 + s3)); satisfies
    u^dagger sigma_k u = s_k.  s_hat has shape (..., 3) and u has shape
    (..., 4).  Singular at s3 = -1: a direction there anywhere in s_hat
    is rejected.
    """
    s = np.asarray(s_hat, dtype=float)
    s3 = s[..., 2]
    if np.any(s3 <= -1.0 + 1e-12):
        raise ValueError("FW spinor undefined at s3 = -1")
    f = 1.0 / np.sqrt(2.0 * (1.0 + s3))
    return f[..., None] * _fw_w(s)


def _du_ds(s_hat) -> np.ndarray:
    """du/ds_l, shape (..., 3, 4): row l is the derivative by s_l."""
    s = np.asarray(s_hat, dtype=float)
    s3 = s[..., 2]
    f = 1.0 / np.sqrt(2.0 * (1.0 + s3))
    out = np.zeros(s.shape[:-1] + (3, 4), dtype=complex)
    out[..., 0, 1] = f
    out[..., 1, 1] = 1j * f
    out[..., 2, :] = (-f / (2.0 * (1.0 + s3)))[..., None] * _fw_w(s)
    out[..., 2, 0] += f
    return out


@dataclass(frozen=True)
class FWField:
    """Static FW test field: unit spin direction over the Gaussian amplitude.

    The state is A u(s) with A = exp(-|x|^2 / 2) and zero phase.  Both
    callables take points of shape (..., 3): s -> (..., 3), ds ->
    (..., 3, 3) with ds[..., j, l] = d s_l / d x_j.  |s| = 1 is checked
    on use.  The built-in fields return ds as a view whose point axes
    are last in memory, which verify_ensemble_balance reads fastest.
    """

    s: object
    ds: object


def _amplitude(p):
    p = np.asarray(p, dtype=float)
    return np.exp(-0.5 * np.sum(p * p, axis=-1))


def _grad_amplitude(p):
    p = np.asarray(p, dtype=float)
    return -p * _amplitude(p)[..., None]


def _u_du(shat: np.ndarray, ds: np.ndarray):
    """u(s) and its gradient du[..., j, :] = d_j s_l du/ds_l."""
    return fw_u(shat), np.einsum("...jl,...la->...ja", ds, _du_ds(shat))


def fw_spinor(field: FWField, x):
    """(psi, dpsi4) of the FW state A u(s) at a static point.

    dpsi4 has shape (4, 4) with the time row zero (static fields).
    """
    x = np.asarray(x, dtype=float)
    a = float(_amplitude(x))
    shat = np.asarray(field.s(x), dtype=float)
    if abs(np.linalg.norm(shat) - 1.0) > 1e-12:
        raise ValueError("spin direction not unit length")
    u, du = _u_du(shat, np.asarray(field.ds(x), dtype=float))
    dpsi4 = np.zeros((4, 4), dtype=complex)
    dpsi4[1:] = _grad_amplitude(x)[:, None] * u[None, :] + a * du
    return a * u, dpsi4


def fw_velocity(field: FWField, x) -> np.ndarray:
    """Non-relativistic guidance velocity v_j = Im(u^dag d_j u).

    x has shape (..., 3) and v has the same shape.
    """
    x = np.asarray(x, dtype=float)
    u, du = _u_du(np.asarray(field.s(x), dtype=float),
                  np.asarray(field.ds(x), dtype=float))
    return np.einsum("...a,...ja->...j", np.conj(u), du).imag


def verify_fw_spin_tensor(field: FWField, points):
    """Max residual of T_{jk}(bilinears) = (1/4) d_j s_l d_k s_l.

    Both sides analytic; for an exact identity the residual is at
    rounding level (1e-10 budget).  Returns (max_residual, per-point).
    """
    res = []
    for x in points:
        psi, dpsi4 = fw_spinor(field, x)
        s = SpinorSample(psi=psi, dpsi=dpsi4)
        T = spin_tensor(s)[1:, 1:]
        ds = np.asarray(field.ds(np.asarray(x, dtype=float)), dtype=float)
        rhs = 0.25 * ds @ ds.T
        res.append(np.max(np.abs(T - rhs)))
    res = np.array(res)
    return float(res.max()), res


_EPS3 = np.zeros((3, 3, 3))
for _p, _s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
    _EPS3[_p] = _s
#: (j, i) = (k + 1, k + 2) mod 3 for k = 0, 1, 2: curl_k = d_j v_i - d_i v_j
_CURL_J, _CURL_I = [1, 2, 0], [2, 0, 1]


def verify_curl_formula(field: FWField, points, h: float = 1e-4):
    """Max residual of the circulation identity.

    curl_k v = (1/4) eps_{kji} eps_{lmn} s_l d_j s_m d_i s_n
    with curl v by central differences of the analytic velocity (O(h^2))
    and the right side fully analytic.  points has shape (n, 3); the
    velocity at every point's six offsets x +- h e_j comes from two
    fw_velocity calls on shape (n, 3, 3).  Returns (max_residual,
    per-point residuals of shape (n,)).
    """
    x = np.asarray(points, dtype=float)
    step = h * np.eye(3)                          # row j is h e_j
    near = x[..., None, :]
    # dv[..., j, i] = d_j v_i
    dv = (fw_velocity(field, near + step)
          - fw_velocity(field, near - step)) / (2.0 * h)
    curl = dv[..., _CURL_J, _CURL_I] - dv[..., _CURL_I, _CURL_J]
    shat = np.asarray(field.s(x), dtype=float)
    ds = np.asarray(field.ds(x), dtype=float)     # ds[..., j, m] = d_j s_m
    rhs = 0.25 * np.einsum("kji,lmn,...l,...jm,...in->...k", _EPS3, _EPS3,
                           shat, ds, ds)
    res = np.max(np.abs(curl - rhs), axis=-1)
    return float(res.max()), res


def _shifted_terms(field: FWField, x: np.ndarray, i: int, step: float):
    """Phi and the flux A^2 T_{ji} at the points x + step e_i.

    x has shape (3, m), one row per coordinate.  Phi = -(1/2) lap A / A
    = -(1/2)(|p|^2 - 3) for the Gaussian A.  Of the stress only the
    column T_{ji} = (1/4) d_j s_l d_i s_l that d_i takes is formed.
    Returns Phi of shape (m,) and the flux of shape (3, m).
    """
    p = x.copy()
    p[i] += step
    r2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2]
    # d[j, l] = d_j s_l, each of shape (m,): contiguous for the built-in
    # fields (see FWField)
    d = np.asarray(field.ds(p.T), dtype=float).transpose(1, 2, 0)
    col = 0.25 * (d[:, 0] * d[i, 0] + d[:, 1] * d[i, 1] + d[:, 2] * d[i, 2])
    return -0.5 * (r2 - 3.0), np.exp(-0.5 * r2) ** 2 * col


def _balance_terms(field: FWField, axis: np.ndarray):
    """A and the two terms of the balance integrand on the grid axis^3.

    Returns (A, A^2 d_j Phi, d_i (A^2 T_{ji})) on the n^3 grid points in
    C order, the terms with shape (3, n^3).  Both derivatives are central
    differences with step BALANCE_H, and each of the six shifted grids
    x +- h e_i is evaluated once (_shifted_terms).  The grid is taken
    BALANCE_CHUNK points at a time.
    """
    h = BALANCE_H
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij",
                                copy=False)).reshape(3, -1)
    grad_phi = np.empty_like(grid)
    div = np.zeros_like(grid)
    for lo in range(0, grid.shape[1], BALANCE_CHUNK):
        part = slice(lo, lo + BALANCE_CHUNK)
        for i in range(3):
            phi_p, flux_p = _shifted_terms(field, grid[:, part], i, h)
            phi_m, flux_m = _shifted_terms(field, grid[:, part], i, -h)
            grad_phi[i, part] = (phi_p - phi_m) / (2.0 * h)
            div[:, part] += (flux_p - flux_m) / (2.0 * h)
    a = np.exp(-0.5 * (grid[0] * grid[0] + grid[1] * grid[1]
                       + grid[2] * grid[2]))
    grad_phi *= a * a
    return a, grad_phi, div


def verify_ensemble_balance(field: FWField, box_half: float, n: int = 61):
    """Relative residual of the vanishing ensemble-average acceleration.

    Integrates A^2 d_j Phi + d_i (A^2 T_{ji}) over the box [-box_half,
    box_half]^3 by a uniform-grid Riemann sum on n^3 points (spectrally
    accurate for the decaying test fields).  Phi is the
    non-relativistic -(1/2) lap A / A; its gradient and the stress
    divergence use central differences with step BALANCE_H (decoupled
    from the grid spacing).  See _balance_terms.

    What this checks, and what it does not: both terms are total
    derivatives (A^2 d_j Phi = (1/2) d_j A^2 for the Gaussian A), and
    for the built-in fields component j of each is also odd under
    x_j -> -x_j on the centred box, so each term integrates to rounding
    level on its own.  The result is therefore at rounding level
    whatever the relative sign or weight of the two terms, and it does
    not pin T.  verify_fw_spin_tensor (T against the Dirac bilinears)
    and verify_curl_formula are the checks that do.

    Returns max_j |integral_j| / sum_j integral of |A^2 d_j Phi| +
    |d_i (A^2 T_{ji})|.  Warns if A is not negligible on the box
    boundary.  Raises ValueError past BALANCE_MAX_POINTS grid points.
    """
    if n ** 3 > BALANCE_MAX_POINTS:
        raise ValueError(f"a balance grid of {n}^3 points is over the "
                         f"limit of {BALANCE_MAX_POINTS}")
    axis = np.linspace(-box_half, box_half, n)
    a, a2_grad_phi, div = _balance_terms(field, axis)
    cube = a.reshape(n, n, n)
    face = max(cube[[0, -1]].max(), cube[:, [0, -1]].max(),
               cube[:, :, [0, -1]].max())
    if face > 1e-10 * a.max():
        warnings.warn("amplitude not negligible on the box boundary; "
                      "the balance integrals will leak", RuntimeWarning,
                      stacklevel=2)
    vol = (axis[1] - axis[0]) ** 3
    comp = np.sum(a2_grad_phi + div, axis=1) * vol
    norm = np.sum(np.abs(a2_grad_phi) + np.abs(div)) * vol
    return float(np.max(np.abs(comp)) / norm)


# -- built-in FW test fields ----------------------------------------------


def fw_gaussian_field() -> FWField:
    """Gaussian amplitude, zero phase, constant spin along z."""
    return fw_rotating_field(rate=0.0)


def fw_rotating_field(rate: float = 0.5) -> FWField:
    """Spin rotating in the x-z plane, s = (sin(rate x), 0, cos(rate x))."""
    def s(p):
        p = np.asarray(p, dtype=float)
        th = rate * p[..., 0]
        return np.stack([np.sin(th), np.zeros_like(th), np.cos(th)], axis=-1)

    def ds(p):
        p = np.asarray(p, dtype=float)
        th = rate * p[..., 0]
        out = np.zeros((3, 3) + th.shape)
        out[0, 0] = rate * np.cos(th)
        out[0, 2] = -rate * np.sin(th)
        return np.moveaxis(out, (0, 1), (-2, -1))

    return FWField(s=s, ds=ds)


def fw_hedgehog_field() -> FWField:
    """Hedgehog-like spin s = (x, y, c)/|(x, y, c)| with c = HEDGEHOG_C."""
    def _n(p):
        """n = (x, y, c) on a new first axis, and r = |n|."""
        p = np.asarray(p, dtype=float)
        n = np.stack([p[..., 0], p[..., 1], np.full(p.shape[:-1], HEDGEHOG_C)])
        return n, np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])

    def s(p):
        n, r = _n(p)
        return np.moveaxis(n / r, 0, -1)

    def ds(p):
        n, r = _n(p)
        out = np.zeros((3, 3) + r.shape)
        # d_j s_l = delta_{jl}/r - n_j n_l / r^3, for j in {x, y} only.
        out[:2] = -n[:2, None] * n[None] / r ** 3
        out[0, 0] += 1.0 / r
        out[1, 1] += 1.0 / r
        return np.moveaxis(out, (0, 1), (-2, -1))

    return FWField(s=s, ds=ds)
