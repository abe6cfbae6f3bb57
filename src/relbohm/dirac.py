"""Convective-current Bohmian theory for free positive-energy spinors.

Fields are finite superpositions of positive-energy Dirac plane waves in
the Dirac representation, evaluated with analytic first derivatives
(eval_spinor) or as exact jets to third order (jets).  From them: the
convective momentum, effective mass, spinor quantum potential, the spin
stress tensor, and numerical verification of the mass identity, the
stress-tensor equations of motion, and the Foldy-Wouthuysen (FW)
reductions; the FW spin tensor and circulation identity are taken in
closed form, and the FW ensemble balance as a flux through the box faces.

Evaluations take points of any leading shape, (..., 4), or (..., 3) for
static FW states; one helper, _terms, sums the plane waves for
eval_spinor, the density and jets.  At a node of psibar psi, q, (mu0)^2
and T are NaN, and the verifiers raise ValueError naming the point.

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
natural units.  The translation is verified, not assumed, which pins
every sign: identity_residuals evaluates both identities exactly and
holds each residual to its rounding bound, and the finite-difference
oracle (verify_mass_identity, verify_eom) converges as O(h^2).  A
flipped sign leaves an O(1) residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import SizeError, gauss_legendre, omega

__all__ = [
    "FW_FIELDS",
    "DiracField",
    "DiracMode",
    "FWField",
    "IdentityResiduals",
    "Jets",
    "SpinorSample",
    "convective_momentum",
    "effective_mass_sq",
    "eval_spinor",
    "fw_gaussian_field",
    "fw_hedgehog_field",
    "fw_rotating_field",
    "fw_spinor",
    "fw_report",
    "fw_u",
    "identity_report",
    "identity_residuals",
    "jets",
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
#: roundings of the closed forms counted in the rounding bounds of
#: identity_residuals, on top of the phase and the mode sums
ROUNDING_OPS = 32
#: most Gauss-Legendre nodes per face axis of verify_ensemble_balance
BALANCE_MAX_N = 128
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
        k = np.array([m.k for m in self.modes])
        w = np.array([omega(np.linalg.norm(m.k)) for m in self.modes])
        u = np.array([_plane_spinor(m.k, m.spin) for m in self.modes])
        # (gamma^mu p_mu - 1) u of each mode, p = (omega, k)
        slash_u = np.einsum("m,am,mbc,ac->ab", METRIC, np.column_stack([w, k]),
                            GAMMA, u)
        res = np.linalg.norm(slash_u - u, axis=1) / np.linalg.norm(u, axis=1)
        if np.any(res > 1e-12):
            raise AssertionError("plane-wave spinor violates the Dirac "
                                 f"equation: {res.max():.2e}")
        # per mode, shape (M, 4): p_a = (-omega_a, k_a), so that the phase
        # is p_a.x, and the amplitude c_a u_a
        self._p = np.column_stack([-w, k])
        self._amp = np.array([m.coeff for m in self.modes])[:, None] * u

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


def _bar(j: np.ndarray) -> np.ndarray:
    """psibar components conj(j) gamma0 on the last (spinor) axis."""
    return np.conj(j) * GAMMA0.diagonal().real


@dataclass
class SpinorSample:
    """psi and its coordinate derivatives at points of any leading shape.

    psi has shape (..., 4) and dpsi (..., 4, 4), with dpsi[..., mu, :] =
    d psi / d x^mu in index order (t, x, y, z).
    """

    psi: np.ndarray
    dpsi: np.ndarray

    @property
    def psibar(self) -> np.ndarray:
        return _bar(self.psi)

    @property
    def dpsibar(self) -> np.ndarray:
        """(..., 4, 4): row mu is d psibar / d x^mu."""
        return _bar(self.dpsi)

    @property
    def density(self) -> np.ndarray:
        """psibar psi, shape (...); real by construction (the imaginary
        part is asserted small at each point)."""
        val = np.einsum("...a,...a->...", self.psibar, self.psi)
        if np.any(np.abs(val.imag) > 1e-10 * (np.abs(val.real) + 1e-300)):
            raise AssertionError("psibar psi not real")
        return val.real


def _terms(field: DiracField, x, dtype=float) -> np.ndarray:
    """Plane-wave terms c_a u_a exp(i p_a.x) at points x (..., 4), computed
    in dtype; shape (..., M, 4)."""
    x = np.asarray(x, dtype=dtype)
    return np.exp(1j * (x @ field._p.T))[..., None] * field._amp


def eval_spinor(field: DiracField, x) -> SpinorSample:
    """psi(x) = sum c u(k, s) exp(i(k.r - w t)) with analytic derivatives,
    at points x (..., 4)."""
    terms = _terms(field, x)
    return SpinorSample(psi=terms.sum(axis=-2),
                        dpsi=(1j * field._p.T) @ terms)


def convective_momentum(s: SpinorSample) -> np.ndarray:
    """Convective momentum mu0 u^mu (contravariant), (..., 4); NaN at nodes.

    Covariant components are (i/2)(psibar d_mu psi - c.c.)/(psibar psi);
    a single plane wave gives (omega, k) contravariant.  Real to
    rounding (asserted at each point off the nodes).
    """
    dens = s.density
    scale = (np.linalg.norm(s.psi, axis=-1)
             * np.linalg.norm(s.dpsi, axis=(-2, -1)) + 1e-300)
    node = np.abs(dens) < EPS_NODE * scale
    # covariant bilinear per index
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 0.5j * (np.einsum("...a,...ma->...m", s.psibar, s.dpsi)
                    - np.einsum("...ma,...a->...m", s.dpsibar, s.psi)
                    ) / dens[..., None]
    bad = (np.max(np.abs(q.imag), axis=-1)
           > 1e-10 * (np.max(np.abs(q.real), axis=-1) + 1e-300))
    if np.any(bad & ~node):
        raise AssertionError("convective momentum not real")
    return np.where(node[..., None], np.nan, METRIC * q.real)


def effective_mass_sq(s: SpinorSample) -> np.ndarray:
    """(mu0)^2 = q_mu q^mu, shape (...); NaN at a node, and may go
    negative for extreme superpositions."""
    q = convective_momentum(s)
    return np.sum(METRIC * q * q, axis=-1)


def _density(field: DiracField, x) -> np.ndarray:
    """psibar psi at points x (..., 4) in extended precision.

    The quantum potential and its gradient stack up to three finite
    differences; 80-bit evaluation of the density keeps the rounding
    floor below the O(h^2) truncation bias at h ~ 1e-3.
    """
    psi = _terms(field, x, np.longdouble).sum(axis=-2)
    return np.sum(_bar(psi) * psi, axis=-1).real


def _stencil(h: float) -> np.ndarray:
    """Offsets (9, 4) of a central-difference stencil: 0, then +h e_mu
    and -h e_mu for mu = 0..3."""
    e = h * np.eye(4)
    return np.concatenate([np.zeros((1, 4)),
                           np.stack([e, -e], axis=1).reshape(8, 4)])


def quantum_potential_spinor(field: DiracField, x, h: float = 1e-4):
    """Phi = -(1/2) R^{-1} (laplacian - d^2/dt^2) R, R = (psibar psi)^{1/2}.

    At points x (..., 4), by central differences with step h in all four
    coordinates, all 9-point stencils in one density call; the
    spacelike-positive d'Alembertian matches the scalar convention (so a
    single plane wave gives Phi = 0 and the mass identity closes).
    """
    x = np.asarray(x, dtype=float)
    d = _density(field, x[..., None, :] + _stencil(h))
    bad = np.any(d <= 0.0, axis=-1)
    if np.any(bad):
        raise ValueError("psibar psi not positive on the stencil of the "
                         f"point {x[bad][0]}")
    r = np.sqrt(d)
    r0 = r[..., 0]
    second = (r[..., 1::2] - 2.0 * r0[..., None] + r[..., 2::2]
              ) / np.longdouble(h * h)
    box = -second[..., 0] + second[..., 1] + second[..., 2] + second[..., 3]
    return (-0.5 * box / r0).astype(float)


def spin_tensor(s: SpinorSample) -> np.ndarray:
    """Symmetric spin stress tensor from the first-derivative bilinears.

    T_{mu nu} = (1/2) D^{-1} [dbar_mu d_nu + dbar_nu d_mu]
              - (1/2) D^{-2} [(dbar_mu psi)(psibar d_nu) + (mu <-> nu)]

    with D = psibar psi, shape (..., 4, 4); NaN at a node of D.  Real
    and symmetric to rounding (asserted at each point off the nodes).
    Vanishes for any scalar-like (single spinor direction) field.
    """
    dens = s.density
    node = np.abs(dens) < EPS_NODE * (np.linalg.norm(s.psi, axis=-1) ** 2
                                      + 1e-300)
    db = s.dpsibar                                  # (..., mu, a)
    d = s.dpsi                                      # (..., nu, a)
    first = np.einsum("...ma,...na->...mn", db, d)
    a = np.einsum("...ma,...a->...m", db, s.psi)    # (dbar_mu psi)
    b = np.einsum("...a,...na->...n", s.psibar, d)
    second = a[..., :, None] * b[..., None, :]
    D = dens[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        T = (0.5 / D) * (first + first.swapaxes(-1, -2)) \
            - (0.5 / D ** 2) * (second + second.swapaxes(-1, -2))
        # reality scale from the raw bilinears: T itself may be exactly 0
        term_scale = (np.max(np.abs(first), axis=(-2, -1)) / np.abs(dens)
                      + np.max(np.abs(second), axis=(-2, -1)) / dens ** 2
                      + 1e-300)
    bad = np.max(np.abs(T.imag), axis=(-2, -1)) > 1e-10 * term_scale
    if np.any(bad & ~node):
        raise AssertionError("spin tensor not real")
    return np.where(node[..., None, None], np.nan, T.real)


def _metric_trace(T: np.ndarray) -> np.ndarray:
    """g^{mu nu} T_{mu nu} over the last two axes."""
    return np.einsum("m,...mm->...", METRIC, T)


def verify_mass_identity(field: DiracField, points, h: float = 1e-3):
    """Max residual of (mu0)^2 = 1 + 2 Phi - g^{mu nu} T_{mu nu}.

    Phi is finite-differenced (step h), everything else analytic, so the
    residual must scale as O(h^2).  points has shape (n, 4).  Returns
    (max_residual, residuals (n,)).
    """
    x = np.asarray(points, dtype=float)
    s = eval_spinor(field, x)
    mu2 = effective_mass_sq(s)
    trace = _metric_trace(spin_tensor(s))
    node = np.isnan(mu2) | np.isnan(trace)
    if np.any(node):
        raise ValueError(f"sample point {x[node][0]} sits on a node")
    phi = quantum_potential_spinor(field, x, h=h)
    res = np.abs(mu2 - (1.0 + 2.0 * phi - trace))
    return float(res.max()), res


def verify_eom(field: DiracField, points, h: float = 1e-3):
    """Max per-component residual of the stress-tensor equations of motion.

    R^mu = q^nu d_nu q^mu - g^{mu sigma} d_sigma Phi
           + g^{mu sigma} D^{-1} d^nu (D T_{nu sigma}),   D = psibar psi

    (the real-metric transcription of the covariant balance; a vanishing
    O(h^2) residual is what certifies the transcription).  Outer
    derivatives of q, Phi and D T by central differences with step h, on
    all stencils x +- h e_nu (and Phi's own) in one call each.  points
    has shape (n, 4).  Returns (max_residual, residuals (n, 4)).
    """
    x = np.asarray(points, dtype=float)
    xs = x[..., None, :] + _stencil(h)                  # (n, 9, 4)
    s = eval_spinor(field, xs)
    q = convective_momentum(s)
    dens = s.density
    DT = dens[..., None, None] * spin_tensor(s)         # D T_{nu sig}
    node = np.any(np.isnan(q), axis=-1) | np.any(np.isnan(DT), axis=(-2, -1))
    if np.any(node):
        raise ValueError(f"node at {xs[node][0]}")
    phi = quantum_potential_spinor(field, xs[..., 1:, :], h=h)
    dq = (q[..., 1::2, :] - q[..., 2::2, :]) / (2.0 * h)   # d_nu q^mu
    dphi = (phi[..., 0::2] - phi[..., 1::2]) / (2.0 * h)
    dDT = (DT[..., 1::2, :, :] - DT[..., 2::2, :, :]) / (2.0 * h)
    conv = np.einsum("...v,...vm->...m", q[..., 0, :], dq)  # q^nu d_nu q^mu
    div = np.einsum("v,...vvs->...s", METRIC, dDT)  # d^nu (D T)_{nu sigma}
    out = np.abs(conv - METRIC * dphi + METRIC * div / dens[..., :1])
    return float(out.max()), out


# -- exact jets ------------------------------------------------------------
#
# psi is a finite sum of plane waves, psi_a = c_a u_a exp(i p_a.x), so
# d_mu psi_a = P_{a,mu} psi_a with P_a = i(-omega_a, k_a) exactly.  The
# spinor jets J_n = sum_a P_a...P_a psi_a (Taylor-mode, Griewank &
# Walther, Evaluating Derivatives, 2nd ed., SIAM 2008) give every
# derivative of a bilinear psibar d..psi by the Leibniz rule; a term and
# the one with psibar and psi swapped are complex conjugates, so each
# pair is 2 Re of one of them.


@dataclass
class Jets:
    """Exact closed forms at n points (index order t, x, y, z).

    density = psibar psi and psi2 = |psi|^2, shape (n,); phi and its
    gradient dphi[:, lam] = d_lam Phi; q[:, mu] = q^mu (contravariant)
    and dq[:, nu, mu] = d_nu q^mu; dDT[:, lam, nu, sig] =
    d_lam (D T_{nu sig}); trace_T = g^{mu nu} T_{mu nu}.  Values at
    points with density <= 0 are not meaningful.
    """

    density: np.ndarray
    psi2: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    dDT: np.ndarray
    trace_T: np.ndarray


def jets(field: DiracField, points) -> Jets:
    """Phi, q, T and their first derivatives at points (n, 4), exactly.

    Phi = (1/4) g^{mu nu} D_{mu nu} / D - (1/8) g^{mu nu} D_mu D_nu / D^2
    with D = psibar psi and D_mu.. its derivatives; q_mu = -Im G_mu / D
    with G_mu = psibar d_mu psi; D T_{mu nu} = Re E_(mu nu) -
    Re(conj(G_mu) G_nu) / D with E_{mu nu} = dbar_mu psi d_nu psi, the
    same T as spin_tensor.
    """
    x = np.asarray(points, dtype=float).reshape(-1, 4)
    P = 1j * field._p
    psi_a = _terms(field, x)
    box = np.einsum("m,am,am->a", METRIC, P, P)     # g^{mu nu} P_mu P_nu
    j0 = psi_a.sum(axis=1)                            # (n, s)
    j1 = np.einsum("am,nas->nms", P, psi_a)           # d_m psi
    j2 = np.einsum("al,am,nas->nlms", P, P, psi_a)    # d_l d_m psi
    j3 = np.einsum("a,al,nas->nls", box, P, psi_a)    # box d_l psi
    j2g = np.einsum("a,nas->ns", box, psi_a)          # box psi
    b0, b1, b2 = _bar(j0), _bar(j1), _bar(j2)

    dens = np.einsum("ns,ns->n", b0, j0).real
    psi2 = np.einsum("ns,ns->n", np.conj(j0), j0).real
    g = np.einsum("ns,nms->nm", b0, j1)               # G_m
    d1 = 2.0 * g.real                                 # D_m
    e = np.einsum("nms,nls->nml", b1, j1)             # E_ml
    d2 = 2.0 * (np.einsum("ns,nlms->nlm", b0, j2).real + e.real)
    # g^{mu nu} d_mu d_nu d_l D, by Leibniz over the three derivatives
    d3g = 2.0 * (np.einsum("ns,nls->nl", b0, j3)
                 + 2.0 * np.einsum("m,nms,nmls->nl", METRIC, b1, j2)
                 + np.einsum("nls,ns->nl", b1, j2g)).real
    dg = e + np.einsum("ns,nlms->nlm", b0, j2)       # d_l G_m
    de = (np.einsum("nlms,nks->nlmk", b2, j1)
          + np.einsum("nms,nlks->nlmk", b1, j2))     # d_l E_mk

    with np.errstate(divide="ignore"):
        inv = 1.0 / dens
    gd2 = np.einsum("m,nmm->n", METRIC, d2)
    gd1d1 = np.einsum("m,nm,nm->n", METRIC, d1, d1)
    phi = 0.25 * gd2 * inv - 0.125 * gd1d1 * inv ** 2
    dphi = (0.25 * d3g * inv[:, None]
            - 0.25 * (gd2[:, None] * d1
                      + np.einsum("m,nml,nm->nl", METRIC, d2, d1))
            * inv[:, None] ** 2
            + 0.25 * (gd1d1 * inv ** 3)[:, None] * d1)

    q_cov = -g.imag * inv[:, None]
    dq_cov = (-dg.imag * inv[:, None, None]
              + g.imag[:, None, :] * d1[:, :, None] * inv[:, None, None] ** 2)
    gg = np.einsum("nm,nk->nmk", np.conj(g), g).real  # Re conj(G_m) G_k
    dgg = np.einsum("nlm,nk->nlmk", np.conj(dg), g).real
    dDT = (0.5 * (de + de.transpose(0, 1, 3, 2)).real
           - (dgg + dgg.transpose(0, 1, 3, 2)) * inv[:, None, None, None]
           + gg[:, None] * (d1 * inv[:, None] ** 2)[:, :, None, None])
    trace_T = np.einsum("m,nmm->n", METRIC,
                        e.real - gg * inv[:, None, None]) * inv
    return Jets(density=dens, psi2=psi2, phi=phi, dphi=dphi,
                q=METRIC * q_cov, dq=METRIC * dq_cov, dDT=dDT,
                trace_T=trace_T)


@dataclass
class IdentityResiduals:
    """Per-point residuals of the two identities and their rounding bounds.

    density_ratio = psibar psi / |psi|^2; in_domain marks the points
    where it exceeds EPS_NODE, the convective theory's domain.  mass is
    |(mu0)^2 - (1 + 2 Phi - g^{mu nu} T_{mu nu})| and eom the largest
    component of the equations of motion (see verify_eom), each with its
    bound; all have shape (n,), and only in-domain values are meaningful.
    """

    density_ratio: np.ndarray
    in_domain: np.ndarray
    mass: np.ndarray
    mass_bound: np.ndarray
    eom: np.ndarray
    eom_bound: np.ndarray


def _rounding_bounds(field: DiracField, x: np.ndarray, dens: np.ndarray):
    """First-order, worst-case rounding bounds of the mass and EOM
    residuals at points x (n, 4) with densities dens (n,).

    A bilinear with n derivatives sums terms psibar_a psi_b (conj P_a +
    P_b)^n whose absolute values add up to at most S_n = sum_ab |c_a u_a|
    |c_b u_b| (|p_a| + |p_b|)^n, a constant of the field, so it errs by
    at most gamma S_n.  gamma = eps (M + |phase| + ROUNDING_OPS): the
    phase x.p of each mode carries eps times its size, a sum over M modes
    up to M eps, and the closed forms a few dozen roundings more.  A term
    of a residual with j factors 1/D then errs by at most gamma (S_n /
    S_0) lam^j, with lam = S_0 / D >= |psi|^2 / D >= 1; j runs to 2 in the
    mass identity (its D_mu D_nu / D^2 and Re conj(G) G / D^2 terms) and
    to 3 in the equations of motion.  Points with D <= 0 get inf.  Over
    3 000 random fields (1-8 modes, |k| <= 3, points out to |x^mu| <=
    100), no in-domain residual came within 1/60 of its bound.
    """
    p = field._p
    a = np.linalg.norm(field._amp, axis=1)
    size = np.linalg.norm(p, axis=1)
    pair = size[:, None] + size[None, :]
    s0, s2, s3 = (float(np.sum(np.outer(a, a) * pair ** n)) for n in (0, 2, 3))
    phase = np.max(np.abs(x) @ np.abs(p).T, axis=1)
    gamma = np.finfo(float).eps * (len(field.modes) + phase + ROUNDING_OPS)
    with np.errstate(divide="ignore"):
        lam = np.where(dens > 0.0, s0 / dens, np.inf)
    mass = gamma * (s2 / s0) * (lam + lam ** 2)
    eom = gamma * (s3 / s0) * (lam + lam ** 2 + lam ** 3)
    return mass, eom


def identity_residuals(field: DiracField, points) -> IdentityResiduals:
    """Mass identity and equations of motion at points (n, 4), exactly.

    Every derivative comes from jets, so a residual is pure rounding
    error and is judged against _rounding_bounds, not against a step
    size.  verify_mass_identity and verify_eom are the finite-difference
    oracle of the same two identities.
    """
    x = np.asarray(points, dtype=float).reshape(-1, 4)
    J = jets(field, x)
    dens = J.density
    mu2 = np.einsum("m,nm,nm->n", METRIC, J.q, J.q)
    mass = np.abs(mu2 - (1.0 + 2.0 * J.phi - J.trace_T))
    conv = np.einsum("nv,nvm->nm", J.q, J.dq)          # q^nu d_nu q^mu
    div = np.einsum("v,nvvs->ns", METRIC, J.dDT)       # d^nu (D T)_{nu sig}
    with np.errstate(divide="ignore", invalid="ignore"):
        eom = np.max(np.abs(conv - METRIC * J.dphi
                            + METRIC * div / dens[:, None]), axis=1)
    mass_bound, eom_bound = _rounding_bounds(field, x, dens)
    ratio = dens / J.psi2
    return IdentityResiduals(density_ratio=ratio, in_domain=ratio > EPS_NODE,
                             mass=mass, mass_bound=mass_bound, eom=eom,
                             eom_bound=eom_bound)


def identity_report(field: DiracField, points):
    """identity_residuals at points (n, 4), judged: (report, failure).

    The report gives the point count, the points outside the domain, the
    least density ratio and, per identity, the largest in-domain residual
    and residual-to-bound ratio (None on an empty domain).  It is
    converged when the domain is not empty and every in-domain residual
    is within its bound; failure then is None, and otherwise it names
    the empty domain or the identities over their bounds.
    """
    res = identity_residuals(field, points)
    inside = res.in_domain
    report = {
        "kind": "dirac",
        "n_points": int(inside.size),
        "excluded_points": int(np.sum(~inside)),
        "min_density_ratio": float(np.min(res.density_ratio)),
    }
    over = []
    for name, resid, bound in (("mass_identity", res.mass, res.mass_bound),
                               ("eom", res.eom, res.eom_bound)):
        resid, bound = resid[inside], bound[inside]
        report[name] = {
            "max_residual": float(resid.max()) if inside.any() else None,
            "max_residual_over_bound":
                float(np.max(resid / bound)) if inside.any() else None,
        }
        if np.any(~(resid <= bound)):
            over.append(name)
    report["converged"] = bool(inside.any() and not over)
    if not inside.any():
        return report, (f"empty domain: psibar psi <= {EPS_NODE:g} |psi|^2 "
                        f"at all {inside.size} sample points")
    if over:
        return report, f"residual above its rounding bound: {', '.join(over)}"
    return report, None


# -- Foldy-Wouthuysen representation --------------------------------------
#
# FW directions and fields take points of shape (..., 3) and keep the
# leading shape, so a verifier evaluates all its points in one call.


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
    on use.
    """

    s: object
    ds: object


def _u_du(shat: np.ndarray, ds: np.ndarray):
    """u(s) and its gradient du[..., j, :] = d_j s_l du/ds_l."""
    return fw_u(shat), np.einsum("...jl,...la->...ja", ds, _du_ds(shat))


def fw_spinor(field: FWField, x):
    """(psi (..., 4), dpsi4 (..., 4, 4)) of the FW state A u(s) at static
    points x (..., 3); the time row of dpsi4 is zero."""
    x = np.asarray(x, dtype=float)
    a = np.exp(-0.5 * np.sum(x * x, axis=-1))[..., None]
    shat = np.asarray(field.s(x), dtype=float)
    if np.any(np.abs(np.linalg.norm(shat, axis=-1) - 1.0) > 1e-12):
        raise ValueError("spin direction not unit length")
    u, du = _u_du(shat, np.asarray(field.ds(x), dtype=float))
    dpsi4 = np.zeros(x.shape[:-1] + (4, 4), dtype=complex)
    # d_j A = -x_j A
    dpsi4[..., 1:, :] = ((-x * a)[..., :, None] * u[..., None, :]
                         + a[..., None] * du)
    return a * u, dpsi4


def verify_fw_spin_tensor(field: FWField, points):
    """Max residual of T_{jk}(bilinears) = (1/4) d_j s_l d_k s_l.

    Both sides analytic, at all points (n, 3) at once; for an exact
    identity the residual is at rounding level (1e-10 budget).  Returns
    (max_residual, per-point residuals (n,)).
    """
    x = np.asarray(points, dtype=float)
    psi, dpsi4 = fw_spinor(field, x)
    T = spin_tensor(SpinorSample(psi=psi, dpsi=dpsi4))[..., 1:, 1:]
    ds = np.asarray(field.ds(x), dtype=float)
    rhs = 0.25 * ds @ ds.swapaxes(-1, -2)
    res = np.max(np.abs(T - rhs), axis=(-2, -1))
    return float(res.max()), res


_EPS3 = np.zeros((3, 3, 3))
for _p, _s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
    _EPS3[_p] = _s


def verify_curl_formula(field: FWField, points):
    """Max residual of the circulation identity.

    curl_k v = (1/4) eps_{kji} eps_{lmn} s_l d_j s_m d_i s_n

    for the guidance velocity v_i = Im(u^dag d_i u), both sides in closed
    form: curl_k v = eps_{kji} Im(d_j u^dag d_i u), as u^dag d_j d_i u is
    symmetric in j, i.  points has shape (n, 3).  Returns (max_residual,
    per-point residuals of shape (n,)).
    """
    shat = np.asarray(field.s(points), dtype=float)
    ds = np.asarray(field.ds(points), dtype=float)  # ds[..., j, m] = d_j s_m
    _, du = _u_du(shat, ds)
    curl = np.einsum("kji,...ja,...ia->...k", _EPS3, np.conj(du), du).imag
    rhs = 0.25 * np.einsum("kji,lmn,...l,...jm,...in->...k", _EPS3, _EPS3,
                           shat, ds, ds)
    res = np.max(np.abs(curl - rhs), axis=-1)
    return float(res.max()), res


#: outward normals of the box faces: -e_x, +e_x, -e_y, +e_y, -e_z, +e_z
_FACES = np.repeat(np.eye(3), 2, axis=0) * np.tile([-1.0, 1.0], 3)[:, None]


def _face_fluxes(field: FWField, box_half: float, n: int):
    """Flux of each balance term through each face of the box.

    Returns (phi, stress, a_face): phi[f, j] = (1/2) oint_f A^2 n_j dS
    and stress[f, j] = oint_f A^2 T_{ji} n_i dS, shape (6, 3), one row
    per face of _FACES, each by an n x n Gauss-Legendre rule, and a_face
    the largest A on them.  field.ds runs one face at a time, into one
    (3, 3, 6, n, n) array; both contractions then run on all six faces.
    """
    x, w = gauss_legendre(n)
    u, v = np.meshgrid(box_half * x, box_half * x, indexing="ij")
    pts = np.empty((6, n, n, 3))
    for f in range(6):
        i = f // 2
        pts[f, ..., i] = _FACES[f, i] * box_half
        pts[f, ..., (i + 1) % 3] = u
        pts[f, ..., (i + 2) % 3] = v
    a2 = np.exp(-np.sum(pts * pts, axis=-1))
    da = a2 * np.outer(box_half * w, box_half * w)   # A^2 dS
    # d_j s_l, one face at a time, into the built-in fields' point-last
    # memory layout, which einsum reads ~10x faster than C order in
    # (..., 3, 3)
    ds = np.empty((3, 3, 6, n, n))
    for f in range(6):
        ds[:, :, f] = np.moveaxis(np.asarray(field.ds(pts[f]), dtype=float),
                                  (-2, -1), (0, 1))
    ds = np.moveaxis(ds, (0, 1), (-2, -1))
    dn = np.einsum("fabil,fi->fabl", ds, _FACES)     # n_i d_i s_l
    phi = 0.5 * np.sum(da, axis=(1, 2))[:, None] * _FACES
    stress = 0.25 * np.einsum("fab,fabjl,fabl->fj", da, ds, dn)
    return phi, stress, float(np.sqrt(a2.max()))


def verify_ensemble_balance(field: FWField, box_half: float, n: int = 61):
    """Relative residual of the vanishing ensemble-average acceleration.

    Integrates A^2 d_j Phi + d_i (A^2 T_{ji}) over the box [-box_half,
    box_half]^3.  Phi = -(1/2) lap A / A = -(1/2)(|x|^2 - 3) for the
    Gaussian A, so A^2 d_j Phi = (1/2) d_j A^2, and by Gauss's theorem
    the integral is the flux oint A^2 ((1/2) delta_{ij} + T_{ji}) n_i dS,
    exact on an n x n Gauss-Legendre rule per face (_face_fluxes).

    What this checks, and what it does not: for the built-in fields
    component j of each term is odd under x_j -> -x_j on the centred
    box, so opposite faces cancel, each term on its own.  The result is
    therefore at rounding level whatever the relative sign or weight of
    the two terms, and it does not pin T.  verify_fw_spin_tensor (T
    against the Dirac bilinears) and verify_curl_formula are the checks
    that do.

    Returns max_j |integral_j| / M, with M = sum_j integral of
    |A^2 d_j Phi| = 3 pi erf(L)^2 (1 - exp(-L^2)), L = box_half, the L1
    mass of the Phi term.  Warns if A is not negligible on the faces.
    Raises SizeError for n over BALANCE_MAX_N, before the face rule is
    made.
    """
    if n > BALANCE_MAX_N:
        raise SizeError(f"n = {n} is over the limit of {BALANCE_MAX_N} "
                         "Gauss-Legendre nodes per face axis")
    phi, stress, a_face = _face_fluxes(field, box_half, n)
    if a_face > 1e-10:
        warnings.warn("amplitude not negligible on the box boundary; "
                      "the balance integrals will leak", RuntimeWarning,
                      stacklevel=2)
    mass = 3.0 * np.pi * math.erf(box_half) ** 2 * (1.0 - math.exp(
        -box_half * box_half))
    return float(np.max(np.abs(np.sum(phi + stress, axis=0))) / mass)


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


#: the built-in FW test fields by name
FW_FIELDS = {"gaussian": fw_gaussian_field, "rotating": fw_rotating_field,
             "hedgehog": fw_hedgehog_field}


def fw_report(name: str, points, box_half: float, box_n: int) -> dict:
    """The FW checks of the built-in field FW_FIELDS[name]: the largest
    spin tensor and curl residuals at points (n, 3), and the ensemble
    balance on the box of half-width box_half, box_n nodes per face
    axis."""
    field = FW_FIELDS[name]()
    return {
        "kind": "fw", "field": name,
        "spin_tensor_residual": verify_fw_spin_tensor(field, points)[0],
        "curl_residual": verify_curl_formula(field, points)[0],
        "ensemble_balance": verify_ensemble_balance(field, box_half,
                                                    n=box_n),
    }
