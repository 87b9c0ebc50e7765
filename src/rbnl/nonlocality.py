"""The state-level quantifier: maximal drop of irreality over local
observable pairs.

For pure states the maximum is attained on the Schmidt bases and equals the
entanglement entropy, so no search is needed. For mixed two-qubit states the
search runs over sharp qubit observables u.sigma and v.sigma, u and v unit
Bloch vectors, of the objective

    S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) - S(rho).

In the Fano form rho = (I + a.sigma (x) I + I (x) b.sigma
+ sum_ij T_ij sigma_i (x) sigma_j) / 4 every term is closed form, with an
analytic gradient: S(Phi_u rho) is the entropy of the four eigenvalues
(1 + s a.u +- |b + s T^T u|) / 4, s = +-1, its mirror image gives
S(Phi_v rho), and S(Phi_u Phi_v rho) is the Shannon entropy of
(1 + s a.u + t b.v + st u^T T v) / 4. A grid over both spheres localizes
the basins and a batched damped Newton iteration (rbnl.search) polishes the
best candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import EIG_CLIP, entropy_from_eigenvalues
from .search import OptimizerConfig, grid_refine, sphere_grid
from .states import PVM, BlochVector, DensityMatrix, PureState, fano_form


@dataclass(frozen=True)
class NrbResult:
    value: float
    argmax_u: BlochVector
    argmax_v: BlochVector
    eta: float  # |u . v| at the argmax

    def __post_init__(self):
        if not self.value >= -1e-12:  # NaN fails too
            raise ValueError(f"negative value {self.value:.3e}")
        if not -1e-12 <= self.eta <= 1 + 1e-12:
            raise ValueError(f"eta {self.eta!r} outside [0, 1]")


@dataclass(frozen=True)
class SchmidtDecomposition:
    """coefficients: k = min(d_a, d_b) probabilities, descending, sum 1.
    basis_a, basis_b: full orthonormal bases as matrix columns; the first k
    columns pair with the coefficients."""

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self):
        xi = np.array(self.coefficients, dtype=float)
        ua = np.array(self.basis_a, dtype=complex)
        ub = np.array(self.basis_b, dtype=complex)
        # each guard is written so that NaN fails it
        if not xi.min() >= -1e-10:
            raise ValueError(f"negative coefficient {xi.min():.3e}")
        if not abs(xi.sum() - 1.0) <= 1e-10:
            raise ValueError(f"coefficients sum to {xi.sum():.15g}, not 1")
        for u in (ua, ub):
            gram = u.conj().T @ u
            if not np.max(np.abs(gram - np.eye(u.shape[1]))) <= 1e-10:
                raise ValueError("basis not orthonormal")
        xi.setflags(write=False)
        ua.setflags(write=False)
        ub.setflags(write=False)
        object.__setattr__(self, "coefficients", xi)
        object.__setattr__(self, "basis_a", ua)
        object.__setattr__(self, "basis_b", ub)


@dataclass(frozen=True)
class PureNrbResult:
    """Value plus the attaining observables (projectors onto the Schmidt
    bases) for a pure state."""

    value: float
    pvm_a: PVM
    pvm_b: PVM
    decomposition: SchmidtDecomposition


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Biorthogonal decomposition from one full SVD of the coefficient
    matrix: psi = sum_i s_i |alpha_i>|beta_i> with alpha_i the columns of U
    and beta_i the rows of V^H, so xi_i = s_i^2 and both bases come out
    complete, zero-coefficient slots included. Reconstruction
    sum_i sqrt(xi_i)|alpha_i>|beta_i> recovers psi exactly.
    """
    u, s, vh = np.linalg.svd(psi.vector.reshape(psi.dims))
    xi = s * s
    return SchmidtDecomposition(xi / xi.sum(), u, vh.T)


def entanglement_entropy(psi: PureState) -> float:
    """Entropy of either marginal, in nats."""
    return entropy_from_eigenvalues(schmidt(psi).coefficients)


def _basis_pvm(basis: np.ndarray) -> PVM:
    projs = tuple(np.outer(basis[:, i], basis[:, i].conj())
                  for i in range(basis.shape[1]))
    return PVM(projs)


def nrb_pure(psi: PureState) -> PureNrbResult:
    """For pure states the maximal irreality drop equals the entanglement
    entropy and is attained by measuring the Schmidt bases on both sides."""
    dec = schmidt(psi)
    value = entropy_from_eigenvalues(dec.coefficients)
    return PureNrbResult(value, _basis_pvm(dec.basis_a), _basis_pvm(dec.basis_b), dec)


# ---------------------------------------------------------------------------
# two-qubit search

def _neg_xlogx(p):
    """-p ln p elementwise, 0 where p <= EIG_CLIP."""
    out = np.log(np.maximum(p, EIG_CLIP))
    out *= -p
    out[p <= EIG_CLIP] = 0.0
    return out


def _neg_xlogx_slope(p):
    """The derivative -(ln p + 1) of -p ln p, 0 where p <= EIG_CLIP."""
    return np.where(p > EIG_CLIP, -1.0 - np.log(np.maximum(p, EIG_CLIP)), 0.0)


def _dephased_entropy(a, b, t, u):
    """S(Phi_u rho) for site-A directions u (m, 3) of the state (a, b, T), and
    its gradient in u. In the u.sigma = s block the B part is
    ((1 + s a.u) I + (b + s T^T u).sigma) / 4, so the spectrum is
    (1 + s a.u +- |b + s T^T u|) / 4. Called with (b, a, T^T) for site B."""
    au, tu = u @ a, u @ t
    ent, grad = 0.0, 0.0
    for s in (1.0, -1.0):
        w = b + s * tu
        r = np.linalg.norm(w, axis=1)
        # d|w|/du = s T w / |w|; where |w| = 0 the two eigenvalues coincide
        # and their terms cancel
        tw = (w / np.maximum(r, EIG_CLIP)[:, None]) @ t.T
        for pm in (1.0, -1.0):
            lam = (1.0 + s * au + pm * r) / 4
            ent = ent + _neg_xlogx(lam)
            grad = grad + (s / 4) * _neg_xlogx_slope(lam)[:, None] * (a + pm * tw)
    return ent, grad


def _joint_probs(au, bv, utv):
    """Yield (s, q, p) for the four outcome probabilities
    p = (1 + s a.u + q b.v + s q u^T T v) / 4, s, q = +-1, of the doubly
    dephased state."""
    for s in (1.0, -1.0):
        for q in (1.0, -1.0):
            yield s, q, (1.0 + s * au + q * bv + s * q * utv) / 4


def _drop_objective(fano, s_rho):
    """The irreality drop S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) -
    S(rho) as a batched function of (u, v) with its analytic gradients."""
    a, b, t = fano[1:, 0], fano[0, 1:], fano[1:, 1:]

    def objective(u, v):
        s_a, g_u = _dephased_entropy(a, b, t, u)
        s_b, g_v = _dephased_entropy(b, a, t.T, v)
        tv, tu = v @ t.T, u @ t
        s_ab = 0.0
        for s, q, p in _joint_probs(u @ a, v @ b, np.sum(u * tv, axis=1)):
            s_ab = s_ab + _neg_xlogx(p)
            slope = _neg_xlogx_slope(p)[:, None] / 4
            g_u = g_u - slope * (s * a + s * q * tv)
            g_v = g_v - slope * (q * b + s * q * tu)
        return s_a + s_b - s_ab - s_rho, g_u, g_v

    return objective


def nrb_two_qubit(rho: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> NrbResult:
    """Maximize the irreality drop over sharp qubit observable pairs.

    The state is taken in its Fano form (a, b, T). The drop is scored on
    every pair of the grid, with S(Phi_u rho) and S(Phi_v rho) computed once
    per direction, and the best cfg.restarts pairs are refined as one
    batch (see rbnl.search). The returned value never falls below the grid
    maximum.

    The search covers every projective observable of a qubit: a PVM on C^2
    is either a pair of rank-1 projectors (I +- u.sigma)/2 or the trivial
    {I}, whose dephasing leaves rho unchanged and whose drop is 0.
    """
    fano = fano_form(rho)  # rejects dims other than (2, 2)
    a, b, t = fano[1:, 0], fano[0, 1:], fano[1:, 1:]
    s_rho = entropy_from_eigenvalues(np.linalg.eigvalsh(rho.matrix))
    dirs = sphere_grid(cfg)
    s_a = _dephased_entropy(a, b, t, dirs)[0]
    s_b = _dephased_entropy(b, a, t.T, dirs)[0]
    s_ab = sum(_neg_xlogx(p) for _, _, p in
               _joint_probs((dirs @ a)[:, None], (dirs @ b)[None, :], dirs @ t @ dirs.T))
    table = s_a[:, None] + s_b[None, :] - s_ab - s_rho
    value, u, v = grid_refine(table, dirs, _drop_objective(fano, s_rho), cfg)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    eta = min(abs(float(u @ v)), 1.0)
    return NrbResult(max(value, 0.0), BlochVector(u), BlochVector(v), eta)


def _h(x: float) -> float:
    """(1 + x) ln(1 + x), extended by its limit 0 at x = -1."""
    one = 1.0 + x
    if one <= 0.0:
        return 0.0
    return one * math.log(one)


def nrb_werner_closed_form(mu: float) -> float:
    """Closed form for the noisy-singlet family:
    (1/4)[h(3 mu) + h(-mu) - 2 h(mu)] with h(x) = (1+x) ln(1+x).

    Equals ln 2 at mu = 1 and 0 at mu = 0; monotone increasing in between.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return 0.25 * (_h(3 * mu) + _h(-mu) - 2 * _h(mu))


def werner_dephased_spectra(mu: float, u: BlochVector, v: BlochVector):
    """Analytic spectra of the three dephasings of the noisy singlet.

    Returns (spec_a, spec_b, spec_ab), each descending. Dephasing either
    side alone gives {(1+mu)/4 x2, (1-mu)/4 x2}; dephasing both gives
    {(1+mu*eta)/4 x2, (1-mu*eta)/4 x2} with eta = |u . v|.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    eta = min(abs(float(u.components @ v.components)), 1.0)
    one_side = np.array([(1 + mu) / 4, (1 + mu) / 4, (1 - mu) / 4, (1 - mu) / 4])
    both = np.array([(1 + mu * eta) / 4, (1 + mu * eta) / 4,
                     (1 - mu * eta) / 4, (1 - mu * eta) / 4])
    return one_side, one_side.copy(), both
