"""The state-level quantifier: maximal drop of irreality over local
observable pairs.

nrb_two_qubit takes one of three routes, in this order (see its docstring).
Two closed forms read one SVD of the correlation matrix T of the Fano form
below. A pure state, purity above 1 - PURITY_CUTOFF, takes the top singular
pair of T: the Bloch vectors of the leading Schmidt kets, up to a joint
sign, whose drop is the entanglement entropy (nrb_pure gives that value for
any dimensions). A state with maximally mixed marginals, |a| and |b| at
most MARGINAL_CUTOFF (the Werner states among them), takes the bottom
singular pair. Both return diagnostics None. Every other two-qubit state is
searched over sharp qubit observables u.sigma and v.sigma, u and v unit
Bloch vectors, of the objective

    S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) - S(rho).

In the Fano form rho = (I + a.sigma (x) I + I (x) b.sigma
+ sum_ij T_ij sigma_i (x) sigma_j) / 4 every term is closed form, with an
analytic gradient: S(Phi_u rho) is the entropy of the four eigenvalues
(1 + s a.u +- |b + s T^T u|) / 4, s = +-1, its mirror image gives
S(Phi_v rho), and S(Phi_u Phi_v rho) is the Shannon entropy of
(1 + s a.u + q b.v + s q u^T T v) / 4. All 4 + 4 + 4 eigenvalues are
affine in eight features of (u, v), both one-sided parts computed in one
stacked pass, so one call of the objective forms them with one product,
takes one log, and returns the value, the gradients and the analytic
6 x 6 Hessian in (u, v). The drop does not
change under u -> -u or v -> -v, so a grid of one direction per observable
on each sphere (the theta x phi grid modulo the antipodal map) localizes
the basins, and a batched damped Newton iteration (rbnl.search) polishes
the best candidates with that Hessian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import check_mu, nrb_werner_closed_form  # noqa: F401  (re-exported)
from .linalg import EIG_CLIP, entropy_from_eigenvalues
from .search import OptimizerConfig, SearchDiagnostics, grid_refine, sphere_grid
from .states import PVM, BlochVector, DensityMatrix, PureState, _freeze, fano_form

PURITY_CUTOFF = 1e-10  # Tr rho^2 > 1 - PURITY_CUTOFF counts as a pure state
# max(|a|, |b|) <= MARGINAL_CUTOFF counts as maximally mixed marginals: the
# closed form holds at a = b = 0 only, and rounding in the Fano form of an
# exactly zero-marginal state stays near 1e-16
MARGINAL_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class NrbResult:
    value: float
    argmax_u: BlochVector
    argmax_v: BlochVector
    eta: float  # |u . v| at the argmax
    diagnostics: SearchDiagnostics | None = None  # None unless from a search

    def __post_init__(self):
        if not self.value >= -1e-12:  # NaN fails too
            raise ValueError(f"negative value {self.value:.3e}")
        if not -1e-12 <= self.eta <= 1 + 1e-12:
            raise ValueError(f"eta {self.eta!r} outside [0, 1]")


@dataclass(frozen=True, eq=False)
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
        _freeze(self, coefficients=xi, basis_a=ua, basis_b=ub)


@dataclass(frozen=True, eq=False)
class PureNrbResult:
    """Value plus the Schmidt decomposition of a pure state; pvm_a and pvm_b,
    the attaining observables (projectors onto the Schmidt bases), are built
    from it when read."""

    value: float
    decomposition: SchmidtDecomposition

    @property
    def pvm_a(self) -> PVM:
        return _basis_pvm(self.decomposition.basis_a)

    @property
    def pvm_b(self) -> PVM:
        return _basis_pvm(self.decomposition.basis_b)


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
    cols = basis.T
    return PVM(cols[:, :, None] * cols.conj()[:, None, :])


def pure_state(rho: DensityMatrix) -> PureState | None:
    """The top eigenvector of rho when Tr rho^2 > 1 - PURITY_CUTOFF, else
    None: the one purity test, which sends a state to the Schmidt route in
    nrb_two_qubit and in rbnl state."""
    if rho.purity() > 1.0 - PURITY_CUTOFF:
        return PureState(np.linalg.eigh(rho.matrix)[1][:, -1], rho.dims)
    return None


def nrb_pure(psi: PureState) -> PureNrbResult:
    """For pure states the maximal irreality drop equals the entanglement
    entropy and is attained by measuring the Schmidt bases on both sides."""
    dec = schmidt(psi)
    return PureNrbResult(entropy_from_eigenvalues(dec.coefficients), dec)


# ---------------------------------------------------------------------------
# two-qubit search

# Every eigenvalue of Phi_u rho, Phi_v rho and Phi_u Phi_v rho is affine in
# eight features of (u, v), F = (1, a.u, b.v, u^T T v, |w_A+|, |w_A-|,
# |w_B+|, |w_B-|) with w_As = b + s T^T u and w_Bs = a + s T v: the 12
# eigenvalues are F @ EIGEN, four per state in the sign order (+, +),
# (+, -), (-, +), (-, -) of (s, q).
EIGEN = np.array([
    # Phi_u rho        Phi_v rho          Phi_u Phi_v rho
    [1, 1, 1, 1,       1, 1, 1, 1,        1, 1, 1, 1],      # 1
    [1, 1, -1, -1,     0, 0, 0, 0,        1, 1, -1, -1],    # a.u
    [0, 0, 0, 0,       1, 1, -1, -1,      1, -1, 1, -1],    # b.v
    [0, 0, 0, 0,       0, 0, 0, 0,        1, -1, -1, 1],    # u^T T v
    [1, -1, 0, 0,      0, 0, 0, 0,        0, 0, 0, 0],      # |w_A+|
    [0, 0, 1, -1,      0, 0, 0, 0,        0, 0, 0, 0],      # |w_A-|
    [0, 0, 0, 0,       1, -1, 0, 0,       0, 0, 0, 0],      # |w_B+|
    [0, 0, 0, 0,       0, 0, 1, -1,       0, 0, 0, 0],      # |w_B-|
]) / 4
SIGNS = np.array([[1.0], [-1.0]])  # s, on the axis of w_s before the last
# the drop is S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) - S(rho):
# minus the sign of each eigenvalue's -L ln L term
NEG_DROP_SIGN = -np.repeat([1.0, 1.0, -1.0], 4)


def _plogp(p):
    """p ln p elementwise, 0 where p <= EIG_CLIP."""
    out = np.maximum(p, EIG_CLIP)
    np.log(out, out=out)
    out *= p
    out[p <= EIG_CLIP] = 0.0
    return out


def _features(a, b, t, u, v):
    """The features F (m, 8) of the rows of u and v (see EIGEN), with
    (T^T u, T v) (m, 2, 3), w_s (m, 2, 2, 3) and |w_s| (m, 2, 2), indexed
    [row, site, s]. Both sites take one product with diag(T, T^T)."""
    m = len(u)
    linear = np.zeros((6, 6))
    linear[:3, :3], linear[3:, 3:] = t, t.T
    xt = (np.concatenate([u, v], axis=1) @ linear).reshape(m, 2, 3)
    w = np.stack([b, a])[:, None] + SIGNS * xt[:, :, None]
    r = np.sqrt((w * w).sum(axis=3))
    feat = np.empty((m, 8))
    feat[:, 0] = 1.0
    feat[:, 1], feat[:, 2] = u @ a, v @ b
    feat[:, 3] = (u * xt[:, 1]).sum(axis=1)
    feat[:, 4:] = r.reshape(m, 4)
    return feat, xt, w, r


def _pair_table(a, b, t, dirs):
    """S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) on every pair of
    directions (u, v) = (dirs[i], dirs[j]), shape (n, n). The doubly
    dephased state has the outcome probabilities
    (1 + s a.u + q b.v + s q u^T T v) / 4, that is q A_s + R_s with
    A_s = (s u^T T v + b.v) / 4 and R_s = (1 + s a.u) / 4; each plane (s, q)
    is formed and added to the sum of p ln p on its own, so no (4, n, n)
    array is made."""
    n = len(dirs)
    # -S(Phi_u rho) and -S(Phi_v rho) at u = v = dirs[i], shape (n, 2)
    one = _plogp(_features(a, b, t, dirs, dirs)[0] @ EIGEN[:, :8])
    one = one.reshape(n, 2, 4).sum(axis=2)
    corr = (dirs @ t @ dirs.T) / 4
    row, col = (dirs @ a) / 4, (dirs @ b) / 4
    total = np.zeros((n, n))
    for s in (1.0, -1.0):
        a_s = corr * s + col
        r_s = (0.25 + s * row)[:, None]
        total += _plogp(a_s + r_s)  # q = +1
        total += _plogp(r_s - a_s)  # q = -1
    total -= one[:, 0, None] + one[:, 1]
    return total


def _drop_value(a, b, t, s_rho, u, v):
    """The drop at the rows of u and v, (m,), from the features, L = F @ EIGEN
    and one log: the value part of _drop_objective, read alone by the closed-
    form routes. Also returns the pieces the derivatives reuse."""
    feat, xt, w, r = _features(a, b, t, u, v)
    big = feat @ EIGEN
    clipped = np.maximum(big, EIG_CLIP)
    log = np.log(clipped)
    sign = (big > EIG_CLIP) * NEG_DROP_SIGN  # -c where L is live, else 0
    return (big * log * sign).sum(axis=1) - s_rho, (xt, w, r, clipped, log, sign)


def _drop_objective(a, b, t, s_rho):
    """The irreality drop S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) -
    S(rho) as a batched function of (u, v), with its Euclidean gradients in
    u and v and its 6 x 6 Euclidean Hessian in (u, v).

    The 12 eigenvalues L = F @ EIGEN of the three dephased states take one
    log. With eta = -x ln x and c = +-1 the sign of each term in the drop,
    the gradient is sum c eta'(L) grad L and the Hessian
    sum c eta''(L) grad L grad L^T + sum e_f hess F_f, where
    e = (c eta'(L)) @ EIGEN^T is the derivative in the features. Of the
    features, u^T T v has the Hessian [[0, T], [T^T, 0]], |w_As| the u-u
    block T (I - w^ w^T) T^T / |w_As| and the s T w^ gradient, with w^ the
    unit w_As and |w_As| clipped at EIG_CLIP where the two eigenvalues of a
    block coincide, and |w_Bs| the same with T^T for T in the v-v block.
    eta' = eta'' = 0 where L <= EIG_CLIP.
    """
    tt = np.stack([t.T, t])  # w^ @ tt = T w^ at site A and T^T w^ at site B
    ttt = np.stack([t @ t.T, t.T @ t])
    block = np.zeros((2, 2, 3))  # the gradients of a.u and b.v
    block[0, 0], block[1, 1] = a, b

    def objective(u, v):
        m = len(u)
        f, (xt, w, r, clipped, log, sign) = _drop_value(a, b, t, s_rho, u, v)
        d1 = (1.0 + log) * sign  # c eta'(L)
        rc = np.maximum(r, EIG_CLIP)[..., None]
        tw = (w / rc) @ tt
        grad = np.zeros((m, 8, 2, 3))  # the gradients of the features
        grad[:, 1:3] = block
        grad[:, 3] = xt[:, ::-1]
        grad[:, 4:6, 0] = SIGNS * tw[:, 0]
        grad[:, 6:, 1] = SIGNS * tw[:, 1]
        dl = EIGEN.T @ grad.reshape(m, 8, 6)
        g = np.einsum("mk,mkj->mj", d1, dl)
        h = (dl * (sign / clipped)[..., None]).transpose(0, 2, 1) @ dl
        e = d1 @ EIGEN.T
        curv = (ttt[:, None] - tw[..., :, None] * tw[..., None, :]) / rc[..., None]
        curv = np.einsum("mks,mksij->mkij", e[:, 4:].reshape(m, 2, 2), curv)
        h[:, :3, :3] += curv[:, 0]
        h[:, 3:, 3:] += curv[:, 1]
        h[:, :3, 3:] += e[:, 3, None, None] * t
        h[:, 3:, :3] += e[:, 3, None, None] * t.T
        return f, g[:, :3], g[:, 3:], h

    return objective


def _result(value, u, v, diagnostics=None) -> NrbResult:
    u = u / np.linalg.norm(u) + 0.0  # so no -0.0 reaches the printed argmax
    v = v / np.linalg.norm(v) + 0.0
    eta = min(abs(float(u @ v)), 1.0)
    return NrbResult(max(value, 0.0), BlochVector(u), BlochVector(v), eta, diagnostics)


def nrb_two_qubit(rho: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> NrbResult:
    """Maximize the irreality drop over sharp qubit observable pairs.

    Three routes, tried in this order:

    - A pure state (pure_state, purity above 1 - PURITY_CUTOFF) takes no
      search: the maximum is the entanglement entropy, attained on the
      Schmidt bases. In the Schmidt frame T = diag(r, -r, 1), r <= 1, so
      argmax_u and argmax_v, the top singular pair of T, are the Bloch
      vectors of the leading Schmidt kets up to a joint sign (or any pair
      of the top singular plane as r -> 1). For a state inside the cutoff
      but not exactly pure, rho = (1 - eps)|psi><psi| + eps sigma, the
      value is still an attained drop, within O(eps ln eps) of the maximum.
    - A state with maximally mixed marginals, |a| and |b| at most
      MARGINAL_CUTOFF, takes no search either. Each dephased spectrum then
      depends on one number: S(Phi_u rho) = ln 2 + H(|T^T u|),
      S(Phi_v rho) = ln 2 + H(|T v|) and S(Phi_u Phi_v rho) =
      ln 2 + H(u^T T v), with H(x) = h((1 + x)/2) decreasing in |x|. As
      |u^T T v| <= min(|T^T u|, |T v|), the drop is at most
      ln 2 + H(max(|T^T u|, |T v|)) - S(rho) <= ln 2 + H(t_min) - S(rho),
      t_min the smallest singular value of T, and the bottom singular pair
      attains it (the route of Luo's discord of Bell-diagonal states,
      Phys. Rev. A 77, 042303, 2008). argmax_u and argmax_v are that pair.
    - Every other state is searched (see _nrb_search), and cfg applies only
      there.

    The first two routes read their pair from one SVD of T and return the
    drop evaluated there, with diagnostics None. u and -u are the same
    observable, so the signs of argmax_u and argmax_v carry no meaning.

    The search covers every projective observable of a qubit: a PVM on C^2
    is either a pair of rank-1 projectors (I +- u.sigma)/2 or the trivial
    {I}, whose dephasing leaves rho unchanged and whose drop is 0.
    """
    a, b, t = fano_form(rho)  # rejects dims other than (2, 2)
    pure = pure_state(rho) is not None
    if not pure and max(np.linalg.norm(a), np.linalg.norm(b)) > MARGINAL_CUTOFF:
        return _nrb_search(rho, cfg)
    left, _, right = np.linalg.svd(t)
    k = 0 if pure else -1
    u, v = left[:, k], right[k]
    value, _ = _drop_value(a, b, t, rho.entropy(), u[None], v[None])
    return _result(float(value[0]), u, v)


def _nrb_search(rho: DensityMatrix, cfg: OptimizerConfig) -> NrbResult:
    """The grid-then-refine search for N_rb, for any two-qubit state.

    The state is taken in its Fano form (a, b, T). The drop is scored on
    every pair of the grid of distinct observables, with S(Phi_u rho) and
    S(Phi_v rho) computed once per direction, and the best cfg.restarts
    pairs are refined as one batch with the analytic Hessian (see
    rbnl.search). The returned value never falls below the grid maximum.
    """
    a, b, t = fano_form(rho)
    s_rho = rho.entropy()
    dirs = sphere_grid(cfg.theta_points, cfg.phi_points)
    table = _pair_table(a, b, t, dirs)
    table -= s_rho
    return _result(*grid_refine(table, dirs, _drop_objective(a, b, t, s_rho), cfg))


def werner_dephased_spectra(mu: float, u: BlochVector, v: BlochVector):
    """Analytic spectra of the three dephasings of the noisy singlet.

    Returns (spec_a, spec_b, spec_ab), each descending. Dephasing either
    side alone gives {(1+mu)/4 x2, (1-mu)/4 x2}; dephasing both gives
    {(1+mu*eta)/4 x2, (1-mu*eta)/4 x2} with eta = |u . v|.
    """
    check_mu(mu)
    eta = min(abs(float(u.components @ v.components)), 1.0)
    one_side = np.array([(1 + mu) / 4, (1 + mu) / 4, (1 - mu) / 4, (1 - mu) / 4])
    both = np.array([(1 + mu * eta) / 4, (1 + mu * eta) / 4,
                     (1 - mu * eta) / 4, (1 - mu * eta) / 4])
    return one_side, one_side.copy(), both
