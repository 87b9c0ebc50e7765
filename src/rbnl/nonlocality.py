"""The state-level quantifier: the maximal drop of irreality over pairs of
local observables. nrb_pure gives it for pure states of any dimensions, and
nrb_two_qubit for every two-qubit state, by the routes its docstring sets
out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import check_mu, nrb_werner_closed_form  # noqa: F401  (re-exported)
from .linalg import EIG_CLIP, entropy_from_eigenvalues
from .search import OptimizerConfig, SearchDiagnostics, refine, sphere_grid
from .states import PVM, BlochVector, DensityMatrix, PureState, _freeze, fano_form

PURITY_CUTOFF = 1e-10  # Tr rho^2 > 1 - PURITY_CUTOFF counts as a pure state
# max(|a|, |b|) <= MARGINAL_CUTOFF counts as maximally mixed marginals: the
# closed form holds at a = b = 0 only, and rounding in the Fano form of an
# exactly zero-marginal state stays near 1e-16
MARGINAL_CUTOFF = 1e-12
TABLE_MARGIN = 1e-4  # the float32 screen of the pair table: see _grid_top


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
    """N_rb of a pure state, its entanglement entropy, and the state. The
    Schmidt decomposition and pvm_a and pvm_b, the attaining observables
    (projectors onto the Schmidt bases), are built from the state when read,
    anew at each read."""

    value: float
    state: PureState

    @property
    def decomposition(self) -> SchmidtDecomposition:
        return schmidt(self.state)

    @property
    def pvm_a(self) -> PVM:
        return _basis_pvm(self.decomposition.basis_a)

    @property
    def pvm_b(self) -> PVM:
        return _basis_pvm(self.decomposition.basis_b)


def _schmidt_svd(psi: PureState):
    """(xi, U, W) from one full SVD U s V^H of the coefficient matrix,
    unvalidated: psi = sum_i s_i |alpha_i>|beta_i> with alpha_i the columns
    of U and beta_i the rows of V^H, which are the columns of W = (V^H)^T,
    and xi = s^2 / sum s^2, descending."""
    u, s, vh = np.linalg.svd(psi.vector.reshape(psi.dims))
    xi = s * s
    return xi / xi.sum(), u, vh.T


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Biorthogonal decomposition of psi, the arrays of _schmidt_svd
    validated by SchmidtDecomposition: both bases come out complete,
    zero-coefficient slots included, and sum_i sqrt(xi_i)|alpha_i>|beta_i>
    recovers psi exactly.
    """
    return SchmidtDecomposition(*_schmidt_svd(psi))


def entanglement_entropy(psi: PureState) -> float:
    """Entropy of either marginal, in nats, from the Schmidt coefficients of
    _schmidt_svd alone: no SchmidtDecomposition is built."""
    return entropy_from_eigenvalues(_schmidt_svd(psi)[0])


def _basis_pvm(basis: np.ndarray) -> PVM:
    cols = basis.T
    return PVM(cols[:, :, None] * cols.conj()[:, None, :])


def _is_pure(rho: DensityMatrix) -> bool:
    """Tr rho^2 > 1 - PURITY_CUTOFF: the one purity test, which sends a
    state to the Schmidt route in nrb_two_qubit and, through pure_state, in
    rbnl state."""
    return rho.purity() > 1.0 - PURITY_CUTOFF


def pure_state(rho: DensityMatrix) -> PureState | None:
    """The top eigenvector of rho when _is_pure(rho), else None."""
    if _is_pure(rho):
        return PureState(np.linalg.eigh(rho.matrix)[1][:, -1], rho.dims)
    return None


def nrb_pure(psi: PureState) -> PureNrbResult:
    """For pure states the maximal irreality drop equals the entanglement
    entropy and is attained by measuring the Schmidt bases on both sides. The
    value takes one SVD; the rest of the result is built when read (see
    PureNrbResult)."""
    return PureNrbResult(entanglement_entropy(psi), psi)


# ---------------------------------------------------------------------------
# two-qubit search

# In the Fano form (a, b, T) of rho (see fano_form), Phi_u rho has the
# eigenvalues (1 + s a.u +- |w_As|) / 4 and Phi_v rho (1 + s b.v +- |w_Bs|) / 4,
# s = +-1, with w_As = b + s T^T u and w_Bs = a + s T v, and Phi_u Phi_v rho
# the outcome probabilities (1 + s a.u + q b.v + s q u^T T v) / 4, q = +-1.
# So all 12 are affine in eight features of (u, v), F = (1, a.u, b.v,
# u^T T v, |w_A+|, |w_A-|, |w_B+|, |w_B-|): they are F @ EIGEN, four per
# state in the sign order (+, +), (+, -), (-, +), (-, -) of (s, q).
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
# JACOBIAN @ (the gradients of F): the gradients of the 12 eigenvalues, then
# those of the four |w_s| alone
JACOBIAN = np.vstack([EIGEN.T, np.eye(8)[4:]])


def _plogp(p):
    """p ln p elementwise, 0 where p <= EIG_CLIP."""
    out = np.maximum(p, EIG_CLIP)
    np.log(out, out=out)
    out *= p
    out[p <= EIG_CLIP] = 0.0
    return out


def _fano_constants(a, b, t):
    """The per-state constants of _drop_value: a, b, diag(T, T^T), which takes
    (u, v) to (T^T u, T v), and (b, a) (2, 1, 3), the constant parts of w_s
    at the two sites."""
    linear = np.zeros((6, 6))
    linear[:3, :3], linear[3:, 3:] = t, t.T
    return a, b, linear, np.concatenate([b, a]).reshape(2, 1, 3)


def _table_parts(a, b, t, dirs):
    """The float64 arguments of _planes on every pair (dirs[i], dirs[j]) of
    dirs (n, 3): corr = u^T T v / 4 (n, n), one product of the rows T^T u
    with dirs; a.u / 4 (n, 1) and b.v / 4 (n,); and -S(Phi_u rho) (n, 1) and
    -S(Phi_v rho) (n,) at u = v = dirs[i], from w_s, |w_s| and the four
    eigenvalues of each site, with the directions last so that each
    operation runs along them."""
    n = len(dirs)
    tu = dirs @ t  # the rows T^T u
    au, bv = dirs @ a, dirs @ b
    xt = np.concatenate([tu, dirs @ t.T], axis=1).T
    w = np.concatenate([b, a])[:, None] + SIGNS[..., None] * xt  # (s, 6, n)
    r = np.sqrt((w * w).reshape(2, 2, 3, n).sum(axis=2))  # (s, site, n)
    mid = 1.0 + SIGNS[..., None] * np.stack([au, bv])
    one = _plogp(np.stack([mid + r, mid - r], axis=1).reshape(4, 2, n) / 4).sum(axis=0)
    return (tu @ dirs.T) / 4, au[:, None] / 4, bv / 4, one[0, :, None], one[1]


def _planes(corr, row, col, one_u, one_v):
    """S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) from the parts of
    _table_parts, taken at any broadcastable shapes and computed in their
    dtype. The outcome probabilities of Phi_u Phi_v rho are q A_s + R_s
    with A_s = (s u^T T v + b.v) / 4 and R_s = (1 + s a.u) / 4; each plane
    (s, q) is formed and added to the sum of p ln p on its own, so no
    (4, ...) array is made."""
    a_s, r_s = corr + col, 0.25 + row  # s = +1
    total = _plogp(a_s + r_s)  # q = +1
    total += _plogp(r_s - a_s)  # q = -1
    a_s, r_s = col - corr, 0.25 - row  # s = -1
    total += _plogp(a_s + r_s)
    total += _plogp(r_s - a_s)
    total -= one_u + one_v
    return total


def _pair_table(a, b, t, dirs):
    """The float64 table of _planes on every pair (dirs[i], dirs[j]), (n, n):
    the drop plus the constant S(rho), so it ranks the pairs as the drop
    does. _grid_top reproduces that ranking."""
    return _planes(*_table_parts(a, b, t, dirs))


def _grid_top(parts, k):
    """The grid indices of the k best pairs of the table of parts (see
    _table_parts), best first, as rows (i, j) of a (k, 2) array: i n + j equals
    np.argsort(-_pair_table(...).ravel(), kind="stable")[:k], the ranking of
    the whole float64 table, ties to the lower index included.

    Every pair is first scored by _planes in float32 (Shewchuk, Discrete
    Comput. Geom. 18, 305, 1997), and the pairs within TABLE_MARGIN of the
    k-th best float32 score are recounted by _planes in float64, with the
    operations of the float64 table, so bit for bit, and ranked. A float32
    probability errs by at most about 2e-7, so a score by at most about 2e-5
    (|x ln x - y ln y| <= 3.3e-6 for |x - y| <= 2e-7, over four planes, plus
    the rounding of the sums); measured, below 1e-6. As 2e-5 <
    TABLE_MARGIN / 2, every pair of the float64 top k is kept."""
    corr, row, col, one_u, one_v = parts
    n = len(col)
    screen = _planes(*(x.astype(np.float32) for x in parts)).ravel()
    kth = max(n * n - k, 0)  # the k-th best, or the worst when k >= n^2
    keep = np.flatnonzero(screen >= np.partition(screen, kth)[kth] - TABLE_MARGIN)
    i, j = np.divmod(keep, n)
    drop = _planes(corr.ravel()[keep], row[i, 0], col[j], one_u[i, 0], one_v[j])
    best = np.argsort(-drop, kind="stable")[:k]
    return np.stack([i[best], j[best]], axis=1)


def _drop_value(fano, s_rho, x):
    """The drop at the pairs x (m, 2, 3), (m,), from the features F (m, 8) of
    EIGEN, L = F @ EIGEN and one log: the value part of _drop_objective,
    read alone by the closed-form routes. fano holds the state's constants
    (see _fano_constants); both sites take one product, of x.reshape(m, 6)
    with diag(T, T^T). Also returns the pieces the derivatives reuse:
    (T^T u, T v) (m, 2, 3), w_s (m, 2, 2, 3) and |w_s| (m, 2, 2), indexed
    [row, site, s], then the clipped L, its log and the signs of the terms."""
    a, b, linear, ab = fano
    m = len(x)
    xt = (x.reshape(m, 6) @ linear).reshape(m, 2, 3)
    w = ab + SIGNS * xt[:, :, None]
    r = np.sqrt((w * w).sum(axis=3))
    feat = np.empty((m, 8))
    feat[:, 0] = 1.0
    feat[:, 1], feat[:, 2] = x[:, 0] @ a, x[:, 1] @ b
    feat[:, 3] = (x[:, 0] * xt[:, 1]).sum(axis=1)
    feat[:, 4:] = r.reshape(m, 4)
    big = feat @ EIGEN
    clipped = np.maximum(big, EIG_CLIP)
    log = np.log(clipped)
    sign = (big > EIG_CLIP) * NEG_DROP_SIGN  # -c where L is live, else 0
    return (big * log * sign).sum(axis=1) - s_rho, (xt, w, r, clipped, log, sign)


def _drop_objective(a, b, t, s_rho):
    """The irreality drop S(Phi_u rho) + S(Phi_v rho) - S(Phi_u Phi_v rho) -
    S(rho) as an objective of refine (see there): a batched function of the
    pairs x (m, 2, 3), with its Euclidean gradient and 6 x 6 Hessian.

    The 12 eigenvalues L = F @ EIGEN of the three dephased states take one
    log. With eta = -x ln x and c = +-1 the sign of each term in the drop,
    the gradient is sum c eta'(L) grad L = sum_f e_f grad F_f, where
    e = (c eta'(L)) @ EIGEN^T is the derivative in the features, and the
    Hessian is sum c eta''(L) grad L grad L^T + sum_f e_f hess F_f. Of the
    features, u^T T v has the Hessian [[0, T], [T^T, 0]], and |w_As| the
    gradient s T w^ in u and the u-u block T T^T / |w_As| -
    (T w^)(T w^)^T / |w_As|, with w^ the unit w_As and |w_As| clipped at
    EIG_CLIP where the two eigenvalues of a block coincide; |w_Bs| is the
    same with T^T for T in v. The terms (T w^)(T w^)^T join the
    grad L grad L^T terms in one product. eta' = eta'' = 0 where
    L <= EIG_CLIP. Everything that depends on the state alone (the
    constants of the features, the gradients of a.u and b.v, the blocks
    T T^T, T^T T and [[0, T], [T^T, 0]]) is built once, here.
    """
    fano = _fano_constants(a, b, t)
    # the unit w_s of the four |w_s|, side by side (m, 12), @ lift: their
    # gradients (m, 4 x 6), s T w^ in u for |w_As| and s T^T w^ in v for |w_Bs|
    lift = np.zeros((4, 3, 4, 6))
    lift[0, :, 0, :3], lift[1, :, 1, :3] = t.T, -t.T
    lift[2, :, 2, 3:], lift[3, :, 3, 3:] = t, -t
    lift = lift.reshape(12, 24)
    template = np.zeros((1, 8, 6))  # the gradients of the features, less those set per call
    template[0, 1, :3], template[0, 2, 3:] = a, b
    blocks = np.zeros((5, 6, 6))  # times (e_3, e_4 / |w_A+|, ..., e_7 / |w_B-|)
    blocks[0, :3, 3:], blocks[0, 3:, :3] = t, t.T
    blocks[1:3, :3, :3], blocks[3:, 3:, 3:] = t @ t.T, t.T @ t
    blocks = blocks.reshape(5, 36)

    def objective(x):
        m = len(x)
        f, (xt, w, r, clipped, log, sign) = _drop_value(fano, s_rho, x)
        e = ((1.0 + log) * sign) @ EIGEN.T  # c eta'(L) @ EIGEN^T
        rc = np.maximum(r, EIG_CLIP)[..., None]
        grad = template.repeat(m, axis=0)
        grad[:, 3, :3], grad[:, 3, 3:] = xt[:, 1], xt[:, 0]
        grad[:, 4:] = ((w / rc).reshape(m, 12) @ lift).reshape(m, 4, 6)
        curv = e[:, 4:] / rc.reshape(m, 4)
        jac = JACOBIAN @ grad
        weight = np.concatenate([sign / clipped, -curv], axis=1)
        h = (jac * weight[..., None]).transpose(0, 2, 1) @ jac
        h += (np.concatenate([e[:, 3:4], curv], axis=1) @ blocks).reshape(m, 6, 6)
        return f, (e[:, None] @ grad).reshape(m, 2, 3), h

    return objective


def _result(value, u, v, diagnostics=None) -> NrbResult:
    u = u / np.linalg.norm(u) + 0.0  # so no -0.0 reaches the printed argmax
    v = v / np.linalg.norm(v) + 0.0
    eta = min(abs(float(u @ v)), 1.0)
    return NrbResult(max(value, 0.0), BlochVector(u), BlochVector(v), eta, diagnostics)


def nrb_two_qubit(rho: DensityMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> NrbResult:
    """Maximize the irreality drop over sharp qubit observable pairs.

    Three routes, tried in this order:

    - A pure state (_is_pure, purity above 1 - PURITY_CUTOFF) takes no
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
    pure = _is_pure(rho)
    if not pure and max(np.linalg.norm(a), np.linalg.norm(b)) > MARGINAL_CUTOFF:
        return _nrb_search(rho, cfg)
    left, _, right = np.linalg.svd(t)
    k = 0 if pure else -1
    u, v = left[:, k], right[k]
    value, _ = _drop_value(_fano_constants(a, b, t), rho.entropy(), np.stack([u, v])[None])
    return _result(float(value[0]), u, v)


def _nrb_search(rho: DensityMatrix, cfg: OptimizerConfig) -> NrbResult:
    """The search route of nrb_two_qubit, for any two-qubit state: the best
    cfg.restarts pairs of sphere_grid by their drop, ranked as on the whole
    _pair_table (see _grid_top), refined with _drop_objective. The value
    never falls below that of the best grid pair."""
    a, b, t = fano_form(rho)
    dirs = sphere_grid(cfg.theta_points, cfg.phi_points)
    top = _grid_top(_table_parts(a, b, t, dirs), cfg.restarts)
    return _result(*refine(_drop_objective(a, b, t, rho.entropy()), dirs[top], cfg))


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
