"""Unrevealed-measurement dephasing, irreality, and the drop of irreality
caused by a remote measurement.

The dephasing of a local sharp observable maps rho to
sum_a (P_a (x) I) rho (P_a (x) I) for a site-A observable, and mirrored for
site B. Its fixed points are exactly the states in which that observable has
a definite (real) value. The irreality of the observable is
S(dephased) - S(rho); the context quantity delta_irreality measures how much
an unrevealed remote measurement lowers it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import entropy_from_eigenvalues, tensor
from .states import PVM, DensityMatrix, _freeze

SITES = ("A", "B")
REALITY_TOL = 1e-10  # max-abs change under a dephasing that is_reality_state allows


@dataclass(frozen=True, eq=False)
class LocalPVM:
    """A sharp observable attached to one side of a bipartite system."""

    pvm: PVM
    site: str

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"site must be 'A' or 'B', got {self.site!r}")


@dataclass(frozen=True, eq=False)
class RealityComponents:
    """Ingredients of the most general state in which a site-A observable
    has a definite value: weights p_k with site-A states (to be dephased)
    and site-B states. The states of each site must be square matrices of
    one shape."""

    weights: np.ndarray
    states_a: tuple
    states_b: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not 0 < len(w) == len(self.states_a) == len(self.states_b):
            raise ValueError("weights and component lists must be non-empty and agree in length")
        # both guards are written so that NaN fails them
        if not w.min() >= 0:
            raise ValueError(f"negative weight {w.min():.3e}")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum():.15g}, not 1")
        sa = tuple(np.array(s, dtype=complex) for s in self.states_a)
        sb = tuple(np.array(s, dtype=complex) for s in self.states_b)
        for site, states in (("A", sa), ("B", sb)):
            shapes = sorted({s.shape for s in states})
            if len(shapes) > 1 or any(len(sh) != 2 or sh[0] != sh[1] for sh in shapes):
                raise ValueError(f"component dimension: site-{site} states must be square "
                                 f"matrices of one shape, got shapes {shapes}")
        _freeze(self, weights=w, states_a=sa, states_b=sb)


def _realign(x: np.ndarray, p: int, q: int, r: int, s: int) -> np.ndarray:
    """The matrix, or each matrix of a stack, X[(i, k), (j, l)] with index
    ranges (p, q, r, s) as X[(i, j), (k, l)]: the view of a matrix on dims
    (d_a, d_b) in which a dephasing of either site is one matrix product, and,
    with (p, q, r, s) = (d_a, d_a, d_b, d_b), the way back."""
    lead = x.shape[:-2]
    return x.reshape(*lead, p, q, r, s).swapaxes(-3, -2).reshape(*lead, p * r, q * s)


def _apply(r: np.ndarray, dims, m: LocalPVM) -> np.ndarray:
    """The dephasing of m on a matrix on dims, realigned as
    R[(i, j), (b, d)] (site A's index pair on the rows, site B's on the
    columns): S @ R on site A and R @ S^T on site B, S being the PVM's
    superoperator. The site/dimension check that every caller shares is
    made here, the only check on the way to the product."""
    d_a, d_b = dims
    dim = d_a if m.site == "A" else d_b
    if m.pvm.dim != dim:
        raise ValueError(f"PVM dimension {m.pvm.dim} does not match site {m.site} dimension {dim}")
    s = m.pvm.superoperator
    return s @ r if m.site == "A" else r @ s.T


def _dephased(matrix: np.ndarray, dims, m: LocalPVM) -> np.ndarray:
    """The dephasing of m on a matrix on dims: realigned, one product, and
    realigned back."""
    d_a, d_b = dims
    out = _apply(_realign(matrix, d_a, d_b, d_a, d_b), dims, m)
    return _realign(out, d_a, d_a, d_b, d_b)


def dephase(rho: DensityMatrix, m: LocalPVM) -> DensityMatrix:
    """Unrevealed projective measurement of m on rho.

    Computed as the sandwich sum, one product with the PVM's superoperator,
    which needs no outcome probabilities and so has no zero-probability
    singularities. Trace is preserved, and the
    result passes the full DensityMatrix validation (irreality and
    delta_irreality skip it: see there).
    """
    return DensityMatrix(_dephased(rho.matrix, rho.dims, m), rho.dims)


def irreality(m: LocalPVM, rho: DensityMatrix) -> float:
    """Entropic indefiniteness S(dephased) - S(rho) of m in rho, in nats.

    Nonnegative up to floating point noise; zero exactly when rho is a fixed
    point of the dephasing. As rho and m are validated, the dephased matrix
    is diagonalized as it is, by one eigvalsh, not re-validated: the value is
    bit for bit dephase(rho, m).entropy() - rho.entropy().
    """
    spectrum = np.linalg.eigvalsh(_dephased(rho.matrix, rho.dims, m))
    return entropy_from_eigenvalues(spectrum) - rho.entropy()


def delta_irreality(a: LocalPVM, b: LocalPVM, rho: DensityMatrix) -> float:
    """Drop of a's irreality caused by an unrevealed measurement of b on the
    other site: irreality(a | rho) - irreality(a | dephase(rho, b)).

    Equals S(Phi_a rho) + S(Phi_b rho) - S(Phi_a Phi_b rho) - S(rho) and is
    symmetric under exchanging the two observables together with their sites.
    The three dephased matrices come from one realigned rho, and one eigvalsh
    of their (3, d, d) stack gives the three spectra: LAPACK diagonalizes each
    matrix of a stack as it does a lone one, so the value is bit for bit the
    one of the route above.
    """
    if a.site == b.site:
        raise ValueError("both PVMs act on the same site")
    d_a, d_b = dims = rho.dims
    r = _realign(rho.matrix, d_a, d_b, d_a, d_b)
    r_b = _apply(r, dims, b)
    stack = _realign(np.array((_apply(r, dims, a), r_b, _apply(r_b, dims, a))), d_a, d_a, d_b, d_b)
    s_a, s_b, s_ab = map(entropy_from_eigenvalues, np.linalg.eigvalsh(stack))
    return (s_a - rho.entropy()) - (s_ab - s_b)


def make_reality_state(c: RealityComponents, a_pvm: PVM) -> DensityMatrix:
    """Mixture sum_k p_k Phi_A(rho_k^A) (x) rho_k^B, the most general state
    in which the site-A observable a_pvm has a definite value. The result is
    a fixed point of that dephasing by construction."""
    d_a = a_pvm.dim
    if c.states_a[0].shape != (d_a, d_a):  # one shape for all, see RealityComponents
        raise ValueError("component dimension does not match the PVM")
    total = sum(w * tensor(_dephased(sa, (d_a, 1), LocalPVM(a_pvm, "A")), sb)
                for w, sa, sb in zip(c.weights, c.states_a, c.states_b))
    return DensityMatrix(total, (d_a, c.states_b[0].shape[0]))


def is_reality_state(rho: DensityMatrix, m: LocalPVM) -> bool:
    """True when dephasing m moves no entry of rho by more than REALITY_TOL."""
    return float(np.abs(_dephased(rho.matrix, rho.dims, m) - rho.matrix).max()) <= REALITY_TOL
