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


# sum_k (P_k (x) I) rho (P_k (x) I) and sum_k (I (x) P_k) rho (I (x) P_k)
# with rho reshaped to (d_a, d_b, d_a, d_b), as one contraction per site
_DEPHASE = {"A": "kai,ibjd,kjc->abcd", "B": "kbi,aicj,kjd->abcd"}


def _dephased(matrix: np.ndarray, dims, m: LocalPVM) -> np.ndarray:
    """The dephasing of m on a matrix on dims, after the site/dimension check
    that every caller shares: the only check on the way to the einsum."""
    d_a, d_b = dims
    dim = d_a if m.site == "A" else d_b
    if m.pvm.dim != dim:
        raise ValueError(f"PVM dimension {m.pvm.dim} does not match site {m.site} dimension {dim}")
    p = m.pvm.projectors
    out = np.einsum(_DEPHASE[m.site], p, matrix.reshape(d_a, d_b, d_a, d_b), p)
    return out.reshape(d_a * d_b, d_a * d_b)


def _entropy(matrix: np.ndarray) -> float:
    """S of a dephased state from one eigvalsh, as DensityMatrix.entropy()."""
    return entropy_from_eigenvalues(np.linalg.eigvalsh(matrix))


def dephase(rho: DensityMatrix, m: LocalPVM) -> DensityMatrix:
    """Unrevealed projective measurement of m on rho.

    Computed by the sandwich sum, which needs no outcome probabilities and
    so has no zero-probability singularities. Trace is preserved, and the
    result passes the full DensityMatrix validation (irreality and
    delta_irreality skip it: see there).
    """
    return DensityMatrix(_dephased(rho.matrix, rho.dims, m), rho.dims)


def irreality(m: LocalPVM, rho: DensityMatrix) -> float:
    """Entropic indefiniteness S(dephased) - S(rho) of m in rho, in nats.

    Nonnegative up to floating point noise; zero exactly when rho is a fixed
    point of the dephasing. As rho and m are validated, the dephased matrix
    is diagonalized as it is, not re-validated: the value is bit for bit
    dephase(rho, m).entropy() - rho.entropy().
    """
    return _entropy(_dephased(rho.matrix, rho.dims, m)) - rho.entropy()


def delta_irreality(a: LocalPVM, b: LocalPVM, rho: DensityMatrix) -> float:
    """Drop of a's irreality caused by an unrevealed measurement of b on the
    other site: irreality(a | rho) - irreality(a | dephase(rho, b)).

    Equals S(Phi_a rho) + S(Phi_b rho) - S(Phi_a Phi_b rho) - S(rho) and is
    symmetric under exchanging the two observables together with their sites.
    Like irreality, it diagonalizes the three dephased matrices as they are.
    """
    if a.site == b.site:
        raise ValueError("both PVMs act on the same site")
    rho_b = _dephased(rho.matrix, rho.dims, b)
    return irreality(a, rho) - (_entropy(_dephased(rho_b, rho.dims, a)) - _entropy(rho_b))


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


def is_reality_state(rho: DensityMatrix, m: LocalPVM, tol: float = 1e-10) -> bool:
    """True when rho is unchanged (within tol, max-abs) by dephasing m."""
    diff = _dephased(rho.matrix, rho.dims, m) - rho.matrix
    return float(np.max(np.abs(diff))) <= tol
