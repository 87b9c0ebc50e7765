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

from .linalg import tensor
from .states import PVM, DensityMatrix

SITES = ("A", "B")


@dataclass(frozen=True)
class LocalPVM:
    """A sharp observable attached to one side of a bipartite system."""

    pvm: PVM
    site: str

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"site must be 'A' or 'B', got {self.site!r}")


@dataclass(frozen=True)
class RealityComponents:
    """Ingredients of the most general state in which a site-A observable
    has a definite value: weights p_k with site-A states (to be dephased)
    and site-B states."""

    weights: np.ndarray
    states_a: tuple
    states_b: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != len(self.states_a) or len(w) != len(self.states_b):
            raise ValueError("weights and component lists disagree in length")
        # both guards are written so that NaN fails them
        if not w.min() >= 0:
            raise ValueError(f"negative weight {w.min():.3e}")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum():.15g}, not 1")
        sa = tuple(np.array(s, dtype=complex) for s in self.states_a)
        sb = tuple(np.array(s, dtype=complex) for s in self.states_b)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states_a", sa)
        object.__setattr__(self, "states_b", sb)


# sum_k (P_k (x) I) rho (P_k (x) I) and sum_k (I (x) P_k) rho (I (x) P_k)
# with rho reshaped to (d_a, d_b, d_a, d_b), as one contraction per site
_DEPHASE = {"A": "kai,ibjd,kjc->abcd", "B": "kbi,aicj,kjd->abcd"}


def _dephased(matrix: np.ndarray, dims, projectors, site: str) -> np.ndarray:
    d_a, d_b = dims
    p = np.stack(projectors)
    out = np.einsum(_DEPHASE[site], p, matrix.reshape(d_a, d_b, d_a, d_b), p)
    return out.reshape(d_a * d_b, d_a * d_b)


def dephase(rho: DensityMatrix, m: LocalPVM) -> DensityMatrix:
    """Unrevealed projective measurement of m on rho.

    Computed by the sandwich sum, which needs no outcome probabilities and
    so has no zero-probability singularities. Trace is preserved, and the
    result passes the full DensityMatrix validation.
    """
    local_dim = rho.dims[0] if m.site == "A" else rho.dims[1]
    if m.pvm.dim != local_dim:
        raise ValueError(
            f"PVM dimension {m.pvm.dim} does not match site {m.site} dimension {local_dim}")
    return DensityMatrix(_dephased(rho.matrix, rho.dims, m.pvm.projectors, m.site), rho.dims)


def irreality(m: LocalPVM, rho: DensityMatrix) -> float:
    """Entropic indefiniteness S(dephased) - S(rho) of m in rho, in nats.

    Nonnegative up to floating point noise; zero exactly when rho is a fixed
    point of the dephasing.
    """
    return dephase(rho, m).entropy() - rho.entropy()


def delta_irreality(a: LocalPVM, b: LocalPVM, rho: DensityMatrix) -> float:
    """Drop of a's irreality caused by an unrevealed measurement of b on the
    other site: irreality(a | rho) - irreality(a | dephase(rho, b)).

    Equals S(Phi_a rho) + S(Phi_b rho) - S(Phi_a Phi_b rho) - S(rho) and is
    symmetric under exchanging the two observables together with their sites.
    """
    if a.site == b.site:
        raise ValueError("both PVMs act on the same site")
    rho_b = dephase(rho, b)
    return irreality(a, rho) - irreality(a, rho_b)


def make_reality_state(c: RealityComponents, a_pvm: PVM) -> DensityMatrix:
    """Mixture sum_k p_k Phi_A(rho_k^A) (x) rho_k^B, the most general state
    in which the site-A observable a_pvm has a definite value. The result is
    a fixed point of that dephasing by construction."""
    d_a = a_pvm.dim
    terms = []
    for w, sa, sb in zip(c.weights, c.states_a, c.states_b):
        if sa.shape != (d_a, d_a):
            raise ValueError("component dimension does not match the PVM")
        deph = _dephased(sa, (d_a, 1), a_pvm.projectors, "A")
        terms.append(w * tensor(deph, sb))
    total = sum(terms)
    d_b = c.states_b[0].shape[0]
    return DensityMatrix(total, (d_a, d_b))


def is_reality_state(rho: DensityMatrix, m: LocalPVM, tol: float = 1e-10) -> bool:
    """True when rho is unchanged (within tol, max-abs) by dephasing m."""
    diff = dephase(rho, m).matrix - rho.matrix
    return float(np.max(np.abs(diff))) <= tol
