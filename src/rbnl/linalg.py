"""Dense complex linear algebra for small bipartite systems.

Everything operates on plain complex ndarrays at dimensions that stay tiny
(products of 2 and 3), so dense LAPACK eigensolvers are the right tool.
Natural logarithm throughout; entropies are in nats.
"""
from __future__ import annotations

import math

import numpy as np

from .closed_forms import check_int

# Absolute tolerances, frozen for the whole package: conditioning is benign
# at these dimensions.
HERM_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLIP = 1e-12


def check_dims(dims) -> tuple[int, int]:
    """dims as two Python ints >= 1 (see check_int); bools and floats such as
    1.7 are rejected."""
    if isinstance(dims, (tuple, list)) and len(dims) == 2:
        try:
            return check_int("d_a", dims[0], 1), check_int("d_b", dims[1], 1)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"dims must be two integers >= 1, got {dims!r}")


def partial_trace(rho, dims, keep: str):
    """Reduced matrix of one subsystem of a bipartite operator.

    dims is (d_a, d_b), two integers (see check_dims), with the first factor
    on the left (slow) index; keep is "A" or "B". Trace is preserved.
    """
    d_a, d_b = check_dims(dims)
    m = np.asarray(rho)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"matrix shape {m.shape} inconsistent with dims ({d_a}, {d_b})")
    r = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ikjk->ij", r)
    if keep == "B":
        return np.einsum("ikil->kl", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def check_hermitian(m: np.ndarray, what: str) -> None:
    """Raise ValueError unless the square array m, or each matrix of a stack
    (..., d, d), has finite entries and lies within HERM_TOL of its conjugate
    transpose. Finiteness comes first: m - m^H on an infinite entry would warn."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite, got NaN or infinity")
    asym = float(abs(m - m.conj().swapaxes(-1, -2)).max())
    if asym > HERM_TOL:
        raise ValueError(f"{what} is not Hermitian: max |m - m^H| = {asym:.3e}")


def entropy_from_eigenvalues(vals) -> float:
    """-sum(l ln l) over a probability-like spectrum of n values, 0 ln 0 := 0,
    clamped to [0, ln n].

    Eigenvalues below -PSD_TOL, NaN or infinite mean the input was not a
    state. Values in [-PSD_TOL, EIG_CLIP] are treated as exact zeros. An
    entropy of zero is returned as +0.0. Spectra here hold at most
    d_a d_b = 9 values, so the sum runs over Python floats: numpy's per-call
    overhead would cost more than the arithmetic.
    """
    v = np.asarray(vals, dtype=float).ravel().tolist()
    s = 0.0
    for x in v:
        if x > EIG_CLIP:
            s -= x * math.log(x)
        elif not x >= -PSD_TOL:  # NaN fails too, and names the minimum as numpy's min would
            lo = math.nan if any(map(math.isnan, v)) else min(v)
            raise ValueError(f"minimum eigenvalue {lo:.3e} is not >= -{PSD_TOL:.0e}: not a state")
    if s == -math.inf:
        raise ValueError("infinite eigenvalue: not a state")
    return min(s, math.log(len(v))) if s > 0.0 else 0.0


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho ln rho] in nats, clamped to [0, ln dim]."""
    m = np.asarray(rho, dtype=complex)
    check_hermitian(m, "matrix")
    return entropy_from_eigenvalues(np.linalg.eigvalsh(m))
