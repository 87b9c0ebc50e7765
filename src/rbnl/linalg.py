"""Dense complex linear algebra for small bipartite systems.

Everything operates on plain complex ndarrays at dimensions that stay tiny
(products of 2 and 3), so dense LAPACK eigensolvers are the right tool.
Natural logarithm throughout; entropies are in nats.
"""
from __future__ import annotations

import numpy as np

# Absolute tolerances, frozen for the whole package: conditioning is benign
# at these dimensions.
HERM_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLIP = 1e-12


def tensor(a, b, *rest):
    """Kronecker product. The first factor indexes the slow (left) block:
    entry ((i*db + k), (j*db + l)) = a[i,j] * b[k,l]."""
    out = np.kron(np.asarray(a), np.asarray(b))
    for m in rest:
        out = np.kron(out, np.asarray(m))
    return out


def check_dims(dims) -> tuple[int, int]:
    """dims as two Python ints; bools and floats such as 1.7 are rejected."""
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2
            and all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                    for d in dims)):
        raise ValueError(f"dims must be two integers, got {dims!r}")
    return int(dims[0]), int(dims[1])


def check_int(name: str, value, minimum: int) -> int:
    """value as a Python int: a Python or numpy integer no smaller than
    minimum. A bool or any other type raises TypeError, a smaller value
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


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
    asym = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
    if asym > HERM_TOL:
        raise ValueError(f"{what} is not Hermitian: max |m - m^H| = {asym:.3e}")


def entropy_from_eigenvalues(vals) -> float:
    """-sum(l ln l) over a probability-like spectrum; 0 ln 0 := 0.

    Eigenvalues below -PSD_TOL, NaN or infinite mean the input was not a
    state. Values in (-PSD_TOL, EIG_CLIP) are treated as exact zeros. An
    entropy of zero is returned as +0.0.
    """
    v = np.asarray(vals, dtype=float)
    lo = float(v.min()) if v.size else 0.0
    if not lo >= -PSD_TOL:  # NaN fails too
        raise ValueError(f"minimum eigenvalue {lo:.3e} is not >= -{PSD_TOL:.0e}: not a state")
    v = v[v > EIG_CLIP]
    s = float(-np.sum(v * np.log(v)))
    if s == -np.inf:
        raise ValueError("infinite eigenvalue: not a state")
    return s if s > 0.0 else 0.0


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho ln rho] in nats, clamped to [0, ln dim]."""
    m = np.asarray(rho, dtype=complex)
    check_hermitian(m, "matrix")
    s = entropy_from_eigenvalues(np.linalg.eigvalsh(m))
    return min(s, float(np.log(m.shape[0])))
