"""Constructors and validated containers for states and observables.

Conventions fixed here and inherited everywhere: subsystem A is the left
Kronecker factor, product basis ordered |00>, |01>, |10>, |11> row-major,
and the singlet carries the sign (|01> - |10>)/sqrt(2).

The validated types hold read-only numpy arrays, so they compare and hash by
identity (eq=False), as do the other array-holding types of the package.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import _write_atomic, check_int, check_mu
from .linalg import HERM_TOL, PSD_TOL, check_dims, check_hermitian, entropy_from_eigenvalues

TRACE_TOL = 1e-10
NORM_TOL = 1e-10
BLOCH_TOL = 1e-12

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # x, y, z
PAULIS.setflags(write=False)
# _FANO[(i, k, j, l), (a, b)] = (s_a)_ji (s_b)_lk, s_0 = I: rho.reshape(16) @
# _FANO is the table Tr[rho (s_a (x) s_b)] of fano_form, flattened
_BASIS = np.stack([np.eye(2), *PAULIS])
_FANO = np.multiply.outer(_BASIS, _BASIS).transpose(2, 5, 1, 4, 0, 3).reshape(16, 16)
_FANO.setflags(write=False)


def _freeze(obj, **fields):
    """Set each field of obj to its array, or tuple of arrays, made read-only."""
    for name, value in fields.items():
        for arr in value if isinstance(value, tuple) else (value,):
            arr.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one positive semidefinite Hermitian matrix with a bipartite
    dimension annotation (d_a, d_b). All invariants are checked on
    construction and violations raise ValueError naming the invariant.
    The spectrum that the positivity check computes is kept, read-only and
    ascending, as `eigenvalues`; entropy() reads it."""

    matrix: np.ndarray
    dims: tuple[int, int]
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d_a, d_b = check_dims(self.dims)
        if m.shape != (d_a * d_b, d_a * d_b):
            raise ValueError(
                f"dims ({d_a}, {d_b}) inconsistent with matrix shape {m.shape}")
        # entries near 1e308 overflow m - m^H or the trace: a check fails, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            check_hermitian(m, "density matrix")
            tr = complex(m.trace())
        if not abs(tr - 1.0) <= TRACE_TOL:  # NaN fails too
            raise ValueError(f"trace is {tr.real:.12g}, not 1")
        ev = np.linalg.eigvalsh(m)
        if ev[0] < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {ev[0]:.3e}: not positive semidefinite")
        _freeze(self, matrix=m, eigenvalues=ev)
        object.__setattr__(self, "dims", (d_a, d_b))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def entropy(self) -> float:
        """S(rho) in nats from the kept spectrum, clamped to [0, ln dim]:
        equal bit for bit to von_neumann_entropy(self.matrix)."""
        return entropy_from_eigenvalues(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector with bipartite dims (d_a, d_b)."""

    vector: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        v = np.array(self.vector, dtype=complex).reshape(-1)
        d_a, d_b = check_dims(self.dims)
        if v.shape != (d_a * d_b,):
            raise ValueError(
                f"dims ({d_a}, {d_b}) inconsistent with vector length {v.shape[0]}")
        nrm = float(np.linalg.norm(v))
        if not math.isfinite(nrm):  # NaN or infinity in v
            raise ValueError("entries must be finite, got NaN or infinity")
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"norm is {nrm:.12g}, not 1")
        _freeze(self, vector=v)
        object.__setattr__(self, "dims", (d_a, d_b))

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class PVM:
    """Projective observable: orthogonal projectors summing to the identity.
    `projectors` is one read-only (k, d, d) array, copied from the input and
    checked here once; iterating it gives read-only (d, d) views of it.
    `superoperator` is the read-only (d^2, d^2) matrix of its dephasing
    X -> sum_k P_k X P_k, S[(a, c), (i, j)] = sum_k P_k[a, i] P_k[j, c], that
    is sum_k P_k (x) P_k^T (vec(P X P) = (P (x) P^T) vec(X) for row-major
    vec; Horn & Johnson, Topics in Matrix Analysis, 1991, 4.3). It is built
    here once; realism dephases with it."""

    projectors: np.ndarray
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            p = np.array(tuple(self.projectors), dtype=complex)
        except ValueError as exc:  # numpy refuses ragged input
            raise ValueError("projector shapes disagree") from exc
        if not len(p):
            raise ValueError("PVM needs at least one projector")
        if p.ndim != 3 or not 0 < p.shape[1] == p.shape[2]:
            raise ValueError("projector shapes disagree")
        check_hermitian(p, "projector")
        k, d = p.shape[:2]
        err = p[:, None] @ p  # P_i P_j - delta_ij P_i
        err.reshape(k * k, d, d)[::k + 1] -= p
        err = np.abs(err).reshape(k * k, d * d)
        if err[::k + 1].max() > HERM_TOL:
            raise ValueError("projector not idempotent")
        if err.max() > HERM_TOL:
            raise ValueError("projectors not pairwise orthogonal")
        total = p.sum(axis=0)
        total.flat[::d + 1] -= 1
        if np.abs(total).max() > HERM_TOL:
            raise ValueError("projectors do not sum to the identity")
        # one product over k gives sum_k P_k[a, i] P_k[j, c] at [(a, i), (c, j)]
        s = p.reshape(k, d * d).T @ p.swapaxes(1, 2).reshape(k, d * d)
        s = s.reshape(d, d, d, d).swapaxes(1, 2).reshape(d * d, d * d)
        _freeze(self, projectors=p, superoperator=s)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Unit direction on the Bloch sphere."""

    components: np.ndarray

    def __post_init__(self):
        c = np.array(self.components, dtype=float).reshape(-1)
        if c.shape != (3,):
            raise ValueError("Bloch vector needs exactly 3 components")
        nrm = float(np.linalg.norm(c))
        if not abs(nrm - 1.0) <= BLOCH_TOL:  # NaN fails too
            raise ValueError(f"norm is {nrm:.15g}, not 1")
        _freeze(self, components=c)

    def dot_sigma(self) -> np.ndarray:
        """The observable u . sigma as a 2x2 matrix."""
        x, y, z = self.components
        return x * PAULIS[0] + y * PAULIS[1] + z * PAULIS[2]


def singlet() -> PureState:
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return PureState(v, (2, 2))


def werner(mu: float) -> DensityMatrix:
    """(1 - mu) I/4 + mu |singlet><singlet| for mu in [0, 1]."""
    check_mu(mu)
    s = singlet().vector
    m = (1.0 - mu) * np.eye(4, dtype=complex) / 4 + mu * np.outer(s, s.conj())
    return DensityMatrix(m, (2, 2))


def fano_form(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Fano form (a, b, T) of a two-qubit state (Fano, Rev. Mod. Phys.
    55, 855, 1983): rho = (I + a.sigma (x) I + I (x) b.sigma
    + sum_ij T_ij sigma_i (x) sigma_j) / 4, with the Bloch vectors
    a_i = Tr[rho (sigma_i (x) I)] of A and b_j = Tr[rho (I (x) sigma_j)] of B
    and the correlation matrix T_ij = Tr[rho (sigma_i (x) sigma_j)]. All
    three come from one real 4x4 table of Tr[rho (s_i (x) s_j)], s_0 = I,
    one product with the constant _FANO."""
    if rho.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {rho.dims}")
    r = (rho.matrix.reshape(16) @ _FANO).real.reshape(4, 4)
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def bloch_pvm(u: BlochVector) -> PVM:
    """Sharp qubit observable along u: the projectors (I + u.sigma)/2 and
    (I - u.sigma)/2, in that order."""
    op = u.dot_sigma()
    eye = np.eye(2, dtype=complex)
    return PVM(((eye + op) / 2, (eye - op) / 2))


def qutrit_family(gamma: float) -> PureState:
    """(|00> + gamma |11> + |22>)/sqrt(2 + gamma^2) on a 3x3 system."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0
    v[4] = gamma
    v[8] = 1.0
    return PureState(v / np.linalg.norm(v), (3, 3))


def random_pure(d_a: int, d_b: int, seed) -> PureState:
    """Rotation-invariant random pure state: complex standard normal
    components, normalized. Deterministic per seed."""
    d_a, d_b = check_dims((d_a, d_b))
    rng = np.random.default_rng(seed)
    n = d_a * d_b
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(v / np.linalg.norm(v), (d_a, d_b))


def random_density(d_a: int, d_b: int, rank: int, seed) -> DensityMatrix:
    """Random mixture of `rank` rotation-invariant pure states, rank in [1, d_a d_b]."""
    d_a, d_b = check_dims((d_a, d_b))
    n = d_a * d_b
    rank = check_int("rank", rank, 1, n)
    rng = np.random.default_rng(seed)
    w = rng.random(rank)
    w /= w.sum()
    m = np.zeros((n, n), dtype=complex)
    for k in range(rank):
        psi = random_pure(d_a, d_b, rng).vector
        m += w[k] * np.outer(psi, psi.conj())
    return DensityMatrix(m, (d_a, d_b))


def state_to_json(rho: DensityMatrix) -> str:
    """Serialize to the interchange document
    {"dims": [da, db], "matrix": [[{"re": .., "im": ..}, ..], ..]}."""
    mat = [[{"re": float(z.real), "im": float(z.imag)} for z in row]
           for row in rho.matrix]
    return json.dumps({"dims": list(rho.dims), "matrix": mat})


def state_from_json(text: str) -> DensityMatrix:
    """Parse the interchange document. Schema problems raise ValueError
    mentioning the field: a cell value that is not a JSON number (true and
    false included) is one, as is an integer beyond float range or longer
    than Python's integer-string limit (4,300 digits by default). Text that
    is not JSON raises json.JSONDecodeError. Invariant violations surface
    from DensityMatrix."""
    try:
        doc = json.loads(text)
        dims = check_dims(doc["dims"])
        cells = [[(cell["re"], cell["im"]) for cell in row] for row in doc["matrix"]]
        if any(type(x) not in (int, float) for row in cells for cell in row for x in cell):
            raise TypeError("cell values re and im must be numbers")
        m = np.array([[complex(*cell) for cell in row] for row in cells],
                     dtype=complex)  # ragged rows: ValueError
    except json.JSONDecodeError:
        raise  # not JSON at all: the caller's unparseable-file error
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc!r}") from exc
    return DensityMatrix(m, dims)


def load_state(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def save_state(rho: DensityMatrix, path) -> None:
    _write_atomic(path, state_to_json(rho))
