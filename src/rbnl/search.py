"""Grid-then-refine maximization over pairs of qubit observables, S^2 x S^2.

N_rb of a mixed two-qubit state maximizes the irreality drop, a smooth
function of two Bloch directions that does not change under u -> -u or
v -> -v: both signs give the same observable. The grid therefore holds one
direction per observable of a theta x phi grid on the sphere, the
quotient of that grid by the antipodal map (each pole once, one of every
antipodal pair). The caller scores every pair of it as one table; the best
cfg.restarts pairs (stable ranking, so ties go to the lower grid index) are
distinct observables, and they are refined together, as one batch, by a
Levenberg-Marquardt damped Newton iteration on S^2 x S^2 (Absil, Mahony
and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, 5.5).

A batch is one (m, 2, 3) array, u and v of each start pair. The caller's
objective returns the value, the Euclidean gradients g and the 6 x 6
Euclidean Hessian H in (u, v) in one call. With the tangent projector
P = diag(I - u u^T, I - v v^T) the Riemannian gradient is P g and the
Riemannian Hessian is the 6 x 6 matrix
P H P - diag((u.g_u) I, (v.g_v) I) P, so no tangent basis is needed: the
normals (u, 0) and (0, v) are eigenvectors with eigenvalue 0, and P g has
no part along them. The step is Q diag(1 / (|w| + lambda)) Q^T P g for the
eigenpairs (w, Q) of minus that Hessian, an ascent direction for any
lambda > 0, and the trial point is (normalize(u + step_u),
normalize(v + step_v)). Each iteration makes one objective call, at the
trial points of every row, and forms the tangent gradients and Riemannian
Hessians there; a row takes its trial point, with that gradient and
Hessian, only while it is unfinished and the value does not drop.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import check_int

GRAD_TOL = 1e-10  # stationary once the Riemannian gradient norm is below this
VALUE_TOL = 1e-8  # finished once an accepted step gains less than this
LM_START = 1e-3
LM_DOWN = 0.25
LM_UP = 8.0
LM_MAX = 1e12  # a step this heavily damped is below float resolution
# x = (u, v) flattened to 6 coordinates: BLOCKS is 1 where two coordinates
# lie on the same sphere, so I - BLOCKS * x x^T projects onto the tangent space
BLOCKS = np.kron(np.eye(2), np.ones((3, 3)))
EYE6 = np.eye(6)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search knobs for the two-qubit N_rb maximization.

    The grid per sphere holds the distinct observables of the
    theta_points x phi_points grid (see sphere_grid). The best `restarts`
    grid pairs are refined as one batch of damped Newton iterations.
    `refine_iterations` caps the iterations; each tries one step per
    unfinished restart, and a step that would lower the value is refused
    and retried with more damping in the next iteration. A restart
    finishes early when an accepted step raises the value by less than
    VALUE_TOL, or when its Riemannian gradient norm is at most GRAD_TOL.
    The search is deterministic. The four counts must be integers >= 1
    (bool is rejected).
    """

    theta_points: int = 12
    phi_points: int = 24
    refine_iterations: int = 200
    restarts: int = 8

    def __post_init__(self):
        for name in ("theta_points", "phi_points", "refine_iterations", "restarts"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))


@functools.lru_cache(maxsize=16)
def sphere_grid(theta_points: int, phi_points: int) -> np.ndarray:
    """One unit vector per observable of the theta x phi grid, theta-major,
    shape (n, 3). theta includes both poles and phi excludes 2 pi; of the
    theta_points * phi_points grid directions this keeps the north pole
    once and, where the antipode -x is also a grid direction (phi_points
    even), only the one of x and -x that comes first. Every grid direction
    is +- one of the rows, and no two rows are equal up to sign. The
    default 12 x 24 grid gives 121 rows. Each shape is built once per
    process and shared by every search that uses it, so it is read-only."""
    n_t, n_p = theta_points, phi_points
    i, j = np.divmod(np.arange(n_t * n_p), n_p)
    mirror = n_t - 1 - i  # ring of the antipodes, at phi + pi
    if n_p % 2:
        keep = np.ones(i.size, dtype=bool)
    else:
        keep = (i < mirror) | ((i == mirror) & (j < n_p // 2))
    keep &= ((i > 0) & (mirror > 0)) | ((i == 0) & (j == 0))  # poles once
    theta = np.linspace(0.0, math.pi, n_t)[i[keep]]
    phi = np.linspace(0.0, 2 * math.pi, n_p, endpoint=False)[j[keep]]
    st = np.sin(theta)
    dirs = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)
    dirs.setflags(write=False)
    return dirs


def _evaluate(objective, x):
    """The objective at the rows of x (m, 2, 3): values (m,), the tangent
    gradients P g (m, 2, 3) and the Riemannian Hessian
    P H P - diag((u.g_u) I, (v.g_v) I) P (m, 6, 6), with
    P = diag(I - u u^T, I - v v^T), g the Euclidean gradients and H the
    Euclidean Hessian."""
    f, gu, gv, h = objective(x[:, 0], x[:, 1])
    g = np.empty_like(x)
    g[:, 0], g[:, 1] = gu, gv
    normal = (x * g).sum(axis=2)
    g -= normal[..., None] * x
    p = EYE6 - BLOCKS * x.reshape(-1, 6, 1) * x.reshape(-1, 1, 6)
    return f, g, p @ h @ p - normal.repeat(3, axis=1)[:, :, None] * p


def _stationary(tangent):
    """Rows whose Riemannian gradient norm is at most GRAD_TOL."""
    return np.sqrt((tangent * tangent).sum(axis=(1, 2))) <= GRAD_TOL


@dataclass(frozen=True)
class SearchDiagnostics:
    """How a grid-then-refine search got its value.

    grid_best: the best objective value over the refined start pairs, that
    is at the top-ranked grid pair up to rounding. refined_best: the value
    returned, never below grid_best. evaluations: objective calls of the
    refinement, each over every restart at once, finished or not: one at the
    start pairs and one per iteration, so always iterations + 1. iterations:
    refinement iterations made. converged: restarts that stopped on the
    GRAD_TOL or VALUE_TOL test rather than on the iteration cap or on a step
    damped below float resolution. best_restart: the rank of the start pair
    whose refinement won.
    """

    grid_best: float
    refined_best: float
    evaluations: int
    iterations: int
    converged: int
    best_restart: int


def refine(objective, u, v, cfg: OptimizerConfig):
    """Damped Newton ascent from every start pair (rows of u and v) at once.

    objective(u, v) takes (m, 3) unit vectors and returns the values (m,),
    the Euclidean gradients (m, 3) with respect to u and v, and the
    Euclidean Hessian (m, 6, 6) with respect to (u, v). Returns the final
    u, v and values, no value below its start, and the start values, the
    iterations and the number of converged restarts. The objective is
    called once at the starts and once per iteration. Each row carries its
    point, value, tangent gradient and Riemannian Hessian (see _evaluate);
    a refused step keeps all four, and the next step reads that Hessian.
    """
    x = np.stack([u, v], axis=1).astype(float, copy=False)
    m = len(x)
    f, tangent, hess = _evaluate(objective, x)
    start, iterations = f.copy(), 0
    lam = np.full(m, LM_START)
    converged = _stationary(tangent)
    active = ~converged
    while iterations < cfg.refine_iterations and active.any():
        iterations += 1
        w, q = np.linalg.eigh(-hess)
        coef = np.einsum("mji,mj->mi", q, tangent.reshape(m, 6)) / (np.abs(w) + lam[:, None])
        y = x + np.einsum("mij,mj->mi", q, coef).reshape(m, 2, 3)
        x1 = y / np.sqrt((y * y).sum(axis=2, keepdims=True))
        f1, tangent1, hess1 = _evaluate(objective, x1)
        up = active & (f1 >= f)  # a step is taken only if the value does not drop
        done = up & ((f1 - f < VALUE_TOL) | _stationary(tangent1))
        for old, new in ((x, x1), (tangent, tangent1), (hess, hess1)):
            np.copyto(old, new, where=up[:, None, None])
        np.copyto(f, f1, where=up)
        lam *= np.where(up, LM_DOWN, np.where(active, LM_UP, 1.0))
        converged |= done
        active &= ~done & (lam <= LM_MAX)
    return x[:, 0], x[:, 1], f, (start, iterations, int(np.count_nonzero(converged)))


def _top(flat, k):
    """The first k of np.argsort(-flat, kind="stable"): the k largest
    entries, ties to the lower index, without sorting the whole table. flat
    holds no NaN; k >= flat.size keeps every entry."""
    i = max(flat.size - k, 0)
    cand = np.flatnonzero(flat >= np.partition(flat, i)[i])
    return cand[np.argsort(-flat[cand], kind="stable")[:k]]


def grid_refine(table, dirs, objective, cfg: OptimizerConfig):
    """Maximize over S^2 x S^2: rank the grid pair table (table[i, j] scores
    dirs[i], dirs[j]), refine the best cfg.restarts pairs, and return
    (value, u, v, diagnostics). The table only ranks; values come from the
    objective, and the result is never below its value at the top-ranked
    grid pair."""
    iu, iv = np.divmod(_top(table.ravel(), cfg.restarts), len(dirs))
    u, v, f, (start, iterations, converged) = refine(objective, dirs[iu], dirs[iv], cfg)
    k = int(np.argmax(f))
    diagnostics = SearchDiagnostics(float(start.max()), float(f[k]), iterations + 1,
                                    iterations, converged, k)
    return float(f[k]), u[k], v[k], diagnostics
