"""Grid-then-refine maximization over pairs of qubit observables, S^2 x S^2.

N_rb of a mixed two-qubit state maximizes the irreality drop, a smooth
function of two Bloch directions that does not change under u -> -u or
v -> -v: both signs give the same observable. The grid therefore holds one
direction per observable of a theta x phi grid on the sphere, the
quotient of that grid by the antipodal map (each pole once, one of every
antipodal pair). The caller scores every pair of it as one table; the best
cfg.restarts pairs (stable ranking, so ties go to the lower grid index) are
distinct observables, and they are refined together, as one batch, by a
Levenberg-Marquardt damped Newton iteration in tangent charts (Absil,
Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008).

Each chart maps z = (alpha, beta) in R^2 x R^2 to
(normalize(u + E_u alpha), normalize(v + E_v beta)), with E_u, E_v
orthonormal tangent bases, so there is no pole singularity. The caller's
objective returns the value, the Euclidean gradients and the 6 x 6
Euclidean Hessian in (u, v) in one call; at the chart centre the chart
gradient is E^T g and the chart Hessian is
E^T H E - diag((u.g_u) I_2, (v.g_v) I_2). The step is
Q diag(1 / (|w| + lambda)) Q^T g for the eigenpairs (w, Q) of minus the
chart Hessian, an ascent direction for any lambda > 0. Each iteration
makes one objective call, at the trial points, and an accepted trial
point brings its own gradient and Hessian to the next iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAD_TOL = 1e-10  # stationary once the Riemannian gradient norm is below this
LM_START = 1e-3
LM_DOWN = 0.25
LM_UP = 8.0
LM_MAX = 1e12  # a step this heavily damped is below float resolution


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
    `value_tol`, or when its Riemannian gradient norm is at most 1e-10.
    The search is deterministic. The four counts must be integers >= 1
    (bool is rejected) and value_tol finite and >= 0.
    """

    theta_points: int = 12
    phi_points: int = 24
    refine_iterations: int = 200
    restarts: int = 8
    value_tol: float = 1e-8

    def __post_init__(self):
        for name in ("theta_points", "phi_points", "refine_iterations", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.value_tol) and self.value_tol >= 0.0):
            raise ValueError(f"value_tol must be finite and >= 0, got {self.value_tol!r}")


def sphere_grid(cfg: OptimizerConfig) -> np.ndarray:
    """One unit vector per observable of the theta x phi grid, theta-major,
    shape (n, 3). theta includes both poles and phi excludes 2 pi; of the
    theta_points * phi_points grid directions this keeps the north pole
    once and, where the antipode -x is also a grid direction (phi_points
    even), only the one of x and -x that comes first. Every grid direction
    is +- one of the rows, and no two rows are equal up to sign. The
    default 12 x 24 grid gives 121 rows."""
    n_t, n_p = cfg.theta_points, cfg.phi_points
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
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)


def _cross(a, b):
    # row-wise cross product; np.cross costs more than the arithmetic here
    return (a[:, [1, 2, 0]] * b[:, [2, 0, 1]]) - (a[:, [2, 0, 1]] * b[:, [1, 2, 0]])


def _tangent_basis(x):
    """Orthonormal tangent basis at each unit row of x, shape (m, 3, 2)."""
    axis = np.eye(3)[np.argmin(np.abs(x), axis=1)]
    e1 = _cross(x, axis)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, _cross(x, e1)], axis=2)


def _retract(x, basis, z):
    y = x + np.einsum("mij,mj->mi", basis, z)
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def _tangent(x, g):
    """The part of each row of g tangent to the sphere at x: (I - x x^T) g."""
    return g - np.sum(x * g, axis=1, keepdims=True) * x


def _stationary(u, v, gu, gv):
    """Rows whose Riemannian gradient norm is at most GRAD_TOL."""
    return np.hypot(np.linalg.norm(_tangent(u, gu), axis=1),
                    np.linalg.norm(_tangent(v, gv), axis=1)) <= GRAD_TOL


def _chart_hessian(u, v, eu, ev, gu, gv, h):
    """Hessian at the centre of the charts (u, eu) x (v, ev), shape (m, 4, 4),
    from the Euclidean gradients and the Euclidean Hessian h (m, 6, 6):
    E^T h E - diag((u.g_u) I_2, (v.g_v) I_2), E = diag(eu, ev)."""
    e = np.zeros((len(u), 6, 4))
    e[:, :3, :2], e[:, 3:, 2:] = eu, ev
    out = e.transpose(0, 2, 1) @ h @ e
    out[:, [0, 1], [0, 1]] -= np.sum(u * gu, axis=1)[:, None]
    out[:, [2, 3], [2, 3]] -= np.sum(v * gv, axis=1)[:, None]
    return out


@dataclass(frozen=True)
class SearchDiagnostics:
    """How a grid-then-refine search got its value.

    grid_best: the best objective value over the refined start pairs, that
    is at the top-ranked grid pair up to rounding. refined_best: the value
    returned, never below grid_best. evaluations: objective calls of the
    refinement, each over every unfinished restart at once. iterations:
    refinement iterations made; each makes one call. converged: restarts
    that stopped on the gradient or value_tol test rather than on the
    iteration cap or on a step damped below float resolution.
    best_restart: the rank of the start pair whose refinement won.
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
    objective calls, the iterations and the number of converged restarts.
    """
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)
    f, gu, gv, h = objective(u, v)
    start, calls, iterations = f.copy(), 1, 0
    lam = np.full(len(u), LM_START)
    converged = _stationary(u, v, gu, gv)
    active = ~converged
    while iterations < cfg.refine_iterations and active.any():
        iterations += 1
        idx = np.flatnonzero(active)
        e = _tangent_basis(np.concatenate([u[idx], v[idx]]))
        eu, ev = e[:idx.size], e[idx.size:]
        g = np.concatenate([np.einsum("mij,mi->mj", eu, gu[idx]),
                            np.einsum("mij,mi->mj", ev, gv[idx])], axis=1)
        w, q = np.linalg.eigh(-_chart_hessian(u[idx], v[idx], eu, ev,
                                              gu[idx], gv[idx], h[idx]))
        coef = np.einsum("mji,mj->mi", q, g) / (np.abs(w) + lam[idx, None])
        step = np.einsum("mij,mj->mi", q, coef)
        u1, v1 = _retract(u[idx], eu, step[:, :2]), _retract(v[idx], ev, step[:, 2:])
        f1, gu1, gv1, h1 = objective(u1, v1)
        calls += 1
        up = f1 >= f[idx]  # a step is taken only if the value does not drop
        acc, rej = idx[up], idx[~up]
        u1, v1, f1, gu1, gv1, h1 = u1[up], v1[up], f1[up], gu1[up], gv1[up], h1[up]
        done = (f1 - f[acc] < cfg.value_tol) | _stationary(u1, v1, gu1, gv1)
        u[acc], v[acc], f[acc], gu[acc], gv[acc], h[acc] = u1, v1, f1, gu1, gv1, h1
        lam[acc] *= LM_DOWN
        lam[rej] *= LM_UP
        converged[acc[done]] = True
        active[acc[done]] = False
        active[rej[lam[rej] > LM_MAX]] = False
    return u, v, f, (start, calls, iterations, int(np.count_nonzero(converged)))


def _top(flat, k):
    """The first k of np.argsort(-flat, kind="stable"): the k largest
    entries, ties to the lower index, without sorting the whole table."""
    if k < flat.size:
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        cand = np.flatnonzero(flat >= kth)
    else:
        cand = np.arange(flat.size)
    return cand[np.argsort(-flat[cand], kind="stable")[:k]]


def grid_refine(table, dirs, objective, cfg: OptimizerConfig):
    """Maximize over S^2 x S^2: rank the grid pair table (table[i, j] scores
    dirs[i], dirs[j]), refine the best cfg.restarts pairs, and return
    (value, u, v, diagnostics). The table only ranks; values come from the
    objective, and the result is never below its value at the top-ranked
    grid pair."""
    iu, iv = np.divmod(_top(table.ravel(), cfg.restarts), len(dirs))
    u, v, f, (start, calls, iterations, converged) = refine(objective, dirs[iu], dirs[iv], cfg)
    k = int(np.argmax(f))
    diagnostics = SearchDiagnostics(float(start.max()), float(f[k]), calls,
                                    iterations, converged, k)
    return float(f[k]), u[k], v[k], diagnostics
