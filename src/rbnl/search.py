"""Grid-then-refine maximization over pairs of unit vectors, S^2 x S^2.

N_rb of a mixed two-qubit state maximizes the irreality drop, a smooth
function of two Bloch directions. The caller scores every pair of a
theta x phi grid on the sphere as one table; the best cfg.restarts pairs
(stable ranking, so ties go to the lower grid index) are then refined
together, as one batch, by a Levenberg-Marquardt damped Newton iteration in tangent charts (Absil, Mahony
and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008).

Each chart maps z = (alpha, beta) in R^2 x R^2 to
(normalize(u + E_u alpha), normalize(v + E_v beta)), with E_u, E_v
orthonormal tangent bases, so there is no pole singularity. The gradient is
the caller's analytic one pulled back through the chart; the Hessian is the
central difference of that chart gradient. The step is
Q diag(1 / (|w| + lambda)) Q^T g for the eigenpairs (w, Q) of -H, an ascent
direction for any lambda > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FD_STEP = 1e-5  # chart step of the central-difference Hessian
GRAD_TOL = 1e-10  # stationary once the Riemannian gradient norm is below this
LM_START = 1e-3
LM_DOWN = 0.25
LM_UP = 8.0
LM_MAX = 1e12  # a step this heavily damped is below float resolution


@dataclass(frozen=True)
class OptimizerConfig:
    """Search knobs for the two-qubit N_rb maximization.

    theta_points x phi_points is the grid per sphere. The best `restarts`
    grid pairs are refined as one batch of damped Newton iterations.
    `refine_iterations` caps the iterations; each tries one step per
    unfinished restart, and a step that would lower the value is refused
    and retried with more damping in the next iteration. A restart
    finishes early when an accepted step raises the value by less than
    `value_tol`, or when its Riemannian gradient norm is at most 1e-10.
    The search is deterministic.
    """

    theta_points: int = 12
    phi_points: int = 24
    refine_iterations: int = 200
    restarts: int = 8
    value_tol: float = 1e-8

    def __post_init__(self):
        if self.theta_points < 1 or self.phi_points < 1:
            raise ValueError("grid resolutions must be positive")
        if self.refine_iterations < 1 or self.restarts < 1:
            raise ValueError("refinement iterations and restarts must be positive")


def sphere_grid(cfg: OptimizerConfig) -> np.ndarray:
    """Unit vectors of the theta x phi grid, theta-major, shape (n, 3).
    theta includes both poles; phi excludes 2 pi."""
    thetas = np.linspace(0.0, math.pi, cfg.theta_points)
    phis = np.linspace(0.0, 2 * math.pi, cfg.phi_points, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    st = np.sin(tg.ravel())
    return np.stack([st * np.cos(pg.ravel()), st * np.sin(pg.ravel()),
                     np.cos(tg.ravel())], axis=1)


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
    r = np.linalg.norm(y, axis=1, keepdims=True)
    return y / r, r


def _tangent(x, g):
    """The part of each row of g tangent to the sphere at x: (I - x x^T) g."""
    return g - np.sum(x * g, axis=1, keepdims=True) * x


def _pullback(x, r, basis, g):
    """Euclidean gradient g at the retracted point x = y / r, pulled back to
    the chart: basis^T (I - x x^T) g / r."""
    return np.einsum("mij,mi->mj", basis, _tangent(x, g)) / r


def _stationary(u, v, gu, gv):
    """Rows whose Riemannian gradient norm is at most GRAD_TOL."""
    return np.hypot(np.linalg.norm(_tangent(u, gu), axis=1),
                    np.linalg.norm(_tangent(v, gv), axis=1)) <= GRAD_TOL


def _chart_eval(objective, u, v, eu, ev, z):
    """Objective, Euclidean gradients and chart gradient at chart points z,
    shape (m, 4), of the charts (u, eu) x (v, ev)."""
    u1, ru = _retract(u, eu, z[:, :2])
    v1, rv = _retract(v, ev, z[:, 2:])
    f, gu, gv = objective(u1, v1)
    chart = np.concatenate([_pullback(u1, ru, eu, gu), _pullback(v1, rv, ev, gv)], axis=1)
    return u1, v1, f, gu, gv, chart


def _fd_hessian(objective, u, v, eu, ev):
    """Symmetrized central-difference Hessian in the charts, shape (m, 4, 4)."""
    m = len(u)
    z = np.repeat(np.concatenate([np.eye(4), -np.eye(4)]) * FD_STEP, m, axis=0)
    u, v, eu, ev = (np.concatenate([x] * 8) for x in (u, v, eu, ev))
    chart = _chart_eval(objective, u, v, eu, ev, z)[5].reshape(8, m, 4)
    h = ((chart[:4] - chart[4:]) / (2 * FD_STEP)).transpose(1, 0, 2)
    return (h + h.transpose(0, 2, 1)) / 2


def refine(objective, u, v, cfg: OptimizerConfig):
    """Damped Newton ascent from every start pair (rows of u and v) at once.

    objective(u, v) takes (m, 3) unit vectors and returns the values (m,)
    and the Euclidean gradients (m, 3) with respect to u and v. Returns the
    final u, v and values; no value is below its start.
    """
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)
    f, gu, gv = objective(u, v)
    lam = np.full(len(u), LM_START)
    active = ~_stationary(u, v, gu, gv)
    for _ in range(cfg.refine_iterations):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        eu, ev = _tangent_basis(u[idx]), _tangent_basis(v[idx])
        g = np.concatenate([np.einsum("mij,mi->mj", eu, gu[idx]),
                            np.einsum("mij,mi->mj", ev, gv[idx])], axis=1)
        w, q = np.linalg.eigh(-_fd_hessian(objective, u[idx], v[idx], eu, ev))
        coef = np.einsum("mji,mj->mi", q, g) / (np.abs(w) + lam[idx, None])
        step = np.einsum("mij,mj->mi", q, coef)
        u1, v1, f1, gu1, gv1, _ = _chart_eval(objective, u[idx], v[idx], eu, ev, step)
        up = f1 >= f[idx]  # a step is taken only if the value does not drop
        acc, rej = idx[up], idx[~up]
        u1, v1, f1, gu1, gv1 = u1[up], v1[up], f1[up], gu1[up], gv1[up]
        done = (f1 - f[acc] < cfg.value_tol) | _stationary(u1, v1, gu1, gv1)
        u[acc], v[acc], f[acc], gu[acc], gv[acc] = u1, v1, f1, gu1, gv1
        lam[acc] *= LM_DOWN
        lam[rej] *= LM_UP
        active[acc[done]] = False
        active[rej[lam[rej] > LM_MAX]] = False
    return u, v, f


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
    (value, u, v). The table only ranks; values come from the objective, and
    the result is never below its value at the top-ranked grid pair."""
    iu, iv = np.divmod(_top(table.ravel(), cfg.restarts), len(dirs))
    u, v, f = refine(objective, dirs[iu], dirs[iv], cfg)
    k = int(np.argmax(f))
    return float(f[k]), u[k], v[k]
