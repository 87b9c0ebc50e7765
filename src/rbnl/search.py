"""Grid-then-refine maximization over pairs of qubit observables, S^2 x S^2.

The caller ranks the pairs of directions of sphere_grid and hands its best
cfg.restarts pairs to refine, which polishes them together, as one batch, by
a Levenberg-Marquardt damped Newton iteration on S^2 x S^2 (Absil, Mahony
and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, 5.5), with
the Riemannian Hessian of _evaluate, and returns the best pair. The pairs
of a batch are one array (m, 2, 3) of rows (u, v), from starts to objective.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import check_int

PRED_TOL = 1e-12  # converged once the Newton decrement is below this
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
    """Search knobs for the two-qubit N_rb maximization: the grid of
    sphere_grid(theta_points, phi_points) on each sphere, the best `restarts`
    grid pairs refined as one batch, and `refine_iterations`, the iteration
    cap of refine. The search is deterministic. The four counts must be
    integers >= 1 (bool is rejected).
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
    shape (n, 3): the grid modulo the antipodal map, as u and -u give the
    same observable u.sigma and so the same value of the search. theta
    includes both poles and phi excludes 2 pi; of the
    theta_points * phi_points grid directions this keeps the north pole once
    and, where the antipode -x is also a grid direction (phi_points even),
    only the one of x and -x that comes first. Every grid direction is +-
    one of the rows, and no two rows are equal up to sign. The default
    12 x 24 grid gives 121 rows. Each shape is built once per process and
    shared by every search that uses it, so it is read-only."""
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
    gradients P g (m, 2, 3), projected in place in the objective's g, and
    the Riemannian Hessian P H P - diag((u.g_u) I, (v.g_v) I) P (m, 6, 6),
    with the tangent projector P = diag(I - u u^T, I - v v^T), g the
    Euclidean gradient and H the Euclidean Hessian. No tangent basis is
    needed: the normals (u, 0) and (0, v) are eigenvectors of that Hessian
    with eigenvalue 0, and P g has no part along them."""
    f, g, h = objective(x)
    normal = (x * g).sum(axis=2)
    g -= normal[..., None] * x
    p = EYE6 - BLOCKS * x.reshape(-1, 6, 1) * x.reshape(-1, 1, 6)
    return f, g, p @ h @ p - normal.repeat(3, axis=1)[:, :, None] * p


@dataclass(frozen=True)
class SearchDiagnostics:
    """How a grid-then-refine search got its value.

    grid_best: the best objective value over the refined start pairs, that
    is at the top-ranked grid pair up to rounding. refined_best: the value
    returned, never below grid_best. evaluations: objective calls of the
    refinement, each over every restart at once, finished or not: one at the
    start pairs and one per iteration, so always iterations + 1. iterations:
    refinement iterations made. converged: the restarts that refine counts
    as converged at the end (see there). best_restart: the rank of the
    start pair whose refinement won.
    """

    grid_best: float
    refined_best: float
    evaluations: int
    iterations: int
    converged: int
    best_restart: int


def refine(objective, x, cfg: OptimizerConfig):
    """Damped Newton ascent from every start pair, the unit rows (u, v) of x
    (m, 2, 3), at once, on a C-ordered float64 copy: x keeps its bits.

    objective(x) returns the values (m,), the Euclidean gradient (m, 2, 3)
    in the layout of x and the Euclidean Hessian (m, 6, 6) in the order of
    x.reshape(m, 6). It is called once at the starts and once per iteration,
    at the trial points of every row. Each row carries its point, value,
    tangent gradient P g and Riemannian Hessian (see _evaluate), and its
    damping lambda, from LM_START. With (w, Q) the eigenpairs of minus that
    Hessian and c = Q^T P g:

    - stop: a row has converged once its Newton decrement
      sum_i c_i^2 / (2 |w_i|), summed over w_i != 0 (Boyd and Vandenberghe,
      Convex Optimization, 2004, 9.5.1), is below PRED_TOL. It stops then,
      or once lambda passes LM_MAX, where a step is below float resolution.
      The test comes before the step: a stationary start takes 0 steps.
    - step: Q diag(1 / (|w| + lambda)) c, an ascent direction for any
      lambda > 0, to (normalize(u + step_u), normalize(v + step_v)).
    - accept: only on a strict gain, f1 > f, which takes the trial point
      with its gradient and Hessian and multiplies lambda by LM_DOWN. A
      refused step, a tie at float resolution included, keeps all four and
      multiplies lambda by LM_UP. So a row whose steps fall below float
      resolution, as at a non-smooth maximum, stops past LM_MAX.

    Returns (value, u, v, diagnostics): the best final value, never below
    the best start value, its pair, and the SearchDiagnostics of the run,
    whose converged restarts are those that passed the decrement test, not
    the cap or LM_MAX.
    """
    x = np.array(x, dtype=float, order="C")
    m = len(x)
    f, tangent, hess = _evaluate(objective, x)
    grid_best = float(f.max())
    lam = np.full(m, LM_START)
    for iterations in range(cfg.refine_iterations + 1):
        w, q = np.linalg.eigh(-hess)
        w = np.abs(w)
        coef = (tangent.reshape(m, 1, 6) @ q)[:, 0]
        # the Newton decrement is half this sum; the normal eigenvectors have
        # w = 0 (up to rounding) and carry no gradient, so an exact 0 adds 0
        converged = (coef * coef / np.where(w == 0, np.inf, w)).sum(axis=1) < 2 * PRED_TOL
        active = ~converged & (lam <= LM_MAX)
        if iterations == cfg.refine_iterations or not active.any():
            break
        y = x + (q @ (coef / (w + lam[:, None]))[:, :, None]).reshape(m, 2, 3)
        x1 = y / np.sqrt((y * y).sum(axis=2, keepdims=True))
        f1, tangent1, hess1 = _evaluate(objective, x1)
        up = active & (f1 > f)  # a step is taken only on a strict gain
        for old, new in ((x, x1), (tangent, tangent1), (hess, hess1)):
            np.copyto(old, new, where=up[:, None, None])
        np.copyto(f, f1, where=up)
        # a stopped row keeps its lambda: grown by LM_UP at each iteration, it
        # would overflow after about 345 (1e-3 * 8^345 > 1.8e308), within
        # reach of refine_iterations = 2000, and warn (an error in the tests)
        lam *= np.where(up, LM_DOWN, np.where(active, LM_UP, 1.0))
    k = int(np.argmax(f))
    diagnostics = SearchDiagnostics(grid_best, float(f[k]), iterations + 1, iterations,
                                    int(np.count_nonzero(converged)), k)
    return float(f[k]), x[k, 0], x[k, 1], diagnostics

