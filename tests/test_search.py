"""The two-qubit search (rbnl.search) and the objectives it maximizes, the
Fano-form irreality drop and the CHSH objective of the Bell oracle
(corpora.chsh_objective):
second routes for the objectives, their gradients and Hessians, the
projected Hessian of the refinement, the grid of distinct observables, the
float32 screen that ranks the grid pairs as the float64 table does, the
search diagnostics, the stop rule against a stronger search on nearly flat
maxima, the acceptance rule at the non-smooth maxima of pure states, and
metamorphic checks of the searched values. Seeded, so
deterministic."""
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rbnl.bell import correlation_matrix, nmax_numeric
from rbnl.linalg import entropy_from_eigenvalues
import rbnl.nonlocality
import rbnl.search
from rbnl.nonlocality import (TABLE_MARGIN, _drop_objective, _grid_top, _nrb_search,
                              _planes, _table_parts, entanglement_entropy, nrb_two_qubit)
from rbnl.search import OptimizerConfig, _evaluate, refine, sphere_grid
from rbnl.states import DensityMatrix, fano_form, random_density, random_pure, werner
from corpora import (chsh_objective, drop_route, haar_unitary, near_degenerate, pool_states,
                     screen_corpus, search_states, unit)

SWAP = np.eye(4)[[0, 2, 1, 3]]


def drop_objective(rho):
    s_rho = entropy_from_eigenvalues(np.linalg.eigvalsh(rho.matrix))
    return _drop_objective(*fano_form(rho), s_rho)


def full_grid(cfg):
    """Every direction of the theta x phi grid, poles and antipodes repeated."""
    thetas = np.linspace(0.0, np.pi, cfg.theta_points)
    phis = np.linspace(0.0, 2 * np.pi, cfg.phi_points, endpoint=False)
    return np.array([[np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]
                     for t in thetas for p in phis])


def test_fano_form_reconstructs_state():
    rng = np.random.default_rng(300)
    basis = [np.eye(2)] + [np.array(p) for p in
                           ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    for rank in (1, 2, 3, 4):
        rho = random_density(2, 2, rank=rank, seed=rng)
        a, b, t = fano_form(rho)
        r = np.block([[np.ones((1, 1)), b[None]], [a[:, None], t]])
        rebuilt = sum(r[i, j] * np.kron(basis[i], basis[j])
                      for i, j in itertools.product(range(4), repeat=2)) / 4
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-14
        assert np.array_equal(t, correlation_matrix(rho))
    with pytest.raises(ValueError):
        fano_form(random_density(2, 3, rank=2, seed=rng))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fano_objective_equals_dephasing_route(rank):
    rng = np.random.default_rng(310 + rank)
    for _ in range(20):
        rho = random_density(2, 2, rank=rank, seed=rng)
        u, v = unit(rng), unit(rng)
        value = drop_objective(rho)(np.stack([u, v])[None])[0][0]
        assert abs(value - drop_route(rho, u, v)) < 1e-12


def cross(a, b):
    return (a[:, [1, 2, 0]] * b[:, [2, 0, 1]]) - (a[:, [2, 0, 1]] * b[:, [1, 2, 0]])


def tangent_basis(x):
    """Orthonormal tangent basis at each unit row of x, shape (m, 3, 2)."""
    axis = np.eye(3)[np.argmin(np.abs(x), axis=1)]
    e1 = cross(x, axis)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, cross(x, e1)], axis=2)


def chart_hessian(u, v, eu, ev, gu, gv, h):
    """Hessian at the centre of the charts z -> (normalize(u + eu z_u),
    normalize(v + ev z_v)), shape (m, 4, 4), from the Euclidean gradients and
    the Euclidean Hessian h (m, 6, 6): E^T h E - diag((u.g_u) I_2, (v.g_v) I_2),
    E = diag(eu, ev)."""
    e = np.zeros((len(u), 6, 4))
    e[:, :3, :2], e[:, 3:, 2:] = eu, ev
    out = e.transpose(0, 2, 1) @ h @ e
    out[:, [0, 1], [0, 1]] -= np.sum(u * gu, axis=1)[:, None]
    out[:, [2, 3], [2, 3]] -= np.sum(v * gv, axis=1)[:, None]
    return out


def chart_point(objective, u, v, eu, ev, z):
    """Value and chart gradient at the chart point z (4,) of the charts
    (u, eu) x (v, ev): x = y / |y| for y = u + eu z_u, and the gradient
    eu^T (I - x x^T) g / |y| on each sphere."""
    ys = u + eu @ z[:2], v + ev @ z[2:]
    xs = [y / np.linalg.norm(y) for y in ys]
    f, g, _ = objective(np.stack(xs)[None])
    grad = [e.T @ (gx - (x @ gx) * x) / np.linalg.norm(y)
            for e, x, y, gx in zip((eu, ev), xs, ys, g[0])]
    return f[0], np.concatenate(grad)


def chart_errors(objective, u, v):
    """Largest gaps, at the chart centre (u, v), between the analytic chart
    gradient and central differences of the objective, and between the
    analytic chart Hessian and central differences of the chart gradient,
    along the chart axes."""
    eu, ev = tangent_basis(u[None])[0], tangent_basis(v[None])[0]
    grad = chart_point(objective, u, v, eu, ev, np.zeros(4))[1]
    _, g, h = objective(np.stack([u, v])[None])
    hess = chart_hessian(u[None], v[None], eu[None], ev[None], g[:, 0], g[:, 1], h)[0]
    fd_grad, fd_hess = [], []
    for e in np.eye(4):
        lo, hi = (chart_point(objective, u, v, eu, ev, x * 1e-6 * e)[0] for x in (-1, 1))
        fd_grad.append((hi - lo) / 2e-6)
        lo, hi = (chart_point(objective, u, v, eu, ev, x * 1e-5 * e)[1] for x in (-1, 1))
        fd_hess.append((hi - lo) / 2e-5)
    return float(np.max(np.abs(grad - fd_grad))), float(np.max(np.abs(hess - fd_hess)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_analytic_gradients_match_finite_differences(rank):
    rng = np.random.default_rng(320 + rank)
    for _ in range(10):
        rho = random_density(2, 2, rank=rank, seed=rng)
        u, v = unit(rng), unit(rng)
        assert chart_errors(drop_objective(rho), u, v)[0] < 1e-7
        assert chart_errors(chsh_objective(correlation_matrix(rho)), u, v)[0] < 1e-7


@pytest.mark.parametrize("kind", [1, 2, 3, 4, "werner"])
def test_analytic_chart_hessian_matches_finite_differences(kind):
    rng = np.random.default_rng([400, 0 if kind == "werner" else kind])
    for rho in search_states(kind):
        for _ in range(3):
            u, v = unit(rng), unit(rng)
            assert chart_errors(drop_objective(rho), u, v)[1] < 1e-6
            assert chart_errors(chsh_objective(correlation_matrix(rho)), u, v)[1] < 1e-6


def riemannian_gradient(objective, x):
    """(I - u u^T) g_u and (I - v v^T) g_v at x = (u, v), shape (6,)."""
    _, g, _ = objective(x[None])
    return np.concatenate([gy - (y @ gy) * y for y, gy in zip(x, g[0])])


def projected_hessian_errors(objective, u, v):
    """Largest gaps, at (u, v), between the projected Hessian that _evaluate
    forms for refine and (a) central differences of the Riemannian gradient
    along the tangent directions of the chart axes, projected back onto the
    tangent space at (u, v), and (b) the chart Hessian lifted by the tangent
    bases, E H_chart E^T."""
    x = np.stack([u, v])
    _, g, h = objective(x[None])
    hess = _evaluate(objective, x[None])[2][0]
    eu, ev = tangent_basis(u[None])[0], tangent_basis(v[None])[0]
    e = np.zeros((6, 4))
    e[:3, :2], e[3:, 2:] = eu, ev
    proj = e @ e.T
    fd = []
    for z in np.eye(4) * 1e-5:
        ends = []
        for y in (x + (e @ z).reshape(2, 3), x - (e @ z).reshape(2, 3)):
            ends.append(riemannian_gradient(objective, y / np.linalg.norm(y, axis=1, keepdims=True)))
        fd.append(proj @ (ends[0] - ends[1]) / 2e-5)
    lifted = e @ chart_hessian(u[None], v[None], eu[None], ev[None], g[:, 0], g[:, 1], h)[0] @ e.T
    return (float(np.max(np.abs(hess @ e - np.array(fd).T))),
            float(np.max(np.abs(hess - lifted)) / (1.0 + np.max(np.abs(lifted)))))


@pytest.mark.parametrize("kind", [1, 2, 3, 4, "werner"])
def test_projected_hessian_matches_finite_differences(kind):
    rng = np.random.default_rng([410, 0 if kind == "werner" else kind])
    for rho in search_states(kind):
        for _ in range(3):
            u, v = unit(rng), unit(rng)
            for objective in (drop_objective(rho), chsh_objective(correlation_matrix(rho))):
                fd_error, chart_error = projected_hessian_errors(objective, u, v)
                assert fd_error < 1e-6
                assert chart_error < 1e-12


GRIDS = [(12, 24), (10, 20), (11, 24), (6, 7), (5, 9), (4, 6), (2, 4), (1, 3), (3, 1)]


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_holds_each_observable_once(grid):
    cfg = OptimizerConfig(theta_points=grid[0], phi_points=grid[1])
    dirs = sphere_grid(*grid)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    overlap = np.abs(dirs @ dirs.T)
    np.fill_diagonal(overlap, 0.0)
    assert overlap.max() < 1.0 - 1e-9  # no two rows equal up to sign
    # every direction of the theta x phi grid is +- one of the rows
    assert np.all(np.abs(full_grid(cfg) @ dirs.T).max(axis=1) > 1.0 - 1e-12)


@pytest.mark.parametrize("grid", GRIDS)
def test_cached_grid_is_a_read_only_sphere_grid(grid):
    dirs = sphere_grid(*grid)
    assert dirs is sphere_grid(*grid)
    assert np.array_equal(dirs, sphere_grid.__wrapped__(*grid))  # a fresh build
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.5


def test_default_grid_has_121_observables():
    cfg = OptimizerConfig()
    assert len(sphere_grid(cfg.theta_points, cfg.phi_points)) == 121


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_pair_table_maximum_equals_full_grid_maximum(rank):
    rng = np.random.default_rng(370 + rank)
    for grid in ((12, 24), (5, 9), (6, 7)):
        cfg = OptimizerConfig(theta_points=grid[0], phi_points=grid[1])
        for _ in range(3):
            parts = fano_form(random_density(2, 2, rank=rank, seed=rng))
            quotient = _planes(*_table_parts(*parts, sphere_grid(*grid))).max()
            assert abs(quotient - _planes(*_table_parts(*parts, full_grid(cfg))).max()) < 1e-12


@pytest.mark.parametrize("kind", [1, 2, 3, 4, "near-pure"])
def test_pair_table_equals_dephasing_route(kind):
    # the near-pure state has outcome probabilities of 2.5e-13, below
    # EIG_CLIP, which both routes count as exact zeros
    if kind == "near-pure":
        rho = DensityMatrix((1 - 1e-12) * np.diag([1.0, 0, 0, 0]) + 1e-12 * np.eye(4) / 4, (2, 2))
    else:
        rho = random_density(2, 2, rank=kind, seed=np.random.default_rng(375 + kind))
    dirs = sphere_grid(4, 6)
    table = _planes(*_table_parts(*fano_form(rho), dirs))
    s_rho = entropy_from_eigenvalues(np.linalg.eigvalsh(rho.matrix))
    for i, j in itertools.product(range(len(dirs)), repeat=2):
        assert abs(table[i, j] - s_rho - drop_route(rho, dirs[i], dirs[j])) < 1e-13


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_start_pairs_are_distinct_observables(rank):
    cfg = OptimizerConfig()
    dirs = sphere_grid(cfg.theta_points, cfg.phi_points)
    rng = np.random.default_rng(380 + rank)
    for rho in [random_density(2, 2, rank=rank, seed=rng) for _ in range(3)] + [werner(0.7)]:
        flat = _planes(*_table_parts(*fano_form(rho), dirs)).ravel()
        iu, iv = np.divmod(np.argsort(-flat, kind="stable")[:cfg.restarts], len(dirs))
        same_u = np.abs(dirs[iu] @ dirs[iu].T) > 1.0 - 1e-9
        same_v = np.abs(dirs[iv] @ dirs[iv].T) > 1.0 - 1e-9
        assert np.array_equal(same_u & same_v, np.eye(cfg.restarts, dtype=bool))


# (grid, k): the default, two small grids, and k >= n^2 (7 directions, 49 pairs)
SCREENS = [((12, 24), 8), ((5, 9), 3), ((6, 7), 40), ((4, 6), 64)]


def test_screened_ranking_equals_full_table_ranking():
    # the starts of _nrb_search are those of the whole float64 table, best
    # first, ties to the lower index; at TABLE_MARGIN = 0 a symmetric state,
    # with ties that float32 splits, loses one of its starts
    for grid, k in SCREENS:
        dirs = sphere_grid(*grid)
        for rho in screen_corpus():
            parts = _table_parts(*fano_form(rho), dirs)
            table = _planes(*parts).ravel()
            i, j = _grid_top(parts, k).T
            assert np.array_equal(i * len(dirs) + j, np.argsort(-table, kind="stable")[:k])


def test_screen_recounts_few_pairs(monkeypatch):
    # on the pool at the default config the float64 recount sees 8-11 of the
    # 14,641 pairs; with the screen off it would see them all, with the same
    # starts, so only this count shows a slower grid stage
    recounted = []

    def spy(*parts):
        out = _planes(*parts)
        if out.dtype == np.float64:
            recounted.append(out.size)
        return out

    monkeypatch.setattr(rbnl.nonlocality, "_planes", spy)
    for rho in pool_states():
        recounted.clear()
        _nrb_search(rho, OptimizerConfig())
        assert len(recounted) == 1 and OptimizerConfig().restarts <= recounted[0] <= 64


def test_float32_table_error_is_far_inside_the_margin():
    worst = 0.0
    for grid, _ in SCREENS:
        dirs = sphere_grid(*grid)
        for rho in screen_corpus():
            parts = _table_parts(*fano_form(rho), dirs)
            screen = _planes(*(x.astype(np.float32) for x in parts))
            worst = max(worst, np.abs(screen - _planes(*parts)).max())
    assert worst < TABLE_MARGIN / 50


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_value_never_below_grid_maximum(rank):
    # the grid maximum here comes from the 4x4 dephasing route
    cfg = OptimizerConfig(theta_points=4, phi_points=6, restarts=2, refine_iterations=1)
    dirs = full_grid(cfg)
    rho = random_density(2, 2, rank=rank, seed=340 + rank)
    grid_max = max(drop_route(rho, u, v) for u in dirs for v in dirs)
    assert nrb_two_qubit(rho, cfg).value >= grid_max - 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_argmax_reproduces_value(rank):
    rng = np.random.default_rng(350 + rank)
    for _ in range(6):
        rho = random_density(2, 2, rank=rank, seed=rng)
        res = nrb_two_qubit(rho)
        again = drop_route(rho, res.argmax_u.components, res.argmax_v.components)
        assert abs(again - res.value) < 1e-10


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_invariant_under_local_unitaries_and_swap(rank):
    rng = np.random.default_rng(360 + rank)
    for _ in range(4):
        rho = random_density(2, 2, rank=rank, seed=rng)
        nrb, nmax = nrb_two_qubit(rho).value, nmax_numeric(rho)
        lu = np.kron(haar_unitary(rng), haar_unitary(rng))
        for m in (lu @ rho.matrix @ lu.conj().T, SWAP @ rho.matrix @ SWAP):
            other = DensityMatrix((m + m.conj().T) / 2, (2, 2))
            assert abs(nrb_two_qubit(other).value - nrb) < 1e-7
            assert abs(nmax_numeric(other) - nmax) < 1e-7


def test_werner_argmax_reproduces_value():
    # degenerate maxima: every u = +-v is optimal
    for mu in (0.05, 0.5, 1.0):
        rho = werner(mu)
        res = nrb_two_qubit(rho)
        again = drop_route(rho, res.argmax_u.components, res.argmax_v.components)
        assert abs(again - res.value) < 1e-12


def test_werner_states_need_no_refinement():
    # the top grid pairs u = v are already stationary. nrb_two_qubit takes no
    # search on Werner states (zero-marginal route for mu < 1, the Schmidt
    # pair at mu = 1), so the search is called directly
    for mu in (0.05, 0.3, 0.7, 1.0):
        diag = _nrb_search(werner(mu), OptimizerConfig()).diagnostics
        assert (diag.iterations, diag.evaluations) == (0, 1)
        assert diag.converged == OptimizerConfig().restarts
        assert diag.refined_best == diag.grid_best
        if mu < 1:
            assert nrb_two_qubit(werner(mu)).diagnostics is None


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_diagnostics_describe_the_search(rank):
    cfg = OptimizerConfig()
    fn = _nrb_search if rank == 1 else nrb_two_qubit  # rank 1 skips the search
    rng = np.random.default_rng(390 + rank)
    for _ in range(4):
        res = fn(random_density(2, 2, rank=rank, seed=rng), cfg)
        diag = res.diagnostics
        assert diag.refined_best >= diag.grid_best
        assert res.value == max(diag.refined_best, 0.0)
        assert 0 <= diag.best_restart < cfg.restarts
        assert 0 <= diag.converged <= cfg.restarts
        assert 0 <= diag.iterations <= cfg.refine_iterations


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_one_objective_call_per_iteration(rank, monkeypatch):
    # one call at the start and one per refine iteration; a change that adds
    # evaluations (say a finite-difference Hessian) fails here
    calls = []

    def counting(*args):
        objective = _drop_objective(*args)

        def counted(x):
            calls.append(len(x))
            return objective(x)

        return counted

    monkeypatch.setattr(rbnl.nonlocality, "_drop_objective", counting)
    # through nrb_two_qubit for mixed states, so the purity dispatch is
    # counted too; rank 1 skips the search
    fn = _nrb_search if rank == 1 else nrb_two_qubit
    rng = np.random.default_rng(395 + rank)
    for _ in range(3):
        calls.clear()
        diag = fn(random_density(2, 2, rank=rank, seed=rng), OptimizerConfig()).diagnostics
        assert len(calls) == diag.evaluations == diag.iterations + 1
        assert calls == [OptimizerConfig().restarts] * len(calls)  # every row, every call


def test_refine_writes_its_run_record():
    # refine alone, from random start pairs, with an objective that records
    # every call: grid_best is the best value of the first call, bit for bit,
    # and the pair returned is the one row best_restart reached, at a call
    # that scored it at the value returned
    cfg = OptimizerConfig()
    rng = np.random.default_rng(430)
    for rank in (2, 3, 4):
        rho = random_density(2, 2, rank=rank, seed=rng)
        objective = _drop_objective(*fano_form(rho), rho.entropy())
        calls = []

        def counted(x):
            out = objective(x)
            calls.append((x.copy(), out[0].copy()))
            return out

        starts = rng.standard_normal((2, cfg.restarts, 3))
        starts /= np.linalg.norm(starts, axis=2, keepdims=True)
        value, u, v, diag = refine(counted, starts.swapaxes(0, 1), cfg)
        assert diag.grid_best == calls[0][1].max()
        assert diag.refined_best == value > diag.grid_best
        assert diag.evaluations == len(calls) == diag.iterations + 1
        hits = [(row, f[row]) for cx, f in calls for row in range(cfg.restarts)
                if np.array_equal(cx[row, 0], u) and np.array_equal(cx[row, 1], v)]
        assert hits and all(hit == (diag.best_restart, value) for hit in hits)


def test_refine_leaves_its_starts_unchanged():
    # refine steps its own copy of the starts: a C-ordered float64 array and
    # a strided view of a (2, m, 3) array keep every bit through a run whose
    # best row took steps
    cfg = OptimizerConfig()
    rng = np.random.default_rng(435)
    rho = random_density(2, 2, rank=3, seed=rng)
    objective = _drop_objective(*fano_form(rho), rho.entropy())
    base = rng.standard_normal((2, cfg.restarts, 3))
    base /= np.linalg.norm(base, axis=2, keepdims=True)
    for starts in (np.ascontiguousarray(base.swapaxes(0, 1)), base.swapaxes(0, 1)):
        before = starts.copy()
        value, _, _, diag = refine(objective, starts, cfg)
        assert value > diag.grid_best
        assert starts.tobytes() == before.tobytes()


def test_search_path_is_pinned():
    # iterations and evaluations per state; a step from tangent charts gives
    # the same counts (the two steps agree in exact arithmetic), and a change
    # to the step, the damping or the acceptance rule moves them
    want = [(8, 9), (7, 8), (7, 8), (7, 8), (5, 6), (3, 4), (3, 4), (8, 9),
            (3, 4), (3, 4), (3, 4), (7, 8)]
    rng = np.random.default_rng(420)
    got = []
    for rank in (2, 3, 4):
        for _ in range(4):
            diag = nrb_two_qubit(random_density(2, 2, rank=rank, seed=rng)).diagnostics
            got.append((diag.iterations, diag.evaluations))
    assert got == want


def test_search_reaches_the_top_of_a_flat_ridge(monkeypatch):
    # states of this seeded corpus on which stopping once a step gains less
    # than 1e-8 ended 1.3e-9 to 4.9e-8 below the oracle: 32 restarts run
    # until the damping exceeds LM_MAX or for 400 iterations
    rng = np.random.default_rng(2026)
    corpus = [near_degenerate(rng) for _ in range(60)]
    states = [corpus[i] for i in (9, 40, 50, 59)]
    cfg = OptimizerConfig()
    found = [_nrb_search(rho, cfg) for rho in states]
    monkeypatch.setattr(rbnl.search, "PRED_TOL", 0.0)
    oracle = OptimizerConfig(restarts=32, refine_iterations=400)
    for rho, res in zip(states, found):
        assert res.value >= _nrb_search(rho, oracle).value - 1e-10
        assert res.diagnostics.iterations < cfg.refine_iterations
        assert res.diagnostics.converged == cfg.restarts


def test_exactly_pure_searches_end_before_the_cap():
    # criterion 1's second route: at the non-smooth optimum of an exactly pure
    # state the Newton decrement stays near 3e-12, above PRED_TOL, and steps
    # below float resolution leave the value unchanged. Accepting such a tie
    # lowered the damping, so these four searches ran all 200 iterations;
    # refusing it lets the damping pass LM_MAX
    cfg = OptimizerConfig(theta_points=10, phi_points=20, restarts=4)
    for seed in (0, 1, 2, 3):
        psi = random_pure(2, 2, seed=seed)
        res = _nrb_search(psi.density(), cfg)
        assert res.diagnostics.iterations < cfg.refine_iterations
        assert abs(res.value - entanglement_entropy(psi)) <= 1e-4


def test_threads_give_the_serial_results():
    # the searches share only the read-only cached grid; start from an empty
    # cache so that the threads also race to fill it
    rng = np.random.default_rng(430)
    states = [random_density(2, 2, rank=2 + i % 3, seed=rng) for i in range(8)]
    serial = [nrb_two_qubit(rho) for rho in states]
    sphere_grid.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(nrb_two_qubit, rho) for rho in states]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for one, other in zip(serial, threaded):
        assert one.value == other.value
        assert np.array_equal(one.argmax_u.components, other.argmax_u.components)
        assert np.array_equal(one.argmax_v.components, other.argmax_v.components)
        assert one.diagnostics == other.diagnostics
