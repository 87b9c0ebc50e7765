"""The two-qubit search (rbnl.search) and the objectives it maximizes, the
Fano-form irreality drop and the CHSH objective of the test_bell oracle:
second routes for the objectives and their gradients, and metamorphic checks
of the searched values. Seeded, so deterministic."""
import itertools

import numpy as np
import pytest

from rbnl.bell import correlation_matrix, nmax_numeric
from rbnl.linalg import entropy_from_eigenvalues
from rbnl.nonlocality import _drop_objective, nrb_two_qubit
from rbnl.realism import LocalPVM, delta_irreality
from rbnl.search import (OptimizerConfig, _chart_eval, _tangent_basis, _top,
                         sphere_grid)
from rbnl.states import (BlochVector, DensityMatrix, bloch_pvm, fano_form,
                         random_density, werner)
from test_bell import chsh_objective

SWAP = np.eye(4)[[0, 2, 1, 3]]


def unit(rng):
    x = rng.standard_normal(3)
    return x / np.linalg.norm(x)


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def drop_route(rho, u, v):
    """The irreality drop through 4x4 dephasings and eigenvalues."""
    return delta_irreality(LocalPVM(bloch_pvm(BlochVector(u)), "A"),
                           LocalPVM(bloch_pvm(BlochVector(v)), "B"), rho)


def drop_objective(rho):
    s_rho = entropy_from_eigenvalues(np.linalg.eigvalsh(rho.matrix))
    return _drop_objective(fano_form(rho), s_rho)


def test_fano_form_reconstructs_state():
    rng = np.random.default_rng(300)
    basis = [np.eye(2)] + [np.array(p) for p in
                           ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    for rank in (1, 2, 3, 4):
        rho = random_density(2, 2, rank=rank, seed=rng)
        r = fano_form(rho)
        rebuilt = sum(r[i, j] * np.kron(basis[i], basis[j])
                      for i, j in itertools.product(range(4), repeat=2)) / 4
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-14
        assert np.array_equal(r[1:, 1:], correlation_matrix(rho))
    with pytest.raises(ValueError):
        fano_form(random_density(2, 3, rank=2, seed=rng))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fano_objective_equals_dephasing_route(rank):
    rng = np.random.default_rng(310 + rank)
    for _ in range(20):
        rho = random_density(2, 2, rank=rank, seed=rng)
        u, v = unit(rng), unit(rng)
        value = drop_objective(rho)(u[None], v[None])[0][0]
        assert abs(value - drop_route(rho, u, v)) < 1e-12


def chart_gradient_error(objective, u, v):
    """Largest gap between the analytic chart gradient at (u, v) and central
    differences of the objective along the chart axes."""
    eu, ev = _tangent_basis(u[None]), _tangent_basis(v[None])
    args = (objective, u[None], v[None], eu, ev)
    grad = _chart_eval(*args, np.zeros((1, 4)))[5][0]
    h = 1e-6
    fd = [(_chart_eval(*args, h * e[None])[2] - _chart_eval(*args, -h * e[None])[2])[0]
          / (2 * h) for e in np.eye(4)]
    return float(np.max(np.abs(grad - fd)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_analytic_gradients_match_finite_differences(rank):
    rng = np.random.default_rng(320 + rank)
    for _ in range(10):
        rho = random_density(2, 2, rank=rank, seed=rng)
        u, v = unit(rng), unit(rng)
        assert chart_gradient_error(drop_objective(rho), u, v) < 1e-7
        assert chart_gradient_error(chsh_objective(correlation_matrix(rho)), u, v) < 1e-7


def test_ranking_is_a_stable_descending_sort():
    rng = np.random.default_rng(330)
    flat = rng.integers(0, 6, 400).astype(float)  # many ties
    for k in (1, 8, 399, 400, 900):
        assert np.array_equal(_top(flat, k), np.argsort(-flat, kind="stable")[:k])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_value_never_below_grid_maximum(rank):
    # the grid maximum here comes from the 4x4 dephasing route
    cfg = OptimizerConfig(theta_points=4, phi_points=6, restarts=2, refine_iterations=1)
    dirs = sphere_grid(cfg)
    rho = random_density(2, 2, rank=rank, seed=340 + rank)
    grid_max = max(drop_route(rho, u, v) for u in dirs for v in dirs)
    assert nrb_two_qubit(rho, cfg).value >= grid_max - 1e-12


@pytest.mark.parametrize("rank", [2, 3, 4])
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
