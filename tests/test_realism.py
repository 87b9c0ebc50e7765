import numpy as np
import pytest

from rbnl.linalg import von_neumann_entropy
from rbnl.realism import (LocalPVM, RealityComponents, dephase,
                          delta_irreality, irreality, is_reality_state,
                          make_reality_state)
from rbnl.states import PVM, random_density, werner


def random_basis_pvm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return PVM(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(d)))


def random_local(rng, dims, site):
    d = dims[0] if site == "A" else dims[1]
    return LocalPVM(random_basis_pvm(rng, d), site)


DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_local_pvm_site_check():
    m = random_basis_pvm(np.random.default_rng(0), 2)
    with pytest.raises(ValueError):
        LocalPVM(m, "X")


def test_dephase_is_idempotent_and_trace_preserving():
    rng = np.random.default_rng(10)
    for k in range(40):
        dims = DIMS[k % len(DIMS)]
        rho = random_density(*dims, rank=dims[0] * dims[1], seed=rng)
        m = random_local(rng, dims, "A" if k % 2 else "B")
        once = dephase(rho, m)
        twice = dephase(once, m)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12
        assert abs(np.trace(once.matrix).real - 1.0) < 1e-12


def test_dephase_sides_commute():
    rng = np.random.default_rng(11)
    for k in range(40):
        dims = DIMS[k % len(DIMS)]
        rho = random_density(*dims, rank=2, seed=rng)
        ma = random_local(rng, dims, "A")
        mb = random_local(rng, dims, "B")
        ab = dephase(dephase(rho, ma), mb)
        ba = dephase(dephase(rho, mb), ma)
        assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-12


def test_dephase_dim_mismatch():
    rho = werner(0.2)
    m = LocalPVM(random_basis_pvm(np.random.default_rng(1), 3), "A")
    with pytest.raises(ValueError):
        dephase(rho, m)


def test_irreality_nonnegative_and_klein():
    rng = np.random.default_rng(12)
    for k in range(60):
        dims = DIMS[k % len(DIMS)]
        rho = random_density(*dims, rank=(k % 3) + 2, seed=rng)
        m = random_local(rng, dims, "A" if k % 2 else "B")
        irr = irreality(m, rho)
        assert irr >= -1e-10
        # same statement via entropies: dephasing never lowers entropy
        assert von_neumann_entropy(dephase(rho, m).matrix) >= \
            von_neumann_entropy(rho.matrix) - 1e-10


def test_irreality_zero_for_dephased_state():
    rng = np.random.default_rng(13)
    for k in range(20):
        dims = DIMS[k % len(DIMS)]
        rho = random_density(*dims, rank=3, seed=rng)
        m = random_local(rng, dims, "B")
        assert abs(irreality(m, dephase(rho, m))) < 1e-10


def test_delta_irreality_routes_agree():
    # difference of irrealities vs the four-entropy sum
    rng = np.random.default_rng(14)
    for k in range(50):
        dims = DIMS[k % len(DIMS)]
        rho = random_density(*dims, rank=dims[0] + 1, seed=rng)
        ma = random_local(rng, dims, "A")
        mb = random_local(rng, dims, "B")
        di = delta_irreality(ma, mb, rho)
        s = von_neumann_entropy(rho.matrix)
        s_a = von_neumann_entropy(dephase(rho, ma).matrix)
        s_b = von_neumann_entropy(dephase(rho, mb).matrix)
        s_ab = von_neumann_entropy(dephase(dephase(rho, ma), mb).matrix)
        assert abs(di - (s_a + s_b - s_ab - s)) < 1e-10
        assert di >= -1e-10


def test_delta_irreality_is_symmetric():
    rng = np.random.default_rng(15)
    for k in range(30):
        dims = DIMS[k % len(DIMS)]
        rho = random_density(*dims, rank=4, seed=rng)
        ma = random_local(rng, dims, "A")
        mb = random_local(rng, dims, "B")
        assert abs(delta_irreality(ma, mb, rho) -
                   delta_irreality(mb, ma, rho)) < 1e-10


def test_delta_irreality_same_site_rejected():
    rng = np.random.default_rng(16)
    ma = random_local(rng, (2, 2), "A")
    mb = LocalPVM(random_basis_pvm(rng, 2), "A")
    with pytest.raises(ValueError, match="same site"):
        delta_irreality(ma, mb, werner(0.5))


def test_reality_components_validation():
    rho_a = np.eye(2) / 2
    with pytest.raises(ValueError, match="sum to"):
        RealityComponents((0.7, 0.7), (rho_a, rho_a), (rho_a, rho_a))
    with pytest.raises(ValueError, match="negative weight"):
        RealityComponents((1.5, -0.5), (rho_a, rho_a), (rho_a, rho_a))
    for w in ((np.nan, 1.0), (np.nan, np.nan), (1.0, np.nan)):
        with pytest.raises(ValueError):
            RealityComponents(w, (rho_a, rho_a), (rho_a, rho_a))


def test_reality_state_fixed_point():
    rng = np.random.default_rng(17)
    for k in range(25):
        dims = DIMS[k % len(DIMS)]
        m = random_basis_pvm(rng, dims[0])
        n = 3
        w = rng.random(n)
        w /= w.sum()
        comps = RealityComponents(
            tuple(w),
            tuple(random_density(dims[0], 1, rank=dims[0], seed=rng).matrix
                  for _ in range(n)),
            tuple(random_density(dims[1], 1, rank=dims[1], seed=rng).matrix
                  for _ in range(n)),
        )
        rho = make_reality_state(comps, m)
        lm = LocalPVM(m, "A")
        assert is_reality_state(rho, lm)
        assert abs(irreality(lm, rho)) < 1e-10


def test_non_reality_state_detected():
    rho = werner(0.9)
    m = LocalPVM(random_basis_pvm(np.random.default_rng(18), 2), "A")
    assert not is_reality_state(rho, m)
