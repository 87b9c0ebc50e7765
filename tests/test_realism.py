import numpy as np
import pytest

import rbnl.realism
from rbnl.linalg import von_neumann_entropy
from rbnl.realism import (LocalPVM, RealityComponents, dephase,
                          delta_irreality, irreality, is_reality_state,
                          make_reality_state)
from rbnl.states import PVM, DensityMatrix, random_density, werner
from test_states import assert_tolerance


def random_basis_pvm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return PVM(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(d)))


def random_local(rng, dims, site):
    d = dims[0] if site == "A" else dims[1]
    return LocalPVM(random_basis_pvm(rng, d), site)


DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
SITES = ("A", "B")


def test_local_pvm_site_check():
    m = random_basis_pvm(np.random.default_rng(0), 2)
    with pytest.raises(ValueError):
        LocalPVM(m, "X")


def random_coarse_pvm(rng, d):
    # a random orthonormal basis with its first two rays merged, so that
    # for d = 3 one projector has rank 2
    fine = random_basis_pvm(rng, d).projectors
    return PVM((fine[0] + fine[1], *fine[2:]))


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("site", SITES)
def test_dephase_equals_kron_sandwich(dims, site):
    # an oracle built here with np.kron: sum_k (P_k (x) I) rho (P_k (x) I)
    # for site A, sum_k (I (x) P_k) rho (I (x) P_k) for site B
    rng = np.random.default_rng(20 + 10 * DIMS.index(dims) + SITES.index(site))
    d_a, d_b = dims
    for k in range(6):
        rho = random_density(d_a, d_b, rank=1 + k % (d_a * d_b), seed=rng)
        d = d_a if site == "A" else d_b
        pvm = random_basis_pvm(rng, d) if k % 2 else random_coarse_pvm(rng, d)
        if site == "A":
            embedded = [np.kron(p, np.eye(d_b)) for p in pvm.projectors]
        else:
            embedded = [np.kron(np.eye(d_a), p) for p in pvm.projectors]
        expected = sum(p @ rho.matrix @ p for p in embedded)
        got = dephase(rho, LocalPVM(pvm, site)).matrix
        assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("dims", DIMS)
def test_reality_state_equals_explicit_mixture(dims):
    rng = np.random.default_rng(30 + DIMS.index(dims))
    d_a, d_b = dims
    for k in range(4):
        pvm = random_basis_pvm(rng, d_a) if k % 2 else random_coarse_pvm(rng, d_a)
        w = rng.random(3)
        w /= w.sum()
        sa = [random_density(d_a, 1, rank=d_a, seed=rng).matrix for _ in w]
        sb = [random_density(d_b, 1, rank=d_b, seed=rng).matrix for _ in w]
        expected = sum(wk * np.kron(sum(p @ a @ p for p in pvm.projectors), b)
                       for wk, a, b in zip(w, sa, sb))
        got = make_reality_state(RealityComponents(tuple(w), tuple(sa), tuple(sb)), pvm)
        assert got.dims == dims
        assert np.max(np.abs(got.matrix - expected)) < 1e-12


@pytest.mark.parametrize("bad, match", [
    (lambda m: 2 * m, "trace"),
    (lambda m: m + np.triu(np.full(m.shape, 0.1), 1), "not Hermitian"),
    (lambda m: m + np.diag([1.0] + [0.0] * (len(m) - 2) + [-1.0]), "positive semidefinite"),
])
def test_dephase_output_is_fully_validated(monkeypatch, bad, match):
    # dephase hands its matrix to the DensityMatrix constructor, whose checks
    # all run: a kernel returning a broken matrix is caught there
    rho = random_density(2, 3, rank=3, seed=5)
    m = random_local(np.random.default_rng(5), (2, 3), "B")
    out = dephase(rho, m)
    assert np.linalg.eigvalsh(out.matrix).tobytes() == out.eigenvalues.tobytes()
    kernel = rbnl.realism._dephased
    monkeypatch.setattr(rbnl.realism, "_dephased", lambda *args: bad(kernel(*args)))
    with pytest.raises(ValueError, match=match):
        dephase(rho, m)


def test_one_spectrum_per_state(monkeypatch):
    # irreality diagonalizes its dephased matrix with one eigvalsh call and
    # no DensityMatrix around it; delta_irreality diagonalizes its three
    # (Phi_a rho, Phi_b rho and Phi_a Phi_b rho) with one eigvalsh call on
    # their (3, d, d) stack; rho's own spectrum is the one kept from its
    # construction
    rng = np.random.default_rng(6)
    rho = random_density(3, 2, rank=4, seed=rng)
    ma, mb = random_local(rng, (3, 2), "A"), random_local(rng, (3, 2), "B")
    expected = (irreality(ma, rho), delta_irreality(ma, mb, rho))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    assert irreality(ma, rho) == expected[0]
    assert calls == [(6, 6)]
    calls.clear()
    assert delta_irreality(ma, mb, rho) == expected[1]
    assert calls == [(3, 6, 6)]
    calls.clear()
    DensityMatrix(rho.matrix, rho.dims)
    assert calls == [(6, 6)]


def irreality_oracle(m, rho):
    # the route of irreality before it stopped wrapping its dephasing:
    # a fully validated DensityMatrix and its kept spectrum
    return dephase(rho, m).entropy() - rho.entropy()


def delta_irreality_oracle(a, b, rho):
    return irreality_oracle(a, rho) - irreality_oracle(a, dephase(rho, b))


def bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("dims", DIMS)
def test_irreality_bit_identical_to_dephase_route(dims):
    # every rank, each observable either a full basis or a coarse one (for
    # d = 3 a rank-2 projector, for d = 2 the trivial {I}), on both sites
    rng = np.random.default_rng(40 + DIMS.index(dims))
    d_a, d_b = dims
    for rank in range(1, d_a * d_b + 1):
        for k in range(4):
            rho = random_density(d_a, d_b, rank=rank, seed=rng)
            pick = (random_basis_pvm, random_coarse_pvm)
            ma = LocalPVM(pick[k % 2](rng, d_a), "A")
            mb = LocalPVM(pick[k // 2](rng, d_b), "B")
            for m in (ma, mb):
                assert bits(irreality(m, rho)) == bits(irreality_oracle(m, rho))
            for a, b in ((ma, mb), (mb, ma)):
                assert bits(delta_irreality(a, b, rho)) == \
                    bits(delta_irreality_oracle(a, b, rho))


def test_irreality_keeps_its_input_errors():
    rng = np.random.default_rng(47)
    rho = random_density(2, 3, rank=3, seed=rng)
    ma, mb = random_local(rng, (2, 3), "A"), random_local(rng, (2, 3), "B")
    wrong_a = LocalPVM(random_basis_pvm(rng, 3), "A")
    wrong_b = LocalPVM(random_basis_pvm(rng, 2), "B")
    for call in (lambda: irreality(wrong_a, rho), lambda: dephase(rho, wrong_a),
                 lambda: delta_irreality(wrong_a, mb, rho),
                 lambda: delta_irreality(mb, wrong_a, rho)):
        with pytest.raises(ValueError, match="PVM dimension 3 does not match site A dimension 2"):
            call()
    for call in (lambda: irreality(wrong_b, rho), lambda: delta_irreality(ma, wrong_b, rho)):
        with pytest.raises(ValueError, match="PVM dimension 2 does not match site B dimension 3"):
            call()
    for a, b in ((ma, ma), (mb, mb), (wrong_a, ma)):
        with pytest.raises(ValueError, match="both PVMs act on the same site"):
            delta_irreality(a, b, rho)


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


def test_reality_weights_tolerance():  # |sum w - 1| <= 1e-12, see assert_tolerance
    rho_a = np.eye(2) / 2
    assert_tolerance(lambda off: RealityComponents((0.5 + off, 0.5), (rho_a, rho_a),
                                                   (rho_a, rho_a)),
                     1e-12, "weights sum to")


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


def test_reality_tolerance():  # REALITY_TOL
    # a coherence c between |00> and |10>, which the Z dephasing of site A
    # removes: a state within 1e-10 of its dephasing is a reality state. The
    # tolerance is written out, so that the test fails when it moves
    z = LocalPVM(PVM(np.eye(2)[:, :, None] * np.eye(2)[:, None, :]), "A")
    for c, real in ((0.5e-10, True), (2e-10, False)):
        m = np.eye(4, dtype=complex) / 4
        m[0, 2] = m[2, 0] = c
        assert is_reality_state(DensityMatrix(m, (2, 2)), z) is real


def test_reality_state_component_dimension_checked():
    m = random_basis_pvm(np.random.default_rng(19), 2)
    for sa in (np.eye(3) / 3, np.ones((2, 3)) / 2):
        with pytest.raises(ValueError, match="component dimension"):
            make_reality_state(RealityComponents((1.0,), (sa,), (np.eye(2) / 2,)), m)


def test_reality_components_shapes_checked():
    i2, i3 = np.eye(2) / 2, np.eye(3) / 3
    rect = np.ones((2, 3)) / 2
    m = random_basis_pvm(np.random.default_rng(20), 2)
    # site-B states of shapes (2, 2) and (3, 3): a named error, not numpy's
    # broadcast error from the mixture
    with pytest.raises(ValueError, match=r"site-B states must be square .* \(3, 3\)\]"):
        make_reality_state(RealityComponents((0.5, 0.5), (i2, i2), (i2, i3)), m)
    for weights, sa, sb, site in (((0.5, 0.5), (i2, i3), (i2, i2), "A"),
                                  ((1.0,), (rect,), (i2,), "A"),
                                  ((1.0,), (i2,), (rect,), "B"),
                                  ((1.0,), (i2,), (np.ones(4) / 4,), "B")):
        with pytest.raises(ValueError, match=f"component dimension: site-{site} states must"):
            RealityComponents(weights, sa, sb)
    with pytest.raises(ValueError, match="non-empty"):
        RealityComponents((), (), ())
    comps = RealityComponents((0.5, 0.5), (i2, i2), (i3, i3))
    assert make_reality_state(comps, m).dims == (2, 3)
    # validated, so read-only like every array the package's types hold
    assert not any(a.flags.writeable for a in (comps.weights, *comps.states_a, *comps.states_b))


def test_non_reality_state_detected():
    rho = werner(0.9)
    m = LocalPVM(random_basis_pvm(np.random.default_rng(18), 2), "A")
    assert not is_reality_state(rho, m)
