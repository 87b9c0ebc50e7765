import math

import numpy as np
import pytest

from rbnl.linalg import entropy_from_eigenvalues, partial_trace, tensor, von_neumann_entropy
from rbnl.nonlocality import (MARGINAL_CUTOFF, PURITY_CUTOFF, NrbResult, OptimizerConfig,
                              SchmidtDecomposition, _nrb_search, _result,
                              entanglement_entropy, nrb_pure, nrb_two_qubit,
                              nrb_werner_closed_form, pure_state, schmidt,
                              werner_dephased_spectra)
from rbnl.realism import LocalPVM, delta_irreality, dephase
from rbnl.states import (PVM, BlochVector, DensityMatrix, PureState,
                         bloch_pvm, fano_form, qutrit_family, random_density,
                         random_pure, singlet, werner)
from test_search import haar_unitary
from test_states import assert_tolerance

LN2 = np.log(2.0)


def product_state(d_a, d_b):
    """A non-canonical product state: both factors are random unit vectors."""
    rng = np.random.default_rng(d_a * 10 + d_b)
    a = random_pure(d_a, 1, seed=rng).vector
    b = random_pure(1, d_b, seed=rng).vector
    return PureState(np.kron(a, b), (d_a, d_b))


def degenerate_states():
    """Schmidt spectra with ties and zero slots: equal coefficients, a
    vanishing middle coefficient, and products in both unequal shapes."""
    return [singlet(), qutrit_family(1.0), qutrit_family(0.0),
            product_state(2, 3), product_state(3, 2)]


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(theta_points=0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=-1)
    cfg = OptimizerConfig()
    assert (cfg.theta_points, cfg.phi_points, cfg.restarts) == (12, 24, 8)
    assert OptimizerConfig(theta_points=np.int64(4)).theta_points == 4


@pytest.mark.parametrize("kw, error", [
    ({"restarts": 2.5}, TypeError),
    ({"theta_points": 2.5}, TypeError),
    ({"theta_points": True}, TypeError),
    ({"restarts": np.array(5)}, TypeError),
    ({"value_tol": 1e-8}, TypeError),  # a constant, search.PRED_TOL
])
def test_optimizer_config_rejects_non_integers_and_bad_tolerance(kw, error):
    with pytest.raises(error, match=next(iter(kw))):
        OptimizerConfig(**kw)


def test_schmidt_reconstructs_state():
    rng = np.random.default_rng(20)
    states = [random_pure(d_a, d_b, seed=rng)
              for d_a, d_b in [(2, 2), (2, 3), (3, 2), (3, 3)] for _ in range(10)]
    for psi in states + degenerate_states():
        d_a, d_b = psi.dims
        dec = schmidt(psi)
        coeffs = dec.coefficients
        assert np.all(np.diff(coeffs) <= 1e-14)  # descending
        assert abs(coeffs.sum() - 1.0) < 1e-10
        rebuilt = np.zeros(d_a * d_b, dtype=complex)
        for i in range(min(d_a, d_b)):
            rebuilt += np.sqrt(coeffs[i]) * tensor(
                dec.basis_a[:, i].reshape(-1, 1),
                dec.basis_b[:, i].reshape(-1, 1)).ravel()
        # equality up to a global phase
        overlap = abs(np.vdot(rebuilt, psi.vector))
        assert abs(overlap - 1.0) < 1e-10


def test_schmidt_bases_orthonormal():
    for psi in [random_pure(3, 2, seed=77)] + degenerate_states():
        dec = schmidt(psi)
        for basis, d in zip((dec.basis_a, dec.basis_b), psi.dims):
            assert basis.shape == (d, d)
            assert np.allclose(basis.conj().T @ basis, np.eye(d), atol=1e-12)


def test_schmidt_product_state():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    dec = schmidt(PureState(v, (2, 2)))
    assert np.allclose(dec.coefficients, [1.0, 0.0], atol=1e-14)
    assert entanglement_entropy(PureState(v, (2, 2))) == 0.0
    for psi in (PureState(v, (2, 2)), product_state(2, 3), product_state(3, 2)):
        # +0.0, so that reports never print -0.0
        assert math.copysign(1.0, entanglement_entropy(psi)) == 1.0
        assert math.copysign(1.0, nrb_pure(psi).value) == 1.0


def test_entanglement_entropy_bell_state():
    assert abs(entanglement_entropy(singlet()) - LN2) < 1e-14


def test_entanglement_entropy_equals_marginal_entropy():
    rng = np.random.default_rng(21)
    for _ in range(15):
        psi = random_pure(2, 3, seed=rng)
        mat = psi.vector.reshape(2, 3)
        rho_b = mat.conj().T @ mat
        assert abs(entanglement_entropy(psi) - von_neumann_entropy(rho_b)) < 1e-12


@pytest.mark.parametrize("scale", [1 + 0.9e-10, 1 - 0.9e-10])
def test_schmidt_of_a_state_off_unit_norm(scale):
    # PureState keeps a vector up to NORM_TOL = 1e-10 off unit norm, as it
    # came; the squared singular values then sum to 1 +- 1.8e-10, which
    # SchmidtDecomposition rejects, so _schmidt_svd divides by their sum
    exact = random_pure(2, 3, seed=27)
    psi = PureState(exact.vector * scale, (2, 3))
    assert abs(schmidt(psi).coefficients.sum() - 1.0) < 1e-14
    assert abs(entanglement_entropy(psi) - entanglement_entropy(exact)) <= 1e-15


def test_nrb_pure_value_via_dephasing_route():
    # the optimal observables returned must attain the value through the
    # generic entropy route, not just by construction
    rng = np.random.default_rng(22)
    states = [random_pure(d_a, d_b, seed=rng)
              for d_a, d_b in [(2, 2), (3, 3)] for _ in range(5)]
    for psi in states + degenerate_states():
        res = nrb_pure(psi)
        rho = psi.density()
        di = delta_irreality(LocalPVM(res.pvm_a, "A"),
                             LocalPVM(res.pvm_b, "B"), rho)
        assert abs(di - res.value) < 1e-10
        assert abs(res.value - entanglement_entropy(psi)) < 1e-12


def counted_schmidt(monkeypatch):
    """Count the calls of np.linalg.svd and the SchmidtDecompositions built."""
    counts = {"svd": 0, "decomposition": 0}
    svd, post_init = np.linalg.svd, SchmidtDecomposition.__post_init__

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(SchmidtDecomposition, "__post_init__",
                        counted("decomposition", post_init))
    return counts


def test_nrb_pure_value_takes_one_svd_and_no_decomposition(monkeypatch):
    counts = counted_schmidt(monkeypatch)
    for psi in (random_pure(3, 3, seed=30), singlet(), product_state(2, 3)):
        counts.update(svd=0, decomposition=0)
        res = nrb_pure(psi)
        assert counts == {"svd": 1, "decomposition": 0}
        assert res.state is psi


def test_nrb_pure_decomposition_is_built_when_read(monkeypatch):
    rng = np.random.default_rng(31)
    states = [random_pure(d_a, d_b, seed=rng)
              for d_a, d_b in [(2, 2), (3, 3), (2, 3), (3, 2), (1, 3)]]
    for psi in states + degenerate_states():
        res = nrb_pure(psi)
        want = schmidt(psi)
        counts = counted_schmidt(monkeypatch)
        dec = res.decomposition
        assert counts == {"svd": 1, "decomposition": 1}
        for name in ("coefficients", "basis_a", "basis_b"):
            got, ref = getattr(dec, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for name, basis in (("pvm_a", want.basis_a), ("pvm_b", want.basis_b)):
            pvm = getattr(res, name)
            cols = basis.T
            ref = cols[:, :, None] * cols.conj()[:, None, :]
            assert pvm.projectors.tobytes() == ref.tobytes()
        assert counts == {"svd": 3, "decomposition": 3}
        monkeypatch.undo()
        # the value keeps its bits against both routes to the coefficients
        assert res.value == entanglement_entropy(psi)
        assert res.value == entropy_from_eigenvalues(res.decomposition.coefficients)


def test_nrb_two_qubit_matches_closed_form():
    for mu in (0.3, 0.6, 0.9):
        res = nrb_two_qubit(werner(mu))
        assert abs(res.value - nrb_werner_closed_form(mu)) < 1e-9
        assert res.eta > 1.0 - 1e-6


def rotated_bell_diagonal(rng, floor=0.0):
    """A mixture of the four Bell states, weights at least floor / 4, under
    a random local unitary: a = b = 0 and T = R_A diag(c) R_B^T, the
    9-parameter family of two-qubit states with maximally mixed marginals.
    Positive by construction."""
    s = 1 / math.sqrt(2)
    bells = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]])
    p = (1 - floor) * rng.dirichlet(np.ones(4)) + floor / 4
    m = (bells.T * p) @ bells
    lu = np.kron(haar_unitary(rng), haar_unitary(rng))
    return DensityMatrix(lu @ m @ lu.conj().T, (2, 2))


def zero_marginal_closed_form(rho, pick=min):
    """ln 2 + h((1 + t_min)/2) - S(rho) from the singular values of T, in nats;
    pick=max puts t_max in place of t_min."""
    t = pick(np.linalg.svd(fano_form(rho)[2], compute_uv=False))
    p = np.array([(1 + t) / 2, (1 - t) / 2])
    p = p[p > 0]
    return LN2 - float((p * np.log(p)).sum()) - von_neumann_entropy(rho.matrix)


def svd_pair_drop(rho):
    """The drop, through 4x4 dephasings, at the singular vectors of t_min."""
    left, _, right = np.linalg.svd(fano_form(rho)[2])
    return delta_irreality(LocalPVM(bloch_pvm(BlochVector(left[:, -1])), "A"),
                           LocalPVM(bloch_pvm(BlochVector(right[-1])), "B"), rho)


def test_zero_marginal_closed_form_is_the_search_maximum():
    # the closed form is the oracle of the search on the whole family, and
    # nrb_two_qubit takes it without a search
    rng = np.random.default_rng(44)
    for _ in range(24):
        rho = rotated_bell_diagonal(rng)
        want = zero_marginal_closed_form(rho)
        assert abs(_nrb_search(rho, OptimizerConfig()).value - want) < 1e-9
        res = nrb_two_qubit(rho)
        assert res.diagnostics is None
        assert abs(res.value - want) < 1e-12
        di = delta_irreality(LocalPVM(bloch_pvm(res.argmax_u), "A"),
                             LocalPVM(bloch_pvm(res.argmax_v), "B"), rho)
        assert abs(di - res.value) < 1e-12


def test_zero_marginal_oracle_rejects_t_max():
    # the mutation t_max for t_min must fail the oracle check above
    rng = np.random.default_rng(44)
    for _ in range(24):
        rho = rotated_bell_diagonal(rng)
        wrong = zero_marginal_closed_form(rho, pick=max)
        assert abs(_nrb_search(rho, OptimizerConfig()).value - wrong) > 1e-9


@pytest.mark.parametrize("side", [0, 1])
def test_marginal_cutoff_dispatch(side):
    # |a| or |b| at most MARGINAL_CUTOFF takes the closed form; at 1e-6 the
    # formula no longer holds, the state is searched, and the search finds at
    # least the drop at the singular-vector pair
    rng = np.random.default_rng(45 + side)
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    for _ in range(6):
        rho = rotated_bell_diagonal(rng, floor=0.1)
        direction = np.asarray(unit(rng).components)
        local = sum(c * p for c, p in zip(direction, paulis))
        op = np.kron(local, np.eye(2)) if side == 0 else np.kron(np.eye(2), local)
        for norm in (0.5 * MARGINAL_CUTOFF, 1e-6):
            tilted = DensityMatrix(rho.matrix + norm * op / 4, (2, 2))
            marginal = fano_form(tilted)[side]
            assert abs(np.linalg.norm(marginal) - norm) < 1e-15
            res = nrb_two_qubit(tilted)
            if norm <= MARGINAL_CUTOFF:
                assert res.diagnostics is None
                assert abs(res.value - zero_marginal_closed_form(tilted)) < 1e-12
            else:
                assert res.diagnostics is not None
                assert res.value >= svd_pair_drop(tilted) - 1e-12


def test_closed_form_routes_take_the_value_alone(monkeypatch):
    # the pure and zero-marginal routes read only the value of the drop at
    # their pair: with the full objective (gradients and Hessian) made to
    # fail they return the same bits; the search still needs it
    import rbnl.nonlocality
    rng = np.random.default_rng(46)
    states = [random_pure(2, 2, seed=rng).density() for _ in range(3)]
    states += [werner(0.4), werner(0.9), rotated_bell_diagonal(rng)]
    before = [nrb_two_qubit(rho) for rho in states]

    def no_objective(*args):
        raise AssertionError("the objective with derivatives was built")

    monkeypatch.setattr(rbnl.nonlocality, "_drop_objective", no_objective)
    for rho, want in zip(states, before):
        got = nrb_two_qubit(rho)
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert got.argmax_u.components.tobytes() == want.argmax_u.components.tobytes()
        assert got.argmax_v.components.tobytes() == want.argmax_v.components.tobytes()
    with pytest.raises(AssertionError, match="derivatives"):
        nrb_two_qubit(random_density(2, 2, rank=3, seed=rng))


def test_nrb_two_qubit_product_state_is_zero():
    rho = random_density(2, 1, rank=2, seed=3)
    sigma = random_density(2, 1, rank=2, seed=4)
    prod = DensityMatrix(tensor(rho.matrix, sigma.matrix), (2, 2))
    res = nrb_two_qubit(prod)
    assert 0.0 <= res.value < 1e-8


def ket_bloch(x):
    """Bloch vector <x|sigma|x> of a unit qubit ket x."""
    c = np.conj(x[0]) * x[1]
    return np.array([2.0 * c.real, 2.0 * c.imag, abs(x[0]) ** 2 - abs(x[1]) ** 2])


def test_pure_states_take_the_schmidt_pair():
    # random pure states, and cos t |00> + sin t |11> under random local
    # unitaries with t = pi/4 - delta, up to the maximally entangled delta = 0
    rng = np.random.default_rng(40)
    states = [random_pure(2, 2, seed=rng) for _ in range(20)]
    for delta in (1e-1, 1e-3, 1e-6, 1e-9, 0.0):
        t = math.pi / 4 - delta
        local = np.kron(haar_unitary(rng), haar_unitary(rng))
        states.append(PureState(local @ np.array([math.cos(t), 0, 0, math.sin(t)]), (2, 2)))
    for psi in states:
        rho = psi.density()
        res = nrb_two_qubit(rho)
        assert res.diagnostics is None  # no search ran
        assert abs(res.value - entanglement_entropy(psi)) < 1e-12
        di = delta_irreality(LocalPVM(bloch_pvm(res.argmax_u), "A"),
                             LocalPVM(bloch_pvm(res.argmax_v), "B"), rho)
        assert abs(di - res.value) < 1e-12
        dec = schmidt(psi)
        if dec.coefficients[0] - dec.coefficients[1] >= 0.1:
            # the Bloch vectors of the leading Schmidt kets, one sign for both
            u, v = res.argmax_u.components, res.argmax_v.components
            bloch_a, bloch_b = ket_bloch(dec.basis_a[:, 0]), ket_bloch(dec.basis_b[:, 0])
            sign = np.sign(u @ bloch_a)
            assert np.abs(u - sign * bloch_a).max() < 1e-12
            assert np.abs(v - sign * bloch_b).max() < 1e-12


def test_pure_product_and_bell_states():
    s = 1 / math.sqrt(2)
    kets = [np.array([1, 0]), np.array([0, 1]), np.array([s, s]), np.array([s, 1j * s])]
    for x in kets:
        for y in kets:
            rho = PureState(np.kron(x, y), (2, 2)).density()
            assert nrb_two_qubit(rho).value == 0.0
    phi_plus = PureState(np.array([s, 0, 0, s]), (2, 2))
    for psi in (singlet(), phi_plus):
        assert abs(nrb_two_qubit(psi.density()).value - LN2) < 1e-12


@pytest.mark.parametrize("noise", ["white", "pure"])
@pytest.mark.parametrize("eps", [1e-13, 1e-11, 4e-11])
def test_near_pure_states_agree_with_the_search(eps, noise):
    # inside the cutoff: the Schmidt pair of the top eigenvector is still the
    # optimum to within O(eps ln eps). White noise I/4 is isotropic; a random
    # pure |phi> is not, and its purity gap 2 eps (1 - |<psi|phi>|^2) stays
    # below the cutoff for every eps here
    rng = np.random.default_rng(41 if noise == "white" else 43)
    for _ in range(4):
        m = (1 - eps) * random_pure(2, 2, seed=rng).density().matrix
        if noise == "white":
            m = m + eps * np.eye(4) / 4
        else:
            m = m + eps * random_pure(2, 2, seed=rng).density().matrix
        rho = DensityMatrix(m, (2, 2))
        res = nrb_two_qubit(rho)
        assert res.diagnostics is None
        assert abs(res.value - _nrb_search(rho, OptimizerConfig()).value) < 1e-9


def test_structured_noise_outside_the_purity_cutoff_is_searched():
    # (1 - eps)|psi><psi| + eps sigma with sigma of rank 1-4, 1 - purity from
    # about 1e-8 to 1e-3: outside PURITY_CUTOFF, so each state is searched.
    # The top singular pair of T falls short of the search here by up to
    # 6.4e-6 at 1 - purity ~ 1e-3, 8.3e-8 at 1.5e-4 and 2.5e-10 at 1.7e-6, but
    # by about 1e-14 at 1e-8: so it is the routing assert, not the value, that
    # sees a cutoff loosened past 1e-8. White noise cannot show this: the pair
    # stays optimal under it (see test_near_pure_states_agree_with_the_search)
    rng = np.random.default_rng(9)
    for eps in (1e-8, 1e-6, 1e-5, 1e-4, 6e-4):
        for rank in (1, 2, 3, 4):
            m = (1 - eps) * random_pure(2, 2, seed=rng).density().matrix
            rho = DensityMatrix(m + eps * random_density(2, 2, rank=rank, seed=rng).matrix, (2, 2))
            assert 5e-9 < 1 - rho.purity() < 2e-3
            res = nrb_two_qubit(rho)
            assert res.diagnostics is not None
            assert abs(res.value - _nrb_search(rho, OptimizerConfig(restarts=16)).value) < 1e-10


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_route_follows_the_purity_test_at_the_cutoff(factor):
    # (1 - eps)|psi><psi| + eps |phi><phi|, phi orthogonal to psi, has
    # 1 - purity = 2 eps (1 - eps), here factor * PURITY_CUTOFF; nrb_two_qubit
    # takes the Schmidt pair exactly when pure_state finds a pure state
    rng = np.random.default_rng(48)
    eps = (1 - math.sqrt(1 - 2 * factor * PURITY_CUTOFF)) / 2
    for _ in range(4):
        z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        psi, phi = np.linalg.qr(z)[0].T
        m = (1 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj())
        rho = DensityMatrix(m, (2, 2))
        assert abs((1 - rho.purity()) / PURITY_CUTOFF - factor) < 1e-3
        a, b, _ = fano_form(rho)
        assert min(np.linalg.norm(a), np.linalg.norm(b)) > 1e-3  # not the zero-marginal route
        pure = pure_state(rho) is not None
        assert pure == (factor < 1)
        assert (nrb_two_qubit(rho).diagnostics is None) == pure


def test_nrb_two_qubit_rejects_wrong_dims():
    for rho in (random_density(3, 3, rank=2, seed=5), random_pure(3, 2, seed=5).density()):
        with pytest.raises(ValueError):
            nrb_two_qubit(rho)


def test_nrb_two_qubit_argmax_attains_value():
    # optimizer output must be reproducible through the generic route
    rho = random_density(2, 2, rank=3, seed=6)
    res = nrb_two_qubit(rho)
    di = delta_irreality(LocalPVM(bloch_pvm(res.argmax_u), "A"),
                         LocalPVM(bloch_pvm(res.argmax_v), "B"), rho)
    assert abs(di - res.value) < 1e-9


def unit(rng):
    n = rng.normal(size=3)
    return BlochVector(n / np.linalg.norm(n))


def test_trivial_observable_drops_nothing():
    # the only qubit PVM that is not a pair of rank-1 projectors is {I}; its
    # dephasing is the identity map, so the search over u.sigma misses nothing
    rng = np.random.default_rng(24)
    trivial = PVM((np.eye(2),))
    for k in range(8):
        rho = random_density(2, 2, rank=(k % 4) + 1, seed=rng)
        sharp = bloch_pvm(unit(rng))
        for a, b in ((trivial, sharp), (sharp, trivial), (trivial, trivial)):
            assert abs(delta_irreality(LocalPVM(a, "A"), LocalPVM(b, "B"), rho)) < 1e-12


def mutual_information(m):
    """I(rho) = S(rho_A) + S(rho_B) - S(rho) of a two-qubit matrix."""
    return (von_neumann_entropy(partial_trace(m, (2, 2), "A"))
            + von_neumann_entropy(partial_trace(m, (2, 2), "B"))
            - von_neumann_entropy(m))


def test_drop_is_a_mutual_information_difference():
    # the marginal entropies cancel: drop(u, v) = I(rho) - I(Phi_u rho)
    # - I(Phi_v rho) + I(Phi_u Phi_v rho)
    rng = np.random.default_rng(25)
    for k in range(40):
        rho = random_density(2, 2, rank=(k % 4) + 1, seed=rng)
        a = LocalPVM(bloch_pvm(unit(rng)), "A")
        b = LocalPVM(bloch_pvm(unit(rng)), "B")
        rho_a, rho_b = dephase(rho, a), dephase(rho, b)
        identity = (mutual_information(rho.matrix) - mutual_information(rho_a.matrix)
                    - mutual_information(rho_b.matrix)
                    + mutual_information(dephase(rho_a, b).matrix))
        assert abs(delta_irreality(a, b, rho) - identity) < 1e-12


def test_nrb_vanishes_on_product_states():
    rng = np.random.default_rng(26)
    for k in range(6):
        rho_a = random_density(2, 1, rank=(k % 2) + 1, seed=rng)
        rho_b = random_density(1, 2, rank=(k // 2) % 2 + 1, seed=rng)
        prod = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), (2, 2))
        assert nrb_two_qubit(prod).value < 1e-12


def test_nrb_of_near_product_states_is_positive_and_vanishes():
    # the abstract's class of states with null N_rb, seen from outside it:
    # (1 - eps) rho_A (x) rho_B + eps sigma has N_rb > 0 for each eps > 0,
    # and N_rb tends to 0 with eps, here like eps^2 (a decade of eps takes it
    # down 20-100 times). The abstract does not name the class, so this
    # claims no "if and only if" with test_nrb_vanishes_on_product_states
    rng = np.random.default_rng(3)
    for k in range(6):
        prod = tensor(random_density(2, 1, rank=2, seed=rng).matrix,
                      random_density(1, 2, rank=2, seed=rng).matrix)
        sigma = random_density(2, 2, rank=k % 4 + 1, seed=rng).matrix
        values = [nrb_two_qubit(DensityMatrix((1 - eps) * prod + eps * sigma, (2, 2))).value
                  for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert min(values) > 0.0
        assert all(small < big / 10 for big, small in zip(values, values[1:]))


def exp_i(h):
    """exp(i h) for Hermitian h (..., 3, 3)."""
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * w)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def test_no_local_ascent_beats_nrb_pure_in_d3():
    # "reduces to entanglement for pure states", for qutrits and from above:
    # no pair of local PVMs drops more than nrb_pure. Each ascent moves the
    # bases U_A, U_B of the two PVMs by U -> U exp(i t sum_k g_k G_k) over the
    # six off-diagonal generators G_k of each side, g a forward-difference
    # gradient of delta_irreality; t doubles on a gain and shrinks 4x on a
    # loss. It starts from random bases and from the Schmidt bases turned
    # by about 1e-3, and no value it reads exceeds nrb_pure by 1e-10
    gens = np.zeros((6, 3, 3), dtype=complex)
    for k, (i, j, z) in enumerate((i, j, z) for i, j in ((0, 1), (0, 2), (1, 2))
                                  for z in (1.0, 1j)):
        gens[k, i, j], gens[k, j, i] = z, np.conj(z)
    h = 1e-6
    nudges = exp_i(h * gens)
    seen = []

    def drop(rho, ua, ub):  # the PVMs onto the columns of ua and ub
        pvms = (LocalPVM(PVM(u.T[:, :, None] * u.T.conj()[:, None, :]), site)
                for u, site in ((ua, "A"), (ub, "B")))
        seen.append(delta_irreality(*pvms, rho))
        return seen[-1]

    rng = np.random.default_rng(2000)
    for i in range(3):
        psi = random_pure(3, 3, seed=2000 + i)
        rho, top, dec = psi.density(), nrb_pure(psi).value, schmidt(psi)
        turns = exp_i(np.tensordot(1e-3 * rng.standard_normal((2, 6)), gens, 1))
        starts = (np.linalg.qr(rng.standard_normal((2, 3, 3))
                               + 1j * rng.standard_normal((2, 3, 3)))[0],
                  (dec.basis_a @ turns[0], dec.basis_b @ turns[1]))
        for schmidt_start, (ua, ub) in enumerate(starts):
            f = first = drop(rho, ua, ub)
            t = 0.1
            for _ in range(30):
                if t <= 1e-12:
                    break
                ga = np.array([drop(rho, ua @ n, ub) - f for n in nudges]) / h
                gb = np.array([drop(rho, ua, ub @ n) - f for n in nudges]) / h
                while t > 1e-12:
                    va = ua @ exp_i(t * np.tensordot(ga, gens, 1))
                    vb = ub @ exp_i(t * np.tensordot(gb, gens, 1))
                    if drop(rho, va, vb) > f:
                        ua, ub, f, t = va, vb, seen[-1], 2 * t
                        break
                    t /= 4
            assert f > first
            if schmidt_start:
                assert top - f < 1e-6
        assert max(seen) <= top + 1e-10
        seen.clear()


def test_nrb_at_most_mutual_information():
    # data processing: N_rb <= I(rho) - I(Phi_v rho) <= I(rho)
    rng = np.random.default_rng(27)
    for k in range(12):
        rho = random_density(2, 2, rank=(k % 3) + 2, seed=rng)
        assert nrb_two_qubit(rho).value <= mutual_information(rho.matrix) + 1e-12


def test_classically_correlated_state_has_ln2():
    # separable, yet as realism-based nonlocal as the singlet
    rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    assert abs(nrb_two_qubit(rho).value - LN2) < 1e-9


def test_nrb_result_invariants():
    with pytest.raises(ValueError):
        NrbResult(-0.5, BlochVector(np.array([0.0, 0.0, 1.0])),
                  BlochVector(np.array([0.0, 0.0, 1.0])), 1.0)
    with pytest.raises(ValueError):
        NrbResult(0.5, BlochVector(np.array([0.0, 0.0, 1.0])),
                  BlochVector(np.array([0.0, 0.0, 1.0])), 1.5)
    with pytest.raises(ValueError):
        NrbResult(np.nan, BlochVector(np.array([0.0, 0.0, 1.0])),
                  BlochVector(np.array([0.0, 0.0, 1.0])), 1.0)


def test_result_argmax_has_no_negative_zero():
    # a -0.0 in an argmax would print as "-0.0" in rbnl state; LAPACK can
    # return one on either side (Werner's right singular vector has them)
    res = _result(0.5, np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, 1.0]))
    for argmax in (res.argmax_u, res.argmax_v):
        assert not np.signbit(argmax.components).any()


# the literal tolerances of SchmidtDecomposition and NrbResult, from both
# sides (see assert_tolerance in test_states.py)
def test_schmidt_coefficient_minimum_tolerance():  # xi.min() >= -1e-10
    eye = np.eye(2, dtype=complex)
    assert_tolerance(lambda off: SchmidtDecomposition(np.array([1.0 + off, -off]), eye, eye),
                     1e-10, "negative coefficient", signs=(1.0,))


def test_schmidt_coefficient_sum_tolerance():  # |sum xi - 1| <= 1e-10
    eye = np.eye(2, dtype=complex)
    assert_tolerance(lambda off: SchmidtDecomposition(np.array([0.5 + off, 0.5]), eye, eye),
                     1e-10, "coefficients sum to")


def test_schmidt_orthonormality_tolerance():  # max |U^H U - I| <= 1e-10, both bases
    # U = [[1, off], [0, 1]]: U^H U - I = [[0, off], [off, off^2]]
    eye, xi = np.eye(2, dtype=complex), np.array([0.5, 0.5])

    def skewed(off):
        return np.array([[1.0, off], [0.0, 1.0]], dtype=complex)

    assert_tolerance(lambda off: SchmidtDecomposition(xi, skewed(off), eye), 1e-10,
                     "basis not orthonormal")
    assert_tolerance(lambda off: SchmidtDecomposition(xi, eye, skewed(off)), 1e-10,
                     "basis not orthonormal")


def test_nrb_value_tolerance():  # value >= -1e-12
    z = BlochVector(np.array([0.0, 0.0, 1.0]))
    assert_tolerance(lambda off: NrbResult(-off, z, z, 1.0), 1e-12, "negative value",
                     signs=(1.0,))


def test_nrb_eta_tolerance():  # -1e-12 <= eta <= 1 + 1e-12
    z = BlochVector(np.array([0.0, 0.0, 1.0]))
    for edge, sign in ((0.0, -1.0), (1.0, 1.0)):
        assert_tolerance(lambda off: NrbResult(0.5, z, z, edge + off), 1e-12,
                         r"outside \[0, 1\]", signs=(sign,))


def test_closed_form_anchors():
    assert nrb_werner_closed_form(0.0) == 0.0
    assert abs(nrb_werner_closed_form(1.0) - LN2) < 1e-12
    assert abs(nrb_werner_closed_form(0.5) - 0.181939478770) < 1e-9
    with pytest.raises(ValueError):
        nrb_werner_closed_form(1.2)


def test_closed_form_matches_entropy_route():
    # independent evaluation from the dephased spectra
    def entropy(vals):
        vals = vals[vals > 1e-15]
        return float(-(vals * np.log(vals)).sum())

    for mu in np.linspace(0.05, 1.0, 20):
        rho_spec = np.r_[np.full(3, (1 - mu) / 4), (1 + 3 * mu) / 4]
        one = np.r_[np.full(2, (1 - mu) / 4), np.full(2, (1 + mu) / 4)]
        both = one  # eta = 1
        expected = 2 * entropy(one) - entropy(both) - entropy(rho_spec)
        assert abs(nrb_werner_closed_form(float(mu)) - expected) < 1e-12


def test_closed_form_monotone():
    mus = np.linspace(0.0, 1.0, 200)
    vals = [nrb_werner_closed_form(float(m)) for m in mus]
    assert np.all(np.diff(vals) > -1e-15)


def test_werner_dephased_spectra_match_numerics():
    rng = np.random.default_rng(23)
    for _ in range(10):
        mu = float(rng.random())
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        bu, bv = BlochVector(u), BlochVector(v)
        rho = werner(mu)
        ra = dephase(rho, LocalPVM(bloch_pvm(bu), "A"))
        rab = dephase(ra, LocalPVM(bloch_pvm(bv), "B"))
        fa, fb, fab = werner_dephased_spectra(mu, bu, bv)
        assert np.allclose(np.sort(np.linalg.eigvalsh(ra.matrix))[::-1], fa,
                           atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(rab.matrix))[::-1], fab,
                           atol=1e-12)
        assert np.array_equal(fa, fb)


def test_schmidt_decomposition_validation():
    with pytest.raises(ValueError):
        SchmidtDecomposition(np.array([0.5, 0.6]), np.eye(2, dtype=complex),
                             np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        SchmidtDecomposition(np.array([0.5, 0.5]),
                             np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
                             np.eye(2, dtype=complex))
    for xi in ([np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(ValueError):
            SchmidtDecomposition(np.array(xi), np.eye(2, dtype=complex),
                                 np.eye(2, dtype=complex))
    nan_basis = np.eye(2, dtype=complex)
    nan_basis[0, 1] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        SchmidtDecomposition(np.array([0.5, 0.5]), nan_basis,
                             np.eye(2, dtype=complex))
