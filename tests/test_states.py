import json
import math
import warnings

import numpy as np
import pytest

from rbnl.linalg import entropy_from_eigenvalues, partial_trace, von_neumann_entropy
from rbnl.states import (PAULIS, BlochVector, DensityMatrix, PureState, PVM,
                         bloch_pvm, load_state, qutrit_family, random_density,
                         random_pure, save_state, singlet, state_from_json,
                         state_to_json, werner)
from test_linalg import oracle_entropy


def test_density_matrix_validation():
    good = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert good.dim == 4
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(4) / 2, (2, 2))
    with pytest.raises(ValueError, match="not Hermitian"):
        m = np.eye(4) / 4
        m = m + 0.0j
        m[0, 1] = 0.3
        DensityMatrix(m, (2, 2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(np.diag([0.75, 0.75, -0.25, -0.25]), (2, 2))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2, 3))  # dims do not match the shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.25, np.nan)])
def test_density_matrix_rejects_non_finite(bad):
    m = np.eye(4, dtype=complex) / 4
    m[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(m, (2, 2))


def test_density_matrix_rejects_huge_entries_without_warning():
    # finite entries near 1e308 overflow m - m^H or the trace; the overflow
    # fails the check it happens in and raises no numpy warning
    # (warnings are errors here)
    m = np.eye(4, dtype=complex) / 4
    m[3, 3] = -1e308j
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(m, (2, 2))
    with pytest.raises(ValueError, match="trace is (inf|nan)"):
        DensityMatrix(np.diag([1e308, 1e308, -1e308, -1e308]), (2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite(bad):
    v = np.array([bad, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        PureState(v, (2, 2))


@pytest.mark.parametrize("dims", [(1.7, 1), (1, 1.0), (True, 1), (1, False),
                                  (1,), (1, 1, 1), 1, None, "11", (0, 0), (0, 2), (-1, -1)])
def test_dims_must_be_two_integers(dims):
    with pytest.raises(ValueError, match="dims must be two integers"):
        DensityMatrix(np.eye(1), dims)
    with pytest.raises(ValueError, match="dims must be two integers"):
        PureState(np.ones(1), dims)


def test_dims_accept_numpy_integers():
    dims = (np.int64(2), np.int32(1))
    for state in (DensityMatrix(np.eye(2) / 2, dims), PureState(np.array([1.0, 0.0]), dims)):
        assert state.dims == (2, 1) and all(type(d) is int for d in state.dims)


def test_density_matrix_is_immutable():
    rho = werner(0.3)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_kept_spectrum_is_read_only_and_is_eigvalsh():
    rho = random_density(2, 3, rank=4, seed=3)
    assert np.linalg.eigvalsh(rho.matrix).tobytes() == rho.eigenvalues.tobytes()
    with pytest.raises(ValueError):
        rho.eigenvalues[0] = 0.5
    with pytest.raises(AttributeError):
        rho.eigenvalues = np.zeros(6)
    assert "eigenvalues" not in repr(rho)


@pytest.mark.parametrize("dims", DIMS)
def test_entropy_equals_von_neumann_entropy_bit_for_bit(dims):
    n = dims[0] * dims[1]
    states = [random_pure(*dims, seed=n).density(), DensityMatrix(np.eye(n) / n, dims)]
    states += [random_density(*dims, rank=r, seed=10 * n + r) for r in range(1, n + 1)]
    # maximally mixed up to rounding: the unclamped spectral entropy of some
    # of these exceeds ln dim by an ulp, so they exercise the clamp
    rng = np.random.default_rng(n)
    noisy = [np.eye(n) / n + 1e-15 * random_density(*dims, rank=n, seed=rng).matrix
             for _ in range(40)]
    states += [DensityMatrix(m / np.trace(m), dims) for m in noisy]
    for rho in states:
        assert np.linalg.eigvalsh(rho.matrix).tobytes() == rho.eigenvalues.tobytes()
        assert rho.entropy() == von_neumann_entropy(rho.matrix)
        assert rho.entropy() <= np.log(n)
    assert abs(states[0].entropy()) < 1e-12
    assert any(oracle_entropy(rho.eigenvalues) > np.log(n) for rho in states)


def test_purity():
    assert abs(werner(0.0).purity() - 0.25) < 1e-14
    assert abs(singlet().density().purity() - 1.0) < 1e-14


def test_pure_state_norm_check():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2))


def test_pure_state_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="inconsistent with vector length 3"):
        PureState(np.ones(3) / np.sqrt(3), (2, 2))


def test_pure_state_density():
    psi = singlet()
    rho = psi.density()
    assert abs(rho.purity() - 1.0) < 1e-14
    # singlet marginals are maximally mixed
    for keep in ("A", "B"):
        red = partial_trace(rho.matrix, (2, 2), keep)
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_pvm_validation():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    PVM((p0, p1))
    with pytest.raises(ValueError, match="orthogonal"):
        PVM((p0, p0))
    with pytest.raises(ValueError, match="identity"):
        PVM((p0,))
    with pytest.raises(ValueError, match="idempotent"):
        PVM((np.full((2, 2), 0.5) * 1.3, np.eye(2) - np.full((2, 2), 0.5) * 1.3))
    for bad in (np.nan, np.inf):
        p_bad = p1.copy()
        p_bad[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            with pytest.raises(ValueError, match="finite"):
                PVM((p0, p_bad))


def valid_pvms():
    # k = 1-3 projectors in d = 2 and 3: {I}, a pair of rank-1 projectors,
    # a rank-2 projector with its rank-1 complement, three rank-1 projectors
    rng = np.random.default_rng(117)
    out = []
    for d in (2, 3):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        rays = [np.outer(q[:, j], q[:, j].conj()) for j in range(d)]
        out.append((np.eye(d, dtype=complex),))
        out.append((rays[0], sum(rays[1:])))  # rank d - 1 in the second slot
        if d == 3:
            out.append(tuple(rays))
    return out


PVMS = valid_pvms()


def raises_quietly(match, *args, **kw):
    # the rejection must come with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            PVM(*args, **kw)


@pytest.mark.parametrize("projs", PVMS, ids=lambda p: f"d{len(p[0])}k{len(p)}")
def test_pvm_rejects_each_invariant(projs):
    k, d = len(projs), len(projs[0])
    good = PVM(projs)
    assert good.projectors.shape == (k, d, d) and good.dim == d
    raises_quietly("at least one projector", ())
    raises_quietly("shapes disagree", (*projs, np.eye(d + 1)))
    raises_quietly("shapes disagree", tuple(p[:, :-1] for p in projs))
    raises_quietly("shapes disagree", tuple(p[0] for p in projs))
    for j in range(k):
        def swap(new, j=j):
            return projs[:j] + (new,) + projs[j + 1:]

        for bad in (np.nan, np.inf, -np.inf):
            p = projs[j].copy()
            p[d - 1, 0] = bad
            raises_quietly("projector entries must be finite", swap(p))
        p = projs[j].copy()
        p[0, d - 1] += 1e-6
        raises_quietly("projector is not Hermitian", swap(p))
        raises_quietly("projector not idempotent", swap(1.3 * projs[j]))
        if k > 1:
            raises_quietly("projectors not pairwise orthogonal",
                           swap(projs[(j + 1) % k]))
            raises_quietly("do not sum to the identity", projs[:j] + projs[j + 1:])
    if k == 1:  # a lone rank-1 projector is a valid projector, not the identity
        ray = np.zeros((d, d), dtype=complex)
        ray[0, 0] = 1.0
        raises_quietly("do not sum to the identity", (ray,))


@pytest.mark.parametrize("projs", PVMS, ids=lambda p: f"d{len(p[0])}k{len(p)}")
def test_pvm_projectors_are_read_only_views_of_one_copy(projs):
    src = [p.copy() for p in projs]
    m = PVM(tuple(src))
    assert isinstance(m.projectors, np.ndarray) and len(m.projectors) == len(projs)
    assert not m.projectors.flags.writeable
    for j, p in enumerate(m.projectors):
        assert not p.flags.writeable and p.base is m.projectors
        with pytest.raises(ValueError):
            p[0, 0] = 0.5
        assert np.array_equal(p, projs[j])
    src[0][0, 0] = 7.0  # the caller's arrays are copied, not kept
    assert m.projectors[0, 0, 0] == projs[0][0, 0]
    # a (k, d, d) array is accepted as the sequence of its slices
    assert np.array_equal(PVM(np.stack(projs)).projectors, m.projectors)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pvm_superoperator(d):
    # the matrix of the dephasing, sum_k P_k (x) P_k^T, built once and read-only,
    # for a full basis and, for d >= 2, a coarse PVM (the first two rays merged)
    rng = np.random.default_rng(40 + d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rays = [np.outer(q[:, j], q[:, j].conj()) for j in range(d)]
    for projs in [rays] + ([[rays[0] + rays[1], *rays[2:]]] if d > 1 else []):
        m = PVM(tuple(projs))
        s = m.superoperator
        assert s.shape == (d * d, d * d) and not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = 0.5
        expected = sum(np.kron(p, p.T) for p in m.projectors)
        assert np.max(np.abs(s - expected)) <= 1e-15
        assert "superoperator" not in repr(m)


def test_bloch_vector():
    with pytest.raises(ValueError):
        BlochVector(np.array([1.0, 1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="norm"):
            BlochVector(np.array([0.0, bad, 1.0]))
    u = BlochVector(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(u.dot_sigma(), PAULIS[2], atol=0.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        op = BlochVector(n).dot_sigma()
        ev = np.sort(np.linalg.eigvalsh(op))
        assert np.allclose(ev, [-1.0, 1.0], atol=1e-12)


def test_bloch_vector_rejects_four_components():
    # a unit vector, so only the shape check can reject it
    with pytest.raises(ValueError, match="exactly 3 components"):
        BlochVector(np.array([0.0, 0.0, 0.0, 1.0]))


# Each validation tolerance, from both sides: an input off by twice the
# tolerance is rejected with its message, and one off by half of it is
# accepted. The tolerances are written out, not imported, so that a test
# fails when one of them moves.
def assert_tolerance(build, tol, match, signs=(1.0, -1.0)):
    for sign in signs:
        build(sign * tol / 2)
        with pytest.raises(ValueError, match=match):
            build(sign * 2 * tol)


def test_trace_tolerance():  # TRACE_TOL
    assert_tolerance(lambda off: DensityMatrix(np.diag([0.25 + off, 0.25, 0.25, 0.25]), (2, 2)),
                     1e-10, "trace is")


def test_pure_state_norm_tolerance():  # NORM_TOL
    assert_tolerance(lambda off: PureState(np.array([1.0 + off, 0.0, 0.0, 0.0]), (2, 2)),
                     1e-10, "norm is")


def test_bloch_norm_tolerance():  # BLOCH_TOL
    assert_tolerance(lambda off: BlochVector(np.array([0.0, 0.0, 1.0 + off])), 1e-12, "norm is")


def test_psd_tolerance():  # PSD_TOL, in DensityMatrix and in the entropy of a spectrum
    # one eigenvalue -off, the trace kept at 1
    assert_tolerance(lambda off: DensityMatrix(np.diag([0.5 + off, 0.5, 0.0, -off]), (2, 2)),
                     1e-10, "positive semidefinite", signs=(1.0,))
    assert_tolerance(lambda off: entropy_from_eigenvalues([1.0 + off, -off]), 1e-10,
                     "not a state", signs=(1.0,))


def test_herm_tolerance():  # HERM_TOL, in every check that reads it
    # one entry above the diagonal off by `off`, so max |m - m^H| = |off|
    def skewed(off):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = off
        return m

    assert_tolerance(lambda off: DensityMatrix(skewed(off), (2, 2)), 1e-10, "not Hermitian")
    assert_tolerance(lambda off: von_neumann_entropy(skewed(off)), 1e-10, "not Hermitian")
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    assert_tolerance(lambda off: PVM((p0 + off * np.triu(np.ones((2, 2)), 1), p1)), 1e-10,
                     "projector is not Hermitian")
    # P_0 scaled by 1 + off: P_0^2 - P_0 and the sum's residual are both off
    # to first order, and the idempotence check comes first
    assert_tolerance(lambda off: PVM(((1 + off) * p0, p1)), 1e-10, "not idempotent")
    # P_1 = |v><v| with v = (off, 1) normalized: P_0 P_1 and the sum's
    # residual are off to first order, both projectors idempotent to second
    def tilted(off):
        v = np.array([off, 1.0]) / math.hypot(off, 1.0)
        return PVM((p0, np.outer(v, v).astype(complex)))

    assert_tolerance(tilted, 1e-10, "not pairwise orthogonal")
    # To first order the residual of the sum to the identity is made of the
    # blocks that the idempotence and orthogonality residuals hold, so no
    # input near HERM_TOL fails the sum check alone; the inputs off by half
    # of it above pass that check too, so it cannot be tightened unseen.


def test_bloch_pvm_projects():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        u = BlochVector(n)
        m = bloch_pvm(u)
        plus, minus = m.projectors
        assert np.allclose(plus, (np.eye(2) + u.dot_sigma()) / 2, atol=1e-14)
        assert np.allclose(plus + minus, np.eye(2), atol=1e-14)
        assert abs(np.trace(plus).real - 1.0) < 1e-13  # rank one


def test_werner_spectrum():
    rng = np.random.default_rng(7)
    for mu in rng.random(20):
        rho = werner(float(mu))
        ev = np.sort(np.linalg.eigvalsh(rho.matrix))
        expected = np.sort(np.r_[np.full(3, (1 - mu) / 4), (1 + 3 * mu) / 4])
        assert np.allclose(ev, expected, atol=1e-13)
    assert np.allclose(werner(0.0).matrix, np.eye(4) / 4, atol=0.0)
    with pytest.raises(ValueError):
        werner(1.5)
    with pytest.raises(ValueError):
        werner(-0.1)


def test_qutrit_family():
    psi = qutrit_family(1.0)
    assert psi.dims == (3, 3)
    red = partial_trace(psi.density().matrix, (3, 3), "A")
    assert np.allclose(red, np.eye(3) / 3, atol=1e-14)
    # vanishing middle weight is allowed
    psi0 = qutrit_family(0.0)
    assert abs(np.linalg.norm(psi0.vector) - 1.0) < 1e-14
    for gamma in (-0.5, np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma"):
                qutrit_family(gamma)


def test_qutrit_family_entropy_closed_form():
    # weights {4/9, 1/9, 4/9} give S = 2 ln 3 - (16/9) ln 2
    red = partial_trace(qutrit_family(0.5).density().matrix, (3, 3), "A")
    s = von_neumann_entropy(red)
    assert abs(s - (2 * np.log(3) - 16 / 9 * np.log(2))) < 1e-12


def test_random_generators_are_seeded():
    a = random_pure(2, 3, seed=42)
    b = random_pure(2, 3, seed=42)
    assert np.array_equal(a.vector, b.vector)
    c = random_density(2, 2, rank=3, seed=42)
    d = random_density(2, 2, rank=3, seed=42)
    assert np.array_equal(c.matrix, d.matrix)
    assert not np.array_equal(c.matrix, random_density(2, 2, rank=3, seed=43).matrix)


def test_random_density_rank():
    rho = random_density(2, 2, rank=2, seed=0)
    ev = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert np.all(ev[:2] < 1e-12)
    for rank, error in ((0, ValueError), (5, ValueError), (True, TypeError),
                        (2.0, TypeError), (np.array(2), TypeError)):
        with pytest.raises(error, match="rank must be"):
            random_density(2, 2, rank=rank, seed=0)
    assert np.array_equal(random_density(2, 2, rank=np.int64(4), seed=0).matrix,
                          random_density(2, 2, rank=4, seed=0).matrix)
    for d_a, d_b in ((0, 2), (-1, 2), (2.0, 2)):  # checked before any draw
        with pytest.raises(ValueError, match="dims must be two integers"):
            random_pure(d_a, d_b, seed=0)
        with pytest.raises(ValueError, match="dims must be two integers"):
            random_density(d_a, d_b, rank=1, seed=0)


def test_json_round_trip():
    rho = werner(0.37)
    doc = state_to_json(rho)
    back = state_from_json(doc)
    assert back.dims == rho.dims
    assert np.array_equal(back.matrix, rho.matrix)
    parsed = json.loads(doc)
    assert parsed["dims"] == [2, 2]
    assert {"re", "im"} == set(parsed["matrix"][0][0])


def test_json_malformed_documents():
    for doc in ('{"dims": [2, 2]}',
                '{"dims": [2], "matrix": []}',
                '{"dims": [2, 2], "matrix": [[1, 2], [3, 4]]}',
                '{"dims": 5, "matrix": []}',
                '{"dims": null, "matrix": []}',
                '{"dims": "22", "matrix": []}',
                '{"dims": [2, 2, 1], "matrix": []}',
                '{"dims": [1.7, 1], "matrix": [[{"re": 1, "im": 0}]]}',
                '{"dims": [true, 1], "matrix": [[{"re": 1, "im": 0}]]}',
                '{"dims": [2, 1], "matrix": [[{"re": 1, "im": 0}],'
                ' [{"re": 0, "im": 0}, {"re": 0, "im": 0}]]}'):  # ragged rows
        with pytest.raises(ValueError, match="malformed state document"):
            state_from_json(doc)


def test_save_load_file(tmp_path):
    path = tmp_path / "state.json"
    rho = random_density(2, 2, rank=4, seed=9)
    save_state(rho, path)
    back = load_state(path)
    assert np.allclose(back.matrix, rho.matrix, atol=0.0)
    assert back.dims == rho.dims
