import math
import warnings

import numpy as np
import pytest

from rbnl.linalg import (check_hermitian, entropy_from_eigenvalues, partial_trace, tensor,
                         von_neumann_entropy)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_tensor_ordering():
    # first factor is the slow index: basis order |00>, |01>, |10>, |11>
    a = np.array([[1.0, 0.0], [0.0, 0.0]])  # |0><0|
    b = np.array([[0.0, 0.0], [0.0, 1.0]])  # |1><1|
    t = tensor(a, b)
    assert t.shape == (4, 4)
    assert t[1, 1] == 1.0 and np.count_nonzero(t) == 1


def test_tensor_variadic():
    rng = np.random.default_rng(0)
    x, y, z = (random_hermitian(rng, 2) for _ in range(3))
    lhs = tensor(x, y, z)
    rhs = np.kron(np.kron(x, y), z)
    assert np.allclose(lhs, rhs, atol=0.0)


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    for d_a, d_b in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        ra = random_state(rng, d_a)
        rb = random_state(rng, d_b)
        rho = tensor(ra, rb)
        assert np.allclose(partial_trace(rho, (d_a, d_b), "A"), ra, atol=1e-13)
        assert np.allclose(partial_trace(rho, (d_a, d_b), "B"), rb, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = random_state(rng, 6)
        for keep in ("A", "B"):
            red = partial_trace(rho, (2, 3), keep)
            assert abs(np.trace(red).real - 1.0) < 1e-12


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), "C")


@pytest.mark.parametrize("dims", [(2.9, 1), (2.0, 1), (True, 2), (2, False),
                                  (2, 1, 1), [1, 1, 2], (2,), 2, None])
def test_partial_trace_rejects_non_integer_dims(dims):
    for keep in ("A", "B"):
        with pytest.raises(ValueError, match="dims must be two integers"):
            partial_trace(np.eye(2) / 2, dims, keep)


def test_partial_trace_accepts_numpy_integer_dims():
    rho = np.eye(6) / 6
    red = partial_trace(rho, (np.int64(2), np.int32(3)), "B")
    assert np.allclose(red, np.eye(3) / 3, atol=1e-15)


def raises_one_line(fn, *args, match=None):
    """fn(*args) raises a one-line ValueError and emits no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match) as exc:
            fn(*args)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("fn", [von_neumann_entropy])
def test_non_finite_matrix_rejected(fn, bad):
    m = np.diag([bad, 1.0, 0.0, 0.0]).astype(complex)
    raises_one_line(fn, m, match="finite")
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = bad  # off the diagonal, where m - m^H would meet it
    raises_one_line(fn, m, match="finite")


def test_check_hermitian_takes_stacks():
    # one call checks every slice of a (k, d, d) stack against its own
    # conjugate transpose: a stack of distinct Hermitian matrices passes, and
    # one bad slice, wherever it sits, rejects the whole stack
    rng = np.random.default_rng(95)
    for d in (2, 3):
        stack = np.stack([random_hermitian(rng, d) for _ in range(3)])
        check_hermitian(stack, "slice")
        for j in range(3):
            bad = stack.copy()
            bad[j, 0, d - 1] += 1e-6
            with pytest.raises(ValueError, match="slice is not Hermitian"):
                check_hermitian(bad, "slice")
            bad = stack.copy()
            bad[j, d - 1, d - 1] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="slice entries must be finite"):
                    check_hermitian(bad, "slice")


def test_entropy_from_eigenvalues():
    assert entropy_from_eigenvalues(np.array([1.0, 0.0])) == 0.0
    d = 5
    assert abs(entropy_from_eigenvalues(np.full(d, 1 / d)) - np.log(d)) < 1e-14
    # tiny negatives from eigensolvers are tolerated, real ones are not
    assert entropy_from_eigenvalues(np.array([1.0, -1e-14])) == 0.0
    with pytest.raises(ValueError, match="not a state"):
        entropy_from_eigenvalues(np.array([1.1, -0.1]))
    # a zero entropy is +0.0, so that reports never print -0.0
    for vals in ([1.0, 0.0], [1.0], [], [1.0, -1e-14]):
        assert math.copysign(1.0, entropy_from_eigenvalues(np.array(vals))) == 1.0
    for vals in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [-np.inf, 1.0],
                 [0.5, 0.5, np.nan]):
        raises_one_line(entropy_from_eigenvalues, np.array(vals), match="not a state")


def test_von_neumann_entropy_matches_eigenvalue_route():
    rng = np.random.default_rng(4)
    for _ in range(25):
        rho = random_state(rng, 4)
        vals = np.linalg.eigvalsh(rho)
        s1 = von_neumann_entropy(rho)
        s2 = entropy_from_eigenvalues(vals)
        assert abs(s1 - s2) < 1e-12


def test_von_neumann_entropy_bounds():
    d = 4
    assert von_neumann_entropy(np.eye(d, dtype=complex) / d) <= np.log(d)
    psi = np.zeros((d, 1), dtype=complex)
    psi[0, 0] = 1.0
    assert von_neumann_entropy(psi @ psi.conj().T) == 0.0
    assert math.copysign(1.0, von_neumann_entropy(psi @ psi.conj().T)) == 1.0
