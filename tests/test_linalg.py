import math
import re
import warnings

import numpy as np
import pytest

from rbnl.linalg import (EIG_CLIP, PSD_TOL, check_hermitian, entropy_from_eigenvalues,
                         partial_trace, von_neumann_entropy)
from corpora import oracle_entropy


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_tensor_ordering():
    # np.kron's first factor is the slow index: the basis order |00>, |01>,
    # |10>, |11> that states.py fixes
    a = np.array([[1.0, 0.0], [0.0, 0.0]])  # |0><0|
    b = np.array([[0.0, 0.0], [0.0, 1.0]])  # |1><1|
    t = np.kron(a, b)
    assert t.shape == (4, 4)
    assert t[1, 1] == 1.0 and np.count_nonzero(t) == 1


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    for d_a, d_b in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        ra = random_state(rng, d_a)
        rb = random_state(rng, d_b)
        rho = np.kron(ra, rb)
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


def test_partial_trace_rejects_a_shape_other_than_dims():
    with pytest.raises(ValueError, match=r"shape \(4, 4\) inconsistent with dims \(2, 3\)"):
        partial_trace(np.eye(4) / 4, (2, 3), "A")


@pytest.mark.parametrize("dims", [(2.9, 1), (2.0, 1), (True, 2), (2, False),
                                  (2, 1, 1), [1, 1, 2], (2,), 2, None,
                                  (0, 0), (0, 2), (-1, -1)])
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
    # a zero entropy is +0.0, so that reports never print -0.0; a single
    # value, whatever it is, is clamped to ln 1 = +0.0
    for vals in ([1.0, 0.0], [1.0], [], [1.0, -1e-14], [0.0, -0.0], [0.5], [EIG_CLIP]):
        assert math.copysign(1.0, entropy_from_eigenvalues(np.array(vals))) == 1.0
        assert entropy_from_eigenvalues(vals) == 0.0
    # the clamp: n values never give more than ln n, also where the sum
    # does, as it does for some n here
    clamped = 0
    for n in range(2, 10):
        vals = np.full(n, 1 / n)
        vals[0] += 4e-16
        s = entropy_from_eigenvalues(vals)
        assert s == min(oracle_entropy(vals), math.log(n))
        clamped += oracle_entropy(vals) > s
    assert clamped
    bad = [[np.inf, 0.5, 0.5], [-np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf], [1.1, -0.1],
           [np.inf, np.inf], [0.5, -2 * PSD_TOL, 0.5], [-np.inf, np.nan, np.inf]]
    # NaN at every position: Python's min, unlike numpy's, misses a NaN that is not first
    for n in (1, 2, 4, 9):
        for k in range(n):
            vals = [1.0 / n] * n
            vals[k] = np.nan
            bad.append(vals)
            if n > 1:  # with a real negative elsewhere, the minimum is still NaN
                bad.append([-1.0 if j == (k + 1) % n else x for j, x in enumerate(vals)])
    for vals in bad:
        with pytest.raises(ValueError) as expected:
            oracle_entropy(vals)
        raises_one_line(entropy_from_eigenvalues, np.array(vals),
                        match=f"^{re.escape(str(expected.value))}$")


def test_entropy_from_eigenvalues_matches_numpy_oracle():
    # random spectra of 1-16 values with exact zeros, values at and around
    # +-EIG_CLIP and tiny negatives, against the numpy formula with the clamp
    rng = np.random.default_rng(18)
    specials = (0.0, -0.0, EIG_CLIP, -EIG_CLIP, np.nextafter(EIG_CLIP, 1.0),
                np.nextafter(EIG_CLIP, 0.0), -1e-14, -PSD_TOL, 1e-300)
    for _ in range(2000):
        n = int(rng.integers(1, 17))
        vals = rng.random(n) ** rng.integers(1, 8)
        vals[rng.random(n) < 0.3] = rng.choice(specials)
        vals /= max(vals.sum(), 1.0)
        for spectrum in (vals, vals.tolist(), np.sort(vals)):
            got = entropy_from_eigenvalues(spectrum)
            assert type(got) is float
            assert abs(got - min(oracle_entropy(vals), math.log(n))) < 4e-15, vals


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
