"""Shared test helpers and the named corpora of states. A test file imports
any helper that a second file needs from here, never from another test file
(tests/test_package.py checks this). pytest does not collect this module.

Each fixed corpus is built once per test run and returned as a tuple, so
that no caller grows the cached one; a generator of states takes an rng.
A corpus that pins counts or bits reads stored matrices: random_density is
deterministic per seed only on one numpy build and SIMD path. So the pool
is read from tests/data/golden_nrb.json.
"""
import functools
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import rbnl
from rbnl.cli import main
from rbnl.linalg import EIG_CLIP, PSD_TOL, von_neumann_entropy
from rbnl.realism import LocalPVM, delta_irreality
from rbnl.search import OptimizerConfig
from rbnl.states import (PAULIS, PVM, BlochVector, DensityMatrix, PureState, bloch_pvm, fano_form,
                         qutrit_family, random_density, random_pure, singlet, werner)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_nrb.json"
GOLDEN_CLI = GOLDEN.with_name("golden_cli.json")
DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))  # the bipartite shapes of the any-dims checks


def unit(rng):
    x = rng.standard_normal(3)
    return x / np.linalg.norm(x)


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis_pvm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return PVM(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(d)))


def drop_route(rho, u, v):
    """The irreality drop at the directions u, v through 4x4 dephasings."""
    return delta_irreality(LocalPVM(bloch_pvm(BlochVector(u)), "A"),
                           LocalPVM(bloch_pvm(BlochVector(v)), "B"), rho)


def fano_matrix(r):
    """The two-qubit matrix sum_ij r_ij s_i (x) s_j / 4 of a 4x4 Fano table
    r (r_00 = 1, marginals in row and column 0, T below and right)."""
    basis = np.stack([np.eye(2), *PAULIS])  # s_0 = I, then x, y, z
    return np.einsum("ij,iab,jcd->acbd", r, basis, basis).reshape(4, 4) / 4


def oracle_entropy(vals) -> float:
    """The numpy formula that entropy_from_eigenvalues replaced, kept as its
    oracle: the same rules and messages, but no ln n clamp."""
    v = np.asarray(vals, dtype=float)
    lo = float(v.min()) if v.size else 0.0
    if not lo >= -PSD_TOL:  # NaN fails too
        raise ValueError(f"minimum eigenvalue {lo:.3e} is not >= -{PSD_TOL:.0e}: not a state")
    v = v[v > EIG_CLIP]
    s = float(-np.sum(v * np.log(v)))
    if s == -np.inf:
        raise ValueError("infinite eigenvalue: not a state")
    return s if s > 0.0 else 0.0


def assert_tolerance(build, tol, match, signs=(1.0, -1.0)):
    """One validation tolerance from both sides: build(off) accepts an input
    off by half of tol and rejects one off by twice tol with match."""
    for sign in signs:
        build(sign * tol / 2)
        with pytest.raises(ValueError, match=match):
            build(sign * 2 * tol)


def chsh_objective(t):
    """For fixed v1, v2 the best u's are analytic:
    max_u1,u2 B = |T(v1 + v2)| + |T(v1 - v2)|. An objective of refine:
    batched over the pairs x = (v1, v2) (m, 2, 3), with the gradient
    (m, 2, 3) and the 6 x 6 Hessian in the order of x.reshape(m, 6)."""

    def norm_derivatives(w):
        # d|T w|/dw = T^T y^ and d2|T w|/dw2 = T^T (I - y^ y^T) T / |y| for
        # y = T w; where |y| = 0 (a kink), 0 is a valid subgradient
        y = w @ t.T
        r = np.linalg.norm(y, axis=1)
        rc = np.maximum(r, EIG_CLIP)[:, None]
        ty = (y / rc) @ t
        hess = (t.T @ t - ty[:, :, None] * ty[:, None, :]) / rc[:, :, None]
        return r, ty, hess

    def objective(x):
        v1, v2 = x[:, 0], x[:, 1]
        rp, g_plus, h_plus = norm_derivatives(v1 + v2)
        rm, g_minus, h_minus = norm_derivatives(v1 - v2)
        same, cross = h_plus + h_minus, h_plus - h_minus
        hess = np.concatenate([np.concatenate([same, cross], axis=2),
                               np.concatenate([cross, same], axis=2)], axis=1)
        return rp + rm, np.stack([g_plus + g_minus, g_plus - g_minus], axis=1), hess

    return objective


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
    return np.log(2.0) - float((p * np.log(p)).sum()) - von_neumann_entropy(rho.matrix)


def product_state(d_a, d_b):
    """A non-canonical product state: both factors are random unit vectors."""
    rng = np.random.default_rng(d_a * 10 + d_b)
    a = random_pure(d_a, 1, seed=rng).vector
    b = random_pure(1, d_b, seed=rng).vector
    return PureState(np.kron(a, b), (d_a, d_b))


@functools.lru_cache(maxsize=1)
def degenerate_states():
    """Schmidt spectra with ties and zero slots: equal coefficients, a
    vanishing middle coefficient, and products in both unequal shapes."""
    return (singlet(), qutrit_family(1.0), qutrit_family(0.0),
            product_state(2, 3), product_state(3, 2))


@functools.lru_cache(maxsize=1)
def golden_corpus():
    """The parity corpus tests/data/golden_nrb.json, written by
    tests/data/make_golden.py: its search configurations by label, and per
    state (name, the stored state, its recorded results by label)."""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    configs = {label: OptimizerConfig(**kw) for label, kw in doc["configs"].items()}
    states = tuple((s["name"], DensityMatrix(np.array(s["re"]) + 1j * np.array(s["im"]), (2, 2)),
                    s["results"]) for s in doc["states"])
    return configs, states


@functools.lru_cache(maxsize=1)
def golden_cli():
    """The CLI half of the parity corpus, tests/data/golden_cli.json, written
    by tests/data/make_golden.py: the input states by name, each taken from
    golden_nrb.json or stored in golden_cli.json with its dims, and the
    recorded runs in the form of run_cli, whose state runs read <name>.json."""
    doc = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    stored = {name: DensityMatrix(np.array(s["re"]) + 1j * np.array(s["im"]), tuple(s["dims"]))
              for name, s in doc["stored"].items()}
    known = {name: rho for name, rho, _ in golden_corpus()[1]} | stored
    return tuple((name, known[name]) for name in doc["states"]), tuple(doc["runs"])


def child_env():
    """Environment for a child process that imports the same `rbnl` package
    as this test process, whether it came from an install or from `src/`."""
    env = dict(os.environ)
    pkg_root = str(Path(rbnl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, cwd, cold=False):
    """One rbnl run with cwd as the working directory, as one entry of
    golden_cli.json: the argv, exit code, stdout, the number of stderr lines
    and the texts of the files new in cwd, each manifest as its JSON value
    without the run-specific command and timestamp. The run is
    rbnl.cli.main(argv) in process, or with cold, `python -m rbnl *argv` in a
    child process (see child_env)."""
    before = set(os.listdir(cwd))
    if cold:
        proc = subprocess.run([sys.executable, "-m", "rbnl", *argv], cwd=cwd,
                              capture_output=True, text=True, env=child_env(), timeout=60)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        home, out, err = os.getcwd(), io.StringIO(), io.StringIO()
        os.chdir(cwd)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(home)
        out, err = out.getvalue(), err.getvalue()
    files = {}
    for name in sorted(set(os.listdir(cwd)) - before):
        text = Path(cwd, name).read_text(encoding="utf-8")
        if name.endswith(".manifest.json"):
            text = {k: v for k, v in json.loads(text).items() if k not in ("command", "timestamp")}
        files[name] = text
    return {"argv": list(argv), "code": code, "stdout": out,
            "stderr_lines": len(err.splitlines()), "files": files}


@functools.lru_cache(maxsize=1)
def pool_states():
    """The 120 states of the mixed-search pool (40 each of rank 2-4), read
    from the golden corpus's pool-0 to pool-119 entries."""
    return tuple(rho for name, rho, _ in golden_corpus()[1] if name.startswith("pool-"))


def symmetric_states(rng, count):
    """Bell-diagonal states with equal z-marginals, (I + m (sz (x) I + I (x)
    sz) + sum_i t_i s_i (x) s_i) / 4: their tables hold many exact ties."""
    states = []
    while len(states) < count:
        r = np.diag([1.0, *rng.uniform(-1.0, 1.0, 3)])
        r[3, 0] = r[0, 3] = rng.uniform(0.0, 0.5)
        m = fano_matrix(r)
        if np.linalg.eigvalsh(m)[0] > 0:
            states.append(DensityMatrix(m, (2, 2)))
    return states


def near_pure_mixture(rng, eps, rank):
    """(1 - eps)|psi><psi| + eps sigma, psi a random pure state and sigma a
    random state of the given rank."""
    m = (1 - eps) * random_pure(2, 2, seed=rng).density().matrix
    return DensityMatrix(m + eps * random_density(2, 2, rank=rank, seed=rng).matrix, (2, 2))


@functools.lru_cache(maxsize=1)
def screen_corpus():
    """The pool, 300 random states of rank 1-4, 12 near_pure_mixture states and
    30 symmetric_states."""
    rng = np.random.default_rng(470)
    states = [random_density(2, 2, rank=1 + i % 4, seed=rng) for i in range(300)]
    states += [near_pure_mixture(rng, eps, rank)
               for eps in (1e-9, 1e-6, 1e-3) for rank in (1, 2, 3, 4)]
    return (*pool_states(), *states, *symmetric_states(rng, 30))


@functools.lru_cache(maxsize=None)
def search_states(kind):
    """Ten random states of rank 1-4, or four Werner states."""
    if kind == "werner":
        return tuple(werner(mu) for mu in (0.1, 0.5, 0.9, 1.0))
    rng = np.random.default_rng(320 + kind)
    return tuple(random_density(2, 2, rank=kind, seed=rng) for _ in range(10))


def near_degenerate(rng):
    """A positive definite two-qubit state with T = diag(t, t +- gap, c),
    |t| in [0.1, 0.7], gap log-uniform in [1e-6, 1e-1], c in [-0.6, 0.6],
    and marginals of norm log-uniform in [1e-4, 1e-1], under Haar local
    unitaries: two nearly equal singular values of T leave a nearly flat
    ridge of maxima."""
    while True:
        t = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.7)
        gap = 10 ** rng.uniform(-6, -1)
        r = np.diag([1.0, t, t + rng.choice([-1.0, 1.0]) * gap, rng.uniform(-0.6, 0.6)])
        r[1:, 0] = 10 ** rng.uniform(-4, -1) * unit(rng)
        r[0, 1:] = 10 ** rng.uniform(-4, -1) * unit(rng)
        m = fano_matrix(r)
        if np.linalg.eigvalsh(m)[0] > 0:
            break
    lu = np.kron(haar_unitary(rng), haar_unitary(rng))
    m = lu @ m @ lu.conj().T
    return DensityMatrix((m + m.conj().T) / 2, (2, 2))
