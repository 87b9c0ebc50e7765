"""Regenerate tests/data/golden_nrb.json, the parity corpus of nrb_two_qubit:
the value, argmaxes, eta and diagnostics of each state at two search
configurations, stored as JSON values so that a failing check names the state
that moved (tests/test_golden.py reads it).

Run from the repository root:

    python3 tests/data/make_golden.py

Each state is stored with its matrix, so the check needs no other file. The
states are the 120 pool states of bench/data/reference_states.json, which
is read and left unchanged, and a seeded set for the closed-form routes and
their edges: random pure states, Werner states, rotated Bell-diagonal
states, one near-product state, and two near-pure states, one inside
PURITY_CUTOFF and one outside it. Every input is a pure function of the
pool file and SEED (drawn with unit and haar_unitary of tests/corpora.py),
so rerunning reproduces the file unless the code changes what
nrb_two_qubit returns. Regenerating it is a change to a check:
say which entries moved and why.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rbnl import (PAULIS, DensityMatrix, OptimizerConfig, nrb_two_qubit,  # noqa: E402
                  random_pure, werner)
from corpora import haar_unitary, unit  # noqa: E402

SEED = 32
POOL = ROOT / "bench" / "data" / "reference_states.json"
OUT = Path(__file__).resolve().parent / "golden_nrb.json"
CONFIGS = {
    "default": OptimizerConfig(),
    "small": OptimizerConfig(theta_points=7, phi_points=9, restarts=3, refine_iterations=4),
}


def pool_matrices():
    states = json.loads(POOL.read_text(encoding="utf-8"))["states"]
    return [np.array(s["re"]) + 1j * np.array(s["im"]) for s in states]


def bell_diagonal(c, rng):
    """(I + sum_i c_i s_i (x) s_i) / 4 under Haar local unitaries: zero
    marginals, so the closed form of maximally mixed marginals."""
    m = (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, PAULIS))) / 4
    lu = np.kron(haar_unitary(rng), haar_unitary(rng))
    return lu @ m @ lu.conj().T


def near_pure(one_minus_purity, rng):
    """(1 - eps)|psi><psi| + eps |phi><phi|, phi orthogonal to psi, whose
    1 - purity is 2 eps (1 - eps)."""
    eps = (1 - math.sqrt(1 - 2 * one_minus_purity)) / 2
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    psi, phi = np.linalg.qr(z)[0].T
    return (1 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj())


def seeded_matrices():
    """(name, matrix) of the states outside the pool."""
    rng = np.random.default_rng(SEED)
    out = [(f"pure-{k}", random_pure(2, 2, seed=rng).density().matrix) for k in range(4)]
    out += [(f"werner-{mu}", werner(mu).matrix) for mu in (0.3, 0.5, 0.9)]
    out += [(f"bell-diagonal-{k}", bell_diagonal(c, rng))
            for k, c in enumerate(((0.6, -0.4, 0.3), (-0.5, 0.2, 0.6)))]
    # a product of two mixed qubits with 1e-3 of a Bell state mixed in
    a, b = (np.eye(2) + sum(x * p for x, p in zip(0.6 * unit(rng), PAULIS)) for _ in range(2))
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    out.append(("near-product", (1 - 1e-3) * np.kron(a, b) / 4 + 1e-3 * bell))
    out += [(f"near-pure-{x:g}", near_pure(x, rng)) for x in (1e-12, 1e-8)]
    return out


def record(rho, cfg):
    res = nrb_two_qubit(rho, cfg)
    d = res.diagnostics
    return {
        "value": res.value,
        "argmax_u": res.argmax_u.components.tolist(),
        "argmax_v": res.argmax_v.components.tolist(),
        "eta": res.eta,
        "diagnostics": None if d is None else dataclasses.asdict(d),
    }


def main():
    named = [(f"pool-{k}", m) for k, m in enumerate(pool_matrices())] + seeded_matrices()
    states = []
    for name, m in named:
        rho = DensityMatrix(m, (2, 2))
        states.append({"name": name, "re": m.real.tolist(), "im": m.imag.tolist(),
                       "results": {label: record(rho, cfg) for label, cfg in CONFIGS.items()}})
    head = json.dumps({"command": "python3 tests/data/make_golden.py", "seed": SEED,
                       "configs": {k: dataclasses.asdict(c) for k, c in CONFIGS.items()}})
    # one state a line, so that a diff of the file names the states that moved
    lines = ",\n".join(json.dumps(s) for s in states)
    OUT.write_text(head[:-1] + ', "states": [\n' + lines + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(states)} states to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
