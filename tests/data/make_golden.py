"""Regenerate the parity corpus that tests/test_golden.py reads, stored as
JSON values so that a failing check names the state or run that moved:
tests/data/golden_nrb.json, the value, argmaxes, eta and diagnostics of
nrb_two_qubit on each state at two search configurations, and
tests/data/golden_cli.json, the exit code, stdout, stderr line count and
written files of rbnl runs: `state` on named state files at two search
configurations, `vol` for both methods at 1 and 2 workers, a seeded `sweep`
with its Monte Carlo companion, and a `decay`.

Run from the repository root:

    python3 tests/data/make_golden.py

Each state is stored with its matrix, so the check needs no other file. The
states are the 120 pool states of bench/data/reference_states.json, which
is read and left unchanged, and a seeded set for the closed-form routes and
their edges: random pure states, Werner states, rotated Bell-diagonal
states, one near-product state, and two near-pure states, one inside
PURITY_CUTOFF and one outside it. Every input is a pure function of the
pool file and SEED (drawn with unit and haar_unitary of tests/corpora.py),
so rerunning reproduces the files unless the code changes what
nrb_two_qubit or the CLI returns. The `state` runs read CLI_STATES of those
states and two more stored as bits in golden_cli.json: a pure 3 x 3 state
and I/6 on dims (2, 3), which `state` rejects. Regenerating a file is a
change to a check: say which entries moved and why.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rbnl import (PAULIS, DensityMatrix, OptimizerConfig, nrb_two_qubit,  # noqa: E402
                  qutrit_family, random_pure, save_state, werner)
from corpora import GOLDEN_CLI, haar_unitary, run_cli, unit  # noqa: E402

SEED = 32
POOL = ROOT / "bench" / "data" / "reference_states.json"
OUT = Path(__file__).resolve().parent / "golden_nrb.json"
CONFIGS = {
    "default": OptimizerConfig(),
    "small": OptimizerConfig(theta_points=7, phi_points=9, restarts=3, refine_iterations=4),
}
# the pool holds 40 states each of rank 2, 3 and 4: two of each
CLI_STATES = ("pure-0", "werner-0.5", "werner-0.9", "bell-diagonal-0", "near-product",
              "near-pure-1e-12", "near-pure-1e-08", "pool-0", "pool-1", "pool-40", "pool-41",
              "pool-80", "pool-81")


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


def write_lines(path, head, key, items):
    """Write head with the list items under key, one item a line, so that a
    diff of the file names the items that moved."""
    lines = ",\n".join(json.dumps(x) for x in items)
    path.write_text(json.dumps(head)[:-1] + f', "{key}": [\n' + lines + "\n]}\n",
                    encoding="utf-8")
    print(f"wrote {len(items)} {key} to {path.relative_to(ROOT)}")


def cli_runs(named):
    """The stored inputs of golden_cli.json and its runs, each run made in
    process in a temporary directory that holds <name>.json of every input."""
    stored = {"qutrit-1": (qutrit_family(1.0).density().matrix, (3, 3)),
              "maximally-mixed-2x3": (np.eye(6) / 6, (2, 3))}
    states = {name: DensityMatrix(named[name], (2, 2)) for name in CLI_STATES}
    states |= {name: DensityMatrix(m, dims) for name, (m, dims) in stored.items()}
    argvs = [["state", f"{name}.json", *flags]
             for flags in ([], ["--grid", "5", "--restarts", "3"]) for name in states]
    argvs += [["vol", "--mu", "0.9", "--samples", "200000", "--seed", "7", "--method", method,
               "--workers", workers] for method in ("angles", "xyz") for workers in ("1", "2")]
    argvs += [["sweep", "--steps", "11", "--samples", "2000", "--seed", "5", "--out", "sweep.csv"],
              ["decay", "--steps", "11", "--t-max", "3", "--out", "decay.csv"]]
    with tempfile.TemporaryDirectory() as tmp:
        for name, rho in states.items():
            save_state(rho, Path(tmp, f"{name}.json"))
        runs = [run_cli(argv, tmp) for argv in argvs]
    stored = {name: {"dims": list(dims), "re": m.real.tolist(), "im": m.imag.tolist()}
              for name, (m, dims) in stored.items()}
    return {"states": list(states), "stored": stored}, runs


def main():
    named = [(f"pool-{k}", m) for k, m in enumerate(pool_matrices())] + seeded_matrices()
    states = []
    for name, m in named:
        rho = DensityMatrix(m, (2, 2))
        states.append({"name": name, "re": m.real.tolist(), "im": m.imag.tolist(),
                       "results": {label: record(rho, cfg) for label, cfg in CONFIGS.items()}})
    command = "python3 tests/data/make_golden.py"
    write_lines(OUT, {"command": command, "seed": SEED,
                      "configs": {k: dataclasses.asdict(c) for k, c in CONFIGS.items()}},
                "states", states)
    inputs, runs = cli_runs(dict(named))
    write_lines(GOLDEN_CLI, {"command": command, **inputs}, "runs", runs)


if __name__ == "__main__":
    main()
