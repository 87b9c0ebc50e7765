"""Regenerate bench/data/reference_states.json, the pool of random mixed
two-qubit states that the mixed-search workload draws from, with reference
N_rb values from a stronger search than the default configuration.

Run from the repository root:

    python3 bench/make_references.py

The pool is a pure function of POOL_SEED, so rerunning reproduces the file
unless the search code changes what it finds.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rbnl import DensityMatrix, OptimizerConfig, nrb_two_qubit  # noqa: E402

POOL_SEED = 20171
PER_RANK = 40
RANKS = (2, 3, 4)
STRONG = OptimizerConfig(theta_points=16, phi_points=32, refine_iterations=2000, restarts=16)
OUT = Path(__file__).resolve().parent / "data" / "reference_states.json"


def random_mixed(rng, rank):
    w = rng.random(rank)
    w /= w.sum()
    m = np.zeros((4, 4), dtype=complex)
    for k in range(rank):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        m += w[k] * np.outer(v, v.conj())
    return (m + m.conj().T) / 2


def main():
    rng = np.random.default_rng(POOL_SEED)
    states = []
    t0 = time.perf_counter()
    for rank in RANKS:
        for _ in range(PER_RANK):
            m = random_mixed(rng, rank)
            ref = nrb_two_qubit(DensityMatrix(m, (2, 2)), STRONG).value
            states.append({"rank": rank, "re": m.real.tolist(), "im": m.imag.tolist(),
                           "n_rb": ref})
    doc = {
        "command": "python3 bench/make_references.py",
        "pool_seed": POOL_SEED,
        "config": {"theta_points": STRONG.theta_points, "phi_points": STRONG.phi_points,
                   "refine_iterations": STRONG.refine_iterations,
                   "restarts": STRONG.restarts},
        "states": states,
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(states)} states to {OUT.relative_to(ROOT)} "
          f"in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
