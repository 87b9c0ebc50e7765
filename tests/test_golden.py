"""The parity corpus tests/data/golden_nrb.json, written by
tests/data/make_golden.py: nrb_two_qubit must give each state's recorded
result at both search configurations. The route (diagnostics None or not)
and every count of the diagnostics match exactly: they come from the routing
tests and the pinned search path. The floats match within GOLDEN_TOL, as
BLAS on another host may move their last bits, and each argmax up to its
sign, as u and -u are one observable."""
import numpy as np

from rbnl.nonlocality import nrb_two_qubit
from corpora import golden_corpus

GOLDEN_TOL = 1e-12


def moved_fields(res, want):
    """The fields of res that differ from the recorded result want."""
    moved = [name for name in ("value", "eta")
             if not abs(getattr(res, name) - want[name]) <= GOLDEN_TOL]
    for name in ("argmax_u", "argmax_v"):
        x, y = getattr(res, name).components, np.array(want[name])
        if not min(np.abs(x - y).max(), np.abs(x + y).max()) <= GOLDEN_TOL:
            moved.append(name)
    diag, want_diag = res.diagnostics, want["diagnostics"]
    if (diag is None) != (want_diag is None):
        return moved + ["route"]
    for name, value in (want_diag or {}).items():
        got = getattr(diag, name)
        if (got != value) if isinstance(value, int) else not abs(got - value) <= GOLDEN_TOL:
            moved.append(name)
    return moved


def test_nrb_two_qubit_matches_the_golden_corpus():
    configs, states = golden_corpus()
    moved = []
    for name, rho, results in states:
        for label, want in results.items():
            fields = moved_fields(nrb_two_qubit(rho, configs[label]), want)
            moved += [f"{name} {label}: {', '.join(fields)}"] if fields else []
    assert len(states) == 132
    assert not moved, moved
