"""The parity corpus, written by tests/data/make_golden.py.

tests/data/golden_nrb.json: nrb_two_qubit must give each state's recorded
result at both search configurations. The route (diagnostics None or not)
and every count of the diagnostics match exactly: they come from the routing
tests and the pinned search path. The floats match within GOLDEN_TOL, as
BLAS on another host may move their last bits, and each argmax up to its
sign, as u and -u are one observable.

tests/data/golden_cli.json: each recorded rbnl run, replayed through
rbnl.cli.main, gives the same exit code, stderr line count and files, and
the same stdout; a `state` report matches in its keys and method, and in its
floats as above. One run of each command, and the rejected state, is also
replayed cold, through `python -m rbnl` in a child process."""
import json

import numpy as np

from rbnl.nonlocality import nrb_two_qubit
from rbnl.states import save_state
from corpora import golden_cli, golden_corpus, run_cli

GOLDEN_TOL = 1e-12


def close(x, y, signed=True):
    """x and y are both None, or within GOLDEN_TOL (up to sign unless signed)."""
    if x is None or y is None:
        return x is y
    x, y = np.asarray(x), np.asarray(y)
    return min(np.abs(x - y).max(), np.inf if signed else np.abs(x + y).max()) <= GOLDEN_TOL


def moved_fields(res, want):
    """The fields of res that differ from the recorded result want."""
    moved = [name for name in ("value", "eta") if not close(getattr(res, name), want[name])]
    moved += [name for name in ("argmax_u", "argmax_v")
              if not close(getattr(res, name).components, want[name], signed=False)]
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


def moved_run_fields(got, want):
    """The fields of the run got that differ from the recorded run want."""
    moved = [name for name in ("code", "stderr_lines", "files") if got[name] != want[name]]
    if moved or want["argv"][0] != "state" or not want["stdout"]:
        return moved + (["stdout"] if got["stdout"] != want["stdout"] else [])
    rep, want_rep = json.loads(got["stdout"]), json.loads(want["stdout"])
    if list(rep) != list(want_rep):
        return moved + ["keys"]
    moved += ["method"] if rep["method"] != want_rep["method"] else []
    moved += [name for name in ("n_rb", "eta") if not close(rep[name], want_rep[name])]
    return moved + [name for name in ("argmax_u", "argmax_v")
                    if not close(rep[name], want_rep[name], signed=False)]


def replay(runs, cwd, cold=False):
    """Each recorded run of runs that moved, replayed by run_cli in cwd after
    every input state of the corpus is saved there, with its moved fields."""
    for name, rho in golden_cli()[0]:
        save_state(rho, cwd / f"{name}.json")
    moved = []
    for want in runs:
        fields = moved_run_fields(run_cli(want["argv"], cwd, cold), want)
        moved += [f"{' '.join(want['argv'])}: {', '.join(fields)}"] if fields else []
    return moved


def test_cli_matches_the_golden_corpus(tmp_path):
    runs = golden_cli()[1]
    moved = replay(runs, tmp_path)
    assert len(runs) == 36
    assert not moved, moved


# one run of each command, and the rejected state, through `python -m rbnl`
COLD = ("state pool-0.json", "state maximally-mixed-2x3.json",
        "vol --mu 0.9 --samples 200000 --seed 7 --method angles --workers 2",
        "sweep --steps 11 --samples 2000 --seed 5 --out sweep.csv",
        "decay --steps 11 --t-max 3 --out decay.csv")


def test_cold_runs_match_the_golden_corpus(tmp_path):
    # the entry point as a user starts it: its exit code, the real streams
    # and a fresh import of the package
    runs = [want for want in golden_cli()[1] if " ".join(want["argv"]) in COLD]
    moved = replay(runs, tmp_path, cold=True)
    assert len(runs) == len(COLD)
    assert not moved, moved
