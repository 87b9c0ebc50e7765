"""Seeded boundary fuzz of rbnl.cli.main, run in process with the standard
library only: mutated state documents, and mutated flag values for all four
subcommands. Every case must end in exit 0, 1 or 2 (an argparse usage error,
SystemExit(2), counts as 2) with no exception escaping. When main itself
returns nonzero, stderr holds exactly one line; when it returns 0, the stdout
of `state` and `vol` is strict JSON (no NaN or Infinity); and no *.tmp file is
ever left behind. A document with a cell value true or false is never answered,
and every count check of the flags rejects at least one flag set.
Sizes stay small: nesting depth at most MAX_DEPTH, a few Monte Carlo samples
(larger counts only past the cap, which is checked before any draw), a few CSV
rows. The work behind each cap refuses a count over it (see guard_caps), so a
broken cap fails the flag fuzz at once instead of running it.
"""
import json
import math
import random

import pytest

import rbnl.bell
import rbnl.cli
import rbnl.nonlocality
from rbnl.cli import MAX_GRID, MAX_RESTARTS, MAX_SAMPLES, MAX_STEPS, main

SEED = 2015
MAX_DEPTH = 10**4
DEEP = '"\\u0000deep\\u0000"'  # json.dumps of a placeholder that becomes deep nesting
HUGE = '"\\u0000huge\\u0000"'  # and one that becomes an integer of 5,001 digits


def _doc(dims, rows):
    return {"dims": list(dims),
            "matrix": [[{"re": float(x), "im": 0.0} for x in row] for row in rows]}


def _diag(*xs):
    return [[x if i == j else 0.0 for j in range(len(xs))] for i, x in enumerate(xs)]


BELL = [[0.5 if i in (0, 3) and j in (0, 3) else 0.0 for j in range(4)] for i in range(4)]
# each route: searched, zero-marginal, pure two-qubit, pure (2, 3), mixed
# (2, 3), the 1 x 1 state
BASES = (_doc((2, 2), _diag(0.4, 0.3, 0.2, 0.1)), _doc((2, 2), _diag(0.25, 0.25, 0.25, 0.25)),
         _doc((2, 2), BELL), _doc((2, 3), _diag(1, 0, 0, 0, 0, 0)),
         _doc((2, 3), _diag(*[1 / 6] * 6)), _doc((1, 1), [[1.0]]))
SCALARS = (True, False, None, "1", "", [], {}, 10**400, -10**401, "\0huge\0", 2**63, 1e308,
           -1e308, 5e-324, math.nan, math.inf, -math.inf, 0, -0.0, 1, 0.5)
DIMS = ([2, 2], [4, 1], [1, 4], [2], [2, 2, 2], [0, 4], [-2, -2], [2.0, 2.0], ["2", "2"],
        [True, 4], [3, 3], [10**400, 1], [], None, "2x2")


def _nodes(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _cells(doc):
    """Paths of the "re" and "im" values of a document whose matrix is intact."""
    return [p for p in _nodes(doc) if p[-1:] in (("re",), ("im",)) and p[0] == "matrix"]


def _mutate_tree(rng, doc):
    """One structural mutation of a parsed document, in place where it can be."""
    nodes = list(_nodes(doc))
    kind = rng.randrange(6)
    if kind == 0:  # type swap, huge integer, NaN or infinity anywhere
        return _replace(doc, rng.choice(nodes), rng.choice(SCALARS))
    if kind == 1 and _cells(doc):  # the same in one cell
        return _replace(doc, rng.choice(_cells(doc)), rng.choice(SCALARS))
    if kind == 2:  # ragged: drop or repeat a row or a cell
        seq = _get(doc, rng.choice(nodes))
        if isinstance(seq, list) and seq:
            j = rng.randrange(len(seq))
            seq.insert(j, seq[j]) if rng.random() < 0.5 else seq.pop(j)
        return doc
    if kind == 3:  # empty or deep nesting; DEEP is expanded in the text
        return _replace(doc, rng.choice(nodes), rng.choice(([], [[]], [[[]]], {}, "\0deep\0")))
    if kind == 4 and isinstance(doc, dict):
        doc["dims"] = rng.choice(DIMS)
        return doc
    path = rng.choice(nodes)
    if path and isinstance(_get(doc, path[:-1]), dict):
        del _get(doc, path[:-1])[path[-1]]  # a missing key
    return doc


def _mutate_bytes(rng, raw):
    j = rng.randrange(len(raw) + 1)
    if rng.random() < 0.5:
        return raw[:j]  # truncated
    return raw[:j] + rng.choice((b"\xff", b"\x80", b"\xc3", b"\x00", b"{", b"]")) + raw[j + 1:]


def fuzzed_document(rng):
    """(bytes, boolean): the boolean is True when a cell value 0 or 1 was
    swapped for false or true, which must not be read as a number."""
    doc = json.loads(json.dumps(rng.choice(BASES)))
    for _ in range(rng.choice((1, 1, 2, 3))):
        doc = _mutate_tree(rng, doc)
    flips = [p for p in _cells(doc) if isinstance(doc, dict) and _get(doc, p) in (0, 1)
             and type(_get(doc, p)) in (int, float)] if rng.random() < 0.2 else []
    if flips:
        path = rng.choice(flips)
        _replace(doc, path, bool(_get(doc, path)))
    depth = rng.choice((2, 100, 1000, MAX_DEPTH))
    raw = json.dumps(doc).replace(DEEP, "[" * depth + "]" * depth).replace(HUGE, "9" * 5001)
    raw = raw.encode()
    if rng.random() < 0.2:
        raw = _mutate_bytes(rng, raw)
    return raw, bool(flips)


FLOATS = ("0", "0.5", "0.9", "1", "-0.1", "1.5", "nan", "inf", "-inf", "1e400", "5e-324",
          "1e308", "x", "")
INTS = ("0", "1", "2", "3", "-1", "x", "", "1.5", "nan", "9" * 40)
# sample counts: small ones, and ones past MAX_SAMPLES, rejected before any draw
SAMPLES = ("0", "1", "2", "-1", "x", "", "1000000001", "9" * 16)
# and one at MAX_SAMPLES: with any valid --steps (>= 2) a sweep's
# steps x samples is over the budget, also rejected before any draw. It comes
# with a valid mu range, which is checked first
SWEEP_SAMPLES = (*SAMPLES, {"--samples": "1000000000", "--mu-start": "0", "--mu-end": "0.5"})
# a sweep's --steps past MAX_STEPS, with the seed and the mu range that are
# checked before it valid
SWEEP_STEPS = (*INTS, {"--steps": str(MAX_STEPS + 1), "--seed": "0", "--mu-start": "0",
                       "--mu-end": "0.5"})
SEEDS = ("0", "7", "-1", "9" * 33, "x", "1.5")
# each subcommand with the start of each of its count checks' rejections,
# all one-line errors (exit 1). A steps check must reject over its cap,
# MAX_STEPS, not only under 2
COUNT_CHECKS = (("sweep", "rbnl: steps must be <="), ("decay", "rbnl: steps must be <="),
                ("vol", "rbnl: samples must be"), ("sweep", "rbnl: samples must be"),
                ("sweep", "rbnl: steps x samples must be"), ("state", "rbnl: grid must be"),
                ("state", "rbnl: restarts must be"), ("vol", "rbnl: workers must be"),
                ("sweep", "rbnl: seed must be"), ("vol", "rbnl: seed must be"))


def fuzzed_flags(rng, tmp_path, state_file):
    """A subcommand with valid flags, then one to three of them changed,
    dropped, or joined by an unknown one. A pool value that is a dict
    changes the flags it names together."""
    outs = (str(tmp_path / "o.csv"), str(tmp_path), str(tmp_path / "missing" / "o.csv"),
            "", str(tmp_path / ("x" * 300)))
    pools = {
        "sweep": {"--mu-start": FLOATS, "--mu-end": FLOATS, "--steps": SWEEP_STEPS,
                  "--samples": SWEEP_SAMPLES, "--seed": SEEDS, "--out": outs},
        "vol": {"--mu": FLOATS, "--samples": SAMPLES, "--seed": SEEDS,
                "--method": ("angles", "xyz", "bogus", ""),
                "--workers": ("1", "2", "0", "65", "x", "-1")},
        "state": {"": (state_file, str(tmp_path), str(tmp_path / "missing.json")),
                  "--grid": ("1", "2", "3", "0", "65", "x", "-1"),
                  "--restarts": ("1", "2", "0", "65", "x")},
        "decay": {"--t-max": FLOATS, "--steps": INTS, "--out": outs},
    }
    valid = {"sweep": {"--steps": "3", "--out": outs[0]},
             "vol": {"--mu": "0.9", "--samples": "50"},
             "state": {"": state_file, "--grid": "2", "--restarts": "1"},
             "decay": {"--steps": "3", "--out": outs[0]}}
    command = rng.choice(sorted(pools))
    flags = dict(valid[command])
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        droppable = sorted(set(flags) - {"--samples"})  # vol's default draws 10^6
        if kind < 0.1 and droppable:
            flags.pop(rng.choice(droppable))
        elif kind < 0.15:
            flags["--bogus"] = "1"
        else:
            flag = rng.choice(sorted(pools[command]))
            value = rng.choice(pools[command][flag])
            flags.update(value if isinstance(value, dict) else {flag: value})
    args = [command]
    for flag, value in flags.items():
        args += [value] if flag == "" else [flag, value]
    return args


def run_case(args, capsys, tmp_path):
    """main(args) under the five assertions; returns the exit code and the
    last line of stderr (the message of a rejection)."""
    try:
        code = main(args)
        usage = False
    except SystemExit as exc:  # argparse rejects the flags
        code, usage = exc.code, True
    except Exception as exc:  # the failure names the case
        pytest.fail(f"{args!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and (code == 2 or not usage), (args, code)
    if code and not usage:
        assert len(err.splitlines()) == 1, (args, err)
    if code == 0 and args[0] in ("state", "vol"):
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{args!r} printed {c}"))
    # an --out that is tmp_path itself puts its temp file next to it
    assert not [*tmp_path.rglob("*.tmp"), *tmp_path.parent.glob("*.tmp")], args
    return code, err.splitlines()[-1] if err else ""


def test_fuzzed_state_documents(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "state.json"
    codes = set()
    for _ in range(300):
        raw, has_bool = fuzzed_document(rng)
        path.write_bytes(raw)
        code, _ = run_case(["state", str(path), "--grid", "2", "--restarts", "1"], capsys,
                           tmp_path)
        assert not (has_bool and code == 0), raw
        codes.add(code)
    assert codes == {0, 1, 2}  # the mutations reach every outcome


def guard_caps(monkeypatch):
    """Wrap the work behind every count cap so that a count over its cap
    raises an AssertionError naming the cap before any work is done: the CSV
    grid (MAX_STEPS), the sampler (MAX_SAMPLES and a sweep's total draws,
    steps x samples) and the search (MAX_GRID, MAX_RESTARTS). nvol_mc checks
    its own MAX_WORKERS before it draws.
    Returns the one-element list of the last grid's rows, which the caller
    resets to 1 before each case: a sweep draws samples on each row."""
    rows = [1]
    linspace, nvol_mc = rbnl.cli.linspace, rbnl.bell.nvol_mc
    nrb_two_qubit = rbnl.nonlocality.nrb_two_qubit

    def grid(start, stop, steps):
        assert steps <= MAX_STEPS, f"steps {steps} over MAX_STEPS"
        rows[0] = steps
        return linspace(start, stop, steps)

    def sampler(mu, cfg, workers=1):
        assert cfg.n <= MAX_SAMPLES, f"samples {cfg.n} over MAX_SAMPLES"
        assert rows[0] * cfg.n <= MAX_SAMPLES, f"sweep draws {rows[0]} x {cfg.n} over MAX_SAMPLES"
        return nvol_mc(mu, cfg, workers=workers)

    def search(rho, cfg):
        assert cfg.theta_points <= MAX_GRID, f"grid {cfg.theta_points} over MAX_GRID"
        assert cfg.restarts <= MAX_RESTARTS, f"restarts {cfg.restarts} over MAX_RESTARTS"
        return nrb_two_qubit(rho, cfg)

    monkeypatch.setattr(rbnl.cli, "linspace", grid)
    monkeypatch.setattr(rbnl.bell, "nvol_mc", sampler)
    monkeypatch.setattr(rbnl.nonlocality, "nrb_two_qubit", search)
    return rows


def test_fuzzed_flags(tmp_path, capsys, monkeypatch):
    rng = random.Random(SEED + 1)
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(BASES[0]))
    rows = guard_caps(monkeypatch)
    codes, messages = set(), set()
    for _ in range(300):
        rows[0] = 1
        env = rng.choice((None, "3", "x", "-1", "9" * 33))
        if env is None:
            monkeypatch.delenv("RNL_SEED", raising=False)
        else:
            monkeypatch.setenv("RNL_SEED", env)
        args = fuzzed_flags(rng, tmp_path, str(state_file))
        code, message = run_case(args, capsys, tmp_path)
        codes.add(code)
        messages.add((args[0], message))
    assert codes == {0, 1, 2}
    missed = [c for c in COUNT_CHECKS
              if not any(cmd == c[0] and c[1] in m for cmd, m in messages)]
    assert not missed, missed  # every count check rejects some case
