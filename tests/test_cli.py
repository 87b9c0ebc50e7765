import argparse
import ast
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rbnl
from rbnl import bell, cli
from rbnl.bell import MAX_WORKERS, McEstimate
from rbnl.cli import MAX_GRID, MAX_RESTARTS, MAX_SAMPLES, MAX_STEPS, _build_parser, main
from rbnl.nonlocality import PURITY_CUTOFF, nrb, nrb_two_qubit
from rbnl.states import (DensityMatrix, PureState, fano_form, random_density, random_pure,
                         save_state, singlet, state_to_json, werner)
from corpora import child_env, rotated_bell_diagonal, zero_marginal_closed_form

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.csv"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sweep_matches_golden_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--mu-start", "0", "--mu-end", "1",
                      "--steps", "101", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["samples"] is None
    assert "sweep" in manifest["command"]
    assert {"version", "timestamp"} <= set(manifest)


def test_sweep_is_bit_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["sweep", "--steps", "41", "--out", str(path)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_mc_companion(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(["sweep", "--mu-start", "0.6", "--mu-end", "1.0",
                      "--steps", "3", "--samples", "20000", "--seed", "1",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = (tmp_path / "s.csv.mc.csv").read_text().splitlines()
    assert lines[0] == "mu,mc_fraction,mc_std_error"
    assert len(lines) == 4
    row = dict(zip(("mu", "f", "se"), (float(t) for t in lines[1].split(","))))
    assert row["mu"] == 0.6 and row["f"] == 0.0
    # atomic writes leave no temp file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "s.csv", "s.csv.manifest.json", "s.csv.mc.csv"]


def test_sweep_samples_must_be_non_negative(tmp_path, capsys):
    code, out, err = run(["sweep", "--steps", "3", "--samples", "-5",
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert (code, out) == (1, "")
    assert err == "rbnl: samples must be >= 0, got -5\n"
    assert list(tmp_path.iterdir()) == []
    # zero keeps its meaning: no Monte Carlo companion
    assert run(["sweep", "--steps", "3", "--samples", "0",
                "--out", str(tmp_path / "z.csv")], capsys)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "z.csv", "z.csv.manifest.json"]


def test_failed_write_leaves_no_file(tmp_path, capsys):
    # the output path is a directory: the writer refuses it before any temp
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(["sweep", "--steps", "5", "--out", str(target)], capsys)
    assert code == 2
    assert "i/o error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_failed_run_commits_no_file(tmp_path, capsys):
    # the manifest's name, 14 characters longer than the CSV's, is one over
    # the limit: every temp is written before any rename, so the failed run
    # leaves the CSV it was to replace as it was, and no temp file
    if "PC_NAME_MAX" not in getattr(os, "pathconf_names", {}):
        pytest.skip("PC_NAME_MAX is unavailable")
    out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 17) + ".csv")
    out.write_text("old\n")
    code, _, err = run(["decay", "--steps", "3", "--out", str(out)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and "i/o error" in err
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("argv, companion", [
    (["sweep", "--steps", "3", "--samples", "10"], ".mc.csv"),
    (["sweep", "--steps", "3", "--samples", "10"], ".manifest.json"),
    (["decay", "--steps", "3"], ".manifest.json")], ids=["sweep-mc", "sweep-manifest", "decay"])
def test_directory_at_a_companion_path_commits_no_file(tmp_path, capsys, argv, companion):
    # a directory where a companion file goes fails the run before any temp
    # is written, so the CSV it was to replace is left as it was
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    (tmp_path / f"out.csv{companion}").mkdir()
    before = sorted(tmp_path.iterdir())
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and "i/o error" in err
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_only_main_writes():
    # each cmd_* returns its stdout text and files, and main alone writes
    # them: one _write_atomic call, then stdout
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    found, commits = [], 0
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            name = ast.unparse(call.func)
            if name in ("print", "sys.stdout.write", "open", "_write_atomic") and fn.name != "main":
                found.append(f"{fn.name}:{call.lineno} {name}")
            commits += fn.name == "main" and name == "_write_atomic"
    assert not found, found
    assert commits == 1


def test_sweep_bad_range(tmp_path, capsys):
    code, _, err = run(["sweep", "--mu-start", "0.9", "--mu-end", "0.2",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert "mu" in err


def test_sweep_unwritable_path(capsys):
    code, _, err = run(["sweep", "--steps", "5",
                        "--out", "/no_such_dir_rbnl/x.csv"], capsys)
    assert code == 2
    assert "i/o error" in err


def test_state_mixed_two_qubit(tmp_path, capsys):
    path = tmp_path / "w.json"
    save_state(werner(0.5), path)
    code, out, _ = run(["state", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "optimizer"
    assert rep["n_rb"] == pytest.approx(0.181939478770, abs=1e-6)
    assert rep["eta"] == pytest.approx(1.0, abs=1e-6)
    u = np.array(rep["argmax_u"])
    assert abs(np.linalg.norm(u) - 1.0) < 1e-9


def test_state_zero_marginal_takes_the_closed_form(tmp_path, capsys):
    # maximally mixed marginals skip the search: the method is still
    # "optimizer", n_rb is the closed form, and the search flags change
    # nothing on stdout
    rho_bd = rotated_bell_diagonal(np.random.default_rng(46))
    for name, rho in (("werner", werner(0.8)), ("bell-diagonal", rho_bd)):
        path = tmp_path / f"{name}.json"
        save_state(rho, path)
        code, out, _ = run(["state", str(path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["method"] == "optimizer"
        assert abs(rep["n_rb"] - zero_marginal_closed_form(rho)) < 1e-12
        assert "-0.0" not in out  # the singular vectors of T = -mu I carry -0.0
        code, coarse, _ = run(["state", str(path), "--grid", "2", "--restarts", "1"], capsys)
        assert code == 0
        assert coarse == out


def test_state_pure_uses_schmidt(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_state(singlet().density(), path)
    code, out, _ = run(["state", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "schmidt"
    assert rep["n_rb"] == pytest.approx(math.log(2), abs=1e-12)
    assert rep["argmax_u"] is None and rep["eta"] is None


def test_state_pure_any_dims(tmp_path, capsys):
    # pure states avoid the two-qubit-only optimizer path entirely
    from rbnl.states import qutrit_family
    path = tmp_path / "q.json"
    save_state(qutrit_family(1.0).density(), path)
    code, out, _ = run(["state", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["n_rb"] == pytest.approx(math.log(3), abs=1e-9)
    v = np.zeros(6, dtype=complex)
    v[0] = 1.0
    save_state(PureState(v, (2, 3)).density(), path)
    code, out, _ = run(["state", str(path)], capsys)
    assert code == 0
    assert '"n_rb": 0.0' in out and "-0.0" not in out


def test_state_mixed_unsupported_dims(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_state(random_density(3, 3, rank=4, seed=0), path)
    code, _, err = run(["state", str(path)], capsys)
    assert code == 1
    assert "dims" in err


def test_state_route_is_the_nonlocality_route(tmp_path, capsys):
    # one purity test routes both: `state` reports "schmidt" exactly when
    # nrb and nrb_two_qubit take the route "pure", here on either side of the
    # cutoff (the marginals are nonzero, so the zero-marginal route is out)
    proj = random_pure(2, 2, seed=61).density().matrix
    for scale in (0.99, 1.01):
        eps = scale * PURITY_CUTOFF / 1.5  # purity 1 - 1.5 eps + 0.75 eps^2
        rho = DensityMatrix((1 - eps) * proj + eps * np.eye(4) / 4, (2, 2))
        pure = scale < 1
        assert (rho.purity() > 1 - PURITY_CUTOFF) == pure
        a, b, _ = fano_form(rho)
        assert min(np.linalg.norm(a), np.linalg.norm(b)) > 1e-3
        path = tmp_path / f"{scale}.json"
        save_state(rho, path)
        code, out, _ = run(["state", str(path)], capsys)
        assert code == 0
        method = json.loads(out)["method"]
        assert (method == "schmidt") == pure
        assert {nrb(rho).route, nrb_two_qubit(rho).route} == {"pure" if pure else "search"}
    # (2, 3): the pure file takes the Schmidt route; the mixed one has no
    # route, and nrb_two_qubit refuses both
    for rank in (1, 3):
        rho = random_density(2, 3, rank=rank, seed=62)
        if rank == 1:
            assert nrb(rho).route == "pure"
        else:
            with pytest.raises(ValueError, match="dims"):
                nrb(rho)
        with pytest.raises(ValueError, match="dims"):
            nrb_two_qubit(rho)
        path = tmp_path / f"rank{rank}.json"
        save_state(rho, path)
        code, out, err = run(["state", str(path)], capsys)
        if rank == 1:
            assert code == 0 and json.loads(out)["method"] == "schmidt"
        else:
            assert code == 1 and out == "" and "dims" in err
            assert len(err.splitlines()) == 1


def test_state_missing_file(capsys):
    code, _, err = run(["state", "/no/such/file.json"], capsys)
    assert code == 2
    assert "i/o error" in err


def test_state_unparseable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    deep = b'{"dims": [2, 2], "matrix": ' + b"[" * 10**5 + b"]" * 10**5 + b"}"
    # the second is not UTF-8, the third nested beyond the recursion limit
    for raw in (b"{not json", b"\xff\xfe{}", deep):
        path.write_bytes(raw)
        code, out, err = run(["state", str(path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("rbnl: i/o error: ")
        assert len(err.strip().splitlines()) == 1


def test_state_schema_violation(tmp_path, capsys):
    path = tmp_path / "wrong.json"
    cell = '[[{"re": 1, "im": 0}]]'
    ragged = '[[{"re": 1, "im": 0}], [{"re": 1, "im": 0}, {"re": 1, "im": 0}]]'
    for doc in ('{"dims": [2, 2], "matrix": "nope"}',
                '{"dims": 5, "matrix": %s}' % cell,
                '{"dims": null, "matrix": %s}' % cell,
                '{"dims": [1.7, 1], "matrix": %s}' % cell,
                '{"dims": [2, 1], "matrix": %s}' % ragged,
                '{"dims": [1, 1], "matrix": [[{"re": 1%s, "im": 0}]]}' % ("0" * 400),
                # past Python's integer-string limit, which json.loads enforces
                '{"dims": [1, 1], "matrix": [[{"re": 1%s, "im": 0}]]}' % ("0" * 5000),
                '{"dims": [1, 1], "matrix": [[{"re": true, "im": 0}]]}'):
        path.write_text(doc)
        code, out, err = run(["state", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("rbnl: ") and "malformed" in err
        assert len(err.strip().splitlines()) == 1


def test_state_invalid_matrix(tmp_path, capsys):
    doc = {"dims": [2, 2],
           "matrix": [[{"re": 1.0, "im": 0.0} if i == j and i == 0 else
                       {"re": 0.0, "im": 0.0} for j in range(4)]
                      for i in range(4)]}
    doc["matrix"][0][0]["re"] = 2.0  # trace 2
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["state", str(path)], capsys)
    assert code == 1
    assert "trace" in err


def test_state_non_finite_matrix(tmp_path, capsys):
    for bad in (math.nan, math.inf):
        doc = json.loads(state_to_json(werner(0.5)))
        doc["matrix"][0][1]["re"] = doc["matrix"][1][0]["re"] = bad
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            code, out, err = run(["state", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("rbnl: ") and "finite" in err
        assert len(err.strip().splitlines()) == 1


def test_state_has_no_seed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "w.json"
    save_state(werner(0.5), path)
    with pytest.raises(SystemExit) as exc:
        main(["state", str(path), "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    # no seed is resolved, so a bad RNL_SEED does not concern `state`
    monkeypatch.setenv("RNL_SEED", "abc")
    code, _, _ = run(["state", str(path), "--grid", "4", "--restarts", "2"], capsys)
    assert code == 0


@pytest.mark.parametrize("value, flag", [
    *((value, flag) for flag in ("--grid", "--restarts") for value in ("0", "-3", "two")),
    (str(MAX_GRID + 1), "--grid"),  # a larger pair table could exhaust memory
])
def test_state_rejects_bad_search_flags(tmp_path, capsys, monkeypatch, flag, value):
    # exit 1 and one line for pure inputs, which never search, and mixed ones
    # alike; neither route runs, so a broken cap fails here at once. A value
    # that is not an integer is a usage error (exit 2)
    for route in ("nrb_two_qubit", "nrb_pure"):
        monkeypatch.setattr(f"rbnl.nonlocality.{route}",
                            lambda *a, route=route: pytest.fail(f"{route} ran"))
    for name, rho in (("pure", singlet().density()), ("mixed", werner(0.5))):
        path = tmp_path / f"{name}.json"
        save_state(rho, path)
        if value == "two":
            with pytest.raises(SystemExit) as exc:
                main(["state", str(path), flag, value])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and flag in out.err
            continue
        code, out, err = run(["state", str(path), flag, value], capsys)
        assert (code, out) == (1, "")
        bound = ">= 1" if int(value) < 1 else f"<= {MAX_GRID}"
        assert err == f"rbnl: {flag[2:]} must be {bound}, got {value}\n"


def test_vol_report(capsys):
    code, out, _ = run(["vol", "--mu", "0.9", "--samples", "100000",
                        "--seed", "4"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"fraction", "std_error", "analytic", "z_score"}
    assert rep["analytic"] == pytest.approx(0.0323321, abs=5e-7)
    assert abs(rep["z_score"]) < 6.0


def test_vol_zero_region(capsys):
    code, out, _ = run(["vol", "--mu", "0.5", "--samples", "50000",
                        "--method", "xyz"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["fraction"] == 0.0 and rep["z_score"] == 0.0


def test_vol_method_choices_are_the_counters():
    # the parser spells the methods out, as it imports no numpy; they must
    # stay the counters that McConfig accepts
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["vol"]._actions if a.dest == "method")
    assert tuple(method.choices) == tuple(bell._COUNTERS)


def test_vol_degenerate_z_score_is_null(capsys):
    # no sample of 10 violates, so std_error is 0 while the closed form is
    # not: z has no finite value, and JSON has no infinity
    code, out, _ = run(["vol", "--mu", "0.9", "--samples", "10", "--seed", "0"], capsys)
    assert code == 0
    rep = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    assert (rep["fraction"], rep["std_error"], rep["z_score"]) == (0.0, 0.0, None)
    assert rep["analytic"] > 0.0


def test_vol_invalid_mu(capsys):
    code, _, _ = run(["vol", "--mu", "1.4", "--samples", "1000"], capsys)
    assert code == 1


def test_vol_negative_seed(tmp_path, capsys, monkeypatch):
    # from --seed or RNL_SEED, vol and sweep alike (with or without samples):
    # exit 1, one line, and no file written
    vol = ["vol", "--mu", "0.9", "--samples", "1000"]
    sweep = ["sweep", "--steps", "3", "--out", str(tmp_path / "a.csv")]
    for args, env, seed in ((vol + ["--seed", "-1"], None, -1), (vol, "-5", -5),
                            (sweep + ["--seed", "-1"], None, -1), (sweep, "-5", -5),
                            (sweep + ["--samples", "10", "--seed", "-1"], None, -1)):
        if env is None:
            monkeypatch.delenv("RNL_SEED", raising=False)
        else:
            monkeypatch.setenv("RNL_SEED", env)
        code, out, err = run(args, capsys)
        assert code == 1, args
        assert out == ""
        assert err.strip() == f"rbnl: seed must be >= 0, got {seed}"
        assert list(tmp_path.iterdir()) == []


def test_vol_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("RNL_SEED", "abc")
    code, out, err = run(["vol", "--mu", "0.9", "--samples", "1000"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("rbnl: ") and "RNL_SEED" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**15])
def test_samples_over_cap_rejected_before_any_draw(tmp_path, capsys, monkeypatch, samples):
    # vol and sweep alike: exit 1 and one line, before the sampler runs or
    # any file is written
    monkeypatch.setattr("rbnl.bell.nvol_mc", lambda *a, **k: pytest.fail("sampled"))
    for args in (["vol", "--mu", "0.9"],
                 ["sweep", "--steps", "3", "--out", str(tmp_path / "x.csv")]):
        code, out, err = run([*args, "--samples", str(samples)], capsys)
        assert (code, out) == (1, ""), args
        assert err == f"rbnl: samples must be <= {MAX_SAMPLES}, got {samples}\n"
    assert list(tmp_path.iterdir()) == []


def test_samples_at_cap_reach_the_sampler(tmp_path, capsys, monkeypatch):
    seen = []

    def fake(mu, cfg, workers=1):
        seen.append(cfg.n)
        return McEstimate(0.0, 0.0, cfg.n, cfg.seed)

    monkeypatch.setattr("rbnl.bell.nvol_mc", fake)
    assert run(["vol", "--mu", "0.9", "--samples", str(MAX_SAMPLES)], capsys)[0] == 0
    # a sweep's budget is steps x samples: two rows of half the cap each
    assert run(["sweep", "--steps", "2", "--samples", str(MAX_SAMPLES // 2),
                "--out", str(tmp_path / "x.csv")], capsys)[0] == 0
    assert seen == [MAX_SAMPLES, MAX_SAMPLES // 2, MAX_SAMPLES // 2]


# few rows each: a broken check would build every row before it failed
@pytest.mark.parametrize("steps, samples", [(2, MAX_SAMPLES), (2, MAX_SAMPLES // 2 + 1),
                                            (101, 10**7), (1000, 10**6 + 1)])
def test_sweep_over_budget_rejected_before_any_draw(tmp_path, capsys, monkeypatch,
                                                    steps, samples):
    # each flag is within its own cap, their product is not
    monkeypatch.setattr("rbnl.bell.nvol_mc", lambda *a, **k: pytest.fail("sampled"))
    code, out, err = run(["sweep", "--steps", str(steps), "--samples", str(samples),
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert (code, out) == (1, "")
    assert err == f"rbnl: steps x samples must be <= {MAX_SAMPLES}, got {steps} x {samples}\n"
    assert list(tmp_path.iterdir()) == []


def test_restarts_cap(tmp_path, capsys, monkeypatch):
    # over the cap is rejected (exit 1, one line) before any search; at the
    # cap the search gets every restart asked for
    seen = []

    def fake(rho, cfg):
        seen.append(cfg.restarts)
        return nrb_two_qubit(rho)

    monkeypatch.setattr("rbnl.nonlocality.nrb_two_qubit", fake)
    path = tmp_path / "w.json"
    save_state(random_density(2, 2, rank=3, seed=18), path)
    code, out, err = run(["state", str(path), "--restarts", str(MAX_RESTARTS + 1)], capsys)
    assert (code, out) == (1, "")
    assert err == f"rbnl: restarts must be <= {MAX_RESTARTS}, got {MAX_RESTARTS + 1}\n"
    assert seen == []
    assert run(["state", str(path), "--grid", "2", "--restarts", str(MAX_RESTARTS)],
               capsys)[0] == 0
    assert seen == [MAX_RESTARTS]


@pytest.mark.parametrize("workers", ["0", "-2", "two", str(MAX_WORKERS + 1)])
def test_vol_rejects_bad_workers(capsys, monkeypatch, workers):
    # nvol_mc checks the count before any chunk is drawn; a value that is
    # not an integer is a usage error
    monkeypatch.setattr("rbnl.bell._mc_chunk_count", lambda *a: pytest.fail("sampled"))
    args = ["vol", "--mu", "0.9", "--samples", "1000", "--workers", workers]
    if workers == "two":
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        return
    code, out, err = run(args, capsys)
    assert (code, out) == (1, "")
    bound = ">= 1" if int(workers) < 1 else f"<= {MAX_WORKERS}"
    assert err == f"rbnl: workers must be {bound}, got {workers}\n"


def test_vol_seed_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("RNL_SEED", "12")
    _, out1, _ = run(["vol", "--mu", "0.8", "--samples", "60000"], capsys)
    _, out2, _ = run(["vol", "--mu", "0.8", "--samples", "60000",
                      "--seed", "12"], capsys)
    _, out3, _ = run(["vol", "--mu", "0.8", "--samples", "60000",
                      "--seed", "13"], capsys)
    f1 = json.loads(out1)["fraction"]
    f2 = json.loads(out2)["fraction"]
    f3 = json.loads(out3)["fraction"]
    assert f1 == f2
    assert f1 != f3


def test_decay_csv(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    code, _, _ = run(["decay", "--t-max", "3", "--steps", "7",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mu,norm_rb,norm_vol,norm_max"
    assert len(lines) == 8
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0, 1.0, 1.0]
    for line in lines[1:]:
        t, mu = (float(x) for x in line.split(",")[:2])
        assert mu == pytest.approx(math.exp(-t), rel=1e-11)


def test_decay_bad_tmax(tmp_path, capsys):
    code, _, _ = run(["decay", "--t-max", "-1",
                      "--out", str(tmp_path / "d.csv")], capsys)
    assert code == 1


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_decay_non_finite_tmax(tmp_path, t_max):
    # a child process, so that a numpy warning would show on its stderr
    proc = subprocess.run(
        [sys.executable, "-m", "rbnl", "decay", "--t-max", t_max,
         "--out", str(tmp_path / "d.csv")], capture_output=True, text=True,
        env=child_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("rbnl: ") and "t-max" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def run_console_script(*args):
    """Run the `rbnl` console script with `args` in a child process.

    Uses the installed `rbnl` script when it is on PATH. From a checkout,
    runs the `[project.scripts]` target of pyproject.toml the way the
    generated wrapper does, so a broken target still fails here.
    """
    script = shutil.which("rbnl")
    if script:
        cmd = [script]
    else:
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["rbnl"]
        module, func = target.split(":")
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {func}; sys.exit({func}())"]
    return subprocess.run([*cmd, *args], capture_output=True, text=True,
                          env=child_env(), timeout=60)


def test_console_script(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_console_script("sweep", "--steps", "11", "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rbnl", "vol", "--mu", "0.75",
         "--samples", "20000"], capture_output=True, text=True,
        env=child_env(), timeout=60)
    assert proc.returncode == 0
    assert "fraction" in proc.stdout


def test_usage_error_exit_code():
    proc = run_console_script("unknown-command")
    assert proc.returncode == 2


def test_numpy_is_the_only_third_party_import():
    # every submodule imported, the new top-level modules outside the
    # standard library are numpy and rbnl: an import of scipy, or of any
    # other package, in any module fails here
    code = ("import sys; before = set(sys.modules); import rbnl\n"
            "for name in rbnl._SUBMODULES: getattr(rbnl, name)\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - sys.stdlib_module_names))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'rbnl']"


@pytest.mark.parametrize("t_max, steps", [(5.0, 101), (3.0, 7), (7.3, 999),
                                          (5e-324, 3), (1e-320, 100000)])
def test_decay_grid_is_numpy_linspace(tmp_path, capsys, t_max, steps):
    # the t column is np.linspace(0, t_max, steps), also where the step
    # underflows to 0, and mu is exp(-t)
    out = tmp_path / "d.csv"
    assert run(["decay", "--t-max", repr(t_max), "--steps", str(steps),
                "--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == steps
    for line, t in zip(lines, np.linspace(0.0, t_max, steps)):
        t_text, mu_text = line.split(",")[:2]
        assert t_text == format(float(t), ".12g")
        assert mu_text == format(math.exp(-float(t)), ".12g")


@pytest.mark.parametrize("command", ["sweep", "decay"])
@pytest.mark.parametrize("steps", [10**12, MAX_STEPS + 1, 1])
def test_steps_out_of_range(tmp_path, capsys, monkeypatch, command, steps):
    # rejected before anything is allocated or written: the grid is never built
    monkeypatch.setattr("rbnl.cli.linspace", lambda *a: pytest.fail("grid built"))
    code, out, err = run([command, "--steps", str(steps),
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert out == ""
    bound = ">= 2" if steps < 2 else f"<= {MAX_STEPS}"
    assert err == f"rbnl: steps must be {bound}, got {steps}\n"
    assert list(tmp_path.iterdir()) == []


def cold_modules(*args):
    """The modules of interest a child `python -m rbnl *args` has imported
    by the time it exits."""
    code = ("import runpy, sys\n"
            f"sys.argv = ['rbnl', *{list(args)!r}]\n"
            "try:\n"
            "    runpy.run_module('rbnl', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "             ('numpy', 'dataclasses', 'concurrent')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_numpy():
    # then each submodule resolves as an attribute of the fresh package
    code = ("import sys, rbnl; print('numpy' in sys.modules); "
            "print([getattr(rbnl, m).__name__ for m in rbnl._SUBMODULES])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, names = proc.stdout.splitlines()
    assert loaded == "False"
    assert names == str([f"rbnl.{m}" for m in rbnl._SUBMODULES])


def test_sweep_and_decay_load_no_numpy(tmp_path):
    out = tmp_path / "s.csv"
    assert cold_modules("sweep", "--out", str(out)) == "[]"
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert cold_modules("decay", "--out", str(tmp_path / "d.csv")) == "[]"
    # the Monte Carlo companion is the one sweep that needs numpy
    assert "numpy" in cold_modules("sweep", "--steps", "2", "--samples", "10",
                                   "--out", str(tmp_path / "m.csv"))


def run_without_numpy(*args):
    """Run rbnl.cli.main(args) in a child where `import numpy` fails."""
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from rbnl.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=child_env(), timeout=60)


def test_commands_needing_numpy_exit_2_without_it(tmp_path):
    path = tmp_path / "w.json"
    save_state(werner(0.5), path)
    for args in (["state", str(path)], ["vol", "--mu", "0.9"],
                 ["sweep", "--samples", "10", "--out", str(tmp_path / "s.csv")]):
        proc = run_without_numpy(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert proc.stderr == "rbnl: this command needs numpy\n"
    # an out-of-range count is rejected before anything needs numpy
    for args, err in ((["sweep", "--samples", "-1"], "rbnl: samples must be >= 0, got -1\n"),
                      (["decay", "--steps", "1"], "rbnl: steps must be >= 2, got 1\n")):
        proc = run_without_numpy(*args, "--out", str(tmp_path / "x.csv"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err), args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]
    # sweep and decay need no numpy
    out = tmp_path / "g.csv"
    assert run_without_numpy("sweep", "--out", str(out)).returncode == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert run_without_numpy("decay", "--out", str(tmp_path / "d.csv")).returncode == 0
