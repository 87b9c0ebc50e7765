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
from rbnl.cli import main
from rbnl.states import (PureState, random_density, save_state, singlet,
                         state_to_json, werner)

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
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--steps", "3", "--samples", "-5",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # zero keeps its meaning: no Monte Carlo companion
    assert run(["sweep", "--steps", "3", "--samples", "0",
                "--out", str(tmp_path / "z.csv")], capsys)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "z.csv", "z.csv.manifest.json"]


def test_failed_write_leaves_no_file(tmp_path, capsys):
    # the output path is a directory: the rename onto it fails
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(["sweep", "--steps", "5", "--out", str(target)], capsys)
    assert code == 2
    assert "i/o error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


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


def test_state_missing_file(capsys):
    code, _, err = run(["state", "/no/such/file.json"], capsys)
    assert code == 2
    assert "i/o error" in err


def test_state_unparseable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(["state", str(path)], capsys)
    assert code == 2


def test_state_schema_violation(tmp_path, capsys):
    path = tmp_path / "wrong.json"
    cell = '[[{"re": 1, "im": 0}]]'
    ragged = '[[{"re": 1, "im": 0}], [{"re": 1, "im": 0}, {"re": 1, "im": 0}]]'
    for doc in ('{"dims": [2, 2], "matrix": "nope"}',
                '{"dims": 5, "matrix": %s}' % cell,
                '{"dims": null, "matrix": %s}' % cell,
                '{"dims": [1.7, 1], "matrix": %s}' % cell,
                '{"dims": [2, 1], "matrix": %s}' % ragged):
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


@pytest.mark.parametrize("flag", ["--grid", "--restarts"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_state_rejects_bad_search_flags(tmp_path, capsys, flag, value):
    # a usage error for pure inputs, which never search, and mixed ones alike
    for name, rho in (("pure", singlet().density()), ("mixed", werner(0.5))):
        path = tmp_path / f"{name}.json"
        save_state(rho, path)
        with pytest.raises(SystemExit) as exc:
            main(["state", str(path), flag, value])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and flag in out.err


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


def test_vol_invalid_mu(capsys):
    code, _, _ = run(["vol", "--mu", "1.4", "--samples", "1000"], capsys)
    assert code == 1


def test_vol_negative_seed(capsys):
    code, out, err = run(["vol", "--mu", "0.9", "--samples", "1000", "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err.strip() == "rbnl: seed must be >= 0, got -1"


def test_vol_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("RNL_SEED", "abc")
    code, out, err = run(["vol", "--mu", "0.9", "--samples", "1000"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("rbnl: ") and "RNL_SEED" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_vol_rejects_bad_workers(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["vol", "--mu", "0.9", "--samples", "1000", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


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
        env=child_env())
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("rbnl: ") and "t-max" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def child_env():
    """Environment for a child process that imports the same `rbnl` package
    as this test process, whether it came from an install or from `src/`."""
    env = dict(os.environ)
    pkg_root = str(Path(rbnl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    return env


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
                          env=child_env())


def test_console_script(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_console_script("sweep", "--steps", "11", "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rbnl", "vol", "--mu", "0.75",
         "--samples", "20000"], capture_output=True, text=True,
        env=child_env())
    assert proc.returncode == 0
    assert "fraction" in proc.stdout


def test_usage_error_exit_code():
    proc = run_console_script("unknown-command")
    assert proc.returncode == 2


def test_import_loads_no_scipy():
    code = ("import sys, rbnl, rbnl.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
