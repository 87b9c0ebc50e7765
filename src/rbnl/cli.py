"""Command line front end.

Subcommands:
  sweep   closed-form quantifier curves over a noise range, CSV output
  state   one state from a JSON file, reported as JSON on stdout
  vol     Monte Carlo violation fraction vs the closed form, JSON on stdout
  decay   exponential-noise comparison of the normalized quantifiers, CSV

Exit codes: 0 success, 1 domain or validation error, 2 I/O or usage error.
Every CSV gets a .manifest.json sibling recording the invocation. CSVs are
bit-identical across runs for identical flags and seed: comma separated,
LF line endings, 12 significant digits. Every output file is written to a
temp file in its directory and renamed into place, so a failed run leaves no
partial file behind.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bell import McConfig, nmax_werner, nvol_mc, nvol_werner_analytic
from .linalg import hermitian_spectrum
from .nonlocality import (PURITY_CUTOFF, OptimizerConfig, nrb_pure,
                          nrb_two_qubit, nrb_werner_closed_form)
from .states import PureState, load_state


@dataclass(frozen=True)
class SweepRow:
    mu: float
    n_rb: float
    n_vol: float
    n_max: float
    norm_rb: float
    norm_vol: float
    norm_max: float


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _norm(value: float, at_one: float) -> float:
    # normalized form with 0/0 defined as 0
    if at_one == 0.0:
        return 0.0
    return value / at_one


def sweep_rows(mu_values) -> list:
    rb1 = nrb_werner_closed_form(1.0)
    vol1 = nvol_werner_analytic(1.0)
    max1 = nmax_werner(1.0)
    rows = []
    for mu in mu_values:
        mu = float(mu)
        rb = nrb_werner_closed_form(mu)
        vol = nvol_werner_analytic(mu)
        mx = nmax_werner(mu)
        rows.append(SweepRow(mu, rb, vol, mx,
                             _norm(rb, rb1), _norm(vol, vol1), _norm(mx, max1)))
    return rows


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temp file next to path, then rename it onto path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(_fmt(x) for x in r) + "\n" for r in rows)


def _write_manifest(out_path: str, argv, seed, samples) -> None:
    doc = {
        "command": "rbnl " + " ".join(str(a) for a in argv),
        "seed": seed,
        "samples": samples,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_atomic(out_path + ".manifest.json", json.dumps(doc, indent=2) + "\n")


def cmd_sweep(mu_start: float, mu_end: float, steps: int, mc_samples: int,
              seed: int, out_path: str, argv=()) -> int:
    if not (0.0 <= mu_start < mu_end <= 1.0):
        raise ValueError(f"need 0 <= mu-start < mu-end <= 1, got [{mu_start}, {mu_end}]")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    mus = np.linspace(mu_start, mu_end, steps)
    rows = sweep_rows(mus)
    outputs = {out_path: _csv("mu,n_rb,n_vol,n_max,norm_rb,norm_vol,norm_max",
                              ((r.mu, r.n_rb, r.n_vol, r.n_max,
                                r.norm_rb, r.norm_vol, r.norm_max) for r in rows))}
    if mc_samples > 0:
        # companion file: the fixed main header has no room for MC columns
        ests = [nvol_mc(r.mu, McConfig(n=mc_samples, seed=seed)) for r in rows]
        outputs[out_path + ".mc.csv"] = _csv(
            "mu,mc_fraction,mc_std_error",
            ((r.mu, e.fraction, e.std_error) for r, e in zip(rows, ests)))
    for path, text in outputs.items():
        _write_atomic(path, text)
    _write_manifest(out_path, argv, seed, mc_samples if mc_samples > 0 else None)
    return 0


def cmd_state(state_file: str, grid: int, restarts: int) -> int:
    rho = load_state(state_file)
    if rho.purity() > 1.0 - PURITY_CUTOFF:
        spec = hermitian_spectrum(rho.matrix)
        psi = PureState(spec.vectors[:, -1], rho.dims)
        res = nrb_pure(psi)
        report = {
            "n_rb": res.value,
            "argmax_u": None,
            "argmax_v": None,
            "eta": None,
            "method": "schmidt",
        }
    else:
        if rho.dims != (2, 2):
            raise ValueError(
                f"mixed-state search supports only two qubits, got dims {list(rho.dims)}")
        cfg = OptimizerConfig(theta_points=grid, phi_points=2 * grid,
                              restarts=restarts)
        res = nrb_two_qubit(rho, cfg)
        report = {
            "n_rb": res.value,
            "argmax_u": [float(c) for c in res.argmax_u.components],
            "argmax_v": [float(c) for c in res.argmax_v.components],
            "eta": res.eta,
            "method": "optimizer",
        }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_vol(mu: float, samples: int, seed: int, method: str, workers: int) -> int:
    est = nvol_mc(mu, McConfig(n=samples, seed=seed, method=method), workers=workers)
    analytic = nvol_werner_analytic(mu)
    if est.std_error > 0.0:
        z = (est.fraction - analytic) / est.std_error
    else:
        z = 0.0 if est.fraction == analytic else math.inf
    report = {
        "fraction": est.fraction,
        "std_error": est.std_error,
        "analytic": analytic,
        "z_score": z,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_decay(t_max: float, steps: int, out_path: str, argv=()) -> int:
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t-max must be positive and finite, got {t_max}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    ts = np.linspace(0.0, t_max, steps)
    rows = sweep_rows([math.exp(-float(t)) for t in ts])
    _write_atomic(out_path, _csv("t,mu,norm_rb,norm_vol,norm_max",
                                 ((t, r.mu, r.norm_rb, r.norm_vol, r.norm_max)
                                  for t, r in zip(ts, rows))))
    _write_manifest(out_path, argv, None, None)
    return 0


def _default_seed() -> int:
    env = os.environ.get("RNL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"RNL_SEED must be an integer, got {env!r}") from None


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbnl",
        description="Realism-based nonlocality of bipartite states, with CHSH comparisons.")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="closed-form quantifier curves to CSV")
    sw.add_argument("--mu-start", type=float, default=0.0)
    sw.add_argument("--mu-end", type=float, default=1.0)
    sw.add_argument("--steps", type=int, default=101)
    sw.add_argument("--samples", type=_int_at_least(0), default=0,
                    help="per-row MC samples; > 0 writes a .mc.csv companion")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--out", required=True)

    st = sub.add_parser("state", help="quantify one state from a JSON file")
    st.add_argument("state_file")
    st.add_argument("--grid", type=_int_at_least(1), default=12,
                    help="theta resolution of the N x 2N theta x phi grid, whose "
                         "distinct observables are searched (121 for N = 12)")
    st.add_argument("--restarts", type=_int_at_least(1), default=8)

    vl = sub.add_parser("vol", help="Monte Carlo violation fraction")
    vl.add_argument("--mu", type=float, required=True)
    vl.add_argument("--samples", type=int, default=10**6)
    vl.add_argument("--seed", type=int, default=None)
    vl.add_argument("--method", choices=["angles", "xyz"], default="angles")
    vl.add_argument("--workers", type=_int_at_least(1), default=1)

    dc = sub.add_parser("decay", help="exponential-noise decay comparison to CSV")
    dc.add_argument("--t-max", type=float, default=5.0)
    dc.add_argument("--steps", type=int, default=101)
    dc.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is None and hasattr(args, "seed"):
        try:
            seed = _default_seed()
        except ValueError as exc:  # a usage error, like a bad --seed
            print(f"rbnl: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "sweep":
            return cmd_sweep(args.mu_start, args.mu_end, args.steps,
                             args.samples, seed, args.out, argv)
        if args.command == "state":
            return cmd_state(args.state_file, args.grid, args.restarts)
        if args.command == "vol":
            return cmd_vol(args.mu, args.samples, seed, args.method, args.workers)
        if args.command == "decay":
            return cmd_decay(args.t_max, args.steps, args.out, argv)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (json.JSONDecodeError, OSError) as exc:
        print(f"rbnl: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"rbnl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
