"""Command line front end.

Subcommands, each dispatched by the parser to its cmd_* function, which
takes the parsed namespace (seed resolved, raw arguments as argv):
  sweep   closed-form quantifier curves over a noise range, CSV output
  state   one state from a JSON file, reported as JSON on stdout
  vol     Monte Carlo violation fraction vs the closed form, JSON on stdout
  decay   exponential-noise comparison of the normalized quantifiers, CSV

Exit codes: 0 success, 1 domain or validation error, 2 I/O or usage error.
The parser checks only that each value parses as its type; each command checks
the ranges of its counts with check_int, so an out-of-range count exits 1 with
one line, before any file is read or written and before any sample is drawn.
Every CSV gets a .manifest.json sibling recording the invocation. CSVs are
bit-identical across runs for identical flags and seed: comma separated,
LF line endings, 12 significant digits. Every output file is written to a
temp file in its directory and renamed into place, so a failed run leaves no
partial file behind.

`sweep` and `decay` need only the closed forms of rbnl.closed_forms and the
standard library; the numpy-backed modules are imported inside the commands
that use them, and those commands exit 2 with one line when numpy is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone

from . import __version__
from .closed_forms import (check_int, linspace, nmax_werner, nrb_werner_closed_form,
                           nvol_werner_analytic)

MAX_STEPS = 10**7  # rows of a sweep or decay CSV; more is rejected before any work
MAX_SAMPLES = 10**9  # vol --samples, sweep steps x samples; about 3 min of one-thread angles
MAX_GRID = 64  # state --grid; a mixed-state search at 64 peaks at about 470 MB
MAX_RESTARTS = 64  # state --restarts: grid pairs refined as one batch

SweepRow = namedtuple("SweepRow", "mu n_rb n_vol n_max norm_rb norm_vol norm_max")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def sweep_rows(mu_values) -> list:
    # each quantifier normalized by its value at mu = 1: ln 2, (pi - 3)/2 and
    # sqrt(2) - 1, none of them zero
    rb1 = nrb_werner_closed_form(1.0)
    vol1 = nvol_werner_analytic(1.0)
    max1 = nmax_werner(1.0)
    rows = []
    for mu in mu_values:
        mu = float(mu)
        rb = nrb_werner_closed_form(mu)
        vol = nvol_werner_analytic(mu)
        mx = nmax_werner(mu)
        rows.append(SweepRow(mu, rb, vol, mx, rb / rb1, vol / vol1, mx / max1))
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


def cmd_sweep(args) -> int:
    check_int("seed", args.seed, 0)
    if not (0.0 <= args.mu_start < args.mu_end <= 1.0):
        raise ValueError(
            f"need 0 <= mu-start < mu-end <= 1, got [{args.mu_start}, {args.mu_end}]")
    check_int("steps", args.steps, 2, MAX_STEPS)
    check_int("samples", args.samples, 0, MAX_SAMPLES)
    if args.steps * args.samples > MAX_SAMPLES:
        raise ValueError(f"steps x samples must be <= {MAX_SAMPLES}, "
                         f"got {args.steps} x {args.samples}")
    rows = sweep_rows(linspace(args.mu_start, args.mu_end, args.steps))
    outputs = {args.out: _csv("mu,n_rb,n_vol,n_max,norm_rb,norm_vol,norm_max", rows)}
    if args.samples > 0:
        from .bell import McConfig, nvol_mc

        # companion file: the fixed main header has no room for MC columns
        ests = [nvol_mc(r.mu, McConfig(n=args.samples, seed=args.seed)) for r in rows]
        outputs[args.out + ".mc.csv"] = _csv(
            "mu,mc_fraction,mc_std_error",
            ((r.mu, e.fraction, e.std_error) for r, e in zip(rows, ests)))
    for path, text in outputs.items():
        _write_atomic(path, text)
    _write_manifest(args.out, args.argv, args.seed, args.samples or None)
    return 0


def cmd_state(args) -> int:
    """Report N_rb of the state in args.state_file as JSON on stdout.

    nonlocality.pure_state picks the method: nrb_pure for a pure input of
    any dims ("schmidt"), else nrb_two_qubit ("optimizer"), whose Fano form
    rejects dims other than (2, 2). --grid and --restarts make its
    OptimizerConfig.
    """
    check_int("grid", args.grid, 1, MAX_GRID)
    check_int("restarts", args.restarts, 1, MAX_RESTARTS)
    from .nonlocality import nrb_pure, nrb_two_qubit, pure_state
    from .search import OptimizerConfig
    from .states import load_state

    rho = load_state(args.state_file)
    psi = pure_state(rho)
    report = dict.fromkeys(("n_rb", "argmax_u", "argmax_v", "eta", "method"))
    if psi is not None:
        report.update(n_rb=nrb_pure(psi).value, method="schmidt")
    else:
        res = nrb_two_qubit(rho, OptimizerConfig(theta_points=args.grid, phi_points=2 * args.grid,
                                                 restarts=args.restarts))
        report.update(n_rb=res.value, argmax_u=res.argmax_u.components.tolist(),
                      argmax_v=res.argmax_v.components.tolist(), eta=res.eta,
                      method="optimizer")
    print(json.dumps(report, indent=2))
    return 0


def cmd_vol(args) -> int:
    from .bell import McConfig, nvol_mc

    check_int("samples", args.samples, 1, MAX_SAMPLES)
    cfg = McConfig(n=args.samples, seed=args.seed, method=args.method)
    est = nvol_mc(args.mu, cfg, workers=args.workers)
    analytic = nvol_werner_analytic(args.mu)
    if est.std_error > 0.0:
        z = (est.fraction - analytic) / est.std_error
    else:
        z = 0.0 if est.fraction == analytic else None  # JSON has no infinity
    report = {"fraction": est.fraction, "std_error": est.std_error, "analytic": analytic,
              "z_score": z}
    print(json.dumps(report, indent=2))
    return 0


def cmd_decay(args) -> int:
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise ValueError(f"t-max must be positive and finite, got {args.t_max}")
    check_int("steps", args.steps, 2, MAX_STEPS)
    ts = linspace(0.0, args.t_max, args.steps)
    rows = sweep_rows([math.exp(-t) for t in ts])
    _write_atomic(args.out, _csv("t,mu,norm_rb,norm_vol,norm_max",
                                 ((t, r.mu, r.norm_rb, r.norm_vol, r.norm_max)
                                  for t, r in zip(ts, rows))))
    _write_manifest(args.out, args.argv, None, None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbnl",
        description="Realism-based nonlocality of bipartite states, with CHSH comparisons.")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="closed-form quantifier curves to CSV")
    sw.add_argument("--mu-start", type=float, default=0.0)
    sw.add_argument("--mu-end", type=float, default=1.0)
    sw.add_argument("--steps", type=int, default=101)
    sw.add_argument("--samples", type=int, default=0,
                    help=f"per-row MC samples, with steps x samples <= {MAX_SAMPLES}; "
                         "> 0 writes a .mc.csv companion")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--out", required=True)
    sw.set_defaults(run=cmd_sweep)

    st = sub.add_parser("state", help="quantify one state from a JSON file")
    st.add_argument("state_file")
    st.add_argument("--grid", type=int, default=12,
                    help="theta resolution of the N x 2N theta x phi grid, whose "
                         f"distinct observables are searched (121 for N = 12; N <= {MAX_GRID})")
    st.add_argument("--restarts", type=int, default=8,
                    help=f"best grid pairs refined (<= {MAX_RESTARTS})")
    st.set_defaults(run=cmd_state)

    vl = sub.add_parser("vol", help="Monte Carlo violation fraction")
    vl.add_argument("--mu", type=float, required=True)
    vl.add_argument("--samples", type=int, default=10**6)
    vl.add_argument("--seed", type=int, default=None)
    vl.add_argument("--method", choices=["angles", "xyz"], default="angles")
    vl.add_argument("--workers", type=int, default=1)
    vl.set_defaults(run=cmd_vol)

    dc = sub.add_parser("decay", help="exponential-noise decay comparison to CSV")
    dc.add_argument("--t-max", type=float, default=5.0)
    dc.add_argument("--steps", type=int, default=101)
    dc.add_argument("--out", required=True)
    dc.set_defaults(run=cmd_decay)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args.argv = argv
    if getattr(args, "seed", 0) is None:  # sweep or vol without --seed
        env = os.environ.get("RNL_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:  # a usage error, like a bad --seed
            print(f"rbnl: RNL_SEED must be an integer, got {env!r}", file=sys.stderr)
            return 2
    try:
        return args.run(args)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("rbnl: this command needs numpy", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError, OSError) as exc:
        print(f"rbnl: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"rbnl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
