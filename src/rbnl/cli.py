"""Command line front end.

Subcommands, each dispatched by the parser to its cmd_* function, which
takes the parsed namespace (seed resolved, raw arguments as argv), checks,
reads and computes, and returns (text, files): its stdout text and a
{path: text} dict of the CSVs it produces. main is the one writer: it adds
the manifest, commits the files in one _write_atomic call, then writes the
text to stdout.
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
LF line endings, 12 significant digits. A run's files are committed
together (see _write_atomic), so a run that fails while writing them leaves
every target as it was.

`sweep` and `decay` need only the closed forms of rbnl.closed_forms and the
standard library; the numpy-backed modules are imported inside the commands
that use them, and those commands exit 2 with one line when numpy is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone

from . import __version__
from .closed_forms import (_write_atomic, check_int, linspace, nmax_werner,
                           nrb_werner_closed_form, nvol_werner_analytic)

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
    quantifiers = (nrb_werner_closed_form, nvol_werner_analytic, nmax_werner)
    one = [f(1.0) for f in quantifiers]
    rows = []
    for mu in map(float, mu_values):
        q = [f(mu) for f in quantifiers]
        rows.append(SweepRow(mu, *q, *(x / x1 for x, x1 in zip(q, one))))
    return rows


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(_fmt(x) for x in r) + "\n" for r in rows)


def _manifest(args) -> str:
    doc = {
        "command": "rbnl " + " ".join(str(a) for a in args.argv),
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None) or None,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_sweep(args) -> tuple[str, dict]:
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
    files = {args.out: _csv("mu,n_rb,n_vol,n_max,norm_rb,norm_vol,norm_max", rows)}
    if args.samples > 0:
        from .bell import McConfig, nvol_mc

        # companion file: the fixed main header has no room for MC columns
        ests = [nvol_mc(r.mu, McConfig(n=args.samples, seed=args.seed)) for r in rows]
        files[args.out + ".mc.csv"] = _csv(
            "mu,mc_fraction,mc_std_error",
            ((r.mu, e.fraction, e.std_error) for r, e in zip(rows, ests)))
    return "", files


def cmd_state(args) -> tuple[str, dict]:
    """The report of N_rb of the state in args.state_file, as JSON text for
    stdout, with no files. nonlocality.nrb picks the route, and the method
    names it: "schmidt" with null argmaxes for the route "pure", else
    "optimizer". --grid and --restarts make the OptimizerConfig of a search.
    """
    check_int("grid", args.grid, 1, MAX_GRID)
    check_int("restarts", args.restarts, 1, MAX_RESTARTS)
    from .nonlocality import nrb
    from .search import OptimizerConfig
    from .states import load_state

    cfg = OptimizerConfig(theta_points=args.grid, phi_points=2 * args.grid, restarts=args.restarts)
    res = nrb(load_state(args.state_file), cfg)
    report = dict(n_rb=res.value, argmax_u=None, argmax_v=None, eta=None, method="schmidt")
    if res.route != "pure":
        report.update(argmax_u=res.argmax_u.components.tolist(),
                      argmax_v=res.argmax_v.components.tolist(), eta=res.eta, method="optimizer")
    return json.dumps(report, indent=2) + "\n", {}


def cmd_vol(args) -> tuple[str, dict]:
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
    return json.dumps(report, indent=2) + "\n", {}


def cmd_decay(args) -> tuple[str, dict]:
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise ValueError(f"t-max must be positive and finite, got {args.t_max}")
    check_int("steps", args.steps, 2, MAX_STEPS)
    ts = linspace(0.0, args.t_max, args.steps)
    rows = sweep_rows([math.exp(-t) for t in ts])
    return "", {args.out: _csv("t,mu,norm_rb,norm_vol,norm_max",
                               ((t, r.mu, r.norm_rb, r.norm_vol, r.norm_max)
                                for t, r in zip(ts, rows)))}


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
        text, files = args.run(args)
        if files:  # the manifest is renamed last, after the CSVs it records
            files[args.out + ".manifest.json"] = _manifest(args)
        _write_atomic(files)
        sys.stdout.write(text)
        return 0
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
