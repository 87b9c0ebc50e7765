"""Layered benchmark for rbnl.

    python3 bench/run.py --workload mixed-search --seed 1 --seconds 22 --trace 0

Builds the workload's inputs from --seed, runs a warm-up, then whole passes
over the batch for about --seconds (at least one pass), checks every result,
prints every metric by name with its unit, writes
bench/out/<workload>-s<seed>-t<trace>.json and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 times each item twice,
untraced and then with rbnl's public functions wrapped by bench/tracing.py,
and reports the per-layer metrics and the tracing overhead.

Operation times are scaled to a reference host by an interleaved kernel
(workloads.HostSpeed in process, workloads.ChildSpeed for child processes
and setup_s; bell-volume stays wall-clock); the plain wall-clock figures are
printed next to them with a `_wall` suffix.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

from tracing import LAYERS, Tracer, TraceView  # noqa: E402  (bench/ is sys.path[0])
from workloads import WORKLOADS, ChildSpeed, latency, rate, spawn_seconds  # noqa: E402


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(1)


def import_rbnl():
    if not (SRC / "rbnl" / "__init__.py").is_file():
        fail(f"no rbnl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rbnl
    import rbnl.cli  # noqa: F401  (the cli module is not imported by the package)
    if Path(rbnl.__file__).resolve().parent != SRC / "rbnl":
        fail(f"imported rbnl from {rbnl.__file__}, not from {SRC}")
    return rbnl


def environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    # read, not `git rev-parse`: a benchmark checkout need not be a repository
    head = ROOT / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: "):
        ref = ROOT / ".git" / commit[5:]
        commit = ref.read_text().strip() if ref.is_file() else None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
            "seed": seed, "loadavg": list(os.getloadavg())}


def work_dir(name, seed):
    return OUT / f"work-{name}-s{seed}-{os.getpid()}"


def setup_seconds(name, seed):
    """Median time, scaled by ChildSpeed, of a fresh interpreter that
    imports rbnl and builds the workload's inputs: what any run pays before
    its first call."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    try:
        return spawn_seconds(argv, SETUP_REPEATS, speed=ChildSpeed())
    except RuntimeError as exc:
        fail(f"set-up probe failed: {exc}")


class Run:
    """Operation counts and check failures of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, fn, item, tracer=None, op_id=None):
        """Run and check one operation; return its timed parts, or None if it
        raised. With a tracer the call is wrapped in an operation span and
        the check runs after the wrappers are removed."""
        self.attempted += 1
        try:
            if tracer is None:
                result, parts = fn(item)
            else:
                tracer.op = op_id
                tracer.install()
                tracer.open(f"op.{item['kind']}", "bench")
                try:
                    result, parts = fn(item)
                finally:
                    tracer.close()
                    tracer.uninstall()
            bad = self.wl.check(item, result)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            parts, bad = None, [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failed += 1
            self.problems.extend(bad[: max(0, 50 - len(self.problems))])
        return parts


def measure(wl, seconds, host, tracer):
    """Closed loop of whole passes over the batch: another pass starts only
    if it should end within `seconds` of the first, so every item runs the
    same number of times. Samples are (item index, parts), scaled by `host`
    unless it is None.
    With a tracer each item also runs traced, after an untraced run of the
    same operation; `paired` holds (untraced s, traced s). `wall` holds the
    unscaled samples."""
    run = Run(wl)
    samples, wall, warm, paired, ops, kinds = [], [], [], [], {}, {}
    start = time.perf_counter()
    op_id = passes = 0
    last = 0.0
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        t_pass = time.perf_counter()
        for idx, item in enumerate(wl.items):
            parts = run.op(wl.run, item)
            if parts is not None:
                wall.append((idx, parts))
                samples.extend(host.add(idx, parts) if host is not None else [(idx, parts)])
            if tracer is not None:
                base = parts
                if wl.warm is not None:
                    base = run.op(wl.warm, item)
                    if base is not None:
                        warm.append((idx, base))
                kinds[op_id] = item["kind"]
                traced = run.op(wl.warm or wl.run, item, tracer, op_id)
                if base is not None and traced is not None:
                    paired.append((sum(base.values()), sum(traced.values())))
                    ops[op_id] = idx
            op_id += 1
        passes += 1
        last = time.perf_counter() - t_pass
    if host is not None:
        samples.extend(host.flush())
    return SimpleNamespace(run=run, passes=passes, samples=samples, wall=wall, warm=warm,
                           paired=paired, ops=ops, kinds=kinds)


def overhead_pct(paired):
    base = sum(u for u, _ in paired)
    return 100.0 * (sum(t for _, t in paired) - base) / base


def fmt(value):
    return "absent" if value is None else repr(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    rb = import_rbnl()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    wd = work_dir(args.workload, args.seed)
    if args.setup_only:
        try:
            cls(rb, args.seed, wd)
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        return 0

    env = environment(args.seed)
    setup_s = setup_seconds(args.workload, args.seed)
    tracer = Tracer(rb) if args.trace else None
    try:
        wl = cls(rb, args.seed, wd)
        for idx in wl.warmup or range(len(wl.items)):
            for fn in (wl.run, wl.warm if tracer is not None else None):
                try:
                    if fn is not None:
                        fn(wl.items[idx])
                except Exception:  # the measured passes run this item again and record it
                    pass
        host = cls.speed() if cls.speed else None
        m = measure(wl, args.seconds, host, tracer)
        run, samples = m.run, m.samples
        if not samples:
            fail("no operation completed")
        end_to_end = {"setup_s": (setup_s, "s"), "ops_per_s": (rate(samples), "1/s")}
        detail = {**latency("op_ms", samples), "ops_per_s_wall": (rate(m.wall), "1/s"),
                  "op_ms_p50_wall": latency("op_ms", m.wall)["op_ms_p50"],
                  "host_ref_ms": (host.ref_ms() if host is not None else None, "ms"),
                  "passes": (m.passes, "count"),
                  **wl.detail(samples), "fail_frac": (run.failed / run.attempted, "1")}
        per_layer, layer_detail = {}, {}
        if tracer is not None:
            view = TraceView(tracer, m.ops, m.kinds, m.wall, m.warm)
            per_layer = view.trace_metrics(overhead_pct(m.paired))
            layer_detail = {**view.layer_metrics(LAYERS), **wl.layer_detail(view)}
            layer_detail["missing_wrapped_names"] = (len(tracer.missing), "count")
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    reported = per_layer if tracer is not None else end_to_end
    print("env " + json.dumps(env))
    for name, (value, unit) in {**end_to_end, **detail, **per_layer, **layer_detail}.items():
        print(f"{name:48s} {fmt(value)} {unit}")
    if tracer is not None and tracer.missing:
        print("absent (wrapped name gone): " + ", ".join(tracer.missing))
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}")

    OUT.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env, "attempted": run.attempted,
           "failed": run.failed, "problems": run.problems,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in {**end_to_end, **detail, **per_layer,
                                         **layer_detail}.items()}}
    if tracer is not None:
        doc["missing_wrapped_names"] = tracer.missing
        doc["span_fields"] = ["id", "name", "layer", "start", "end", "parent", "op"]
        doc["spans"] = tracer.spans
        doc["op_kinds"] = {str(k): v for k, v in m.kinds.items()}
        doc["counts"] = [[op, key, n] for (op, key), n in tracer.counts.items()]
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
