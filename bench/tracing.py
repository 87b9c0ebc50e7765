"""In-memory span tracer that wraps rbnl's public functions from outside.

Nothing under src/ is edited. `Tracer.install` replaces module attributes
(and the same object wherever another rbnl module re-exports it) with timing
wrappers; `Tracer.uninstall` puts the originals back, so untraced timings run
the unmodified code. A wrapped name that no longer exists is recorded as
missing, and every metric derived from it is reported as absent.

Spans are tuples (id, name, layer, start, end, parent, op) kept in a list and
written once, when the benchmark ends. Calls made on worker threads are not
spanned (their parent would be ambiguous); only the designated counters
record them, under a lock.
"""
from __future__ import annotations

import functools
import threading
import time
import statistics
from collections import Counter

LAYERS = ("states", "linalg", "realism", "nonlocality", "bell", "cli")

# (module, attribute) pairs to time. "Class.method" names patch the class.
SPANNED = (
    ("states", "DensityMatrix.__post_init__"),
    ("states", "PureState.__post_init__"),
    ("states", "PVM.__post_init__"),
    ("states", "load_state"),
    ("linalg", "hermitian_spectrum"),
    ("linalg", "von_neumann_entropy"),
    ("linalg", "entropy_from_eigenvalues"),
    ("linalg", "partial_trace"),
    ("realism", "dephase"),
    ("realism", "irreality"),
    ("realism", "delta_irreality"),
    ("nonlocality", "nrb_two_qubit"),
    ("nonlocality", "nrb_pure"),
    ("nonlocality", "schmidt"),
    ("nonlocality", "entanglement_entropy"),
    ("nonlocality", "nrb_werner_closed_form"),
    ("nonlocality", "minimize"),
    ("bell", "correlation_matrix"),
    ("bell", "nmax_numeric"),
    ("bell", "nmax_werner"),
    ("bell", "minimize"),
    ("bell", "nvol_mc"),
    ("bell", "nvol_quadrature"),
    ("bell", "nvol_werner_analytic"),
    ("cli", "main"),
    ("cli", "sweep_rows"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_state"),
    ("cli", "cmd_vol"),
    ("cli", "cmd_decay"),
)
# counted on any thread, never spanned
COUNTED = (("bell", "_mc_chunk_count"),)


class _NumpyCounter:
    """Stands in for `bell.np`: forwards every attribute to numpy and counts
    the cells `count_nonzero` tests while nvol_quadrature is the innermost
    open span on the main thread."""

    def __init__(self, np_module, tracer):
        self._np = np_module
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._np, name)
        if name != "count_nonzero":
            return attr
        tracer = self._tracer

        def count_nonzero(a, *args, **kwargs):
            if tracer.innermost() == "bell.nvol_quadrature":
                tracer.count("bell.quadrature_cells", int(self._np.size(a)))
            return attr(a, *args, **kwargs)

        return count_nonzero


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.spans = []
        self.counts = Counter()
        self.results = []  # (span id, name, optimizer result) for minimize
        self.missing = []
        self.op = None
        self._stack = []
        self._next = 0
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._saved = []
        self._modules = {m: getattr(package, m) for m in LAYERS}

    # -- recording --------------------------------------------------------
    def innermost(self):
        if threading.get_ident() != self._main or not self._stack:
            return None
        return self._stack[-1][1]

    def count(self, key, n=1):
        # keyed by the open operation, which is set on the main thread
        # before any worker thread of that operation starts
        with self._lock:
            self.counts[(self.op, key)] += n

    def open(self, name, layer):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name, layer, parent, time.perf_counter()))
        return sid

    def close(self):
        end = time.perf_counter()
        sid, name, layer, parent, start = self._stack.pop()
        self.spans.append((sid, name, layer, start, end, parent, self.op))

    def _spanned(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            sid = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if name.endswith(".minimize"):
                tracer.results.append((sid, name, out))
            return out

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, mod_name, attr, make):
        mod = self._modules[mod_name]
        owner, _, leaf = attr.rpartition(".")
        target = getattr(mod, owner, None) if owner else mod
        if target is None or leaf not in vars(target):
            self.missing.append(f"{mod_name}.{attr}")
            return
        original = vars(target)[leaf]
        wrapper = make(original)
        self._set(target, leaf, wrapper)
        if owner or not getattr(original, "__module__", "").startswith(self.pkg.__name__):
            return  # a method, or a foreign name imported into this module only
        for other in (self.pkg, *self._modules.values()):
            if other is not mod:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)

    def install(self):
        if self._saved:
            return
        self.missing = []
        for mod_name, attr in SPANNED:
            name = f"{mod_name}.{attr.replace('.__post_init__', '')}"
            self._patch(mod_name, attr,
                        lambda fn, n=name, l=mod_name: self._spanned(n, l, fn))
        for mod_name, attr in COUNTED:
            self._patch(mod_name, attr,
                        lambda fn, n=f"{mod_name}.{attr}": self._counted(n, fn))
        bell = self._modules["bell"]
        if "np" in vars(bell):
            self._set(bell, "np", _NumpyCounter(bell.np, self))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class TraceView:
    """Per-layer quantities over the traced operations of one run.

    `ops` maps each traced operation id to its batch item index; per-pass
    figures sum one traced operation per item. A quantity whose spans or
    counters never appeared is None, reported as absent.
    """

    def __init__(self, tracer, ops, kinds, samples, warm_samples):
        self.tracer = tracer
        self.spans = tracer.spans
        self.kinds = kinds
        self.samples = samples
        self.warm_samples = warm_samples
        first = {}
        for op, idx in ops.items():
            first.setdefault(idx, op)
        self.first_ops = set(first.values())

    def _named(self, name, kind=None):
        return [s for s in self.spans
                if s[1] == name and (kind is None or self.kinds[s[6]] == kind)]

    def median_span(self, name, scale, kind=None, position=None):
        spans = self._named(name, kind)
        if position is not None:
            by_op = {}
            for s in sorted(spans, key=lambda s: s[3]):
                by_op.setdefault(s[6], []).append(s)
            spans = [v[position] for v in by_op.values() if len(v) > position]
        if not spans:
            return None
        return scale * statistics.median(s[4] - s[3] for s in spans)

    def total(self, name):
        spans = self._named(name)
        return sum(s[4] - s[3] for s in spans) if spans else None

    def optimizer(self, name, field, per_pass=False):
        """Sum of `field` ("nfev", or "unconverged" for success False) over
        the results of the wrapped optimizer `name`."""
        op_of = {s[0]: s[6] for s in self.spans}
        results = [r for sid, n, r in self.tracer.results
                   if n == name and (not per_pass or op_of[sid] in self.first_ops)]
        if not results:
            return None
        if field == "unconverged":
            return sum(1 for r in results if not r.success)
        return sum(int(getattr(r, field)) for r in results)

    def per_pass_count(self, key):
        total = sum(n for (op, k), n in self.tracer.counts.items()
                    if k == key and op in self.first_ops)
        return total or None

    @staticmethod
    def ratio(num, den, scale=1.0):
        if num is None or not den:
            return None
        return scale * num / den

    def trace_metrics(self, overhead_pct):
        """The per-layer metrics every workload reports: tracing overhead,
        wrapped rbnl calls per operation (counted on the first pass, so they
        repeat exactly), and time inside the outermost wrapped calls."""
        ops = {s[0] for s in self.spans if s[2] == "bench"}
        top = [s for s in self.spans if s[2] != "bench" and s[5] in ops]
        top_s = sum(s[4] - s[3] for s in top)
        calls = sum(1 for s in self.spans if s[2] != "bench")
        first_calls = sum(1 for s in self.spans if s[2] != "bench" and s[6] in self.first_ops)
        return {"trace.overhead_pct": (overhead_pct, "%"),
                "trace.calls_per_op": (first_calls / len(self.first_ops), "count"),
                "trace.rbnl_ms_per_op": (1e3 * top_s / len(ops), "ms"),
                "trace.us_per_call": (1e6 * top_s / calls, "us")}

    def layer_metrics(self, layers):
        """Calls per pass and share of traced operation time spent in each
        layer's own code; absent for a layer the workload never enters."""
        selfs = self_times(self.spans)
        op_time = sum(s[4] - s[3] for s in self.spans if s[2] == "bench")
        out = {}
        for layer in layers:
            mine = [s for s in self.spans if s[2] == layer]
            entered = bool(mine)
            out[f"{layer}.calls"] = (
                sum(1 for s in mine if s[6] in self.first_ops) if entered else None, "count")
            out[f"{layer}.self_pct"] = (
                100.0 * sum(selfs[s[0]] for s in mine) / op_time if entered else None, "%")
        return out


def self_times(spans):
    """Self time per span id: duration minus the time of direct children."""
    child = Counter()
    for sid, _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}
