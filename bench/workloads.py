"""The four closed-loop workloads: one caller, one operation at a time.

Each workload builds its inputs from the seed with numpy (rbnl receives only
those inputs), runs one operation per batch item, and checks every result
against a second route. Items are timed from outside; `parts` splits an
item's time into the public calls it makes.

Why these four: mixed-search is where the two-qubit search does nearly all
the work; bell-volume exercises sampling, threading and quadrature and never
touches the search; cli-cold is what a user pays per invocation, dominated by
import; primitives isolates states, linalg and realism, which every other
workload spends only a few percent in.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "data" / "reference_states.json"
EIG_FLOOR = 1e-12


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it. Below 21 samples that percentile would not exceed
    the median, so the maximum stands in."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n >= 21 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def times(samples, part=None):
    """Every timed repetition of an operation (or of one of its parts)."""
    return [sum(parts.values()) if part is None else parts[part]
            for _, parts in samples if part is None or part in parts]


def rate(samples, part=None):
    """Completed operations per second of their own measured time. Runs are
    whole passes, so every batch item counts equally."""
    ts = times(samples, part)
    return len(ts) / sum(ts)


def latency(name, samples, part=None):
    """Median and tail over every timed repetition, in ms, with the tail's
    percentile and sample count."""
    ts = times(samples, part)
    value, pct, n = tail(ts)
    return {f"{name}_p50": (1e3 * statistics.median(ts), "ms"),
            f"{name}_tail": (1e3 * value, "ms"),
            f"{name}_tail_pct": (pct, "%"), f"{name}_tail_n": (n, "count")}


class HostSpeed:
    """Scales wall time to a reference host with an interleaved kernel.

    On a shared host the speed of the same code moves by 40% or more over
    tens of seconds (other tenants on the same cores), far more than the
    changes a benchmark has to see. A fixed kernel, timed every PROBE_EVERY
    seconds between operations, tracks that speed. A probe is the fastest of
    REPEATS kernel runs after one untimed run, which drops preemption spikes
    of several ms and the slow first run after the process sat idle. An
    operation's reference time is its wall time times NOMINAL_S over the
    median of the last WINDOW probes (the one right after it included): the
    time it would take on a host where the kernel takes NOMINAL_S.
    """

    NOMINAL_S = 1e-3
    PROBE_EVERY = 0.2
    REPEATS = 5
    WINDOW = 9

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        self._mats = list(g + g.conj().transpose(0, 2, 1))
        self._vec = rng.standard_normal(1 << 14)
        self.probes = []
        self._last = None
        self._pending = []
        self.probe()

    def _kernel(self):
        """Small-matrix numpy calls and a plain-Python loop, about 1 ms."""
        acc = 0.0
        for k in range(16):
            h = self._mats[k % 8]
            acc += float(np.linalg.eigvalsh(h @ h)[0])
            acc += float(np.sum(np.abs(np.kron(h[:2, :2], h[2:, 2:]))))
            acc += sum(j * j for j in range(40))
        return acc + float(np.dot(self._vec, np.sqrt(np.abs(self._vec))))

    def probe(self):
        self._kernel()
        ts = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            ts.append(time.perf_counter() - t0)
        self.probes.append(min(ts))
        self._last = time.perf_counter()
        return self.probes[-1]

    def add(self, key, parts):
        """Queue an operation's wall-time parts; they are scaled at the next
        probe. Returns the scaled (key, parts) released by a probe, if due."""
        self._pending.append((key, parts))
        if time.perf_counter() - self._last >= self.PROBE_EVERY:
            return self.flush()
        return []

    def flush(self):
        self.probe()
        factor = self.NOMINAL_S / statistics.median(self.probes[-self.WINDOW:])
        out = [(key, {k: v * factor for k, v in parts.items()})
               for key, parts in self._pending]
        self._pending = []
        return out

    def scaled(self, dt):
        """Scale one wall time now, probing right after it."""
        self._pending.append((None, {"t": dt}))
        return self.flush()[-1][1]["t"]

    def ref_ms(self):
        return 1e3 * statistics.median(self.probes)


class ChildSpeed(HostSpeed):
    """HostSpeed for times of child processes. A kernel probed in the parent
    right after a child exits does not track the child's speed (five seeds
    of cli-cold spread 0.16 scaled that way, 0.19 unscaled), so here the
    kernel is itself a fresh interpreter that imports numpy and runs a fixed
    loop, about 0.17 s on a 2-core machine, started after every operation.
    NOMINAL_S is its time on the reference host."""

    NOMINAL_S = 0.15
    PROBE_EVERY = 0.0
    ARGV = (sys.executable, "-c",
            "import numpy as np\n"
            "for k in range(150): np.linalg.eigvalsh(np.eye(4) * k)\n"
            "s = sum(j * j for j in range(200000))")

    def __init__(self):
        self.probes = []
        self._pending = []
        self.probe()

    def probe(self):
        t0 = time.perf_counter()
        subprocess.run(self.ARGV, check=True, capture_output=True, timeout=60)
        self._last = time.perf_counter()
        self.probes.append(self._last - t0)
        return self.probes[-1]


def spawn_seconds(argv, repeats, env=None, speed=None):
    """Median time of `repeats` runs of a fresh process: wall time, or scaled
    by `speed` (a ChildSpeed) when given."""
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        ts.append(dt if speed is None else speed.scaled(dt))
    return statistics.median(ts)


def entropy(m):
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def werner_matrix(mu):
    s = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    return (1 - mu) * np.eye(4, dtype=complex) / 4 + mu * np.outer(s, s.conj())


def random_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_projectors(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return [np.outer(q[:, k], q[:, k].conj()) for k in range(d)]


def close(a, b, tol):
    return abs(a - b) <= tol


class Workload:
    """An item list plus run/check. `warmup` picks the items run once, untimed,
    before the measured passes (default: the whole batch). A workload defines
    `warm` when the traced run times an in-process variant of the operation
    instead of the operation itself. `speed` is the HostSpeed class that
    scales its operation times, or None for plain wall time."""

    warmup = None
    warm = None
    speed = HostSpeed


class MixedSearch(Workload):
    name = "mixed-search"
    warmup = range(4)  # one random, one Werner, one random, one rank-1: ~2 s of a 14 s pass

    def __init__(self, rb, seed, work_dir):
        self.rb = rb
        pool = json.loads(REFERENCES.read_text(encoding="utf-8"))["states"]
        rng = np.random.default_rng(seed)
        randoms = []
        for rank, k in ((2, 6), (3, 5), (4, 5)):
            of_rank = [s for s in pool if s["rank"] == rank]
            randoms += [of_rank[i] for i in rng.choice(len(of_rank), k, replace=False)]
        order = rng.permutation(len(randoms))
        randoms = [randoms[i] for i in order]
        # one Werner weight in each eighth of [0.05, 1], so seeds differ less in cost
        mus = 0.05 + 0.95 * (rng.permutation(8) + rng.uniform(0.0, 1.0, 8)) / 8
        vecs = [random_vector(rng, 4) for _ in range(8)]
        self.items = []
        for g in range(8):  # R W R P, so any prefix of the batch keeps the mix
            for kind, src in (("random", randoms[2 * g]), ("werner", mus[g]),
                              ("random", randoms[2 * g + 1]), ("pure", vecs[g])):
                if kind == "random":
                    m = np.array(src["re"]) + 1j * np.array(src["im"])
                    item = {"kind": kind, "m": m, "ref": src["n_rb"]}
                elif kind == "werner":
                    item = {"kind": kind, "m": werner_matrix(src), "mu": float(src)}
                else:
                    item = {"kind": kind, "m": np.outer(src, src.conj()), "vec": src}
                item["rho"] = rb.DensityMatrix(item["m"], (2, 2))
                self.items.append(item)

    def run(self, item):
        rb = self.rb
        t0 = time.perf_counter()
        res = rb.nrb_two_qubit(item["rho"])
        t1 = time.perf_counter()
        nmax = rb.nmax_numeric(item["rho"])
        t2 = time.perf_counter()
        return (res, nmax), {"nrb": t1 - t0, "nmax": t2 - t1}

    def check(self, item, result):
        rb = self.rb
        res, nmax = result
        bad = []
        if item["kind"] == "werner":
            want = rb.nrb_werner_closed_form(item["mu"])
            if not close(res.value, want, 1e-5):
                bad.append(f"werner N_rb {res.value!r} vs closed form {want!r}")
        elif item["kind"] == "pure":
            want = rb.entanglement_entropy(rb.PureState(item["vec"], (2, 2)))
            if not close(res.value, want, 1e-4):
                bad.append(f"rank-1 N_rb {res.value!r} vs entanglement {want!r}")
        elif res.value < item["ref"] - 1e-6:
            bad.append(f"random N_rb {res.value!r} below reference {item['ref']!r}")
        a = rb.LocalPVM(rb.bloch_pvm(res.argmax_u), "A")
        b = rb.LocalPVM(rb.bloch_pvm(res.argmax_v), "B")
        again = rb.delta_irreality(a, b, item["rho"])
        if not close(again, res.value, 1e-9):
            bad.append(f"argmax re-evaluates to {again!r}, reported {res.value!r}")
        t = rb.correlation_matrix(item["rho"])
        lam = np.sort(np.linalg.eigvalsh(t.T @ t))
        horodecki = max(0.0, math.sqrt(max(lam[-1] + lam[-2], 0.0)) - 1.0)
        if not close(nmax, horodecki, 1e-5):
            bad.append(f"N_max {nmax!r} vs Horodecki {horodecki!r}")
        return bad

    def detail(self, samples):
        return {
            "nrb_states_per_s": (rate(samples, "nrb"), "1/s"),
            **latency("nrb_ms", samples, "nrb"),
            "nmax_states_per_s": (rate(samples, "nmax"), "1/s"),
        }

    def layer_detail(self, view):
        nrb = "nonlocality.nrb_two_qubit"
        out = {f"{nrb}_ms.{k}": (view.median_span(nrb, 1e3, kind=k), "ms")
               for k in ("random", "werner", "pure")}
        refine = view.total("nonlocality.minimize")
        nfev = view.optimizer("nonlocality.minimize", "nfev")
        out["nonlocality.refine_share"] = (view.ratio(refine, view.total(nrb)), "1")
        for field in ("nfev", "unconverged"):
            out[f"nonlocality.refine_{field}"] = (
                view.optimizer("nonlocality.minimize", field, per_pass=True), "count")
        out["nonlocality.objective_us"] = (view.ratio(refine, nfev, 1e6), "us")
        out["bell.nmax_numeric_ms"] = (view.median_span("bell.nmax_numeric", 1e3), "ms")
        out["bell.nmax_refine_nfev"] = (
            view.optimizer("bell.minimize", "nfev", per_pass=True), "count")
        out["bell.correlation_matrix_us"] = (view.median_span("bell.correlation_matrix", 1e6), "us")
        return out


class BellVolume(Workload):
    name = "bell-volume"
    SAMPLES = 10**6
    MUS = (0.75, 0.9, 1.0)
    QUAD = (0.9, 1000)
    warmup = (0, 3)  # every Monte Carlo path, and the quadrature
    # Wall time: the small-matrix probe does not track these large-array
    # kernels; five seeds spread 0.13 scaled against 0.06 unscaled.
    speed = None

    def __init__(self, rb, seed, work_dir):
        self.rb = rb
        rng = np.random.default_rng(seed)
        self.items = [{"kind": "mc", "mu": mu, "seed": int(rng.integers(2**31))}
                      for mu in self.MUS]
        self.items.append({"kind": "quadrature", "mu": self.QUAD[0]})

    def run(self, item):
        rb = self.rb
        if item["kind"] == "quadrature":
            t0 = time.perf_counter()
            q = rb.nvol_quadrature(item["mu"], self.QUAD[1])
            return q, {"quadrature": time.perf_counter() - t0}
        out, parts = {}, {}
        for key, method, workers in (("angles_w1", "angles", 1), ("angles_w2", "angles", 2),
                                     ("xyz_w1", "xyz", 1)):
            cfg = rb.McConfig(n=self.SAMPLES, seed=item["seed"], method=method)
            t0 = time.perf_counter()
            out[key] = rb.nvol_mc(item["mu"], cfg, workers=workers)
            parts[key] = time.perf_counter() - t0
        return out, parts

    def check(self, item, result):
        want = self.rb.nvol_werner_analytic(item["mu"])
        if item["kind"] == "quadrature":
            if close(result, want, 1e-4):
                return []
            return [f"quadrature {result!r} vs analytic {want!r}"]
        bad = []
        for key in ("angles_w1", "xyz_w1"):
            est = result[key]
            z = (est.fraction - want) / est.std_error if est.std_error > 0 else (
                0.0 if est.fraction == want else math.inf)
            if abs(z) > 4:
                bad.append(f"{key} fraction {est.fraction!r} is {z:.2f} sigma from {want!r}")
        if result["angles_w1"].fraction != result["angles_w2"].fraction:
            bad.append("MC count differs between workers 1 and 2")
        return bad

    def detail(self, samples):
        def med(part):
            return statistics.median(times(samples, part))

        return {
            "mc_samples_per_s": (self.SAMPLES / med("angles_w1"), "1/s"),
            "mc_samples_per_s_w2": (self.SAMPLES / med("angles_w2"), "1/s"),
            "quadrature_s": (med("quadrature"), "s"),
        }

    def layer_detail(self, view):
        out = {}
        per_1e6 = 1e6 / self.SAMPLES
        for pos, key in enumerate(("angles_w1", "angles_w2", "xyz_w1")):
            out[f"bell.nvol_mc_s_per_1e6.{key}"] = (
                view.median_span("bell.nvol_mc", per_1e6, position=pos), "s")
        out["bell.mc_chunks"] = (view.per_pass_count("bell._mc_chunk_count"), "count")
        out["bell.nvol_quadrature_s"] = (view.median_span("bell.nvol_quadrature", 1.0), "s")
        out["bell.quadrature_cells"] = (view.per_pass_count("bell.quadrature_cells"), "count")
        return out


class CliCold(Workload):
    name = "cli-cold"
    GOLDEN = HERE.parent / "tests" / "data" / "sweep_golden.csv"
    STATE_KEYS = {"n_rb", "argmax_u", "argmax_v", "eta", "method"}
    VOL_KEYS = {"fraction", "std_error", "analytic", "z_score"}
    MANIFEST_KEYS = {"command", "seed", "samples", "version", "timestamp"}
    speed = ChildSpeed

    def __init__(self, rb, seed, work_dir):
        self.rb = rb
        self.golden = self.GOLDEN.read_bytes()
        self.work = Path(work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        vec = random_vector(rng, 4)
        self.pure_entropy = entropy(np.outer(vec, vec.conj()).reshape(2, 2, 2, 2)
                                    .trace(axis1=1, axis2=3))
        self.mixed_mu = float(rng.uniform(0.3, 0.95))
        self.vol_mu = float(rng.uniform(0.75, 1.0))
        for name, m in (("pure.json", np.outer(vec, vec.conj())),
                        ("mixed.json", werner_matrix(self.mixed_mu))):
            doc = {"dims": [2, 2], "matrix": [[{"re": float(z.real), "im": float(z.imag)}
                                               for z in row] for row in m]}
            (self.work / name).write_text(json.dumps(doc), encoding="utf-8")
        sweep = self.work / "sweep.csv"
        decay = self.work / "decay.csv"
        self.items = [
            {"kind": "sweep", "out": sweep,
             "args": ["sweep", "--mu-start", "0", "--mu-end", "1", "--steps", "101",
                      "--out", str(sweep)]},
            {"kind": "decay", "out": decay, "args": ["decay", "--out", str(decay)]},
            {"kind": "state", "file": "pure", "args": ["state", str(self.work / "pure.json")]},
            {"kind": "state", "file": "mixed", "args": ["state", str(self.work / "mixed.json")]},
            {"kind": "vol", "args": ["vol", "--mu", repr(self.vol_mu), "--samples", "100000",
                                     "--seed", str(int(rng.integers(2**31))),
                                     "--method", "xyz"]},
        ]
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env.pop("RNL_SEED", None)

    def _clear(self, item):
        if "out" in item:
            for suffix in ("", ".manifest.json"):
                Path(str(item["out"]) + suffix).unlink(missing_ok=True)

    def run(self, item):
        self._clear(item)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "rbnl", *item["args"]], cwd=self.work,
                              env=self.env, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        return (proc.returncode, proc.stdout, proc.stderr), {"cold": dt}

    def warm(self, item):
        self._clear(item)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rb.cli.main(list(item["args"]))
        dt = time.perf_counter() - t0
        return (code, out.getvalue(), err.getvalue()), {"warm": dt}

    def check(self, item, result):
        code, out, err = result
        if code != 0:
            return [f"{item['kind']} exited {code}: {err.strip()[-200:]}"]
        kind = item["kind"]
        bad = []
        if kind in ("sweep", "decay"):
            manifest = Path(str(item["out"]) + ".manifest.json")
            if not manifest.is_file() or not self.MANIFEST_KEYS <= set(
                    json.loads(manifest.read_text(encoding="utf-8"))):
                bad.append(f"{kind} manifest missing or incomplete")
        if kind == "sweep" and item["out"].read_bytes() != self.golden:
            bad.append("sweep CSV differs from tests/data/sweep_golden.csv")
        if kind == "decay":
            lines = item["out"].read_text(encoding="utf-8").splitlines()
            if lines[0] != "t,mu,norm_rb,norm_vol,norm_max" or len(lines) != 102 or any(
                    len(line.split(",")) != 5 for line in lines):
                bad.append("decay CSV has the wrong header or shape")
        if kind == "state":
            rep = json.loads(out)
            if set(rep) != self.STATE_KEYS:
                return [f"state keys {sorted(rep)}"]
            if item["file"] == "pure":
                ok = rep["method"] == "schmidt" and close(rep["n_rb"], self.pure_entropy, 1e-9)
            else:
                ok = rep["method"] == "optimizer" and close(
                    rep["n_rb"], self.rb.nrb_werner_closed_form(self.mixed_mu), 1e-5)
            if not ok:
                bad.append(f"state {item['file']}: {rep['method']} {rep['n_rb']!r}")
        if kind == "vol":
            rep = json.loads(out)
            if set(rep) != self.VOL_KEYS:
                return [f"vol keys {sorted(rep)}"]
            if (abs(rep["z_score"]) > 4
                    or rep["analytic"] != self.rb.nvol_werner_analytic(self.vol_mu)):
                bad.append(f"vol fraction {rep['fraction']!r}, z {rep['z_score']!r}")
        return bad

    def detail(self, samples):
        return latency("cli_cold_ms", samples)

    def _import_times(self, repeats=3):
        """Cumulative import time of rbnl and scipy.optimize from -X importtime."""
        found = {"rbnl": [], "scipy.optimize": []}
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rbnl"],
                                  env=self.env, check=True, capture_output=True, text=True,
                                  timeout=120)
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() in found:
                    found[fields[2].strip()].append(int(fields[1]) * 1e-6)
        return {k: statistics.median(v) if v else None for k, v in found.items()}

    def layer_detail(self, view):
        imports = self._import_times()
        out = {
            "cli.interpreter_s": (spawn_seconds([sys.executable, "-c", "pass"], 5, self.env),
                                  "s"),
            "cli.import_s": (imports["rbnl"], "s"),
            "cli.import_scipy_s": (imports["scipy.optimize"], "s"),
        }
        for kind in ("sweep", "decay", "state", "vol"):
            cold = times([s for s in view.samples if self.items[s[0]]["kind"] == kind])
            out[f"cli.{kind}_cold_s"] = (statistics.median(cold), "s")
        per_item = {}
        for idx, parts in view.warm_samples:
            per_item.setdefault(idx, []).append(sum(parts.values()))
        out["cli.main_warm_s"] = (sum(statistics.median(v) for v in per_item.values()), "s")
        return out


class Primitives(Workload):
    name = "primitives"
    DIMS = ((2, 2), (2, 3), (3, 3))

    def __init__(self, rb, seed, work_dir):
        self.rb = rb
        rng = np.random.default_rng(seed)
        self.items = []
        for k in range(300):  # two triples, then one pure 3x3 state
            for j in (2 * k, 2 * k + 1):
                d_a, d_b = self.DIMS[j % 3]
                n = d_a * d_b
                rank = 1 + (j // 3) % n
                w = rng.random(rank)
                w /= w.sum()
                m = sum(w[r] * np.outer(v, v.conj())
                        for r, v in enumerate(random_vector(rng, n) for _ in range(rank)))
                self.items.append({"kind": "triple", "dims": (d_a, d_b),
                                   "m": (m + m.conj().T) / 2,
                                   "pa": random_projectors(rng, d_a),
                                   "pb": random_projectors(rng, d_b)})
            self.items.append({"kind": "pure", "vec": random_vector(rng, 9)})

    def run(self, item):
        rb = self.rb
        t0 = time.perf_counter()
        if item["kind"] == "pure":
            value = rb.nrb_pure(rb.PureState(item["vec"], (3, 3))).value
            return value, {"pure": time.perf_counter() - t0}
        rho = rb.DensityMatrix(item["m"], item["dims"])
        a = rb.LocalPVM(rb.PVM(tuple(item["pa"])), "A")
        b = rb.LocalPVM(rb.PVM(tuple(item["pb"])), "B")
        out = (rb.dephase(rho, a).matrix, rb.irreality(a, rho), rb.delta_irreality(a, b, rho))
        return out, {"triple": time.perf_counter() - t0}

    @staticmethod
    def _oracle(item):
        """Dephasings and entropies by direct numpy sums, independent of rbnl."""
        if "oracle" in item:
            return item["oracle"]
        d_a, d_b = item["dims"]
        m = item["m"]
        pa = [np.kron(p, np.eye(d_b)) for p in item["pa"]]
        pb = [np.kron(np.eye(d_a), p) for p in item["pb"]]
        ra = sum(p @ m @ p for p in pa)
        rb_ = sum(p @ m @ p for p in pb)
        rab = sum(p @ rb_ @ p for p in pa)
        s, s_a, s_b, s_ab = (entropy(x) for x in (m, ra, rb_, rab))
        item["oracle"] = (ra, s_a - s, s_a + s_b - s_ab - s)
        return item["oracle"]

    def check(self, item, result):
        if item["kind"] == "pure":
            sv = np.linalg.svd(item["vec"].reshape(3, 3), compute_uv=False) ** 2
            sv = sv[sv > EIG_FLOOR]
            want = float(-np.sum(sv * np.log(sv)))
            return [] if close(result, want, 1e-10) else [f"nrb_pure {result!r} vs {want!r}"]
        ra, irr, drop = self._oracle(item)
        deph, got_irr, got_drop = result
        bad = []
        if float(np.max(np.abs(deph - ra))) > 1e-12:
            bad.append("dephase differs from the projector sum")
        if not close(got_irr, irr, 1e-10) or got_irr < -1e-10:
            bad.append(f"irreality {got_irr!r} vs {irr!r}")
        if not close(got_drop, drop, 1e-10):
            bad.append(f"delta_irreality {got_drop!r} vs S_a + S_b - S_ab - S = {drop!r}")
        return bad

    def detail(self, samples):
        return {
            "prim_ops_per_s": (rate(samples, "triple"), "1/s"),
            "pure_states_per_s": (rate(samples, "pure"), "1/s"),
        }

    def layer_detail(self, view):
        names = ("states.DensityMatrix", "states.PVM", "linalg.von_neumann_entropy",
                 "linalg.hermitian_spectrum", "realism.dephase", "realism.delta_irreality",
                 "nonlocality.nrb_pure", "nonlocality.schmidt")
        short = {"states.DensityMatrix": "states.density_matrix", "states.PVM": "states.pvm"}
        return {f"{short.get(n, n)}_us": (view.median_span(n, 1e6), "us") for n in names}


WORKLOADS = {w.name: w for w in (MixedSearch, BellVolume, CliCold, Primitives)}
