import math
from dataclasses import dataclass

import numpy as np
import pytest

from rbnl import bell
from rbnl.bell import (_MC_BLOCK, MAX_WORKERS, MC_CHUNK, McConfig, McEstimate,
                       _mc_chunk_count, correlation_matrix, nmax_numeric, nmax_werner,
                       nvol_mc, nvol_quadrature, nvol_werner_analytic)
from rbnl.linalg import EIG_CLIP, tensor
from rbnl.search import OptimizerConfig, refine, sphere_grid
from rbnl.states import BlochVector, random_density, singlet, werner

SQRT2 = math.sqrt(2.0)


# The CHSH value of explicit settings and the reduced (x, y, z) coordinates
# of the volume fraction, by their definitions: independent routes for the
# tests, not part of the package.
@dataclass(frozen=True)
class ChshSettings:
    """One CHSH measurement context: two directions per side."""

    u1: BlochVector
    u2: BlochVector
    v1: BlochVector
    v2: BlochVector


@dataclass(frozen=True)
class ReducedPoint:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (-1.0 <= self.x <= 1.0 and -1.0 <= self.y <= 1.0):
            raise ValueError(f"x and y must lie in [-1, 1], got ({self.x}, {self.y})")
        if not 0.0 <= self.z <= 1.0:
            raise ValueError(f"z must lie in [0, 1], got {self.z}")


def correlator(rho, u, v):
    """Tr[rho (u.sigma (x) v.sigma)]."""
    return float(np.real(np.trace(rho.matrix @ tensor(u.dot_sigma(), v.dot_sigma()))))


def chsh_value(rho, s):
    """|C(u1,v1) + C(u1,v2) + C(u2,v1) - C(u2,v2)|. At most 2 for Bell-local
    models and 2 sqrt(2) for quantum states."""
    return abs(correlator(rho, s.u1, s.v1) + correlator(rho, s.u1, s.v2)
               + correlator(rho, s.u2, s.v1) - correlator(rho, s.u2, s.v2))


def bfrak(p):
    """|x sqrt(z) + y sqrt(1 - z)|, at most sqrt(2)."""
    return abs(p.x * math.sqrt(p.z) + p.y * math.sqrt(1.0 - p.z))


def unit(rng):
    n = rng.normal(size=3)
    return BlochVector(n / np.linalg.norm(n))


def chsh_objective(t):
    """For fixed v1, v2 the best u's are analytic:
    max_u1,u2 B = |T(v1 + v2)| + |T(v1 - v2)|. An objective of refine:
    batched over the pairs x = (v1, v2) (m, 2, 3), with the gradient
    (m, 2, 3) and the 6 x 6 Hessian in the order of x.reshape(m, 6)."""

    def norm_derivatives(w):
        # d|T w|/dw = T^T y^ and d2|T w|/dw2 = T^T (I - y^ y^T) T / |y| for
        # y = T w; where |y| = 0 (a kink), 0 is a valid subgradient
        y = w @ t.T
        r = np.linalg.norm(y, axis=1)
        rc = np.maximum(r, EIG_CLIP)[:, None]
        ty = (y / rc) @ t
        hess = (t.T @ t - ty[:, :, None] * ty[:, None, :]) / rc[:, :, None]
        return r, ty, hess

    def objective(x):
        v1, v2 = x[:, 0], x[:, 1]
        rp, g_plus, h_plus = norm_derivatives(v1 + v2)
        rm, g_minus, h_minus = norm_derivatives(v1 - v2)
        same, cross = h_plus + h_minus, h_plus - h_minus
        hess = np.concatenate([np.concatenate([same, cross], axis=2),
                               np.concatenate([cross, same], axis=2)], axis=1)
        return rp + rm, np.stack([g_plus + g_minus, g_plus - g_minus], axis=1), hess

    return objective


def chsh_search(rho):
    """The best CHSH value by search, a route independent of the closed
    form: chsh_objective scored on every pair of the default grid, the pair
    (dirs[i], dirs[j]) at the flat index i n + j, and the best pairs refined
    by rbnl.search."""
    cfg = OptimizerConfig()
    objective = chsh_objective(correlation_matrix(rho))
    dirs = sphere_grid(cfg.theta_points, cfg.phi_points)
    n = len(dirs)
    pairs = np.stack([np.repeat(dirs, n, axis=0), np.tile(dirs, (n, 1))], axis=1)
    table = objective(pairs)[0]
    return refine(objective, pairs[np.argsort(-table, kind="stable")[:cfg.restarts]], cfg)[0]


def test_correlator_singlet():
    # singlet correlations: <u.sigma (x) v.sigma> = -u.v
    rng = np.random.default_rng(30)
    rho = singlet().density()
    for _ in range(25):
        u, v = unit(rng), unit(rng)
        c = correlator(rho, u, v)
        assert abs(c - (-(u.components @ v.components))) < 1e-12


def test_correlator_is_the_correlation_matrix_form():
    # Tr[rho (u.sigma (x) v.sigma)] = u . T v on random states
    rng = np.random.default_rng(35)
    for k in range(20):
        rho = random_density(2, 2, rank=(k % 4) + 1, seed=rng)
        u, v = unit(rng), unit(rng)
        t = correlation_matrix(rho)
        assert abs(correlator(rho, u, v) - u.components @ t @ v.components) < 1e-12


def test_correlation_matrix_werner():
    rng = np.random.default_rng(31)
    for mu in rng.random(10):
        t = correlation_matrix(werner(float(mu)))
        assert np.allclose(t, -mu * np.eye(3), atol=1e-12)


def test_chsh_tsirelson_settings():
    # x/z on one side, diagonal pair on the other: b1+b2 and b1-b2 align
    # with a1 and a2, which is what the +,+,+,- combination rewards
    rho = singlet().density()
    a1 = BlochVector(np.array([1.0, 0.0, 0.0]))
    a2 = BlochVector(np.array([0.0, 0.0, 1.0]))
    b1 = BlochVector(np.array([1.0, 0.0, 1.0]) / SQRT2)
    b2 = BlochVector(np.array([1.0, 0.0, -1.0]) / SQRT2)
    s = ChshSettings(a1, a2, b1, b2)
    assert abs(abs(chsh_value(rho, s)) - 2 * SQRT2) < 1e-12
    # same settings on a Werner state scale linearly in mu
    for mu in (0.3, 0.8):
        assert abs(abs(chsh_value(werner(mu), s)) - 2 * SQRT2 * mu) < 1e-12


def test_chsh_never_exceeds_quantum_bound():
    rng = np.random.default_rng(32)
    for k in range(1000):
        rho = random_density(2, 2, rank=(k % 4) + 1, seed=rng)
        s = ChshSettings(unit(rng), unit(rng), unit(rng), unit(rng))
        assert abs(chsh_value(rho, s)) <= 2 * SQRT2 + 1e-10


def test_nmax_werner_formula():
    assert nmax_werner(1.0) == pytest.approx(SQRT2 - 1, abs=1e-14)
    assert nmax_werner(0.9) == pytest.approx(0.9 * SQRT2 - 1, abs=1e-14)
    assert nmax_werner(0.5) == 0.0
    assert nmax_werner(1 / SQRT2) == 0.0


def test_nmax_numeric_werner_grid():
    for mu in (0.0, 0.4, 1 / SQRT2, 0.75, 0.9, 1.0):
        n = nmax_numeric(werner(mu))
        assert abs(n - nmax_werner(mu)) < 1e-7
        if mu <= 1 / SQRT2:
            assert n == 0.0


def test_nmax_numeric_horodecki():
    # the Horodecki closed form against the CHSH search over all settings;
    # the rank-1 states are entangled, so they violate CHSH
    rng = np.random.default_rng(33)
    for k in range(12):
        rho = random_density(2, 2, rank=(k % 4) + 1, seed=rng)
        expected = max(0.0, chsh_search(rho) / 2 - 1.0)
        assert abs(nmax_numeric(rho) - expected) < 1e-6


def test_reduced_point_validation():
    ReducedPoint(0.5, -0.5, 0.25)
    with pytest.raises(ValueError):
        ReducedPoint(1.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        ReducedPoint(0.5, 0.0, -0.1)


def test_bfrak_bound_and_maximizer():
    rng = np.random.default_rng(34)
    for _ in range(300):
        x, y = 2 * rng.random(2) - 1
        z = rng.random()
        b = bfrak(ReducedPoint(x, y, z))
        assert b <= math.sqrt(x * x + y * y) + 1e-12
        assert b <= SQRT2 + 1e-12
    # the closed-form maximizer is exact when x and y share a sign
    for _ in range(300):
        x, y = rng.random(2)
        if x + y < 1e-6:
            continue
        z_star = x * x / (x * x + y * y)
        b = bfrak(ReducedPoint(x, y, z_star))
        assert abs(b - math.sqrt(x * x + y * y)) < 1e-12
        zs = np.linspace(0.0, 1.0, 200)
        grid = [bfrak(ReducedPoint(x, y, float(z))) for z in zs]
        assert b >= max(grid) - 1e-9


def test_nvol_analytic_anchors():
    # below and at the violation threshold the volume vanishes
    for mu in (0.0, 0.3, 0.5, 0.7, 1 / SQRT2):
        assert nvol_werner_analytic(mu) == 0.0
    # at mu=1 the fraction is (pi - 3) / 2
    assert abs(nvol_werner_analytic(1.0) - (math.pi - 3) / 2) < 1e-14
    with pytest.raises(ValueError):
        nvol_werner_analytic(1.01)


def test_nvol_analytic_frozen_values():
    # pinned against a deterministic midpoint quadrature run at resolution
    # 3000 plus a 2e7-sample Monte Carlo cross-check
    frozen = {
        0.72: 6.48e-05,
        0.75: 1.18237e-03,
        0.80: 6.95990e-03,
        0.90: 3.23321e-02,
        0.95: 5.03330e-02,
    }
    for mu, val in frozen.items():
        assert abs(nvol_werner_analytic(mu) - val) < 5e-7, mu


def test_nvol_analytic_continuous_at_threshold():
    eps = 1e-8
    assert nvol_werner_analytic(1 / SQRT2 + eps) < 1e-10


def test_nvol_analytic_monotone():
    mus = np.linspace(1 / SQRT2, 1.0, 100)
    vals = [nvol_werner_analytic(float(m)) for m in mus]
    assert np.all(np.diff(vals) >= 0.0)


def test_nvol_quadrature_agrees():
    for mu in (0.8, 1.0):
        q = nvol_quadrature(mu, resolution=300)
        assert abs(q - nvol_werner_analytic(mu)) < 5e-4
    assert nvol_quadrature(0.5, resolution=100) == 0.0
    with pytest.raises(ValueError):
        nvol_quadrature(0.9, resolution=50)


def count_cells(mu, res):
    """The original O(res^3) quadrature: count the midpoint cells of the
    reduced box that violate CHSH."""
    xs = -1.0 + 2.0 * (np.arange(res) + 0.5) / res
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    count = 0
    for z in (np.arange(res) + 0.5) / res:
        b = np.abs(gx * math.sqrt(z) + gy * math.sqrt(1.0 - z))
        count += int(np.count_nonzero(b > 1.0 / mu))
    return count / res**3


def test_nvol_quadrature_matches_cell_count():
    for mu in (0.75, 0.9, 1.0):
        assert abs(nvol_quadrature(mu, 200) - count_cells(mu, 200)) < 1e-3, mu


def test_nvol_quadrature_close_to_analytic():
    for mu in (0.75, 0.8, 0.9, 1.0):
        assert abs(nvol_quadrature(mu, 1000) - nvol_werner_analytic(mu)) < 1e-5, mu


def test_nvol_quadrature_exact_zero_below_threshold():
    for mu in (0.0, 0.5, 1 / SQRT2):
        for res in (100, 1000):
            assert nvol_quadrature(mu, res) == 0.0


def test_nvol_quadrature_converges():
    # midpoint rule in z: refining the grid never makes the error worse
    for mu in np.linspace(0.05, 1.0, 40):
        exact = nvol_werner_analytic(float(mu))
        coarse = abs(nvol_quadrature(float(mu), 100) - exact)
        fine = abs(nvol_quadrature(float(mu), 1000) - exact)
        assert fine <= coarse, mu


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n=0)
    with pytest.raises(ValueError):
        McConfig(n=100, method="bogus")
    cfg = McConfig(n=100)
    assert (cfg.seed, cfg.method) == (0, "angles")


def test_mc_config_rejects_non_integers(monkeypatch):
    for kwargs, error in (({"n": True}, TypeError), ({"n": 2.5}, TypeError),
                          ({"n": 100, "seed": True}, TypeError),
                          ({"n": 100, "seed": 1.0}, TypeError),
                          ({"n": 100, "seed": -1}, ValueError),
                          ({"n": np.array(5)}, TypeError),
                          ({"n": 100, "seed": np.array(5)}, TypeError)):
        with pytest.raises(error):
            McConfig(**kwargs)
    cfg = McConfig(n=np.int64(1000), seed=np.uint32(3))
    assert (cfg.n, cfg.seed) == (1000, 3)
    assert type(cfg.n) is int and type(cfg.seed) is int
    monkeypatch.setattr(bell, "MC_CHUNK", 300)  # four chunks
    assert nvol_mc(0.9, cfg) == nvol_mc(0.9, McConfig(n=1000, seed=3))


def test_nvol_mc_rejects_bad_workers():
    cfg = McConfig(n=1000)
    for workers, error in ((0, ValueError), (-3, ValueError), (MAX_WORKERS + 1, ValueError),
                           (2.5, TypeError), (True, TypeError), ("2", TypeError),
                           (np.array(2), TypeError)):
        with pytest.raises(error, match="workers must be"):
            nvol_mc(0.9, cfg, workers=workers)
    assert nvol_mc(0.9, cfg, workers=np.int64(2)) == nvol_mc(0.9, cfg)
    assert nvol_mc(0.9, cfg, workers=MAX_WORKERS) == nvol_mc(0.9, cfg)


def test_nvol_quadrature_rejects_non_integer_resolution():
    for resolution, error in ((100.9, TypeError), (float("nan"), TypeError),
                              (True, TypeError), (99, ValueError)):
        with pytest.raises(error, match="resolution"):
            nvol_quadrature(0.9, resolution)
    assert nvol_quadrature(0.9, np.int64(200)) == nvol_quadrature(0.9, 200)


def test_nvol_mc_deterministic():
    est1 = nvol_mc(0.9, McConfig(n=150_000, seed=5))
    est2 = nvol_mc(0.9, McConfig(n=150_000, seed=5))
    assert est1.fraction == est2.fraction
    assert est1.std_error == est2.std_error
    est3 = nvol_mc(0.9, McConfig(n=150_000, seed=6))
    assert est3.fraction != est1.fraction


def test_nvol_mc_workers_invariant():
    base = nvol_mc(0.85, McConfig(n=200_000, seed=7))
    for workers in (2, 4):
        est = nvol_mc(0.85, McConfig(n=200_000, seed=7), workers=workers)
        assert est.fraction == base.fraction


def test_nvol_mc_both_methods_near_analytic():
    a = nvol_werner_analytic(0.9)
    for method in ("angles", "xyz"):
        est = nvol_mc(0.9, McConfig(n=400_000, seed=8, method=method))
        assert abs(est.fraction - a) <= 4 * est.std_error
        expected_se = math.sqrt(est.fraction * (1 - est.fraction) / est.n)
        assert est.std_error == pytest.approx(expected_se, rel=1e-12)


def test_nvol_mc_zero_below_threshold():
    for method in ("angles", "xyz"):
        est = nvol_mc(0.5, McConfig(n=100_000, seed=9, method=method))
        assert est.fraction == 0.0
        assert est.std_error == 0.0


def test_nvol_mc_ragged_tail():
    # n not divisible by the chunk size still counts exactly n samples
    est = nvol_mc(0.9, McConfig(n=MC_CHUNK + 123, seed=10))
    assert est.n == MC_CHUNK + 123


# The Monte Carlo kernels written out plainly: one Philox stream per chunk,
# four stacked (m, 3) Bloch vectors per chunk for "angles" and the reduced
# box over the whole chunk for "xyz". They pin the sample stream and are the
# oracle of the package's blocked kernels, which must give the same counts.
def oracle_draws(cfg, k, columns):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(k,))))
    return rng.random((min(bell.MC_CHUNK, cfg.n - k * bell.MC_CHUNK), columns))


def oracle_sphere(cols):
    z = 2.0 * cols[:, 0] - 1.0
    az = 2.0 * math.pi * cols[:, 1]
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)


def oracle_chsh(cfg, k):
    d = oracle_draws(cfg, k, 8)
    u1, u2, v1, v2 = (oracle_sphere(d[:, j:j + 2]) for j in (0, 2, 4, 6))
    return np.abs(np.sum(u1 * (v1 + v2), axis=1) + np.sum(u2 * (v1 - v2), axis=1))


def oracle_zphi(draws):
    d = draws.T.copy()  # (8, rows): (cos theta, azimuth) of u1, u2, v1, v2 in turn
    return 2.0 * d[0::2] - 1.0, 2.0 * math.pi * d[1::2]


def oracle_block_chsh(draws):
    """The CHSH sum of each row of a block by the plain float64 block
    kernel, all four cosines in float64: the counter before the float32
    filter, which must decide every sample as this does."""
    z, phi = oracle_zphi(draws)
    s = np.sqrt(1.0 - z * z)
    dots = np.cos(phi[:2, None] - phi[None, 2:])
    dots *= s[:2, None] * s[None, 2:]
    dots += z[:2, None] * z[None, 2:]
    return dots[0, 0] + dots[0, 1] + dots[1, 0] - dots[1, 1]


def oracle_bfrak(cfg, k):
    d = oracle_draws(cfg, k, 3)
    x, y, z = 2.0 * d[:, 0] - 1.0, 2.0 * d[:, 1] - 1.0, d[:, 2]
    return np.abs(x * np.sqrt(z) + y * np.sqrt(1.0 - z))


ORACLE_MUS = (1 / SQRT2, 0.72, 0.75, 0.8, 0.9, 0.95, 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_angles_chunk_counts_equal_vector_oracle(seed):
    # a full chunk and a ragged tail of 123 rows, not a multiple of the block
    cfg = McConfig(n=MC_CHUNK + 123, seed=seed)
    assert MC_CHUNK % _MC_BLOCK == 0 and 123 % _MC_BLOCK != 0
    hits = 0
    for k in (0, 1):
        chsh = oracle_chsh(cfg, k)
        for mu in ORACLE_MUS:
            want = int(np.count_nonzero(chsh > 2.0 / mu))
            assert _mc_chunk_count(mu, cfg, k) == want, (mu, k)
            hits += want
    assert hits > 0


def filter_draws(monkeypatch, seed):
    """20 chunks of two row blocks each, the second block and the last chunk
    ragged: the config and each chunk's draws."""
    monkeypatch.setattr(bell, "_MC_BLOCK", 2048)
    monkeypatch.setattr(bell, "MC_CHUNK", 3000)
    cfg = McConfig(n=19 * 3000 + 123, seed=seed)
    return cfg, [oracle_draws(cfg, k, 8) for k in range(20)]


# at MARGIN 10 the float64 kernel recounts every sample
@pytest.mark.parametrize("margin, seed", [(bell.MARGIN, 0), (bell.MARGIN, 1), (10.0, 0)])
def test_filtered_angles_counts_equal_float64_kernel(monkeypatch, margin, seed):
    cfg, chunks = filter_draws(monkeypatch, seed)
    monkeypatch.setattr(bell, "MARGIN", margin)
    hits = 0
    for k, draws in enumerate(chunks):
        chsh = np.abs(np.concatenate([oracle_block_chsh(draws[lo:lo + bell._MC_BLOCK])
                                      for lo in range(0, len(draws), bell._MC_BLOCK)]))
        # besides ORACLE_MUS, thresholds at the chunk's own samples: there the
        # float32 sum alone decides about half of them wrongly
        own = chsh[(chsh > 2.0) & (chsh < 2 * SQRT2)][:3]
        for mu in (*ORACLE_MUS, *(2.0 / own)):
            want = int(np.count_nonzero(chsh > 2.0 / mu))
            assert _mc_chunk_count(mu, cfg, k) == want, (mu, k)
            hits += want
    assert hits > 0


def test_float32_chsh_error_is_far_inside_the_margin(monkeypatch):
    # a numpy whose float32 cosine is less accurate would break the filter
    _, chunks = filter_draws(monkeypatch, 0)
    worst = 0.0
    for draws in chunks:
        z, phi = oracle_zphi(draws)
        approx = bell._chsh(z, phi, bell._cos32)
        worst = max(worst, float(np.max(np.abs(approx - oracle_block_chsh(draws)))))
    assert 0.0 < worst < bell.MARGIN / 50


def test_xyz_chunk_counts_equal_whole_chunk_formula(monkeypatch):
    monkeypatch.setattr(bell, "MC_CHUNK", _MC_BLOCK + 5)
    cfg = McConfig(n=2 * _MC_BLOCK + 77, seed=3, method="xyz")
    for k in (0, 1, 2):
        b = oracle_bfrak(cfg, k)
        for mu in ORACLE_MUS:
            assert _mc_chunk_count(mu, cfg, k) == int(np.count_nonzero(mu * b > 1.0)), (mu, k)


@pytest.mark.parametrize("method, columns", [("angles", 8), ("xyz", 3)])
def test_chunk_blocks_cover_the_stream_once(monkeypatch, method, columns):
    # the row blocks handed to the counter, in order, are the chunk's draws
    blocks = []
    monkeypatch.setitem(bell._COUNTERS, method,
                        (columns, lambda d, mu: blocks.append(d.copy()) or len(d)))
    cfg = McConfig(n=MC_CHUNK + 123, seed=5, method=method)
    for k, rows in ((0, MC_CHUNK), (1, 123)):
        blocks.clear()
        assert _mc_chunk_count(0.9, cfg, k) == rows
        assert max(len(b) for b in blocks) == min(rows, _MC_BLOCK)
        assert np.array_equal(np.concatenate(blocks), oracle_draws(cfg, k, columns))


@pytest.mark.parametrize("mu, count", [(0.75, 1156), (0.9, 32458), (1.0, 70926)])
def test_nvol_mc_pinned_counts(mu, count):
    # counts of the stacked-vector kernel; threads must not change them
    est = nvol_mc(mu, McConfig(n=10**6, seed=606), workers=2)
    assert est.fraction == count / 10**6


def test_threads_queue_one_task_each(monkeypatch):
    # 20 chunks on 3 threads: thread i counts chunks i, i + 3, ..., so the
    # pool holds 3 tasks, not one per chunk
    from concurrent.futures import ThreadPoolExecutor
    submitted = []
    submit = ThreadPoolExecutor.submit
    monkeypatch.setattr(ThreadPoolExecutor, "submit",
                        lambda pool, *a, **k: submitted.append(a) or submit(pool, *a, **k))
    monkeypatch.setattr(bell, "MC_CHUNK", 1000)
    cfg = McConfig(n=19_500, seed=4)
    est = nvol_mc(0.9, cfg, workers=3)
    assert len(submitted) == 3 and (est.chunks, est.workers) == (20, 3)
    assert est == nvol_mc(0.9, cfg)


def test_mc_estimate_records_how_it_was_made(monkeypatch):
    monkeypatch.setattr(bell, "MC_CHUNK", 1000)
    cfg = McConfig(n=3001, seed=4)
    serial = nvol_mc(0.9, cfg)
    assert (serial.chunks, serial.workers) == (4, 1) and serial.wall_s > 0.0
    threaded = nvol_mc(0.9, cfg, workers=8)
    assert (threaded.chunks, threaded.workers) == (4, 4)
    assert threaded == serial  # the run record takes no part in ==
    zero = nvol_mc(0.0, cfg, workers=3)
    assert (zero.chunks, zero.workers) == (0, 1)
    assert McEstimate(0.5, 0.1, 10, 0) == McEstimate(0.5, 0.1, 10, 0, 3, 2, 1.5)
