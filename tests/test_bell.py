import math

import numpy as np
import pytest

from rbnl.bell import (MC_CHUNK, ChshSettings, McConfig, ReducedPoint, bfrak,
                       chsh_value, correlation_matrix, correlator,
                       nmax_numeric, nmax_werner, nvol_mc, nvol_quadrature,
                       nvol_werner_analytic)
from rbnl.linalg import EIG_CLIP
from rbnl.search import OptimizerConfig, grid_refine, sphere_grid
from rbnl.states import BlochVector, random_density, singlet, werner

SQRT2 = math.sqrt(2.0)


def unit(rng):
    n = rng.normal(size=3)
    return BlochVector(n / np.linalg.norm(n))


def chsh_objective(t):
    """For fixed v1, v2 the best u's are analytic:
    max_u1,u2 B = |T(v1 + v2)| + |T(v1 - v2)|. Batched over rows of
    (v1, v2), with the gradients in v1 and v2 and the 6 x 6 Hessian in
    (v1, v2)."""

    def norm_derivatives(w):
        # d|T w|/dw = T^T y^ and d2|T w|/dw2 = T^T (I - y^ y^T) T / |y| for
        # y = T w; where |y| = 0 (a kink), 0 is a valid subgradient
        y = w @ t.T
        r = np.linalg.norm(y, axis=1)
        rc = np.maximum(r, EIG_CLIP)[:, None]
        ty = (y / rc) @ t
        hess = (t.T @ t - ty[:, :, None] * ty[:, None, :]) / rc[:, :, None]
        return r, ty, hess

    def objective(v1, v2):
        rp, g_plus, h_plus = norm_derivatives(v1 + v2)
        rm, g_minus, h_minus = norm_derivatives(v1 - v2)
        same, cross = h_plus + h_minus, h_plus - h_minus
        hess = np.concatenate([np.concatenate([same, cross], axis=2),
                               np.concatenate([cross, same], axis=2)], axis=1)
        return rp + rm, g_plus + g_minus, g_plus - g_minus, hess

    return objective


def chsh_search(rho):
    """The best CHSH value by search, a route independent of the closed
    form: chsh_objective scored on every pair of the default grid, the best
    pairs refined by rbnl.search."""
    cfg = OptimizerConfig()
    objective = chsh_objective(correlation_matrix(rho))
    dirs = sphere_grid(cfg)
    n = len(dirs)
    table = objective(np.repeat(dirs, n, axis=0), np.tile(dirs, (n, 1)))[0].reshape(n, n)
    return grid_refine(table, dirs, objective, cfg)[0]


def test_correlator_singlet():
    # singlet correlations: <u.sigma (x) v.sigma> = -u.v
    rng = np.random.default_rng(30)
    rho = singlet().density()
    for _ in range(25):
        u, v = unit(rng), unit(rng)
        c = correlator(rho, u, v)
        assert abs(c - (-(u.components @ v.components))) < 1e-12


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
    assert cfg.chunk_size == MC_CHUNK and cfg.method == "angles"


def test_mc_config_rejects_non_integers():
    for kwargs, error in (({"n": True}, TypeError), ({"n": 2.5}, TypeError),
                          ({"n": 100, "chunk_size": 2.5}, TypeError),
                          ({"n": 100, "chunk_size": 0}, ValueError),
                          ({"n": 100, "seed": True}, TypeError),
                          ({"n": 100, "seed": 1.0}, TypeError),
                          ({"n": 100, "seed": -1}, ValueError)):
        with pytest.raises(error):
            McConfig(**kwargs)
    cfg = McConfig(n=np.int64(1000), seed=np.uint32(3), chunk_size=np.int32(300))
    assert (cfg.n, cfg.seed, cfg.chunk_size) == (1000, 3, 300)
    assert type(cfg.chunk_size) is int
    assert nvol_mc(0.9, cfg) == nvol_mc(0.9, McConfig(n=1000, seed=3, chunk_size=300))


def test_nvol_mc_rejects_bad_workers():
    cfg = McConfig(n=1000)
    for workers, error in ((0, ValueError), (-3, ValueError), (2.5, TypeError),
                           (True, TypeError), ("2", TypeError)):
        with pytest.raises(error):
            nvol_mc(0.9, cfg, workers=workers)
    assert nvol_mc(0.9, cfg, workers=np.int64(2)) == nvol_mc(0.9, cfg)


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
