"""CHSH quantifiers for two-qubit states: the correlation matrix, maximal
violation, and the violation-volume fraction with analytic, quadrature,
and Monte Carlo routes.

The maximal violation N_max comes from the Horodecki closed form: the best
CHSH value of a two-qubit state is 2 sqrt(l1 + l2), l1 and l2 the two
largest eigenvalues of T^T T for the correlation matrix T.

The volume fraction reduces the eight measurement angles to three variables

    x = u1.(v1 + v2)/|v1 + v2|,  y = u2.(v1 - v2)/|v1 - v2|,
    z = (1 + v1.v2)/2,

which are independent and uniform on [-1, 1]^2 x [0, 1] when the four
directions are drawn uniformly on the sphere. Violation happens where
mu * |x sqrt(z) + y sqrt(1 - z)| > 1, and the fraction of the box where that
holds has the closed form implemented by nvol_werner_analytic (in
rbnl.closed_forms, with nmax_werner, and re-exported here). The second,
independent route, nvol_quadrature, is a midpoint rule over z that takes the
exact violating area of each z slice of the (x, y) square.

The Monte Carlo route nvol_mc counts the samples whose |CHSH| exceeds 2/mu.
For method "angles" each sample is decided by a floating-point filter with
an exact fallback (Shewchuk, Discrete Comput. Geom. 18, 305, 1997): the four
cosines cos(phi_u - phi_v) are taken in float32, everything else in float64.
A CHSH sum then errs by at most 4 max|cos32 - cos64|, about 1e-6. A sample
whose approximate |CHSH| lies more than MARGIN = 1e-4 above 2/mu is counted
and one more than MARGIN below it is not; the samples within MARGIN of
2/mu, 2e-6 to 4e-5 of them for mu from 0.75 to 1, are recounted by the
float64 kernel. Each sample is thus decided as the float64 kernel decides
it, so every count equals that kernel's bit for bit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import check_int, check_mu
from .closed_forms import nmax_werner, nvol_werner_analytic  # noqa: F401  (re-exported)
from .states import DensityMatrix, fano_form

MC_CHUNK = 1 << 16  # samples per chunk, one stream each; read at call time
MAX_WORKERS = 64  # threads of one Monte Carlo estimate
_MC_BLOCK = 1 << 13  # rows counted at once within a chunk
# half-width of the band around 2/mu whose samples the float64 kernel
# recounts; read at call time. A float32 cosine erred by at most 2.6e-7 over
# 1e7 arguments on numpy 2.4.6, a CHSH sum of four by at most 7.6e-7 over
# 2.6e6 samples, so 1e-4 is about 100x the bound 4 max|cos32 - cos64|
MARGIN = 1e-4


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: n samples, drawn in chunks of MC_CHUNK from
    streams seeded by seed and counted by the method named, a key of
    _COUNTERS. n must be an integer >= 1 and seed an integer >= 0 (Python or
    numpy integers; bool is rejected)."""

    n: int
    seed: int = 0
    method: str = "angles"

    def __post_init__(self):
        for name, minimum in (("n", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        if self.method not in _COUNTERS:
            raise ValueError(f"method must be one of {tuple(_COUNTERS)}, got {self.method!r}")


@dataclass(frozen=True)
class McEstimate:
    """The estimate and its binomial standard error, plus how it was made:
    chunks drawn and counted, threads that counted them and wall time in
    seconds. The last three take no part in ==."""

    fraction: float
    std_error: float  # binomial: sqrt(f (1 - f) / n)
    n: int
    seed: int
    chunks: int = field(default=0, compare=False)
    workers: int = field(default=1, compare=False)
    wall_s: float = field(default=0.0, compare=False)


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """T[i, j] = Tr[rho (sigma_i (x) sigma_j)], so that the correlator
    Tr[rho (u.sigma (x) v.sigma)] is u . T v. fano_form rejects other dims."""
    return fano_form(rho)[2]


def nmax_numeric(rho: DensityMatrix) -> float:
    """Best CHSH value over all settings, reported as max(0, B/2 - 1).

    Closed form (R., P. and M. Horodecki, Phys. Lett. A 200, 340, 1995):
    B = 2 sqrt(l1 + l2) for the two largest eigenvalues l1, l2 of T^T T, that
    is the two largest squared singular values of the correlation matrix.
    """
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)  # descending
    return max(0.0, math.hypot(s[0], s[1]) - 1.0)


def nvol_quadrature(mu: float, resolution: int = 1000) -> float:
    """Deterministic midpoint-rule estimate of the same box fraction.

    Midpoints over z only; each z slice contributes the exact area of the
    part of [-1, 1]^2 where |x a + y b| > c, with a = sqrt(z), b = sqrt(1 - z)
    and c = 1/mu. That area is 8 P(a X + b Y > c) for X, Y uniform on
    [-1, 1]; by symmetry P(a X + b Y > c) = P(U + V < s) with U, V uniform on
    [0, 2a], [0, 2b] and s = a + b - c, the trapezoid CDF

        [h(s) - h(s - 2a) - h(s - 2b) + h(s - 2a - 2b)] / (4 a b),
        h(t) = max(t, 0)^2 / 2.

    A slice with c >= a + b adds exactly 0, so every mu <= 1/sqrt(2) gives
    0.0. Integrating over z keeps this route independent of the polar-angle
    closed form in nvol_werner_analytic. Cost is O(resolution); resolution
    must be an integer >= 100.
    """
    check_mu(mu)
    res = check_int("resolution", resolution, 100)
    if mu == 0.0:
        return 0.0
    zs = (np.arange(res) + 0.5) / res
    a, b = np.sqrt(zs), np.sqrt(1.0 - zs)
    s = a + b - 1.0 / mu

    def h(t):
        return np.maximum(t, 0.0) ** 2 / 2

    # area of {U + V < s} in the 2a x 2b rectangle; the slice's box
    # fraction is 2 P(a X + b Y > c) = 2 corner / (4 a b)
    corner = h(s) - h(s - 2 * a) - h(s - 2 * b) + h(s - 2 * a - 2 * b)
    return float(np.sum(corner / (2 * a * b))) / res


def _chunk_rng(seed: int, k: int):
    # counter-based generator per chunk; chunk index is the spawn key, so
    # any worker can claim any chunk and the stream is identical
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,))))


def _count_xyz(draws, mu: float) -> int:
    x = 2.0 * draws[:, 0] - 1.0
    y = 2.0 * draws[:, 1] - 1.0
    z = draws[:, 2]
    b = np.abs(x * np.sqrt(z) + y * np.sqrt(1.0 - z))
    return int(np.count_nonzero(mu * b > 1.0))


def _cos32(x):
    return np.cos(x.astype(np.float32))


def _chsh(z, phi, cos=np.cos):
    """CHSH sums of the samples in the columns of z and phi, each (4, m):
    cos theta and azimuth of u1, u2, v1, v2. With np.cos this is the exact
    float64 kernel; every other step is float64 with either cosine."""
    s = np.sqrt(1.0 - z * z)
    # dots[i, j] = u_i . v_j = s_u s_v cos(phi_u - phi_v) + z_u z_v
    dots = cos(phi[:2, None] - phi[None, 2:]) * (s[:2, None] * s[None, 2:])
    dots += z[:2, None] * z[None, 2:]
    return dots[0, 0] + dots[0, 1] + dots[1, 0] - dots[1, 1]


def _count_angles(draws, mu: float) -> int:
    # columns 2j, 2j + 1 of a row give (cos theta, azimuth) of u1, u2, v1, v2
    # in turn; each u.v comes straight from them, no Bloch vector is built
    d = draws.T.copy()  # (8, rows), C order
    z = d[0::2]
    z *= 2.0
    z -= 1.0  # in [-1, 1), so 1 - z z >= 0 exactly
    phi = d[1::2]
    phi *= 2.0 * math.pi
    # float32 cosines decide every sample farther than MARGIN from the
    # threshold; the float64 kernel recounts the rest
    gap = np.abs(_chsh(z, phi, _cos32)) - 2.0 / mu
    near = np.flatnonzero(np.abs(gap) <= MARGIN)
    exact = np.abs(_chsh(z[:, near], phi[:, near])) > 2.0 / mu
    return int(np.count_nonzero(gap > MARGIN)) + int(np.count_nonzero(exact))


_COUNTERS = {"angles": (8, _count_angles), "xyz": (3, _count_xyz)}


def _mc_chunk_count(mu: float, cfg: McConfig, k: int) -> int:
    # one draw per chunk fixes the stream; the count runs over row blocks
    # so that the temporaries stay in cache
    m = min(MC_CHUNK, cfg.n - k * MC_CHUNK)
    columns, count = _COUNTERS[cfg.method]
    draws = _chunk_rng(cfg.seed, k).random((m, columns))
    return sum(count(draws[lo:lo + _MC_BLOCK], mu) for lo in range(0, m, _MC_BLOCK))


def nvol_mc(mu: float, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Hit-or-miss estimate of the violation fraction.

    method "angles" samples the four directions uniformly on the sphere and
    tests the raw CHSH condition, with each u.v taken from the drawn
    (cos theta, azimuth) pairs; method "xyz" samples the reduced box
    directly. Both estimate the same fraction. The sample stream is split
    into fixed-size chunks seeded independently of worker scheduling, so the
    count is bit-identical for any worker count. workers must be an
    integer in [1, MAX_WORKERS]; thread i of W counts the chunks k = i
    (mod W), so at most W tasks are ever queued, and the estimate records
    how many threads counted chunks.
    """
    check_mu(mu)
    workers = check_int("workers", workers, 1, MAX_WORKERS)
    t0 = time.perf_counter()
    # mu * B > 1 is unreachable at mu = 0, so nothing is drawn
    n_chunks = 0 if mu == 0.0 else (cfg.n + MC_CHUNK - 1) // MC_CHUNK
    workers = max(1, min(workers, n_chunks))

    def count_share(i):  # thread i counts the chunks k = i (mod workers)
        return sum(_mc_chunk_count(mu, cfg, k) for k in range(i, n_chunks, workers))

    if workers == 1:
        count = count_share(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
        with ThreadPoolExecutor(max_workers=workers) as pool:
            count = sum(pool.map(count_share, range(workers)))
    frac = count / cfg.n
    return McEstimate(frac, math.sqrt(frac * (1.0 - frac) / cfg.n), cfg.n, cfg.seed,
                      n_chunks, workers, time.perf_counter() - t0)
