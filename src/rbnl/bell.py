"""CHSH quantifiers for two-qubit states: correlators, maximal violation,
and the violation-volume fraction with analytic, quadrature, and Monte
Carlo routes.

The maximal violation N_max comes from the Horodecki closed form: the best
CHSH value of a two-qubit state is 2 sqrt(l1 + l2), l1 and l2 the two
largest eigenvalues of T^T T for the correlation matrix T.

The volume fraction reduces the eight measurement angles to three variables

    x = u1.(v1 + v2)/|v1 + v2|,  y = u2.(v1 - v2)/|v1 - v2|,
    z = (1 + v1.v2)/2,

which are independent and uniform on [-1, 1]^2 x [0, 1] when the four
directions are drawn uniformly on the sphere. Violation happens where
mu * |x sqrt(z) + y sqrt(1 - z)| > 1, and the fraction of the box where that
holds has the closed form implemented by nvol_werner_analytic. The second,
independent route, nvol_quadrature, is a midpoint rule over z that takes the
exact violating area of each z slice of the (x, y) square.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import check_int, tensor
from .states import BlochVector, DensityMatrix, fano_form

SQRT2 = math.sqrt(2)
TSIRELSON = 2 * SQRT2
MC_CHUNK = 1 << 16
MC_METHODS = ("angles", "xyz")


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


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: n samples, drawn in chunks of chunk_size from
    streams seeded by seed. n and chunk_size must be integers >= 1 and seed
    an integer >= 0 (Python or numpy integers; bool is rejected)."""

    n: int
    seed: int = 0
    chunk_size: int = MC_CHUNK
    method: str = "angles"

    def __post_init__(self):
        for name, minimum in (("n", 1), ("seed", 0), ("chunk_size", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        if self.method not in MC_METHODS:
            raise ValueError(f"method must be one of {MC_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class McEstimate:
    fraction: float
    std_error: float  # binomial: sqrt(f (1 - f) / n)
    n: int
    seed: int


def _check_two_qubit(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got dims {rho.dims}")


def correlator(rho: DensityMatrix, u: BlochVector, v: BlochVector) -> float:
    """Tr[rho (u.sigma (x) v.sigma)]."""
    _check_two_qubit(rho)
    return float(np.real(np.trace(rho.matrix @ tensor(u.dot_sigma(), v.dot_sigma()))))


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """T[i, j] = Tr[rho (sigma_i (x) sigma_j)], so that
    correlator(rho, u, v) = u . T v. fano_form rejects other dims."""
    return fano_form(rho)[1:, 1:]


def chsh_value(rho: DensityMatrix, s: ChshSettings) -> float:
    """|C(u1,v1) + C(u1,v2) + C(u2,v1) - C(u2,v2)|. At most 2 for Bell-local
    models and 2 sqrt(2) for quantum states."""
    c11 = correlator(rho, s.u1, s.v1)
    c12 = correlator(rho, s.u1, s.v2)
    c21 = correlator(rho, s.u2, s.v1)
    c22 = correlator(rho, s.u2, s.v2)
    return abs(c11 + c12 + c21 - c22)


def nmax_werner(mu: float) -> float:
    """max[0, mu sqrt(2) - 1]: how far the noisy singlet's best CHSH value
    exceeds the local bound, in units of the local bound."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return max(0.0, mu * SQRT2 - 1.0)


def nmax_numeric(rho: DensityMatrix) -> float:
    """Best CHSH value over all settings, reported as max(0, B/2 - 1).

    Closed form (R., P. and M. Horodecki, Phys. Lett. A 200, 340, 1995):
    B = 2 sqrt(l1 + l2) for the two largest eigenvalues l1, l2 of T^T T, that
    is the two largest squared singular values of the correlation matrix.
    """
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)  # descending
    return max(0.0, math.hypot(s[0], s[1]) - 1.0)


def bfrak(p: ReducedPoint) -> float:
    """|x sqrt(z) + y sqrt(1 - z)|, at most sqrt(2)."""
    return abs(p.x * math.sqrt(p.z) + p.y * math.sqrt(1.0 - p.z))


def nvol_werner_analytic(mu: float) -> float:
    """Fraction of the reduced box (equivalently, of sphere-uniform setting
    space) violating CHSH for the noisy singlet.

    Zero for mu <= 1/sqrt(2). Above threshold, with s0 = 1/(mu sqrt(2)):

        pi/2 - 3 s0 sqrt(1 - s0^2) - arcsin(s0) + 2 s0^2 arccos(s0)

    obtained by integrating the violating region in polar coordinates over
    one octant of the (x, y) plane and using its fourfold symmetry (the
    region lives entirely in the same-sign quadrants). At mu = 1 the value
    is (pi - 3)/2.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if mu <= 1.0 / SQRT2:
        return 0.0
    s0 = 1.0 / (SQRT2 * mu)
    g = math.sqrt(max(0.0, 1.0 - s0 * s0))
    val = math.pi / 2 - 3 * s0 * g - math.asin(s0) + 2 * s0 * s0 * math.acos(s0)
    return min(max(val, 0.0), 1.0)


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
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
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


def _sphere_from_uniform(cols) -> np.ndarray:
    # cols[:, 0] -> cos(theta) uniform on [-1, 1], cols[:, 1] -> azimuth
    z = 2.0 * cols[:, 0] - 1.0
    az = 2.0 * math.pi * cols[:, 1]
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)


def _mc_chunk_count(mu: float, cfg: McConfig, k: int) -> int:
    start = k * cfg.chunk_size
    m = min(cfg.chunk_size, cfg.n - start)
    rng = _chunk_rng(cfg.seed, k)
    if cfg.method == "xyz":
        draws = rng.random((m, 3))
        x = 2.0 * draws[:, 0] - 1.0
        y = 2.0 * draws[:, 1] - 1.0
        z = draws[:, 2]
        b = np.abs(x * np.sqrt(z) + y * np.sqrt(1.0 - z))
        return int(np.count_nonzero(mu * b > 1.0))
    draws = rng.random((m, 8))
    u1 = _sphere_from_uniform(draws[:, 0:2])
    u2 = _sphere_from_uniform(draws[:, 2:4])
    v1 = _sphere_from_uniform(draws[:, 4:6])
    v2 = _sphere_from_uniform(draws[:, 6:8])
    expr = np.abs(np.sum(u1 * (v1 + v2), axis=1) + np.sum(u2 * (v1 - v2), axis=1))
    return int(np.count_nonzero(expr > 2.0 / mu))


def nvol_mc(mu: float, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Hit-or-miss estimate of the violation fraction.

    method "angles" samples the four directions uniformly on the sphere and
    tests the raw CHSH condition; method "xyz" samples the reduced box
    directly. Both estimate the same fraction. The sample stream is split
    into fixed-size chunks seeded independently of worker scheduling, so the
    count is bit-identical for any worker count. workers must be an
    integer >= 1.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    workers = check_int("workers", workers, 1)
    n_chunks = (cfg.n + cfg.chunk_size - 1) // cfg.chunk_size
    if mu == 0.0:
        count = 0  # condition is mu*B > 1, unreachable at mu = 0
    elif workers == 1 or n_chunks == 1:
        count = sum(_mc_chunk_count(mu, cfg, k) for k in range(n_chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            count = sum(pool.map(lambda k: _mc_chunk_count(mu, cfg, k), range(n_chunks)))
    frac = count / cfg.n
    return McEstimate(frac, math.sqrt(frac * (1.0 - frac) / cfg.n), cfg.n, cfg.seed)
