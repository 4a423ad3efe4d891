"""Norm-ball geometry: projections, the sign-hypercube corners and packings.

The optimizers need exact Euclidean projections onto l1/l2 balls for their
feasibility steps, and the lower-bound harness needs well separated subsets
of the sign hypercube to index hard families of risk functions.  The packing
existence arguments are probabilistic, so the constructions here realize
them by randomized greedy search with rejection restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NormBall",
    "Packing",
    "PackingError",
    "project_l2_ball",
    "project_l1_ball",
    "gilbert_varshamov_packing",
    "covariance_bounded_packing",
    "max_eigenvalue_power_iteration",
]


class PackingError(RuntimeError):
    """Randomized packing search exhausted its retry budget."""


@dataclass(frozen=True)
class NormBall:
    """The set {x in R^d : ||x||_p <= radius} for p in {1, 2, inf}."""

    p: float
    radius: float

    def __post_init__(self) -> None:
        if self.p not in (1, 2, math.inf):
            raise ValueError(f"unsupported norm index p={self.p!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")

    def norm(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float), ord=self.p))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.norm(x) <= self.radius + tol


@dataclass(frozen=True)
class Packing:
    """A finite set of vectors with a guaranteed pairwise l1 separation."""

    points: tuple
    min_l1_separation: float

    def __post_init__(self) -> None:
        pts = tuple(np.asarray(p, dtype=float) for p in self.points)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return int(self.points[0].size)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


@lru_cache(maxsize=None)
def _corner_matrix(d: int) -> np.ndarray:
    """All 2^d sign vectors, row i = binary expansion of i mapped 0 -> -1."""
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1)) & 1
    out = bits.astype(float) * 2.0 - 1.0
    out.setflags(write=False)
    return out


def _finite_array(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return x


def project_l2_ball(x, r: float) -> np.ndarray:
    """Euclidean projection of x onto {y : ||y||_2 <= r}.

    PARAMETERS
      x -- point to project, any shape-(d,) array.
      r -- ball radius, positive.

    RETURNS
      The closest point of the ball, i.e. x itself if feasible and the
      radial rescaling (r / ||x||_2) x otherwise.
    """
    x = _finite_array(x)
    if r <= 0:
        raise ValueError("r must be positive")
    nrm = float(np.linalg.norm(x))
    if nrm <= r:
        return x.copy()
    return (r / nrm) * x


def project_l1_ball(x, r: float) -> np.ndarray:
    """Euclidean projection of x onto {y : ||y||_1 <= r}.

    Exact sort-based soft threshold: the projection is
    sign(x) * max(|x| - tau, 0) where tau >= 0 is the smallest threshold
    making the result feasible.  O(d log d), deterministic.
    """
    x = _finite_array(x)
    if r <= 0:
        raise ValueError("r must be positive")
    a = np.abs(x)
    if a.sum() <= r:
        return x.copy()
    u = np.sort(a)[::-1]
    cumulative = np.cumsum(u) - r
    counts = np.arange(1, a.size + 1)
    # largest k with u_k > (sum of top k - r)/k; exists because ||x||_1 > r
    k = np.nonzero(u > cumulative / counts)[0][-1]
    tau = cumulative[k] / (k + 1.0)
    return np.sign(x) * np.maximum(a - tau, 0.0)


def _greedy_sign_packing(d: int, min_hamming: int, target: int, rng, stall_limit: int = 4000):
    """Accumulate random sign vectors, keeping those min_hamming away from
    all kept points.  Stops after target points or stall_limit consecutive
    rejections."""
    kept = np.empty((0, d), dtype=np.int64)
    stall = 0
    while kept.shape[0] < target and stall < stall_limit:
        cand = rng.integers(0, 2, size=d) * 2 - 1
        if kept.shape[0] == 0 or int(np.min(np.sum(kept != cand, axis=1))) >= min_hamming:
            kept = np.vstack([kept, cand])
            stall = 0
        else:
            stall += 1
    return [row.astype(float) for row in kept]


def gilbert_varshamov_packing(d: int, rng=None) -> Packing:
    """Subset of {-1,1}^d with pairwise l1 distance >= d/2 and size >= exp(d/8).

    For d < 9 the exponential target is trivial and the testing argument
    reduces to a single coordinate, so the two-point packing {+e1, -e1}
    is returned instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(rng)
    if d < 9:
        e1 = np.zeros(d)
        e1[0] = 1.0
        return Packing((e1, -e1), 2.0)
    target = math.ceil(math.exp(d / 8.0))
    min_hamming = math.ceil(d / 4.0)  # l1 distance on sign vectors = 2 * Hamming
    for _ in range(1000):
        pts = _greedy_sign_packing(d, min_hamming, target, rng)
        if len(pts) >= target:
            return Packing(tuple(pts), d / 2.0)
    raise PackingError(f"no packing of size {target} found for d={d}")


def covariance_bounded_packing(d: int, rng=None, retry_budget: int = 1000) -> Packing:
    """Sign packing with separation d/2, size >= ceil(exp(d/16)), and
    empirical second moment (1/|V|) sum_v v v^T with top eigenvalue <= 25.

    Rejection-resamples whole candidate sets until all three conditions
    hold; raises PackingError after retry_budget failures.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = np.random.default_rng(rng)
    target = math.ceil(math.exp(d / 16.0))
    min_hamming = math.ceil(d / 4.0)
    for _ in range(retry_budget):
        pts = _greedy_sign_packing(d, min_hamming, target, rng)
        if len(pts) < target:
            continue
        arr = np.array(pts)
        second_moment = arr.T @ arr / len(pts)
        if max_eigenvalue_power_iteration(second_moment, rng=rng) <= 25.0:
            return Packing(tuple(pts), d / 2.0)
    raise PackingError(f"no covariance-bounded packing found for d={d}")


def max_eigenvalue_power_iteration(a, tol: float = 1e-8, max_iter: int = 100000, rng=None) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Iterates until the Rayleigh quotient changes by at most tol (relative
    to max(1, value)).  Adequate here: the second-moment matrices are PSD
    and we only compare the value against a fixed threshold.
    """
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(rng)
    v = rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        new = float(v @ (a @ v))
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new
        lam = new
    return lam
