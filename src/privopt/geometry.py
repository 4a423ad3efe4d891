"""Norm-ball geometry: the balls, the l2 projection and the finite point sets.

The l2 optimizer needs the exact Euclidean projection onto its ball for
its feasibility step.  The sign-cube corners and the signed basis are
built here once each, as read-only (k, d) float arrays, the one format of
every finite point set (a lower bound's packing too).  Every module checks
its counts (dimensions, steps, draws, chains) with _integer, and maps the
uniforms of its coin flips to signs with _coin_signs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NormBall",
    "project_l2_ball",
]


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


def _integer(key: str, v) -> int:
    """v as an int; a fraction or a bool is an error, never truncated."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _coin_signs(u: np.ndarray, p) -> np.ndarray:
    """Coins with P(+1) = p from uniforms u on [0, 1): +1.0 exactly where
    u < p and -1.0 elsewhere, u == p included, the bits of
    np.where(u < p, 1.0, -1.0), written over u's buffer.  u - p is +0.0 at
    u == p and otherwise has the sign of the exact difference (an IEEE
    subtraction of unequal numbers never rounds to 0), so copysign makes
    -1.0 exactly where u < p, and the negation flips it."""
    np.subtract(u, p, out=u)
    np.copysign(1.0, u, out=u)
    return np.negative(u, out=u)


# the largest d whose 2^d corners a pmf or a data support enumerates
_CORNER_MAX_D = 20
# the largest d at which 2^d corner inputs are each set against the 2^d
# corners: certify's exact-MI source, the exhaustive DP ratio and the
# two-level law at an interior input
_CORNER_PAIRS_MAX_D = 10


@lru_cache(maxsize=None)
def _corner_matrix(d: int) -> np.ndarray:
    """All 2^d sign vectors, row i = binary expansion of i mapped 0 -> -1."""
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1)) & 1
    out = bits.astype(float) * 2.0 - 1.0
    out.setflags(write=False)
    return out


def _corner_index(up: np.ndarray) -> np.ndarray:
    """The index in _corner_matrix order of the corner whose +1 coordinates
    are the True entries of each row of up: coordinate j is bit d - 1 - j."""
    return up @ (1 << np.arange(up.shape[1] - 1, -1, -1))


@lru_cache(maxsize=None)
def _signed_basis(d: int) -> np.ndarray:
    """The 2d rows +e_0, ..., +e_(d-1), -e_0, ..., -e_(d-1); every zero is +0.0."""
    out = np.eye(2 * d, d) - np.eye(2 * d, d, k=-d)
    out.setflags(write=False)
    return out


# The squared norms that a plain sum of squares gets right: below _SQ_MIN,
# squares under the normal range (or flushed to 0) could matter; above
# float max, the sum overflowed.
_SQ_MIN = 1e-280


def project_l2_ball(x, r: float) -> np.ndarray:
    """Euclidean projection of x onto {y : ||y||_2 <= r}.

    PARAMETERS
      x -- point to project, any shape-(d,) array.
      r -- ball radius, positive.

    RETURNS
      The closest point of the ball, i.e. x itself if feasible and the
      radial rescaling (r / ||x||_2) x otherwise.

    The norm is np.linalg.norm's own formula, sqrt(<x, x>), unless that sum
    of squares overflows or underflows; then x is first scaled by max|x|.
    NaN and inf survive the sum of squares, so only that slow path checks
    that x is finite.
    """
    x = np.asarray(x, dtype=float)
    if r <= 0:
        raise ValueError("r must be positive")
    v = x.ravel(order="K")  # contiguous, as ddot rounds a strided vector differently
    sq = np.vdot(v, v)  # the same ddot as v.dot(v), which would warn on overflow
    if _SQ_MIN <= sq < math.inf:
        nrm = math.sqrt(sq)
        return x.copy() if nrm <= r else (r / nrm) * x
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input")
    top = np.maximum.reduce(np.abs(v), initial=0.0)
    if top == 0.0:
        return x.copy()
    u = v / top
    k = math.sqrt(np.vdot(u, u))  # ||x|| / max|x|, in [1, sqrt(d)]
    return x.copy() if top * k <= r else (x / top) * (r / k)
