"""Exact solver for the strongest-mean private channel.

Channel design at a single corner input, posed as a linear program:
choose a pmf q over the output corners maximizing the mean multiplier t
subject to E_q[Z] = t x and the pairwise likelihood-ratio cap exp(eps).
By sign symmetry the solution extends to every corner input, so the cap
on one pmf is the full privacy constraint.

Flipping signs makes x the all-ones corner, after which the LP is
invariant under every permutation of the coordinates.  Averaging an
optimum over the permutations keeps it optimal, so some optimum is
constant on each agreement class {z : z agrees with x in exactly k
coordinates}.  The LP is therefore solved over the d + 1 class masses,
in exact rational arithmetic, and expanded to the 2^d pmf.
The optimizer is a two-phase simplex with Bland's rule, so degenerate
vertices cannot cycle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .channels import eps_star
from .geometry import _corner_matrix

__all__ = ["MAX_LP_DIM", "DpLpInstance", "DpLpSolution", "solve_dp_lp", "eps_star"]

MAX_LP_DIM = 6
ZERO, ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class DpLpInstance:
    d: int
    eps: float

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, numbers.Integral):
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if not 1 <= self.d <= MAX_LP_DIM:
            raise ValueError(f"d must lie in [1, {MAX_LP_DIM}]")
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")


@dataclass(frozen=True, eq=False)
class DpLpSolution:
    """Optimal pmf over the output corners, in _corner_matrix order.

    levels lists the distinct pmf values, largest first; below the phase
    transition there are exactly two.
    """

    t_star: float
    q: np.ndarray
    levels: Tuple[float, ...]
    d: int
    eps: float
    x: Tuple[float, ...]

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.shape != (2**self.d,):
            raise ValueError("q must have one entry per output corner")
        if np.any(q < -1e-12):
            raise ValueError("q must be nonnegative")
        if abs(q.sum() - 1.0) > 1e-9:
            raise ValueError("q must sum to 1")
        ratio = q.max() / q.min() if q.min() > 0.0 else math.inf
        if ratio > math.exp(self.eps) + 1e-9:
            raise ValueError("pairwise ratio exceeds exp(eps)")
        corners = np.asarray(_corner_matrix(self.d))
        mean = corners.T @ q
        if np.max(np.abs(mean - self.t_star * np.asarray(self.x))) > 1e-9:
            raise ValueError("mean constraint violated")


# ---------------------------------------------------------------------------
# two-phase simplex over Fraction tableaus


def _pivot(T, cost, basis, li, ej):
    # the tableau is sparse, and skipping its zeros leaves every entry exact
    piv = T[li][ej]
    row = [e / piv if e else e for e in T[li]]
    T[li] = row
    for i in range(len(T)):
        if i == li:
            continue
        f = T[i][ej]
        if f:
            T[i] = [a - f * b if b else a for a, b in zip(T[i], row)]
    f = cost[ej]
    if f:
        cost[:] = [a - f * b if b else a for a, b in zip(cost, row)]
    basis[li] = ej


def _iterate(T, cost, basis, allowed):
    # Bland: smallest improving column, smallest basis index on ratio ties
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, None
        for i in range(len(T)):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise RuntimeError("LP is unbounded")
        _pivot(T, cost, basis, leave, enter)


def _simplex_two_phase(A, b, c):
    """Maximize c.v subject to A v = b, v >= 0, every entry a Fraction.
    Returns (v, value)."""
    m_rows, n = len(A), len(c)
    width = n + m_rows + 1
    T, basis = [], []
    for i in range(m_rows):
        row = list(A[i]) + [ZERO] * m_rows + [b[i]]
        if row[-1] < 0:
            row = [-e for e in row]
        row[n + i] = ONE
        T.append(row)
        basis.append(n + i)

    # phase 1: maximize minus the artificial mass
    cost = [ZERO] * width
    for i in range(m_rows):
        for j in range(width):
            cost[j] = cost[j] - T[i][j]
    for j in range(n, n + m_rows):
        cost[j] = cost[j] + ONE
    _iterate(T, cost, basis, range(width - 1))
    if sum((T[i][-1] for i in range(m_rows) if basis[i] >= n), ZERO):
        raise RuntimeError("LP is infeasible")
    for i in range(m_rows):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j]:
                    _pivot(T, cost, basis, i, j)
                    break
    keep = [i for i in range(len(T)) if basis[i] < n]
    T = [T[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: true objective, artificial columns barred
    cost = [-cj for cj in c] + [ZERO] * (m_rows + 1)
    for i in range(len(T)):
        cb = c[basis[i]]
        if cb:
            cost = [a + cb * t for a, t in zip(cost, T[i])]
    _iterate(T, cost, basis, range(n))
    v = [ZERO] * n
    for i in range(len(T)):
        v[basis[i]] = T[i][-1]
    return v, cost[-1]


def _solve_classes(d: int, eps: float) -> Tuple[Fraction, list]:
    """t* and the class masses q_0..q_d at x = all-ones, exact.

    q_k is the mass of one corner with exactly k coordinates equal to
    +1.  Further variables are the multiplier t and a floor m
    with m <= q_k <= exp(eps) m, which encodes every pairwise ratio
    constraint at once.  Rows: sum_k C(d,k) q_k = 1, and the mean along
    x, sum_k C(d,k) (2k - d) q_k = d t.
    """
    # lift the double-precision exp(eps), so results agree with float
    # closed forms to rounding rather than to truncation level
    E = Fraction(math.exp(eps))
    nk = d + 1
    i_t, i_m, i_s0, i_u0 = nk, nk + 1, nk + 2, 2 * nk + 2
    nvars = 3 * nk + 2
    sizes = [Fraction(math.comb(d, k)) for k in range(nk)]
    mass = sizes + [ZERO] * (nvars - nk)
    mean = [size * (2 * k - d) for k, size in enumerate(sizes)] + [ZERO] * (nvars - nk)
    mean[i_t] = Fraction(-d)
    A, b = [mass, mean], [ONE, ZERO]
    for k in range(nk):
        row = [ZERO] * nvars
        row[k], row[i_m], row[i_s0 + k] = ONE, -E, ONE
        A.append(row)
        b.append(ZERO)
    for k in range(nk):
        row = [ZERO] * nvars
        row[k], row[i_m], row[i_u0 + k] = -ONE, ONE, ONE
        A.append(row)
        b.append(ZERO)
    c = [ZERO] * nvars
    c[i_t] = ONE
    v, _ = _simplex_two_phase(A, b, c)
    return v[i_t], v[:nk]


def solve_dp_lp(inst: DpLpInstance, x: Optional[Sequence[float]] = None) -> DpLpSolution:
    """Solve the mean-maximizing channel design at corner input x.

    x defaults to the all-ones corner; any sign pattern is accepted and
    the solution is its signed permutation: each corner gets the mass of
    its agreement class with x.
    """
    d, eps = inst.d, inst.eps
    if x is None:
        x_arr = np.ones(d)
    else:
        x_arr = np.asarray(x, dtype=float)
        if (x_arr.shape != (d,) or not np.all(np.isfinite(x_arr))
                or np.any(np.abs(np.abs(x_arr) - 1.0) > 1e-12)):
            raise ValueError("x must be a sign corner of dimension d")
    t_star, q_class = _solve_classes(d, eps)
    agree = (np.asarray(_corner_matrix(d)) == np.sign(x_arr)).sum(axis=1)
    q = np.array([float(qk) for qk in q_class])[agree]
    levels = tuple(
        float(val) for val in sorted(np.unique(np.round(q, 10)), reverse=True)
    )
    return DpLpSolution(
        t_star=float(t_star),
        q=q,
        levels=levels,
        d=d,
        eps=eps,
        x=tuple(float(s) for s in x_arr),
    )
