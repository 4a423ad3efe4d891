"""Exact small-dimension solver for the strongest-mean private channel.

Channel design at a single corner input, posed as a linear program:
choose a pmf q over the output corners maximizing the mean multiplier t
subject to E_q[Z] = t x and the pairwise likelihood-ratio cap exp(eps).
By sign symmetry the solution extends to every corner input, so the cap
on one pmf is the full privacy constraint.  Solved in exact rational
arithmetic for d <= 4 and in 60-digit floats for d in {5, 6}; the
optimizer is a dense two-phase simplex with Bland's rule, so degenerate
vertices cannot cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import mpmath
import numpy as np

from .channels import _corner_matrix, eps_star

__all__ = ["MAX_LP_DIM", "DpLpInstance", "DpLpSolution", "solve_dp_lp", "eps_star"]

MAX_LP_DIM = 6


@dataclass(frozen=True)
class DpLpInstance:
    d: int
    eps: float

    def __post_init__(self) -> None:
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
# dense two-phase simplex over a duck-typed exact field


def _pivot(T, cost, basis, li, ej, is_zero):
    piv = T[li][ej]
    row = [e / piv for e in T[li]]
    T[li] = row
    for i in range(len(T)):
        if i == li:
            continue
        f = T[i][ej]
        if not is_zero(f):
            T[i] = [a - f * b for a, b in zip(T[i], row)]
    f = cost[ej]
    if not is_zero(f):
        cost[:] = [a - f * b for a, b in zip(cost, row)]
    basis[li] = ej


def _iterate(T, cost, basis, allowed, zero, is_zero):
    # Bland: smallest improving column, smallest basis index on ratio ties
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < zero and not is_zero(cost[j]):
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, None
        for i in range(len(T)):
            a = T[i][enter]
            if a > zero and not is_zero(a):
                ratio = T[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise RuntimeError("LP is unbounded")
        _pivot(T, cost, basis, leave, enter, is_zero)


def _simplex_two_phase(A, b, c, zero, one, is_zero):
    """Maximize c.v subject to A v = b, v >= 0.  Returns (v, value)."""
    m_rows, n = len(A), len(c)
    width = n + m_rows + 1
    T, basis = [], []
    for i in range(m_rows):
        row = list(A[i]) + [zero] * m_rows + [b[i]]
        if row[-1] < zero:
            row = [-e for e in row]
        row[n + i] = one
        T.append(row)
        basis.append(n + i)

    # phase 1: maximize minus the artificial mass
    cost = [zero] * width
    for i in range(m_rows):
        for j in range(width):
            cost[j] = cost[j] - T[i][j]
    for j in range(n, n + m_rows):
        cost[j] = cost[j] + one
    _iterate(T, cost, basis, range(width - 1), zero, is_zero)
    infeas = sum((T[i][-1] for i in range(m_rows) if basis[i] >= n), zero)
    if not is_zero(infeas):
        raise RuntimeError("LP is infeasible")
    for i in range(m_rows):
        if basis[i] >= n:
            for j in range(n):
                if not is_zero(T[i][j]):
                    _pivot(T, cost, basis, i, j, is_zero)
                    break
    keep = [i for i in range(len(T)) if basis[i] < n]
    T = [T[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: true objective, artificial columns barred
    cost = [-cj for cj in c] + [zero] * (m_rows + 1)
    for i in range(len(T)):
        cb = c[basis[i]]
        if not is_zero(cb):
            cost = [a + cb * t for a, t in zip(cost, T[i])]
    _iterate(T, cost, basis, range(n), zero, is_zero)
    v = [zero] * n
    for i in range(len(T)):
        v[basis[i]] = T[i][-1]
    return v, cost[-1]


# ---------------------------------------------------------------------------


def _field(d: int, eps: float):
    # both backends lift the double-precision exp(eps), so results agree
    # with float closed forms to rounding rather than to truncation level
    if d <= 4:
        return Fraction(math.exp(eps)), Fraction, Fraction(0), Fraction(1), (
            lambda a: a == 0
        )
    tol = mpmath.mpf("1e-40")
    return (
        mpmath.mpf(math.exp(eps)),
        mpmath.mpf,
        mpmath.mpf(0),
        mpmath.mpf(1),
        lambda a: abs(a) < tol,
    )


def solve_dp_lp(inst: DpLpInstance, x: Optional[Sequence[float]] = None) -> DpLpSolution:
    """Solve the mean-maximizing channel design at corner input x.

    x defaults to the all-ones corner; any sign pattern is accepted and
    the solution is its signed permutation.  Variables are the corner
    pmf q, the multiplier t, and a floor m with m <= q_z <= exp(eps) m,
    which encodes every pairwise ratio constraint at once.
    """
    d, eps = inst.d, inst.eps
    corners = np.asarray(_corner_matrix(d))
    nq = corners.shape[0]
    if x is None:
        x_arr = np.ones(d)
    else:
        x_arr = np.asarray(x, dtype=float)
        if x_arr.shape != (d,) or np.any(np.abs(np.abs(x_arr) - 1.0) > 1e-12):
            raise ValueError("x must be a sign corner of dimension d")
    with mpmath.workdps(60):
        E, conv, zero, one, is_zero = _field(d, eps)
        i_t, i_m = nq, nq + 1
        i_s0, i_u0 = nq + 2, 2 * nq + 2
        nvars = 3 * nq + 2
        A, b = [], []
        row = [zero] * nvars
        for z in range(nq):
            row[z] = one
        A.append(row)
        b.append(one)
        for i in range(d):
            row = [zero] * nvars
            for z in range(nq):
                row[z] = conv(int(corners[z, i]))
            row[i_t] = conv(-int(round(x_arr[i])))
            A.append(row)
            b.append(zero)
        for z in range(nq):
            row = [zero] * nvars
            row[z], row[i_m], row[i_s0 + z] = one, -E, one
            A.append(row)
            b.append(zero)
        for z in range(nq):
            row = [zero] * nvars
            row[z], row[i_m], row[i_u0 + z] = -one, one, one
            A.append(row)
            b.append(zero)
        c = [zero] * nvars
        c[i_t] = one
        v, _ = _simplex_two_phase(A, b, c, zero, one, is_zero)
        q = np.array([float(v[z]) for z in range(nq)])
        t_star = float(v[i_t])
    levels = tuple(
        float(val) for val in sorted(np.unique(np.round(q, 10)), reverse=True)
    )
    return DpLpSolution(
        t_star=t_star,
        q=q,
        levels=levels,
        d=d,
        eps=eps,
        x=tuple(float(s) for s in x_arr),
    )

