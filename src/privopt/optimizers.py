"""Stochastic first-order methods matching the upper-bound rates.

mirror_descent_l1 runs entropic mirror descent on the 2d-simplex lift of
the l1 ball: theta = r(u - v) with (u, v) on the simplex, multiplicative
updates, uniform init.  sgd_l2 is projected SGD on an l2 ball with the
1/sqrt(t) step.  Both average all iterates and are bitwise deterministic
given (config, seed).

grad_oracle contract: callable(theta, rng) -> subgradient estimate with
E[g | theta] in the population subdifferential.  The rng argument is the
run's own generator; oracles backed by a private stream may ignore it.
An oracle may also answer ahead, as the population-stream oracles of
protocol.as_grad_oracle do: oracle.ahead(theta, most) -> (Z, settle), Z
(k, *theta.shape) the answers to the next 1 <= k <= most queries all asked
at theta, and settle(thetas) -> m, given the thetas queries 1..j < k would
really be asked at, consumes and returns the m >= 1 leading answers equal
bit for bit to those the calls would give (how it finds them is the
oracle's business: protocol's compares subgradient bits, or only the
thetas where the loss's subgradient cannot change).  mirror_descent_l1
then steps k queries at once, in passes over arrays with a leading step
axis, and keeps m of them, capping the window after one that
wasted answers (m < k) at twice that m, so at most 3n answers are computed
over n steps.  The guessed answers it drops are a simulation shortcut, not
part of the protocol's transcript (see protocol).

The answer rule holds alike for sgd_l2's and mirror_descent_l1's per-step
calls and for mirror_descent_l1's windows, through one check (_checked):
an answer has theta's shape, and a window's Z is (k, *theta.shape) with
1 <= k <= most; any other answer raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, _integer, project_l2_ball

__all__ = [
    "OPTIMIZER_METHODS",
    "OptimizerConfig",
    "OptimizerRun",
    "mirror_descent_l1",
    "sgd_l2",
    "step_size_for",
]

OPTIMIZER_METHODS = ("mirror_descent_l1", "sgd_l2")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    domain: NormBall
    dim: int
    steps: int
    grad_bound: float

    def __post_init__(self) -> None:
        if self.method not in OPTIMIZER_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("dim", "steps"):
            _integer(name, getattr(self, name))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.grad_bound) and self.grad_bound > 0.0):
            raise ValueError("grad_bound must be positive and finite")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class OptimizerRun:
    averaged: np.ndarray


def step_size_for(method: str, domain: NormBall, grad_bound: float, n: int,
                  d: int) -> float:
    """Default step size.

    Mirror descent uses the fixed eta = sqrt(2 log 2d) / (r M_inf sqrt(n))
    tuned to the lift's entropy diameter (the lift gradients scale with r,
    hence the r in the denominator).  For SGD the returned value is the
    t = 1 step r2/M2, to be decayed as 1/sqrt(t) by the caller.
    """
    if method == "mirror_descent_l1":
        return math.sqrt(2.0 * math.log(2 * d)) / (domain.radius * grad_bound * math.sqrt(n))
    if method == "sgd_l2":
        return domain.radius / grad_bound
    raise ValueError(f"unknown method {method!r}")


def _checked(answer, shape: tuple, most: int | None = None) -> np.ndarray:
    """An oracle's answer as a float array, checked by the answer rule (see
    the module docstring): one answer to theta of this shape, or with most
    given a window of at most that many."""
    answer = np.asarray(answer, dtype=float)
    got = answer.shape if most is None else answer.shape[1:]
    if got != shape:
        raise ValueError(f"oracle gave a gradient of shape {got} for theta {shape}")
    if most is not None and not 1 <= len(answer) <= most:
        raise ValueError(f"oracle answered {len(answer)} queries ahead, not 1 to {most}")
    return answer


def _prepare(config: OptimizerConfig, rng, method: str, p: int) -> np.random.Generator:
    if config.method != method:
        raise ValueError(f"{method} cannot run a {config.method!r} config")
    if config.domain.p != p:
        raise ValueError(f"{method} needs an l{p} ball domain")
    return np.random.default_rng(rng)


def mirror_descent_l1(grad_oracle, config: OptimizerConfig, rng,
                      chains: int | None = None) -> OptimizerRun:
    """Entropic mirror descent over the l1 ball of radius r.

    PARAMETERS
      grad_oracle : callable(theta, rng) -> array shaped like theta; one
                    that answers ahead is stepped mostly a window at a
                    time (_window), to the same bits
      config      : method must be mirror_descent_l1; grad_bound is M_inf
      rng         : integer seed or np.random.Generator
      chains      : None steps one chain with theta of shape (dim,); an
                    integer R steps R independent chains at once, with
                    theta and the average of shape (R, dim) and each row
                    updated exactly as a single chain.  The oracle then
                    answers one gradient per row of theta.

    RETURNS OptimizerRun with the uniform average of the n visited
    iterates (the init counts; the point produced by the last gradient
    does not), of shape (dim,) or (R, dim).

    LAYOUT  The state is chain-minor: the lift's log-weights are (2 dim, R)
    and the iterate and running total (dim, R), so each half of the lift
    and the per-chain sum read contiguous rows; the oracle gets the
    (R, dim) view theta.T, and one chain is a (2 dim,) lift.  The
    log-weights are never normalized: a step moves them by the gradient,
    takes their exp and the lift's sum s, and the iterate
    r (w_u - w_v) / s divides by s only through the per-chain scalar r / s.
    A chain is rescaled (its log-weights shifted down by their max, its
    exp and sum redone) only when its s leaves (_SUM_LO, _SUM_HI),
    overflow and NaN included.  Between rescales each pair
    lw_u,j + lw_v,j is constant, so the largest log-weight stays at or
    above half of it: s heads for underflow only after a rescale that
    followed a huge jump, and the lower bound catches that.  s adds the
    2 dim weights in lift order at every R: one chain (or R = 1) takes the
    last entry of np.add.accumulate, and R >= 2 chains np.add.reduce along
    axis 0, which numpy adds in order as that axis is not the fast one in
    memory.  Along the fast axis, as for one chain, np.add.reduce adds
    pairwise, and from 2 dim = 8 up the two orders differ in the last
    bits.  The rescale touches only the chains out of range and sums them
    in order too, so every row of a many-chain run equals the single run
    of its oracle bit for bit.
    """
    gen = _prepare(config, rng, "mirror_descent_l1", 1)
    d, n, r = config.dim, config.steps, config.domain.radius
    cols = () if chains is None else (_integer("chains", chains),)
    if cols and cols[0] < 1:
        raise ValueError("chains must be >= 1")
    eta = step_size_for("mirror_descent_l1", config.domain, config.grad_bound, n, d)
    lw = np.full((2 * d,) + cols, -math.log(2 * d))  # log-weights on the lift, uniform
    theta = np.zeros((d,) + cols)
    total = np.zeros((d,) + cols)
    many = chains is not None and chains > 1  # then s is reduced along a slow axis (see LAYOUT)
    step = eta * r
    w = np.empty_like(lw)
    g = np.empty((d,) + cols)  # the scaled gradient
    lw_u, lw_v, w_u, w_v = lw[:d], lw[d:], w[:d], w[d:]
    s, acc = (np.empty(cols), None) if many else (None, np.empty_like(lw))
    in_range = _sum_in_range if chains is None else _sums_in_range
    # an oracle that answers ahead is stepped in windows (see _window).  A
    # window that keeps m of its k answers caps the next at 2m, so at most
    # 3n answers are computed over n steps; one that only the block's end
    # cut short (m = k < most) wasted nothing and keeps the cap.  A window
    # costs one to three single steps, so after one whose check found a
    # wrong guess single steps follow: 1 after the first such window in a
    # row, then twice as many after each next one, until a window checks
    # a guess and finds it right.  Where subgradients flip every step or
    # two the run is then single steps but for a window per doubling;
    # where they stay put, there are no single steps.
    ahead = getattr(grad_oracle, "ahead", None)
    done, single, backoff, cap = 0, n if ahead is None else 0, 1, n
    with np.errstate(over="ignore"):  # an exp that overflows fails in_range and is redone
        while done < n:
            single = min(single, n - done)
            done += single
            for _ in range(single):
                total += theta
                grad = _checked(grad_oracle(theta.T, gen), theta.T.shape)
                np.multiply(grad.T, step, out=g)
                lw_u -= g
                lw_v += g
                np.exp(lw, out=w)
                if many:
                    np.add.reduce(w, axis=0, out=s)
                else:
                    s = np.add.accumulate(w, axis=0, out=acc)[-1]
                if not in_range(s):
                    s = _rescale(lw, w, s)
                theta = w_u - w_v  # a fresh array: an oracle may keep the one it was given
                theta *= r / s
            if done == n:
                break
            most = min(cap, n - done)
            k, checked, m, theta = _window(ahead, lw, theta, total, most, step, r, many)
            done += m
            if m < k or k == most:
                cap = 2 * m
            single = 0
            if m <= checked:  # a guess failed its check
                single, backoff = backoff, 2 * backoff
            elif checked:
                backoff = 1
    return OptimizerRun(np.ascontiguousarray(total.T) / n)


def _window(ahead, lw, theta, total, most, step, r, many):
    """One window of mirror_descent_l1 over an oracle that answers ahead:
    asks for at most `most` steps, keeps the m whose answers the per-step
    calls would give, and moves lw and total in place; returns (k, the
    guesses checked, m, the next theta), m <= the guesses checked when one
    failed its check.  Every array has a leading step axis, and every
    operation of a step runs in the per-step order, so the run equals the
    per-step one bit for bit:

      the log-weights (k + 1, 2d, *cols) are running sums of the scaled
        gradients from the current lift, one contiguous add per step
        (lw + (-g) is lw - g exactly);
      the lift sums add the 2d weights in lift order: np.add.reduce along
        a slow axis for R >= 2 chains, np.add.accumulate for one;
      the window is cut at the first step whose lift sum leaves
        (_SUM_LO, _SUM_HI), and _rescale is applied there;
      each iterate (d, *cols) has the per-step layout, so the oracle sees
        the same arrays;
      the total adds the kept iterates in step order, in one np.add.reduce
        along the slow step axis of a buffer whose rows 0 and 1 are the
        total and theta; over a total of one entry, where that reduce
        would add pairwise, the last entry of np.add.accumulate.  (The
        running log-weight sums keep their per-step loop: at R = 50 chains
        np.add.accumulate along the strided step axis was 2 to 7 times
        slower.)"""
    d = len(theta)
    z, settle = ahead(theta.T, most)
    z = _checked(z, theta.T.shape, most)
    k = len(z)
    g = z.swapaxes(1, -1)  # (k, d, *cols): each step's gradient.T
    L = np.empty((k + 1, 2 * d) + theta.shape[1:])
    L[0] = lw
    np.multiply(g, -step, out=L[1:, :d])
    np.multiply(g, step, out=L[1:, d:])
    for t in range(1, k + 1):
        np.add(L[t - 1], L[t], out=L[t])
    W = np.exp(L[1:])
    S = np.add.reduce(W, axis=1) if many else np.add.accumulate(W, axis=1)[:, -1]
    in_range = (_SUM_LO < S) & (S < _SUM_HI)  # NaN is out
    fine = np.logical_and.reduce(in_range.reshape(k, -1), axis=1)
    cut = k if fine.all() else int(fine.argmin()) + 1  # steps up to the first rescale
    good = cut if fine[cut - 1] else cut - 1  # iterates that need no rescale
    T = np.empty((good + 2,) + theta.shape)  # the total, theta, then the iterates
    T[0] = total
    T[1] = theta
    thetas = np.subtract(W[:good, :d], W[:good, d:], out=T[2:])
    thetas *= r / S[:good, None]
    m = settle(thetas[:cut - 1].swapaxes(1, -1))
    if total.size > 1:
        np.add.reduce(T[:m + 1], axis=0, out=total)
    else:
        total[...] = np.add.accumulate(T[:m + 1], axis=0)[-1]
    lw[...] = L[m]
    if fine[m - 1]:
        return k, cut - 1, m, thetas[m - 1]
    w = W[m - 1]
    s = _rescale(lw, w, S[m - 1])
    theta = w[:d] - w[d:]
    theta *= r / s
    return k, cut - 1, m, theta


# the range a chain's lift sum may drift in before mirror_descent_l1 rescales it
_SUM_LO, _SUM_HI = 1e-100, 1e100


def _sum_in_range(s) -> bool:
    return _SUM_LO < s < _SUM_HI


def _sums_in_range(s) -> bool:
    # NaN fails both compares, as np.minimum propagates it
    return _SUM_LO < np.minimum.reduce(s) and np.maximum.reduce(s) < _SUM_HI


def _rescale(lw, w, s):
    """Shift the log-weights of each chain whose lift sum in s is out of
    range down by their max and redo its weights in place; returns the
    lift sums, with the redone ones summed in order.  One chain (s a
    scalar) is a column of one."""
    out = ~((_SUM_LO < s) & (s < _SUM_HI))
    part = lw[..., out]
    part -= np.maximum.reduce(part)
    lw[..., out] = part
    np.exp(part, out=part)
    w[..., out] = part
    s = np.array(s)
    s[out] = np.add.accumulate(part)[-1]
    return s


def sgd_l2(grad_oracle, config: OptimizerConfig, rng) -> OptimizerRun:
    """Projected SGD on the l2 ball, step r2/(M2 sqrt(t)), averaged over the
    n iterates its oracle is handed: the init counts, the last step's point not."""
    gen = _prepare(config, rng, "sgd_l2", 2)
    d, n, r = config.dim, config.steps, config.domain.radius
    base = step_size_for("sgd_l2", config.domain, config.grad_bound, n, d)
    theta = np.zeros(d)
    total = np.zeros(d)
    for t in range(n):
        total += theta
        g = _checked(grad_oracle(theta, gen), theta.shape)
        theta = project_l2_ball(theta - (base / math.sqrt(t + 1.0)) * g, r)
    return OptimizerRun(total / n)
