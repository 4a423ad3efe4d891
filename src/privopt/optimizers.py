"""Stochastic first-order methods matching the upper-bound rates.

mirror_descent_l1 runs entropic mirror descent on the 2d-simplex lift of
the l1 ball: theta = r(u - v) with (u, v) on the simplex, multiplicative
updates, uniform init.  sgd_l2 is projected SGD on an l2 ball with the
1/sqrt(t) step.  Both average all iterates and are bitwise deterministic
given (config, seed).

grad_oracle contract: callable(theta, rng) -> subgradient estimate with
E[g | theta] in the population subdifferential.  The rng argument is the
run's own generator; oracles backed by a private stream may ignore it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, project_l2_ball

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
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.grad_bound <= 0.0:
            raise ValueError("grad_bound must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class OptimizerRun:
    averaged: np.ndarray
    iterates: np.ndarray | None = None


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
      grad_oracle : callable(theta, rng) -> array shaped like theta
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
    and the iterate and running total (dim, R), so each half of the lift,
    the per-chain max and the per-chain sum read contiguous rows; the
    oracle gets the (R, dim) view theta.T, and one chain is a (2 dim,)
    lift.  The log-weights are never normalized: a step moves them by the
    gradient and subtracts their max, so the largest weight exp(0) = 1
    bounds them all, and the iterate r (w_u - w_v) / s divides by the
    lift's sum s only through the per-chain scalar r / s.  s is a running
    sum over the 2 dim weights in lift order (np.add.accumulate), the same
    order at every R; np.add.reduce would sum one chain pairwise but many
    chains in order, and from 2 dim = 8 up the two differ in the last
    bits.  So every row of a many-chain run equals the single run of its
    oracle bit for bit.
    """
    gen = _prepare(config, rng, "mirror_descent_l1", 1)
    d, n, r = config.dim, config.steps, config.domain.radius
    if chains is not None and chains < 1:
        raise ValueError("chains must be >= 1")
    eta = step_size_for("mirror_descent_l1", config.domain, config.grad_bound, n, d)
    cols = () if chains is None else (int(chains),)
    lw = np.full((2 * d,) + cols, -math.log(2 * d))  # log-weights on the lift, uniform
    theta = np.zeros((d,) + cols)
    total = np.zeros((d,) + cols)
    w = np.empty_like(lw)
    step = eta * r
    for _ in range(n):
        total += theta
        g = step * np.asarray(grad_oracle(theta.T, gen), dtype=float).T
        if g.shape != theta.shape:
            raise ValueError(f"oracle gave a gradient of shape {g.T.shape} for theta {theta.T.shape}")
        lw[:d] -= g
        lw[d:] += g
        lw -= np.maximum.reduce(lw)
        np.exp(lw, out=w)
        s = np.add.accumulate(w)[-1]  # the lift's sum, in order (see LAYOUT)
        theta = (w[:d] - w[d:]) * (r / s)
    return OptimizerRun(np.ascontiguousarray(total.T) / n)


def sgd_l2(grad_oracle, config: OptimizerConfig, rng,
           record_iterates: bool = False) -> OptimizerRun:
    """Projected SGD on the l2 ball, step r2/(M2 sqrt(t)), averaged."""
    gen = _prepare(config, rng, "sgd_l2", 2)
    d, n, r = config.dim, config.steps, config.domain.radius
    base = step_size_for("sgd_l2", config.domain, config.grad_bound, n, d)
    theta = np.zeros(d)
    total = np.zeros(d)
    trace = np.empty((n, d)) if record_iterates else None
    for t in range(n):
        if record_iterates:
            trace[t] = theta
        total += theta
        g = np.asarray(grad_oracle(theta, gen), dtype=float)
        theta = project_l2_ball(theta - (base / math.sqrt(t + 1.0)) * g, r)
    return OptimizerRun(total / n, trace)
