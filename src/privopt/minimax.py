"""Computable minimax machinery: testing lower bounds (Fano, Le Cam),
per-sample information lemmas, and the matched lower/upper risk curves.

The universal constants the theory leaves unspecified are 1, so
comparisons involving them are rate-shape checks, not absolute ones.  All
information quantities are in nats.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .channels import Channel, channel_pmf, l1_gamma
from .geometry import Packing
from .information import mi_closed_form, mi_from_conditionals
from .losses import LOSS_KINDS, DataDist, dist_support, make_loss, subgrad

__all__ = [
    "THEOREMS",
    "THEOREM_BUDGET",
    "DELTA_THEOREMS",
    "BoundSpec",
    "TestingInstance",
    "lower_bound",
    "upper_bound",
    "fano_bound",
    "le_cam_bound",
    "mi_lemma_value",
    "lemma8_constants",
    "default_delta",
    "observation_rows",
    "exact_mi_per_sample",
    "empirical_testing_error",
    "dp_marginal_kl_bound",
    "dp_nonint_info_bound",
    "t5_middle_term",
]

THEOREM_BUDGET = {
    "T1a": "M", "T1b": "M", "T2": "M", "T3": "eps", "T4": "eps",
    "T5_linear": "eps", "T5_general": "eps", "C1": "I_star", "C2": "I_star",
    "C3": "eps",
}
THEOREMS = tuple(THEOREM_BUDGET)
# the theorems whose testing construction has a recorded bias choice
DELTA_THEOREMS = frozenset({"T1b", "T3", "C3", "T4"})


@dataclass(frozen=True)
class BoundSpec:
    """One evaluated bound: theorem tag plus its parameters.

    M is the channel magnitude (T1a, T1b, T2), eps the DP level (T3, T4,
    T5_*, C3), I_star the information budget in nats (C1, C2).  q is the
    domain geometry exponent for the T5 family.  The paper's unspecified
    universal constants are 1 on either side.
    """

    theorem: str
    d: int
    n: int
    L: float = 1.0
    r: float = 1.0
    M: Optional[float] = None
    eps: Optional[float] = None
    I_star: Optional[float] = None
    q: Optional[float] = None

    def __post_init__(self) -> None:
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if self.d < 1 or self.n < 1 or self.L <= 0 or self.r <= 0:
            raise ValueError("d, n, L, r must be positive")
        need = THEOREM_BUDGET[self.theorem]
        if getattr(self, need) is None:
            raise ValueError(f"{self.theorem} needs {need}")
        if self.theorem == "T3":
            if self.d < 2:
                raise ValueError("T3 needs d >= 2")
            if self.eps > 1.25:
                raise ValueError("T3 holds for eps <= 5/4")
        if self.theorem == "T2" and self.M <= self.L:
            raise ValueError("T2 needs M > L")
        if self.theorem.startswith("T5"):
            if self.q is None or self.q < 1.0:
                raise ValueError("T5 needs q >= 1")
        if self.eps is not None and self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.I_star is not None and self.I_star <= 0:
            raise ValueError("I_star must be positive")


def _log2d(d: int) -> float:
    return math.log(2 * d)


def _l1_contraction(d: int, L: float, M: float) -> float:
    # D = (e^g - e^-g)/(e^g + e^-g + 2d - 2) at the calibrated gamma;
    # algebraically equal to L/M, computed here through gamma on purpose
    # so the closed form is cross-checked rather than assumed
    g = l1_gamma(d, M / L)
    return (math.exp(g) - math.exp(-g)) / (math.exp(g) + math.exp(-g) + 2 * d - 2)


def _dq_factor(d: int, q: float) -> float:
    return d ** (0.5 - 1.0 / q) if math.isfinite(q) else math.sqrt(d)


def lower_bound(spec: BoundSpec) -> float:
    """Closed-form minimax lower bound for the spec's theorem."""
    d, n, L, r = spec.d, spec.n, spec.L, spec.r
    rn = math.sqrt(n)
    if spec.theorem == "T1a":
        return 0.05 * min(r * L * d, spec.M * r * d / (9.0 * rn))
    if spec.theorem == "T1b":
        return 0.125 * min(r * L, spec.M * r * math.sqrt(_log2d(d)) / (2.0 * rn))
    if spec.theorem == "T2":
        D = _l1_contraction(d, L, spec.M)
        return 0.05 * min(r * L, r * L * math.sqrt(d) / (9.0 * rn * D))
    if spec.theorem == "T3":
        return 0.125 * min(
            r * L, (math.sqrt(d) / spec.eps) * r * L * math.sqrt(_log2d(d)) / (4.0 * rn)
        )
    if spec.theorem == "T4":
        return min((math.sqrt(d) / spec.eps) * r * L * math.sqrt(_log2d(d)) / rn, r * L)
    if spec.theorem == "T5_linear":
        terms = (
            (math.sqrt(d) / spec.eps) * _dq_factor(d, spec.q) / rn,
            (n * spec.eps**2) ** (-0.5 / spec.q) if math.isfinite(spec.q) else 1.0,
            1.0,
        )
        return r * L * min(terms)
    if spec.theorem == "T5_general":
        return min((math.sqrt(d) / spec.eps) * r * L * _dq_factor(d, spec.q) / rn, r * L)
    if spec.theorem == "C1":
        return math.sqrt(d / spec.I_star) * r * L * math.sqrt(_log2d(d)) / rn
    if spec.theorem == "C2":
        return math.sqrt(d / spec.I_star) * r * L * math.sqrt(d) / rn
    # C3
    return (math.sqrt(d) / spec.eps) * r * L * math.sqrt(_log2d(d)) / rn


def upper_bound(spec: BoundSpec) -> float:
    """Matching achievable rate for the spec's family.

    The T-theorem tags map to the corollary forms achieved by mirror
    descent / SGD through the corresponding channel; T1b and T2 use the
    exact information level of the calibrated channel.
    """
    d, n, L, r = spec.d, spec.n, spec.L, spec.r
    rn = math.sqrt(n)
    if spec.theorem == "T1a":
        return spec.M * r * d / rn
    if spec.theorem in ("T1b", "C1"):
        if spec.theorem == "T1b":
            I = mi_closed_form("linf_maxent", d, L, spec.M).exact
        else:
            I = spec.I_star
        return math.sqrt(d / I) * r * L * math.sqrt(_log2d(d)) / rn
    if spec.theorem in ("T2", "C2"):
        if spec.theorem == "T2":
            I = mi_closed_form("l1_maxent", d, L, spec.M).exact
        else:
            I = spec.I_star
        return math.sqrt(d / I) * r * L * math.sqrt(d) / rn
    if spec.theorem in ("T3", "T4", "C3"):
        val = (math.sqrt(d) / spec.eps) * r * L * math.sqrt(_log2d(d)) / rn
        if spec.theorem in ("T3", "C3"):
            return val
        return min(val, r * L)
    # T5 upper: no middle interactivity term
    return r * L * min((math.sqrt(d) / spec.eps) * _dq_factor(d, spec.q) / rn, 1.0)


def t5_middle_term(spec: BoundSpec) -> Optional[float]:
    """The (n eps^2)^(-1/2q) term of the T5_linear lower bound, which has
    no matching upper-bound term; None when it is not the binding one."""
    if spec.theorem != "T5_linear" or not math.isfinite(spec.q):
        return None
    mid = (spec.n * spec.eps**2) ** (-0.5 / spec.q)
    first = (math.sqrt(spec.d) / spec.eps) * _dq_factor(spec.d, spec.q) / math.sqrt(spec.n)
    return mid if mid < min(first, 1.0) else None


def fano_bound(mi: float, packing_size: int) -> float:
    """Multi-way testing error lower bound 1 - (I + log 2)/log |V|."""
    if mi < 0.0:
        raise ValueError("mi must be >= 0")
    if packing_size < 2:
        raise ValueError("packing_size must be >= 2")
    return min(1.0, max(0.0, 1.0 - (mi + math.log(2.0)) / math.log(packing_size)))


def le_cam_bound(tv: float) -> float:
    """Binary testing error lower bound 1/2 - tv/2."""
    if not 0.0 <= tv <= 1.0:
        raise ValueError("tv must lie in [0, 1]")
    return min(1.0, max(0.0, 0.5 - 0.5 * tv))


# ---------------------------------------------------------------------------
# per-sample information lemmas


def lemma8_constants(d: int, k: int, eps: float, delta: float) -> tuple:
    """(C_d(k), Delta) for the two-level threshold-k channel, in 50-digit
    decimal arithmetic.  C_d(k) counts corners above the threshold; Delta
    bounds the per-sample root-information."""
    if k < 0 or k % 2 != 0 or k > 2 * math.ceil(d / 2) - 2:
        raise ValueError("k must be even with 0 <= k <= 2 ceil(d/2) - 2")
    half = math.ceil((d - k) / 2)
    C_dk = sum(math.comb(d, i) for i in range(half))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        # Decimal(float) is exact; e^-eps keeps a large or infinite eps in range
        r = (-decimal.Decimal(float(eps))).exp()
        Delta = (
            decimal.Decimal(float(delta)) * (1 - r)
            / ((1 + r) * C_dk + 2**d * r)
            * math.comb(d - 1, half - 1)
        )
        return C_dk, float(Delta)


def mi_lemma_value(lemma: str, **p) -> float:
    """Per-construction MI upper bound, nats, for n observations.

    L4: n, delta, L, M            -> n delta^2 L^2 / M^2
    L5: n, delta, L, M, d         -> n delta^2 L^2 d / M^2
    L6: n, delta, d, L, M         -> n delta^2 D^2, D from the l1 gamma
    L7: n, delta, d, eps          -> n e^eps/(4d) (e^eps - e^-eps)^2 delta^2
    L8: n, delta, d, eps, k       -> n Delta(delta, eps, d, k)^2
    L11: n, delta, d, eps         -> n 25 e^eps/16 delta^2/d (e^eps - e^-eps)^2
    """
    n, delta = p["n"], p["delta"]
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if lemma == "L4":
        return n * delta**2 * p["L"] ** 2 / p["M"] ** 2
    if lemma == "L5":
        return n * delta**2 * p["L"] ** 2 * p["d"] / p["M"] ** 2
    if lemma == "L6":
        D = _l1_contraction(p["d"], p["L"], p["M"])
        return n * delta**2 * D**2
    if lemma == "L7":
        e = math.exp(p["eps"])
        return n * (e / (4.0 * p["d"])) * (e - 1.0 / e) ** 2 * delta**2
    if lemma == "L8":
        _, Delta = lemma8_constants(p["d"], p.get("k", 0), p["eps"], delta)
        return n * Delta**2
    if lemma == "L11":
        e = math.exp(p["eps"])
        return n * (25.0 * e / 16.0) * (delta**2 / p["d"]) * (e - 1.0 / e) ** 2
    raise ValueError(f"unknown lemma {lemma!r}")


def dp_marginal_kl_bound(eps: float, n: int, tv: float) -> float:
    """KL(M_v^n || M_w^n) <= 4 n (e^eps - 1)^2 TV(P_v, P_w)^2."""
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    return 4.0 * n * (math.exp(eps) - 1.0) ** 2 * tv**2


def dp_nonint_info_bound(eps: float, n: int, sup_term: float) -> float:
    """I(Z^n; V) <= e^eps n (e^eps - e^-eps)^2 sup_S avg_v (P_v(S) - Pbar(S))^2."""
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    e = math.exp(eps)
    return e * n * (e - 1.0 / e) ** 2 * sup_term


# ---------------------------------------------------------------------------
# canonical testing construction


@dataclass(frozen=True)
class TestingInstance:
    """Nature draws nu uniformly from the packing, the learner sees n
    channel outputs of the per-sample subgradient, then must identify nu.

    family names a loss kind, and the data law at bias delta toward nu is
    the one it is tabled with (the sign cube for median and linear, the
    signed basis for hinge).  The per-sample subgradient at the reference
    theta is +-L X, so the observation law is channel(sign * L * X).
    """

    packing: Packing
    delta: float
    family: str
    channel: Channel

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.family not in LOSS_KINDS:
            raise ValueError(f"family must be one of {', '.join(LOSS_KINDS)}")

    @property
    def data_kind(self) -> str:
        return make_loss(self.family).data_kind

    @cached_property
    def grad_sign(self) -> float:
        # the per-sample subgradient at theta = 0 is grad_sign * L X
        return float(subgrad(make_loss(self.family), np.ones(1), np.zeros(1))[0])

    def data_dist(self, nu) -> DataDist:
        return DataDist(self.data_kind, self.packing.dim, self.delta, tuple(nu))


def default_delta(theorem: str, d: int, n: int, L: float = 1.0,
                  M: Optional[float] = None, eps: Optional[float] = None) -> float:
    """The proof's bias choice for each testing construction, capped at 1;
    ValueError for a theorem outside DELTA_THEOREMS."""
    if theorem == "T1b":
        return min(M * math.sqrt(_log2d(d)) / (2.0 * L * math.sqrt(n)), 1.0)
    if theorem in ("T3", "C3"):
        return min(math.sqrt(d * _log2d(d)) / (4.0 * eps * math.sqrt(n)), 1.0)
    if theorem == "T4":
        e = math.exp(eps)
        return min(math.sqrt(d * _log2d(d)) / (math.sqrt(e * n) * (e - 1.0 / e)), 1.0)
    raise ValueError(f"no recorded delta choice for {theorem!r}")


def observation_rows(inst: TestingInstance) -> tuple:
    """Per-nu observation pmfs over a shared output enumeration.

    Returns (rows, columns): rows[v] is the mixture law of one private
    observation Z under nu = packing[v]; columns are the output atoms.
    Feeds both the exact I(Z; nu) computation and the ML test.
    """
    L = inst.channel.source.radius
    # the atoms of the data law do not depend on nu, only their probabilities
    atoms, _ = dist_support(inst.data_dist(inst.packing.points[0]))
    cond = channel_pmf(inst.channel, inst.grad_sign * L * atoms)
    rows = [dist_support(inst.data_dist(nu))[1] @ cond.probs for nu in inst.packing.points]
    return np.array(rows), cond.points


def exact_mi_per_sample(inst: TestingInstance) -> float:
    """I(Z; nu) in nats for one private observation, nu uniform."""
    rows, _ = observation_rows(inst)
    prior = np.full(len(rows), 1.0 / len(rows))
    return mi_from_conditionals(prior, rows)


def empirical_testing_error(inst: TestingInstance, n: int, reps: int, rng) -> float:
    """Simulated identification error of the canonical test.

    Finite-support channels get the exact maximum-likelihood test on the
    observation mixture.  The sphere sampler has no pmf; there the data
    law is the two-point mixture +-nu/|nu|_2 with bias delta and the test
    is the moment correlation argmax_v <sum Z_i, nu_v>.  Either way the
    returned frequency should sit above the Fano bound up to binomial
    noise in reps.
    """
    rng = np.random.default_rng(rng)
    k = len(inst.packing)
    nu_draws = rng.integers(k, size=reps)
    errors = 0
    if inst.channel.has_pmf:
        rows, _ = observation_rows(inst)
        nz = rows > 0.0
        log_rows = np.zeros_like(rows)  # zero-prob cells handled by mask below
        log_rows[nz] = np.log(rows[nz])
        for rep in range(reps):
            v = int(nu_draws[rep])
            p = rows[v] / rows[v].sum()
            counts = np.bincount(
                rng.choice(rows.shape[1], size=n, p=p), minlength=rows.shape[1]
            )
            scores = log_rows @ counts
            scores[np.any((counts > 0) & ~nz, axis=1)] = -np.inf
            if int(np.argmax(scores)) != v:
                errors += 1
        return errors / reps
    L = inst.channel.source.radius
    dirs = np.vstack([np.asarray(nu, dtype=float) for nu in inst.packing.points])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for rep in range(reps):
        v = int(nu_draws[rep])
        signs = np.where(rng.random(n) < 0.5 * (1.0 + inst.delta), 1.0, -1.0)
        total = np.zeros(inst.packing.dim)
        for s in (1.0, -1.0):
            cnt = int(np.sum(signs == s))
            if cnt == 0:
                continue
            zs = inst.channel.sample(
                inst.grad_sign * s * L * dirs[v], rng=rng, size=cnt
            )
            total += zs.sum(axis=0)
        if int(np.argmax((inst.grad_sign * dirs) @ total)) != v:
            errors += 1
    return errors / reps
