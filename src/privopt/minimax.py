"""Computable minimax machinery: the Fano testing lower bound,
per-sample information lemmas, and the matched lower/upper risk curves.

The universal constants the theory leaves unspecified are 1, so
comparisons involving them are rate-shape checks, not absolute ones.  All
information quantities are in nats.

`_THEOREMS` has one row per theorem: its budget field, its lower and upper
bound, its recorded bias choice, its unmatched middle term and its range
checks; THEOREM_BUDGET, DELTA_THEOREMS, Q_THEOREMS and LEMMA8_THEOREMS are
read from the rows.  `_LEMMAS` has one row per information lemma: its MI
bound.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .channels import Channel, _threshold_counts, channel_pmf, l1_gamma
from .geometry import _coin_signs, _integer
from .information import mi_closed_form, mi_from_conditionals
from .losses import LOSS_KINDS, DataDist, dist_support, make_loss, subgrad

__all__ = [
    "THEOREMS",
    "THEOREM_BUDGET",
    "DELTA_THEOREMS",
    "Q_THEOREMS",
    "LEMMA8_THEOREMS",
    "BoundSpec",
    "TestingInstance",
    "lower_bound",
    "upper_bound",
    "fano_bound",
    "mi_lemma_value",
    "lemma8_constants",
    "default_delta",
    "observation_rows",
    "exact_mi_per_sample",
    "empirical_testing_error",
    "t5_middle_term",
]


@dataclass(frozen=True)
class BoundSpec:
    """One evaluated bound: theorem tag plus its parameters.

    M is a channel magnitude, eps a DP level and I_star an information
    budget in nats; THEOREM_BUDGET names the one each theorem reads.  q is
    the domain geometry exponent of the T5 family.  The paper's unspecified
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
        row = _THEOREMS.get(self.theorem)
        if row is None:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if min(_integer("d", self.d), _integer("n", self.n)) < 1:
            raise ValueError(f"d and n must be positive integers, got {self.d!r}, {self.n!r}")
        if getattr(self, row.budget) is None:
            raise ValueError(f"{self.theorem} needs {row.budget}")
        for v in (self.L, self.r, self.M, self.eps, self.I_star):
            if v is not None and not 0.0 < v < math.inf:
                raise ValueError(f"L, r, M, eps and I_star must be finite and positive, got {v!r}")
        for holds, message in row.ranges:
            if not holds(self):
                raise ValueError(f"{self.theorem} {message}")


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
    return _THEOREMS[spec.theorem].lower(spec)


def upper_bound(spec: BoundSpec) -> float:
    """Matching achievable rate for the spec's family."""
    row = _THEOREMS[spec.theorem]
    return (row.upper or row.lower)(spec)


def t5_middle_term(spec: BoundSpec) -> Optional[float]:
    """The (n eps^2)^(-1/2q) term of the T5_linear lower bound, which has
    no matching upper-bound term; None when it is not the binding one."""
    mid = _THEOREMS[spec.theorem].middle(spec)
    return mid if mid is not None and mid < min(_t5_first(spec), 1.0) else None


def default_delta(spec: BoundSpec) -> float:
    """The proof's bias choice, capped at 1; ValueError outside DELTA_THEOREMS."""
    delta = _THEOREMS[spec.theorem].delta
    if delta is None:
        raise ValueError(f"no recorded delta choice for {spec.theorem!r}")
    return delta(spec)


def _exp_gap(eps: float) -> float:
    return math.exp(eps) - 1.0 / math.exp(eps)


def _dp_rate(s: BoundSpec) -> float:
    return (math.sqrt(s.d) / s.eps) * s.r * s.L * math.sqrt(math.log(2 * s.d)) / math.sqrt(s.n)


def _dp_delta(s: BoundSpec) -> float:
    return min(math.sqrt(s.d * math.log(2 * s.d)) / (4.0 * s.eps * math.sqrt(s.n)), 1.0)


def _linf_rate(s: BoundSpec, I: float) -> float:
    return math.sqrt(s.d / I) * s.r * s.L * math.sqrt(math.log(2 * s.d)) / math.sqrt(s.n)


def _l1_rate(s: BoundSpec, I: float) -> float:
    return math.sqrt(s.d / I) * s.r * s.L * math.sqrt(s.d) / math.sqrt(s.n)


def _t5_first(s: BoundSpec) -> float:
    return (math.sqrt(s.d) / s.eps) * _dq_factor(s.d, s.q) / math.sqrt(s.n)


def _t5_middle(s: BoundSpec) -> float:
    return (s.n * s.eps**2) ** (-0.5 / s.q) if math.isfinite(s.q) else 1.0


def _t5_rate(s: BoundSpec) -> float:
    return s.r * s.L * min(_t5_first(s), 1.0)


class _Theorem(NamedTuple):
    budget: str  # the BoundSpec field that carries the theorem's budget
    lower: Callable  # (spec) -> the minimax lower bound
    upper: Optional[Callable] = None  # (spec) -> the achievable rate; None: lower is tight
    delta: Optional[Callable] = None  # (spec) -> the proof's bias choice, capped at 1
    middle: Callable = lambda s: None  # (spec) -> the lower bound's unmatched term, or None
    ranges: tuple = ()  # (holds(spec), message) pairs beyond finite positive values


_Q_RANGE = (lambda s: s.q is not None and s.q >= 1.0, "needs q >= 1")
# The T-theorem upper bounds are the corollary forms achieved by mirror
# descent / SGD through the corresponding channel; T1b and T2 use the exact
# information level of the calibrated channel.
_THEOREMS = {
    "T1a": _Theorem(
        "M", lambda s: 0.05 * min(s.r * s.L * s.d, s.M * s.r * s.d / (9.0 * math.sqrt(s.n))),
        lambda s: s.M * s.r * s.d / math.sqrt(s.n)),
    "T1b": _Theorem(
        "M", lambda s: 0.125 * min(
            s.r * s.L, s.M * s.r * math.sqrt(math.log(2 * s.d)) / (2.0 * math.sqrt(s.n))),
        lambda s: _linf_rate(s, mi_closed_form("linf_maxent", s.d, s.L, s.M).exact),
        delta=lambda s: min(
            s.M * math.sqrt(math.log(2 * s.d)) / (2.0 * s.L * math.sqrt(s.n)), 1.0),
        ranges=((lambda s: s.M >= s.L, "needs M >= L"),)),
    "T2": _Theorem(
        "M", lambda s: 0.05 * min(s.r * s.L, s.r * s.L * math.sqrt(s.d) / (
            9.0 * math.sqrt(s.n) * _l1_contraction(s.d, s.L, s.M))),
        lambda s: _l1_rate(s, mi_closed_form("l1_maxent", s.d, s.L, s.M).exact),
        ranges=((lambda s: s.M > s.L, "needs M > L"),)),
    "T3": _Theorem(
        "eps", lambda s: 0.125 * min(s.r * s.L, (math.sqrt(s.d) / s.eps) * s.r * s.L
                                     * math.sqrt(math.log(2 * s.d)) / (4.0 * math.sqrt(s.n))),
        _dp_rate, delta=_dp_delta,
        ranges=((lambda s: s.d >= 2, "needs d >= 2"),
                (lambda s: s.eps <= 1.25, "holds for eps <= 5/4"))),
    "T4": _Theorem(
        "eps", lambda s: min(_dp_rate(s), s.r * s.L),
        delta=lambda s: min(math.sqrt(s.d * math.log(2 * s.d)) / (
            math.sqrt(math.exp(s.eps) * s.n) * _exp_gap(s.eps)), 1.0)),
    "T5_linear": _Theorem(
        "eps", lambda s: s.r * s.L * min(_t5_first(s), _t5_middle(s), 1.0),
        _t5_rate, middle=_t5_middle, ranges=(_Q_RANGE,)),
    "T5_general": _Theorem("eps", _t5_rate, ranges=(_Q_RANGE,)),
    "C1": _Theorem("I_star", lambda s: _linf_rate(s, s.I_star)),
    "C2": _Theorem("I_star", lambda s: _l1_rate(s, s.I_star)),
    "C3": _Theorem("eps", _dp_rate, delta=_dp_delta),
}
THEOREMS = tuple(_THEOREMS)
THEOREM_BUDGET = {th: row.budget for th, row in _THEOREMS.items()}
DELTA_THEOREMS = frozenset(th for th, row in _THEOREMS.items() if row.delta is not None)
# the T5 family, whose bounds read the domain exponent q: the rows that check it
Q_THEOREMS = frozenset(th for th, row in _THEOREMS.items() if _Q_RANGE in row.ranges)
# the eps theorems with a bias choice, at which lemma8_constants(d, k, eps, delta) applies
LEMMA8_THEOREMS = frozenset(th for th in DELTA_THEOREMS if _THEOREMS[th].budget == "eps")


def fano_bound(mi: float, packing_size: int) -> float:
    """Multi-way testing error lower bound 1 - (I + log 2)/log |V|."""
    if mi < 0.0:
        raise ValueError("mi must be >= 0")
    if packing_size < 2:
        raise ValueError("packing_size must be >= 2")
    return min(1.0, max(0.0, 1.0 - (mi + math.log(2.0)) / math.log(packing_size)))


# ---------------------------------------------------------------------------
# per-sample information lemmas


def lemma8_constants(d: int, k: int, eps: float, delta: float) -> tuple:
    """(C_d(k), Delta) for the two-level threshold-k channel, in 50-digit
    decimal arithmetic.  C_d(k) counts corners above the threshold; Delta
    bounds the per-sample root-information.  d and k are integers."""
    d, k = _integer("d", d), _integer("k", k)
    if k < 0 or k % 2 != 0 or k > 2 * math.ceil(d / 2) - 2:
        raise ValueError("k must be even with 0 <= k <= 2 ceil(d/2) - 2")
    C_dk, N_dk = _threshold_counts(d, k)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        # Decimal(float) is exact; e^-eps keeps a large or infinite eps in range
        r = (-decimal.Decimal(float(eps))).exp()
        Delta = (
            decimal.Decimal(float(delta)) * (1 - r)
            / ((1 + r) * C_dk + 2**d * r) * N_dk
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
    if not 0.0 <= p["delta"] <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    for name in ("M", "L", "d"):
        if name in p and not p[name] > 0:
            raise ValueError(f"{name} must be positive, got {p[name]!r}")
    for name in ("n", "eps"):
        if name in p and not p[name] >= 0:
            raise ValueError(f"{name} must be >= 0, got {p[name]!r}")
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}")
    return _LEMMAS[lemma](**p)


_LEMMAS = {
    "L4": lambda n, delta, L, M, **_: n * delta**2 * L**2 / M**2,
    "L5": lambda n, delta, L, M, d, **_: n * delta**2 * L**2 * d / M**2,
    "L6": lambda n, delta, d, L, M, **_: n * delta**2 * _l1_contraction(d, L, M) ** 2,
    "L7": lambda n, delta, d, eps, **_: (n * (math.exp(eps) / (4.0 * d))
                                        * _exp_gap(eps) ** 2 * delta**2),
    "L8": lambda n, delta, d, eps, **p: n * lemma8_constants(
        d, p.get("k", 0), eps, delta)[1] ** 2,
    "L11": lambda n, delta, d, eps, **_: (n * (25.0 * math.exp(eps) / 16.0) * (delta**2 / d)
                                         * _exp_gap(eps) ** 2),
}


# ---------------------------------------------------------------------------
# canonical testing construction


@dataclass(frozen=True, eq=False)
class TestingInstance:
    """Nature draws nu uniformly from the packing, the learner sees n
    channel outputs of the per-sample subgradient, then must identify nu.

    packing is a (k, d) float array, one sign vector nu per row, k >= 2.
    family names a loss kind, and the data law at bias delta toward nu is
    the one it is tabled with (the sign cube for median and linear, the
    signed basis for hinge).  The per-sample subgradient at the reference
    theta is +-L X, so the observation law is channel(sign * L * X).
    """

    packing: np.ndarray
    delta: float
    family: str
    channel: Channel

    def __post_init__(self) -> None:
        packing = np.asarray(self.packing, dtype=float)
        if packing.ndim != 2 or len(packing) < 2:
            raise ValueError("packing must be a (k, d) array of k >= 2 points")
        object.__setattr__(self, "packing", packing)
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
        return DataDist(self.data_kind, self.packing.shape[1], self.delta, nu)


def observation_rows(inst: TestingInstance) -> tuple:
    """Per-nu observation pmfs over a shared output enumeration.

    Returns (rows, columns): rows[v] is the mixture law of one private
    observation Z under nu = packing[v]; columns are the output atoms.
    Feeds both the exact I(Z; nu) computation and the ML test.
    """
    L = inst.channel.source.radius
    # the atoms of the data law do not depend on nu, only their probabilities
    atoms, _ = dist_support(inst.data_dist(inst.packing[0]))
    cond = channel_pmf(inst.channel, inst.grad_sign * L * atoms)
    rows = [dist_support(inst.data_dist(nu))[1] @ cond.probs for nu in inst.packing]
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
    dirs = inst.packing / np.linalg.norm(inst.packing, axis=1, keepdims=True)
    for rep in range(reps):
        v = int(nu_draws[rep])
        signs = _coin_signs(rng.random(n), 0.5 * (1.0 + inst.delta))
        total = np.zeros(inst.packing.shape[1])
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
