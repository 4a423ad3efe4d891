"""Information measures for (source, channel) pairs.

Everything internal is in nats; nats_to_bits converts for reporting.
Exact mutual information is a double sum over the joint law of a finite
source and a finite-support channel; the Monte-Carlo estimator exists to
validate samplers against the closed forms, not the other way around.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    Channel,
    PrivacyCertificate,
    binary_entropy,
    channel_pmf,
    dp_ratio_max,
    worst_case_mi,
)
from .geometry import _corner_matrix

__all__ = [
    "DiscreteDist",
    "InfoReport",
    "MiClosedForm",
    "binary_entropy",
    "nats_to_bits",
    "bits_to_nats",
    "kl_divergence",
    "tv_distance",
    "mutual_information_exact",
    "mi_from_conditionals",
    "mi_closed_form",
    "mi_monte_carlo",
    "information_to_radius",
    "certify_channel",
    "certificate_for",
    "MI_MC_MIN_N",
]

_LN2 = math.log(2.0)


def nats_to_bits(x: float) -> float:
    return x / _LN2


def bits_to_nats(x: float) -> float:
    return x * _LN2


@dataclass(frozen=True)
class DiscreteDist:
    """Finitely supported law: support points and matching probabilities."""

    support: tuple
    probs: tuple

    def __post_init__(self) -> None:
        pts = tuple(np.asarray(s, dtype=float) for s in self.support)
        pr = np.asarray(self.probs, dtype=float)
        if len(pts) != pr.size or len(pts) == 0:
            raise ValueError("support and probs must align and be non-empty")
        if np.any(pr < -1e-15) or abs(pr.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "probs", np.maximum(pr, 0.0))

    def __len__(self) -> int:
        return len(self.support)

    @staticmethod
    def uniform(points) -> "DiscreteDist":
        points = list(points)
        return DiscreteDist(tuple(points), tuple([1.0 / len(points)] * len(points)))

    def sample_indices(self, rng, size: int) -> np.ndarray:
        rng = np.random.default_rng(rng)
        return rng.choice(len(self.support), size=size, p=self.probs)


def _require_same_support(p: DiscreteDist, q: DiscreteDist) -> None:
    if len(p) != len(q):
        raise ValueError("mismatched supports")
    for a, b in zip(p.support, q.support):
        if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=1e-12):
            raise ValueError("mismatched supports")


def kl_divergence(p: DiscreteDist, q: DiscreteDist) -> float:
    """KL(p || q) in nats over a shared support enumeration; +inf when
    absolute continuity fails."""
    _require_same_support(p, q)
    total = 0.0
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def tv_distance(p: DiscreteDist, q: DiscreteDist) -> float:
    _require_same_support(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


# ---------------------------------------------------------------------------
# mutual information, exact

_JOINT_GUARD = 10**7


def _point_key(z: np.ndarray) -> tuple:
    # support atoms are exact multiples of the calibrated magnitudes; round
    # only to absorb float noise from equivalent computations
    return tuple(np.round(z, 12).tolist())


def _conditional_rows(inputs, ch: Channel) -> tuple:
    """Stack per-input channel pmfs over a shared output enumeration.

    Returns (rows, keys): rows[i] is the law of Z given inputs[i] over the
    output atoms, and keys[j] is column j's atom as a rounded tuple.
    """
    col_of = {}
    rows = []
    for x in inputs:
        pmf = channel_pmf(ch, x)
        entries = []
        for z, w in zip(pmf.points, pmf.probs):
            key = _point_key(z)
            j = col_of.setdefault(key, len(col_of))
            entries.append((j, w))
        rows.append(entries)
        if len(inputs) * len(col_of) > _JOINT_GUARD:
            raise ValueError("joint support exceeds enumeration guard")
    mat = np.zeros((len(inputs), len(col_of)))
    for i, entries in enumerate(rows):
        for j, w in entries:
            mat[i, j] += w
    return mat, list(col_of)


def mi_from_conditionals(prior, rows) -> float:
    """I(index; Z) in nats for rows of conditional pmfs over shared columns."""
    prior = np.asarray(prior, dtype=float)
    rows = np.asarray(rows, dtype=float)
    mix = prior @ rows
    total = 0.0
    for pi, row in zip(prior, rows):
        if pi == 0.0:
            continue
        nz = row > 0.0
        total += pi * float(np.sum(row[nz] * np.log(row[nz] / mix[nz])))
    return max(0.0, total)


def mutual_information_exact(source: DiscreteDist, ch: Channel) -> float:
    """I(X; Z) in nats by double summation over the joint pmf."""
    rows, _ = _conditional_rows(source.support, ch)
    return mi_from_conditionals(source.probs, rows)


class MiClosedForm(NamedTuple):
    exact: float
    upper: float
    asymptotic: float


def mi_closed_form(kind: str, d: int, L: float, M: float) -> MiClosedForm:
    """Worst-case (saddle-point) MI of an M-budget kind, in nats.

    Returns the exact value (the kind's worst_case_mi), the dL^2/M^2 upper
    bound, and the dL^2/(2M^2) large-M approximation.
    """
    if d < 1 or L <= 0.0 or M <= 0.0:
        raise ValueError("need d >= 1 and positive L, M")
    upper = d * L * L / (M * M)
    return MiClosedForm(worst_case_mi(kind, d, L, M), upper, 0.5 * upper)


def information_to_radius(kind: str, d: int, L: float, I_star: float) -> float:
    """Invert mi_closed_form(kind, d, L, .).exact = I_star (nats) for M.

    The exact MI is strictly decreasing in M, so bisection applies; the
    bracket grows geometrically until it straddles I_star.
    """
    try:
        lo = L
        max_info = mi_closed_form(kind, d, L, lo).exact
        if I_star == max_info:
            return L
    except ValueError:  # the kind needs M > L, or has no closed form
        lo = L * (1.0 + 1e-12)
        max_info = mi_closed_form(kind, d, L, lo).exact
    if not 0.0 < I_star < max_info:
        raise ValueError(f"I_star out of range (0, {max_info:.6g}) nats")
    hi = 2.0 * L
    while mi_closed_form(kind, d, L, hi).exact > I_star:
        hi *= 2.0
        if hi > 1e18 * L:
            raise ValueError("I_star too small to invert")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mi_closed_form(kind, d, L, mid).exact > I_star:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Monte-Carlo estimate with jackknife error


def _plugin_mi(counts: np.ndarray) -> float:
    n = counts.sum()
    nz = counts > 0
    rows = counts.sum(axis=1, keepdims=True)
    cols = counts.sum(axis=0, keepdims=True)
    outer = rows * cols
    vals = counts[nz] * np.log(counts[nz] * n / outer[nz])
    return float(vals.sum() / n)


def _count_rows(a: np.ndarray) -> tuple:
    """Distinct rows of a (m, d) and their counts, ordered as np.unique(a,
    axis=0) orders them: lexicographically, column 0 first, comparing with
    == (so 0.0 and -0.0 are one row)."""
    a = a[np.lexsort(a.T[::-1])]
    new = np.ones(len(a), dtype=bool)
    np.any(a[1:] != a[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    return a[starts], np.diff(starts, append=len(a))


def _xlogx_step(m: np.ndarray) -> np.ndarray:
    """f(m) - f(m - 1) for f(m) = m log m and m >= 1, without the
    cancellation of the difference; 0 at m = 1."""
    return np.log(m) + (m - 1.0) * np.log1p(1.0 / np.maximum(m - 1.0, 1.0))


MI_MC_MIN_N = 10**4


def mi_monte_carlo(source: DiscreteDist, ch: Channel, n: int, rng) -> tuple:
    """Plug-in MI estimate (nats) from n sampled (X, Z) pairs, with a
    grouped delete-one jackknife standard error.

    The plug-in is biased upward by roughly (|cells| - 1)/(2n)
    (Miller-Madow), so acceptance comparisons widen by that term.
    Cost is O(n log n + cells): the draws are counted with numeric sorts,
    and each leave-one-out value is an O(1) update of the plug-in.
    """
    if n < MI_MC_MIN_N:
        raise ValueError("need n >= 1e4 for a stable plug-in estimate")
    rng = np.random.default_rng(rng)
    idx = source.sample_indices(rng, n)
    per_source = np.bincount(idx, minlength=len(source))
    col_of = {}
    cell_i, cell_j, cell_n = [], [], []
    for i in range(len(source)):
        n_i = int(per_source[i])
        if n_i == 0:
            continue
        zs = ch.sample(source.support[i], rng=rng, size=n_i)
        keys, counts = _count_rows(np.round(zs, 12))
        # columns in order of first appearance, merged across sources by ==
        cell_j.extend(col_of.setdefault(key, len(col_of)) for key in map(tuple, keys.tolist()))
        cell_i.extend([i] * len(counts))
        cell_n.append(counts)
    counts = np.zeros((len(source), len(col_of)))
    counts[cell_i, cell_j] = np.concatenate(cell_n)
    est = _plugin_mi(counts)
    # Delete-one jackknife, grouped by occupied cell. With f(m) = m log m,
    # n * est = T = sum f(c) + f(n) - sum f(rows) - sum f(cols); deleting
    # one draw from cell (i, j) gives (T + D)/(n - 1), where D = step(r_i)
    # + step(s_j) - step(c_ij) - step(n) and step = _xlogx_step. step(n) is
    # common to every cell and cancels on centring, so the variance
    # (n-1)/n sum c (loo - mean)^2 is sum c (D - mean D)^2 / (n (n - 1)).
    i, j = np.nonzero(counts)
    c = counts[i, j]
    D = (_xlogx_step(counts.sum(axis=1)[i]) + _xlogx_step(counts.sum(axis=0)[j])
         - _xlogx_step(c))
    dev = D - float((c * D).sum()) / n
    var = float((c * dev * dev).sum()) / (n * (n - 1.0))
    return est, math.sqrt(var)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class InfoReport:
    """Everything the certify command measures about one channel."""

    mi_exact: float | None
    mi_closed_form: float | None
    mi_monte_carlo: tuple | None
    dp_ratio_max: float | None
    unbiasedness_max_residual: float
    # True when every residual came from an exact pmf mean, False when one
    # is a Monte-Carlo mean of n_mc draws; not part of the JSON report
    residual_exact: bool = True

    def __post_init__(self) -> None:
        if self.mi_exact is not None and self.mi_closed_form is not None:
            if abs(self.mi_exact - self.mi_closed_form) > 1e-8:
                raise ValueError("exact and closed-form MI disagree beyond 1e-8")

    def to_json(self) -> str:
        doc = {
            "mi_exact_nats": self.mi_exact,
            "mi_closed_form_nats": self.mi_closed_form,
            "mi_monte_carlo_nats": None if self.mi_monte_carlo is None else
                {"estimate": self.mi_monte_carlo[0], "std_err": self.mi_monte_carlo[1]},
            "dp_ratio_max": self.dp_ratio_max,
            "unbiasedness_max_residual": self.unbiasedness_max_residual,
        }
        return json.dumps(doc, sort_keys=True)


def extreme_point_source(ch: Channel) -> DiscreteDist | None:
    """Uniform distribution on the extreme points of the channel's source
    ball: the saddle-point worst case for the maxent kinds."""
    L = ch.source.radius
    d = ch.d
    if ch.source.p == 1:
        pts = [L * e for e in np.vstack([np.eye(d), -np.eye(d)])]
        return DiscreteDist.uniform(pts)
    if ch.source.p == 2 or d > 10:
        return None
    return DiscreteDist.uniform(list(L * _corner_matrix(d)))


def certificate_for(ch: Channel) -> PrivacyCertificate:
    """The privacy guarantee the channel carries: worst-case MI (nats) for
    an M budget, eps for an eps budget, +inf leakage without one."""
    if ch.budget == "M":
        level = worst_case_mi(ch.kind, ch.d, ch.source.radius, ch.calibration["B"])
        return PrivacyCertificate("mutual_information", level)
    if ch.budget == "eps":
        return PrivacyCertificate("differential_privacy", ch.privacy_param)
    return PrivacyCertificate("mutual_information", math.inf)


def certify_channel(ch: Channel, rng=None, n_mc: int = 10**5,
                    source: DiscreteDist | None = None) -> InfoReport:
    """Measure a channel against its own contract.

    Computes whatever is available for the kind: exact MI at the
    saddle-point source, the closed form, a Monte-Carlo MI, the exhaustive
    DP ratio, and the worst unbiasedness residual (exact pmf mean for
    finite kinds, Monte-Carlo mean for the sphere sampler).
    """
    rng = np.random.default_rng(rng)
    if source is None:
        source = extreme_point_source(ch)
    mi_exact = None
    mc = None
    if ch.has_pmf and source is not None:
        try:
            mi_exact = mutual_information_exact(source, ch)
        except ValueError:
            mi_exact = None  # support over the enumeration guard
        mc = mi_monte_carlo(source, ch, n_mc, rng)
    closed = None
    if ch.budget == "M":
        closed = certificate_for(ch).level
    ratio = dp_ratio_max(ch) if ch.exact_dp_ratio else None
    residual, exact = _unbiasedness_residual(ch, rng, n_mc)
    return InfoReport(mi_exact, closed, mc, ratio, residual, exact)


def _unbiasedness_residual(ch: Channel, rng, n_mc: int) -> tuple:
    """(worst |E[Z | x] - target| over probe inputs, whether every mean was exact)."""
    L = ch.source.radius
    d = ch.d
    p = ch.source.p
    probe = [np.zeros(d)]
    for _ in range(4):
        v = rng.standard_normal(d)
        if p == 1:
            v = v / max(np.abs(v).sum(), 1e-12) * L * rng.random()
        elif p == 2:
            v = v / max(float(np.linalg.norm(v)), 1e-12) * L * rng.random()
        else:
            v = np.clip(v, -1.0, 1.0) * L
        probe.append(v)
    bias = ch.calibration.get("bias")
    worst, exact = 0.0, True
    for x in probe:
        x_target = x if bias is None else x + np.asarray(bias)
        try:
            pmf = channel_pmf(ch, x)
            mean = pmf.probs @ pmf.points
        except ValueError:
            # continuous support or over the enumeration guard
            mean = ch.sample(x, rng=rng, size=n_mc).mean(axis=0)
            exact = False
        worst = max(worst, float(np.max(np.abs(mean - x_target))))
    return worst, exact
