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
    _first_appearance,
    binary_entropy,
    channel_pmf,
    dp_ratio_max,
    support_index,
    worst_case_mi,
)
from .geometry import _corner_matrix

__all__ = [
    "DiscreteDist",
    "InfoReport",
    "MiClosedForm",
    "binary_entropy",
    "nats_to_bits",
    "mutual_information_exact",
    "mi_from_conditionals",
    "mi_closed_form",
    "mi_monte_carlo",
    "certify_channel",
    "certificate_for",
    "certificate_violations",
    "dp_ratio_verified",
    "MI_MC_MIN_N",
]

_LN2 = math.log(2.0)


def nats_to_bits(x: float) -> float:
    return x / _LN2


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


# ---------------------------------------------------------------------------
# mutual information, exact

def mi_from_conditionals(prior, rows) -> float:
    """I(index; Z) in nats for rows of conditional pmfs over shared columns."""
    prior = np.asarray(prior, dtype=float)
    rows = np.asarray(rows, dtype=float)
    mix = prior @ rows
    # only a zero-prior row can put mass where the mixture has none
    nz = (rows > 0.0) & (mix > 0.0)
    terms = np.divide(rows, mix, out=np.zeros_like(rows), where=nz)
    np.log(terms, out=terms, where=nz)
    # weighted per-row sums, accumulated in row order
    return max(0.0, float(np.cumsum(prior * (rows * terms).sum(axis=1))[-1]))


def mutual_information_exact(source: DiscreteDist, ch: Channel) -> float:
    """I(X; Z) in nats by double summation over the joint pmf."""
    return mi_from_conditionals(source.probs, channel_pmf(ch, np.stack(source.support)).probs)


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


def _xlogx_step(m: np.ndarray) -> np.ndarray:
    """f(m) - f(m - 1) for f(m) = m log m and m >= 1, without the
    cancellation of the difference; 0 at m = 1."""
    return np.log(m) + (m - 1.0) * np.log1p(1.0 / np.maximum(m - 1.0, 1.0))


MI_MC_MIN_N = 10**4


def mi_monte_carlo(source: DiscreteDist, ch: Channel, n: int, rng) -> tuple:
    """Plug-in MI estimate (nats) from n sampled (X, Z) pairs, with a
    grouped delete-one jackknife standard error; ch must have a pmf.

    The plug-in is biased upward by roughly (|cells| - 1)/(2n)
    (Miller-Madow), so acceptance comparisons widen by that term.
    Cost is O(n d + cells log cells): support_index maps each draw to its
    point of the kind's pmf, one bincount per source counts them, one sort
    of the occupied cells numbers the columns, and each leave-one-out value
    is an O(1) update of the plug-in.  A draw that is not its point, both
    rounded to 12 decimals and compared with ==, raises ValueError.
    """
    if n < MI_MC_MIN_N:
        raise ValueError("need n >= 1e4 for a stable plug-in estimate")
    rng = np.random.default_rng(rng)
    idx = source.sample_indices(rng, n)
    per_source = np.bincount(idx, minlength=len(source))
    cell_i, cell_keys, cell_n = [], [], []
    for i in range(len(source)):
        n_i = int(per_source[i])
        if n_i == 0:
            continue
        x = source.support[i]
        zs = ch.sample(x, rng=rng, size=n_i)
        points = channel_pmf(ch, x).points
        at = support_index(ch, x, zs)
        # each draw must be its point after the 12-decimal rounding that
        # absorbs float noise, which matters only when they differ before it
        if not (np.array_equal(zs, points.take(at, axis=0))
                or np.array_equal(np.round(zs, 12), np.round(points, 12).take(at, axis=0))):
            raise ValueError(f"a {ch.kind} draw at source {i} is not a point of its pmf")
        hits = np.bincount(at, minlength=len(points))
        hit = np.flatnonzero(hits)
        cell_i.append(np.full(len(hit), i))
        cell_keys.append(np.round(points[hit], 12))
        cell_n.append(hits[hit])
    # columns merged across sources by == (so 0.0 and -0.0 are one), numbered
    # by the first source that hits them, then lexicographically
    rows = np.concatenate(cell_i)
    first, cols = _first_appearance(np.concatenate(cell_keys), block=rows)
    m = len(first)
    counts = np.bincount(rows * m + cols, weights=np.concatenate(cell_n),
                         minlength=len(source) * m).reshape(len(source), m)
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
    """Everything the certify command measures about one channel; the
    verdicts on it are certificate_violations(channel, report)."""

    mi_exact: float | None
    mi_closed_form: float | None
    mi_monte_carlo: tuple | None
    dp_ratio_max: float | None
    unbiasedness_max_residual: float

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


def dp_ratio_verified(ch: Channel, ratio: float) -> bool:
    """The DP-ratio rule of certify and the audit: a measured ratio
    certifies ch's eps when it is at most exp(eps) (1 + 1e-9)."""
    return bool(ratio <= math.exp(ch.privacy_param) * (1.0 + 1e-9))


def certificate_violations(ch: Channel, report: InfoReport) -> list:
    """The message of each rule the report of ch breaks, in this order: the
    exact and closed-form MI differ by over 1e-8, the DP ratio fails
    dp_ratio_verified, the exact-mean unbiasedness residual exceeds 1e-8."""
    out = []
    if (report.mi_exact is not None and report.mi_closed_form is not None
            and abs(report.mi_exact - report.mi_closed_form) > 1e-8):
        out.append("exact and closed-form MI disagree beyond 1e-8")
    if report.dp_ratio_max is not None and not dp_ratio_verified(ch, report.dp_ratio_max):
        out.append(f"dp ratio {report.dp_ratio_max!r} exceeds exp(eps)")
    if report.unbiasedness_max_residual > 1e-8:
        out.append(f"unbiasedness residual {report.unbiasedness_max_residual!r} exceeds 1e-08")
    return out


def certify_channel(ch: Channel, rng=None, n_mc: int = 10**5) -> InfoReport:
    """Measure a channel against its own contract.

    Computes whatever is available for the kind: exact MI at the
    saddle-point source, the closed form, a Monte-Carlo MI from n_mc
    draws, the exhaustive DP ratio, and the worst unbiasedness residual of
    the kind's exact mean E[Z | x] at five probe inputs, which draws no
    sample at any d.
    """
    rng = np.random.default_rng(rng)
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
    return InfoReport(mi_exact, closed, mc, ratio, _unbiasedness_residual(ch, rng))


def _unbiasedness_residual(ch: Channel, rng) -> float:
    """Worst |E[Z | x] - target| over probe inputs: the origin and four
    random points of the source ball; the target is x + bias."""
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
    X = np.array(probe)
    target = X + np.asarray(ch.calibration.get("bias", 0.0))
    return float(np.max(np.abs(ch.mean(X) - target)))
