"""Information measures for (source, channel) pairs.

Everything internal is in nats; nats_to_bits converts for reporting.
Exact mutual information is a double sum over the joint law of a finite
source and a finite-support channel.  Sampled draws validate the sampler
against that law, through check_draws_on_support; no MI is estimated from
them.
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
    _SUPPORT_DECIMALS,
    _pmf_points,
    binary_entropy,
    channel_pmf,
    dp_ratio_max,
    support_index,
    worst_case_mi,
)
from .geometry import _CORNER_PAIRS_MAX_D, _corner_matrix, _integer, _signed_basis

__all__ = [
    "DiscreteDist",
    "InfoReport",
    "MiClosedForm",
    "binary_entropy",
    "nats_to_bits",
    "mutual_information_exact",
    "mi_from_conditionals",
    "mi_closed_form",
    "check_draws_on_support",
    "certify_channel",
    "certificate_for",
    "certificate_violations",
    "dp_ratio_verified",
    "MI_MC_MIN_N",
]

_LN2 = math.log(2.0)


def nats_to_bits(x: float) -> float:
    return x / _LN2


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Finitely supported law: support points (k, d), one per row, and probs (k,)."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.support, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if pts.ndim != 2 or len(pts) != pr.size or len(pts) == 0:
            raise ValueError("support must be a (k, d) array aligned with probs, k >= 1")
        if np.any(pr < -1e-15) or abs(pr.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "probs", np.maximum(pr, 0.0))

    def __len__(self) -> int:
        return len(self.support)

    @staticmethod
    def uniform(points) -> "DiscreteDist":
        return DiscreteDist(points, np.full(len(points), 1.0 / len(points)))

    def sample_indices(self, rng, size: int) -> np.ndarray:
        """size indices drawn from probs: the draws and the indices of
        rng.choice(len(self), size, p=probs), whose inverse cdf this is.
        cdf = probs.cumsum() divided by its last entry, one rng.random(size)
        uniform u per index, and the index #{cdf <= u}."""
        rng = np.random.default_rng(rng)
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        u = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        for lo in range(0, size, _INDEX_CHUNK):
            out[lo:lo + _INDEX_CHUNK] = _inverse_cdf(cdf, u[lo:lo + _INDEX_CHUNK])
        return out


# uniforms _inverse_cdf maps at once, so its temporaries stay small
_INDEX_CHUNK = 1 << 14


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """#{cdf <= u} for each uniform u, cdf ascending with last entry 1.0:
    cdf.searchsorted(u, side="right") without its binary search on most
    keys.  The bucket guess floor(u k) is moved one step up where
    cdf[guess] <= u, or one down where cdf[guess - 1] > u, and verified;
    searchsorted runs on the keys it misses (most of them only when the
    law is far from uniform).  The index is below k, as u < 1.0."""
    k = len(cdf)
    below = np.concatenate(([-np.inf], cdf[:-1]))  # below[i] = cdf[i - 1]
    g = np.minimum((u * k).astype(np.int64), k - 1)  # u k may round up to k
    g += cdf[g] <= u
    g -= below[g] > u
    miss = np.flatnonzero((below[g] > u) | (cdf[g] <= u))
    g[miss] = cdf.searchsorted(u[miss], side="right")
    return g


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
    return mi_from_conditionals(source.probs, channel_pmf(ch, source.support).probs)


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
# the sampler against the exact support


MI_MC_MIN_N = 10**4


def check_draws_on_support(source: DiscreteDist, ch: Channel, n: int, rng) -> None:
    """Draw n (X, Z) pairs, X from source and then, source point by source
    point, Z from ch at X, and check that each draw is a point of the
    kind's exact pmf at X; ch must have a pmf and n >= MI_MC_MIN_N.

    support_index maps each draw to its point of channel_pmf(ch, x); a draw
    that is not its point, both rounded to _SUPPORT_DECIMALS and compared
    with ==, raises ValueError.  The points come from channels._pmf_points,
    which builds the kind's law once when every source point shares its
    points and once per drawn source point otherwise.  Cost is O(n d) plus
    those pmfs.
    """
    n = _integer("n", n)
    if n < MI_MC_MIN_N:
        raise ValueError(f"n must be >= {MI_MC_MIN_N}, got {n}")
    rng = np.random.default_rng(rng)
    per_source = np.bincount(source.sample_indices(rng, n), minlength=len(source))
    drawn = np.flatnonzero(per_source)
    for i, n_i, pts in zip(drawn.tolist(), per_source[drawn].tolist(),
                           _pmf_points(ch, source.support[drawn])):
        x = source.support[i]
        zs = ch.sample(x, rng=rng, size=n_i)
        points = pts.take(support_index(ch, x, zs), axis=0)
        # the rounding absorbs float noise, so it matters only when they differ
        if not (np.array_equal(zs, points)
                or np.array_equal(np.round(zs, _SUPPORT_DECIMALS),
                                  np.round(points, _SUPPORT_DECIMALS))):
            raise ValueError(f"a {ch.kind} draw at source {i} is not a point of its pmf")


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class InfoReport:
    """Everything the certify command measures about one channel; the
    verdicts on it are certificate_violations(channel, report)."""

    mi_exact: float | None
    mi_closed_form: float | None
    dp_ratio_max: float | None
    unbiasedness_max_residual: float

    def to_json(self) -> str:
        doc = {
            "mi_exact_nats": self.mi_exact,
            "mi_closed_form_nats": self.mi_closed_form,
            "dp_ratio_max": self.dp_ratio_max,
            "unbiasedness_max_residual": self.unbiasedness_max_residual,
        }
        return json.dumps(doc, sort_keys=True)


def extreme_point_source(ch: Channel) -> DiscreteDist | None:
    """Uniform law on the extreme points of the channel's source ball, the
    saddle-point worst case for the maxent kinds: L times the signed basis
    (l1) or the sign corners (l-inf, d <= _CORNER_PAIRS_MAX_D); else None."""
    L = ch.source.radius
    if ch.source.p == 1:
        return DiscreteDist.uniform(L * _signed_basis(ch.d))
    if ch.source.p == 2 or ch.d > _CORNER_PAIRS_MAX_D:
        return None
    return DiscreteDist.uniform(L * _corner_matrix(ch.d))


def certificate_for(ch: Channel) -> PrivacyCertificate:
    """The privacy guarantee the channel carries: worst-case MI (nats) for
    an M budget, eps for an eps budget, +inf leakage without one."""
    if ch.budget == "M":
        level = worst_case_mi(ch.kind, ch.d, ch.source.radius, ch.privacy_param)
        return PrivacyCertificate("mutual_information", level)
    if ch.budget == "eps":
        return PrivacyCertificate("differential_privacy", ch.privacy_param)
    return PrivacyCertificate("mutual_information", math.inf)


def dp_ratio_verified(eps: float, ratio: float) -> bool:
    """The DP-ratio rule of certify, the audit and the LP oracle: a measured
    ratio certifies the budget eps when it is at most exp(eps) (1 + 1e-9)."""
    return bool(ratio <= math.exp(eps) * (1.0 + 1e-9))


def certificate_violations(ch: Channel, report: InfoReport) -> list:
    """The message of each rule the report of ch breaks, in this order: the
    exact and closed-form MI differ by over 1e-8, the DP ratio fails
    dp_ratio_verified, the exact-mean unbiasedness residual exceeds 1e-8."""
    out = []
    if (report.mi_exact is not None and report.mi_closed_form is not None
            and abs(report.mi_exact - report.mi_closed_form) > 1e-8):
        out.append("exact and closed-form MI disagree beyond 1e-8")
    if (report.dp_ratio_max is not None
            and not dp_ratio_verified(ch.privacy_param, report.dp_ratio_max)):
        out.append(f"dp ratio {report.dp_ratio_max!r} exceeds exp(eps)")
    if report.unbiasedness_max_residual > 1e-8:
        out.append(f"unbiasedness residual {report.unbiasedness_max_residual!r} exceeds 1e-08")
    return out


def certify_channel(ch: Channel, rng=None, n_mc: int = 10**5) -> InfoReport:
    """Measure a channel against its own contract.

    Computes whatever is available for the kind: exact MI at the
    saddle-point source, the closed form, the exhaustive DP ratio, and the
    worst unbiasedness residual of the kind's exact mean E[Z | x] at five
    probe inputs, which draws no sample at any d.  For a kind with a pmf
    at a source of corner inputs, n_mc draws at that source also go through
    check_draws_on_support, whose ValueError for a draw off the pmf
    propagates.
    """
    rng = np.random.default_rng(rng)
    source = extreme_point_source(ch)
    mi_exact = None
    if ch.has_pmf and source is not None:
        try:
            mi_exact = mutual_information_exact(source, ch)
        except ValueError:
            mi_exact = None  # support over the enumeration guard
        check_draws_on_support(source, ch, n_mc, rng)
    closed = None
    if ch.budget == "M":
        closed = certificate_for(ch).level
    ratio = dp_ratio_max(ch) if ch.exact_dp_ratio else None
    return InfoReport(mi_exact, closed, ratio, _unbiasedness_residual(ch, rng))


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
