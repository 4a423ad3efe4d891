"""Loss families with exact subgradient oracles and closed-form risks.

Each loss is an (L, p)-loss: convex in theta with every subgradient g
satisfying ||g||_p <= L on the declared data support.  The four kinds:

  median    l(x, theta) = L ||r x - theta||_1            (L, inf)
  hinge     l(x, theta) = L max(r - <x, theta>, 0)       (L, 1) for ||x||_1 <= 1
  logistic  l(x, theta) = L log(1 + exp(-<x, theta>))    (L, 1) for ||x||_1 <= 1
  linear    l(x, theta) = L <x, theta>                   (L, inf) for ||x||_inf <= 1

The structured data distributions index families of risks used by both the
experiments and the lower-bound constructions: a sign vector nu and a bias
delta pick out how strongly the data leans toward the corner nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import NormBall, _corner_matrix

__all__ = [
    "LOSS_KINDS",
    "DIST_KINDS",
    "LossFn",
    "DataDist",
    "RiskSpec",
    "RiskMin",
    "UnsupportedFamilyError",
    "make_loss",
    "loss_value",
    "subgrad",
    "sample_datum",
    "dist_support",
    "risk_value",
    "risk_minimizer",
    "separation",
]

LOSS_KINDS = ("median", "hinge", "logistic", "linear")
DIST_KINDS = ("cube_bernoulli", "coord_basis", "custom_empirical")


class UnsupportedFamilyError(ValueError):
    """No closed form for the requested (loss, distribution, domain) triple."""


@dataclass(frozen=True)
class LossFn:
    """An (L, p)-loss. r is the offset/margin scale for median and hinge."""

    kind: str
    lipschitz_L: float = 1.0
    grad_norm_p: float = math.inf
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be positive")
        if self.grad_norm_p not in (1, math.inf):
            raise ValueError("grad_norm_p must be 1 or inf")


_DEFAULT_P = {"median": math.inf, "linear": math.inf, "hinge": 1, "logistic": 1}


def make_loss(kind: str, L: float = 1.0, r: float = 1.0) -> LossFn:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    return LossFn(kind=kind, lipschitz_L=L, grad_norm_p=_DEFAULT_P[kind], r=r)


def _pair(loss: LossFn, x, theta):
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape != theta.shape:
        raise ValueError(f"dimension mismatch: x {x.shape} vs theta {theta.shape}")
    return x, theta


def loss_value(loss: LossFn, x, theta) -> float:
    x, theta = _pair(loss, x, theta)
    L = loss.lipschitz_L
    if loss.kind == "median":
        return L * float(np.abs(loss.r * x - theta).sum())
    if loss.kind == "hinge":
        return L * max(loss.r - float(x @ theta), 0.0)
    if loss.kind == "logistic":
        return L * float(np.logaddexp(0.0, -float(x @ theta)))
    return L * float(x @ theta)


def subgrad(loss: LossFn, x, theta) -> np.ndarray:
    """A subgradient of theta -> loss(x, theta).

    Kink selections are fixed so tests are deterministic: the median loss
    uses sign(0) = 0, and the hinge at margin exactly 0 returns the
    active-side gradient -L x.  The median loss also takes paired (R, d)
    arrays, one subgradient per row; the other losses take vectors only.
    """
    x, theta = _pair(loss, x, theta)
    if x.ndim > 1 and loss.kind != "median":
        raise ValueError(f"{loss.kind} subgradients take one (x, theta) pair, not rows")
    L = loss.lipschitz_L
    if loss.kind == "median":
        return L * np.sign(theta - loss.r * x)
    if loss.kind == "hinge":
        if loss.r - float(x @ theta) >= 0.0:
            return -L * x
        return np.zeros_like(x)
    if loss.kind == "logistic":
        t = float(x @ theta)
        return (-L / (1.0 + math.exp(t))) * x
    return L * x


@dataclass(frozen=True)
class DataDist:
    """Structured data distributions.

    cube_bernoulli: X in {-1,1}^d with independent coordinates,
      P(X_j = 1) = (1 + delta * nu_j)/2.
    coord_basis: X in {+-e_j}, P(X = s e_j) = (1 + s delta nu_j)/(2d).
    custom_empirical: the uniform distribution over stored samples.
    """

    kind: str
    d: int
    delta: float = 0.0
    nu: tuple = ()
    samples: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.kind == "custom_empirical":
            if not self.samples:
                raise ValueError("custom_empirical needs samples")
            object.__setattr__(
                self, "samples", tuple(np.asarray(s, dtype=float) for s in self.samples)
            )
            return
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        nu = np.asarray(self.nu, dtype=float)
        if nu.size != self.d or not np.all(np.isin(nu, (-1.0, 0.0, 1.0))):
            raise ValueError("nu must be a length-d vector with entries in {-1,0,1}")
        object.__setattr__(self, "nu", nu)

    @cached_property
    def p_plus(self) -> np.ndarray:
        """cube_bernoulli coordinate law P(X_j = 1), computed once."""
        return 0.5 * (1.0 + self.delta * self.nu)


def sample_datum(dist: DataDist, rng, size=None) -> np.ndarray:
    """Draw X ~ dist; shape (d,) or (size, d)."""
    rng = np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    if dist.kind == "cube_bernoulli":
        out = np.where(rng.random((n, dist.d)) < dist.p_plus, 1.0, -1.0)
    elif dist.kind == "coord_basis":
        j = rng.integers(0, dist.d, size=n)
        p_plus = 0.5 * (1.0 + dist.delta * dist.nu[j])
        s = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        out = np.zeros((n, dist.d))
        out[np.arange(n), j] = s
    else:
        idx = rng.integers(0, len(dist.samples), size=n)
        out = np.array([dist.samples[i] for i in idx])
    return out[0] if size is None else out


def dist_support(dist: DataDist):
    """Full support enumeration: (points (k, d), probs (k,)).

    cube_bernoulli enumerates all 2^d corners (guarded at d <= 20).
    """
    if dist.kind == "coord_basis":
        pts = np.zeros((2 * dist.d, dist.d))
        probs = np.empty(2 * dist.d)
        for j in range(dist.d):
            pts[j, j] = 1.0
            pts[dist.d + j, j] = -1.0
            probs[j] = (1.0 + dist.delta * dist.nu[j]) / (2.0 * dist.d)
            probs[dist.d + j] = (1.0 - dist.delta * dist.nu[j]) / (2.0 * dist.d)
        return pts, probs
    if dist.kind == "cube_bernoulli":
        if dist.d > 20:
            raise ValueError("cube support too large to enumerate")
        pts = _corner_matrix(dist.d)
        probs = np.prod(np.where(pts > 0, dist.p_plus, 1.0 - dist.p_plus), axis=1)
        return pts, probs
    pts = np.array(dist.samples, dtype=float)
    probs = np.full(len(dist.samples), 1.0 / len(dist.samples))
    return pts, probs


@dataclass(frozen=True)
class RiskSpec:
    """Population risk R(theta) = E_P[loss(X, theta)] over a domain ball."""

    loss: LossFn
    data: DataDist
    domain: NormBall


class RiskMin(NamedTuple):
    theta: np.ndarray
    value: float
    unique: bool


def risk_value(spec: RiskSpec, theta) -> float:
    """Exact E_P[loss(X, theta)].

    Closed forms for the structured families; enumeration of the full
    discrete support otherwise; plug-in mean for custom_empirical.
    """
    theta = np.asarray(theta, dtype=float)
    loss, data = spec.loss, spec.data
    L = loss.lipschitz_L
    if data.kind == "cube_bernoulli":
        if loss.kind == "linear":
            return L * data.delta * float(data.nu @ theta)
        if loss.kind == "median":
            p_plus = data.p_plus
            r = loss.r
            return L * float(
                np.sum(p_plus * np.abs(theta - r) + (1.0 - p_plus) * np.abs(theta + r))
            )
    pts, probs = dist_support(data)
    return float(sum(w * loss_value(loss, x, theta) for x, w in zip(pts, probs)))


def _box_minimizer_unique(spec: RiskSpec) -> bool:
    # unique over the declared domain; the hinge flattens past the corner
    # when delta = 1, which matters once the domain extends beyond the box
    data, loss = spec.data, spec.loss
    if not (data.delta > 0.0 and np.all(data.nu != 0.0)):
        return False
    if loss.kind == "hinge" and data.delta >= 1.0:
        box_exact = spec.domain.p == math.inf and spec.domain.radius == loss.r
        return box_exact
    return True


def risk_minimizer(spec: RiskSpec) -> RiskMin:
    """Closed-form (argmin, min, uniqueness flag) for the structured families.

    median over cube_bernoulli and hinge over coord_basis minimize at the
    corner r*nu whenever it is feasible; the linear loss over an l1 ball
    minimizes at -radius*nu for a signed basis direction nu.
    """
    loss, data, domain = spec.loss, spec.data, spec.domain
    if data.kind == "custom_empirical":
        raise UnsupportedFamilyError("custom_empirical has no closed form; run an optimizer")
    L = loss.lipschitz_L
    if loss.kind == "median" and data.kind == "cube_bernoulli":
        theta_star = loss.r * data.nu
        if not domain.contains(theta_star, tol=1e-12):
            raise UnsupportedFamilyError("corner minimizer lies outside the domain")
        return RiskMin(theta_star, risk_value(spec, theta_star), _box_minimizer_unique(spec))
    if loss.kind == "hinge" and data.kind == "coord_basis":
        theta_star = loss.r * data.nu
        if not domain.contains(theta_star, tol=1e-12):
            raise UnsupportedFamilyError("corner minimizer lies outside the domain")
        value = L * loss.r * (data.d - data.delta * np.count_nonzero(data.nu)) / data.d
        return RiskMin(theta_star, float(value), _box_minimizer_unique(spec))
    if loss.kind == "linear" and data.kind == "cube_bernoulli":
        if domain.p != 1:
            raise UnsupportedFamilyError("linear closed form needs an l1-ball domain")
        if np.count_nonzero(data.nu) != 1:
            raise UnsupportedFamilyError("linear closed form needs a signed basis nu")
        theta_star = -domain.radius * data.nu
        value = -L * data.delta * domain.radius
        return RiskMin(theta_star, float(value), data.delta > 0.0)
    raise UnsupportedFamilyError(f"no closed form for ({loss.kind}, {data.kind})")


def _same_family(a: RiskSpec, b: RiskSpec) -> None:
    if a.loss != b.loss or a.domain != b.domain:
        raise ValueError("mixed families: losses and domains must match")
    if a.data.kind != b.data.kind or a.data.d != b.data.d or a.data.delta != b.data.delta:
        raise ValueError("mixed families: distribution kind, d, delta must match")


def separation(spec_v: RiskSpec, spec_w: RiskSpec) -> float:
    """Exact discrepancy between two risks of the same structured family:

        inf_theta [R_v(theta) + R_w(theta)] - R_v(theta_v*) - R_w(theta_w*).

    This is the quantity whose minimum over a packing drives the
    testing-based lower bounds.
    """
    _same_family(spec_v, spec_w)
    loss, data_v, data_w = spec_v.loss, spec_v.data, spec_w.data
    L, delta = loss.lipschitz_L, data_v.delta
    nu, w = data_v.nu, data_w.nu
    disagreements = int(np.count_nonzero(nu * w == -1.0))
    if loss.kind == "median" and data_v.kind == "cube_bernoulli":
        return 2.0 * L * loss.r * delta * disagreements
    if loss.kind == "hinge" and data_v.kind == "coord_basis":
        return 2.0 * L * loss.r * delta * disagreements / data_v.d
    if loss.kind == "linear" and data_v.kind == "cube_bernoulli":
        if spec_v.domain.p != 1:
            raise UnsupportedFamilyError("linear separation needs an l1-ball domain")
        if np.count_nonzero(nu) != 1 or np.count_nonzero(w) != 1:
            raise UnsupportedFamilyError("linear separation needs signed basis directions")
        overlap = float(np.max(np.abs(nu + w)))
        return L * delta * spec_v.domain.radius * (2.0 - overlap)
    raise UnsupportedFamilyError(f"no separation form for ({loss.kind}, {data_v.kind})")
