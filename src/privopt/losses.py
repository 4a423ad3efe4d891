"""Three losses over two data laws, in one family table.

Each loss is an (L, p)-loss: convex in theta with every subgradient g
satisfying ||g||_p <= L on the declared data support.  The three kinds:

  median    l(x, theta) = L ||r x - theta||_1            (L, inf)
  hinge     l(x, theta) = L max(r - <x, theta>, 0)       (L, 1) for ||x||_1 <= 1
  linear    l(x, theta) = L <x, theta>                   (L, inf) for ||x||_inf <= 1

Median and linear are paired with the sign cube, hinge with the signed
coordinate basis.  These families index the risks of both the experiments
and the lower-bound constructions: a sign vector nu and a bias delta pick
out how strongly the data leans toward the corner nu.

  cube_bernoulli  X in {-1,1}^d, independent coordinates, P(X_j = 1) = (1 + delta nu_j)/2
  coord_basis     X in {+-e_j}, P(X = s e_j) = (1 + s delta nu_j)/(2d)

`_LOSSES` has one row per loss: its value, its subgradient, the region of
theta where that subgradient does not depend on theta, its data law, and
that pair's closed-form risk, minimizer and separation.  `_LAWS` has one
row per data law: its sampler and support.  A pair outside the table
raises UnsupportedFamilyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (_CORNER_MAX_D, NormBall, _coin_signs, _corner_matrix, _integer,
                       _signed_basis)

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


class UnsupportedFamilyError(ValueError):
    """No closed form for the requested (loss, distribution, domain) triple."""


@dataclass(frozen=True)
class LossFn:
    """An (L, p)-loss, p fixed by the kind as tabled above. r is the
    offset/margin scale for median and hinge."""

    kind: str
    lipschitz_L: float = 1.0
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be positive")

    @property
    def data_kind(self) -> str:
        """The data law this loss's closed forms are tabled over."""
        return _LOSSES[self.kind].data


def make_loss(kind: str, L: float = 1.0, r: float = 1.0) -> LossFn:
    return LossFn(kind=kind, lipschitz_L=L, r=r)


def _pair(x, theta):
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape != theta.shape:
        raise ValueError(f"dimension mismatch: x {x.shape} vs theta {theta.shape}")
    return x, theta


def loss_value(loss: LossFn, x, theta) -> float:
    return _LOSSES[loss.kind].value(loss, *_pair(x, theta))


def subgrad(loss: LossFn, x, theta) -> np.ndarray:
    """A subgradient of theta -> loss(x, theta), for one (d,) pair or for
    each row of paired (R, d) arrays; no row path copies a strided theta.

    Kink selections are fixed so tests are deterministic: the median loss
    uses sign(0) = 0, and the hinge at margin exactly 0 returns -L x.
    """
    x, theta = _pair(x, theta)
    return _LOSSES[loss.kind].grad(loss, x, theta)


def _fixed_subgrad(loss: LossFn, dist: DataDist, theta: np.ndarray) -> bool:
    """True when dist is loss's own law and every theta (..., d) lies in
    the loss's fixed region (_Loss.fixed): there each datum of the law has
    one subgradient, the same bits at every theta."""
    row = _LOSSES[loss.kind]
    return dist.kind == row.data and row.fixed(loss, theta)


@dataclass(frozen=True)
class DataDist:
    """A data law of the table above, biased by delta toward the sign vector nu."""

    kind: str
    d: int
    delta: float
    nu: tuple

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if _integer("d", self.d) < 1:
            raise ValueError("d must be >= 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        nu = np.asarray(self.nu, dtype=float)
        if nu.size != self.d or not np.all(np.isin(nu, (-1.0, 0.0, 1.0))):
            raise ValueError("nu must be a length-d vector with entries in {-1,0,1}")
        # a tuple of floats, so that equal laws compare and hash alike
        object.__setattr__(self, "nu", tuple(nu.ravel().tolist()))

    @cached_property
    def nu_array(self) -> np.ndarray:
        """nu as a float array (d,), computed once."""
        return np.array(self.nu)

    @cached_property
    def p_plus(self) -> np.ndarray:
        """(1 + delta nu)/2, computed once: P(X_j = 1), or P(+e_j | +-e_j) on the basis."""
        return 0.5 * (1.0 + self.delta * self.nu_array)


def sample_datum(dist: DataDist, rng, size=None) -> np.ndarray:
    """Draw X ~ dist; shape (d,) or (size, d)."""
    rng = np.random.default_rng(rng)
    out = _LAWS[dist.kind].sample(dist, rng, 1 if size is None else _integer("size", size))
    return out[0] if size is None else out


def dist_support(dist: DataDist):
    """Full support enumeration (points (k, d), read-only, probs (k,)); the
    cube's 2^d up to geometry._CORNER_MAX_D."""
    return _LAWS[dist.kind].support(dist)


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


def _family(spec: RiskSpec) -> _Loss:
    row = _LOSSES[spec.loss.kind]
    if spec.data.kind != row.data:
        raise UnsupportedFamilyError(f"no closed form for ({spec.loss.kind}, {spec.data.kind})")
    return row


def risk_value(spec: RiskSpec, theta) -> float:
    """Exact E_P[loss(X, theta)], in closed form."""
    return _family(spec).risk(spec.loss, spec.data, np.asarray(theta, dtype=float))


def risk_minimizer(spec: RiskSpec) -> RiskMin:
    """Closed-form (argmin, min, uniqueness flag) over spec.domain.

    median over cube_bernoulli and hinge over coord_basis minimize at the
    corner r*nu whenever it is feasible; the linear loss over an l1 ball
    minimizes at -radius*nu for a signed basis direction nu.
    """
    row = _family(spec)
    theta = row.argmin(spec)
    return RiskMin(theta, risk_value(spec, theta), row.unique(spec))


def separation(spec_v: RiskSpec, spec_w: RiskSpec) -> float:
    """Exact discrepancy between two risks of the same structured family:

        inf_theta [R_v(theta) + R_w(theta)] - R_v(theta_v*) - R_w(theta_w*).

    This is the quantity whose minimum over a packing drives the
    testing-based lower bounds.
    """
    a, b = spec_v, spec_w
    if a.loss != b.loss or a.domain != b.domain:
        raise ValueError("mixed families: losses and domains must match")
    if a.data.kind != b.data.kind or a.data.d != b.data.d or a.data.delta != b.data.delta:
        raise ValueError("mixed families: distribution kind, d, delta must match")
    return _family(a).separation(a, b)


# ---------------------------------------------------------------------------
# the family table


def _hinge_grad(loss, x, theta) -> np.ndarray:
    if x.ndim == 1:
        # one pair, the per-step call of a single chain: Python floats, no mask
        return -loss.lipschitz_L * x if loss.r - float(x @ theta) >= 0.0 else np.zeros_like(x)
    # np.vecdot runs the same dot kernel per row as x @ theta on one pair
    active = loss.r - np.vecdot(x, theta) >= 0.0
    return np.where(active[..., None], -loss.lipschitz_L * x, 0.0)


def _in_open_box(loss, theta) -> bool:
    # every |theta_j| < r; min and max read theta once each, and NaN fails
    return bool(-loss.r < np.minimum.reduce(theta, axis=None)
                and np.maximum.reduce(theta, axis=None) < loss.r)


def _corner(spec: RiskSpec) -> np.ndarray:
    theta = spec.loss.r * spec.data.nu_array
    if not spec.domain.contains(theta, tol=1e-12):
        raise UnsupportedFamilyError("corner minimizer lies outside the domain")
    return theta


def _corner_unique(spec: RiskSpec) -> bool:
    return bool(spec.data.delta > 0.0 and np.all(spec.data.nu_array != 0.0))


def _corner_separation(spec_v: RiskSpec, spec_w: RiskSpec) -> float:
    loss = spec_v.loss
    disagreements = int(np.count_nonzero(spec_v.data.nu_array * spec_w.data.nu_array == -1.0))
    return 2.0 * loss.lipschitz_L * loss.r * spec_v.data.delta * disagreements


def _linear_argmin(spec: RiskSpec) -> np.ndarray:
    if spec.domain.p != 1:
        raise UnsupportedFamilyError("linear closed form needs an l1-ball domain")
    if np.count_nonzero(spec.data.nu_array) != 1:
        raise UnsupportedFamilyError("linear closed form needs a signed basis nu")
    return -spec.domain.radius * spec.data.nu_array


def _linear_separation(spec_v: RiskSpec, spec_w: RiskSpec) -> float:
    for spec in (spec_v, spec_w):
        _linear_argmin(spec)  # raises where the closed form does not hold
    overlap = float(np.max(np.abs(spec_v.data.nu_array + spec_w.data.nu_array)))
    return spec_v.loss.lipschitz_L * spec_v.data.delta * spec_v.domain.radius * (2.0 - overlap)


def _cube_support(dist: DataDist):
    if dist.d > _CORNER_MAX_D:
        raise ValueError("cube support too large to enumerate")
    pts = _corner_matrix(dist.d)
    return pts, np.prod(np.where(pts > 0, dist.p_plus, 1.0 - dist.p_plus), axis=1)


def _basis_sample(dist: DataDist, rng, n: int) -> np.ndarray:
    j = rng.integers(0, dist.d, size=n)
    out = np.zeros((n, dist.d))
    out[np.arange(n), j] = _coin_signs(rng.random(n), dist.p_plus[j])
    return out


def _basis_support(dist: DataDist):
    w = dist.delta * dist.nu_array
    return _signed_basis(dist.d), np.concatenate([1.0 + w, 1.0 - w]) / (2.0 * dist.d)


class _Loss(NamedTuple):
    """One loss of the family table.

    fixed(loss, theta (..., d)) is True when every theta lies in a region
    where each datum of the loss's own law has one subgradient, the same
    bits at every theta of the region.  Where it holds, a subgradient
    computed at one theta of the region is the subgradient at any other:
      median on cube_bernoulli, every |theta_j| < r (open): r x_j is
        exactly +-r, so theta_j - r x_j is nonzero with the sign of -x_j
        (an IEEE subtraction of unequal numbers never rounds to 0), and
        the subgradient is L sign(theta - r x) = -L x.  At |theta_j| = r
        that difference is 0 for one sign of x_j, so the box is open.
      hinge on coord_basis, the same box: x = s e_j, so x . theta is
        exactly s theta_j (every other product is a zero), the margin
        r - s theta_j is positive, and the subgradient is -L x.
      linear, every theta: the subgradient L x does not read theta.
    """

    value: Callable  # (loss, x (d,), theta (d,)) -> float
    grad: Callable  # (loss, x, theta), both (d,) or both (R, d) -> the same shape
    fixed: Callable  # (loss, theta (..., d)) -> bool, see above
    data: str  # the one data law this loss is paired with
    risk: Callable  # (loss, data, theta (d,)) -> exact E[loss(X, theta)]
    argmin: Callable  # (spec) -> theta*, or UnsupportedFamilyError
    unique: Callable  # (spec) -> whether theta* is the only minimizer over spec.domain
    separation: Callable  # (spec_v, spec_w) of one family -> float


class _Law(NamedTuple):
    sample: Callable  # (dist, rng, n) -> (n, d)
    support: Callable  # (dist) -> (points (k, d), probs (k,))


_LOSSES = {
    "median": _Loss(
        lambda loss, x, theta: loss.lipschitz_L * float(np.abs(loss.r * x - theta).sum()),
        lambda loss, x, theta: loss.lipschitz_L * np.sign(theta - loss.r * x),
        _in_open_box, "cube_bernoulli",
        lambda loss, data, theta: loss.lipschitz_L * float(np.sum(
            data.p_plus * np.abs(theta - loss.r) + (1.0 - data.p_plus) * np.abs(theta + loss.r))),
        _corner, _corner_unique, _corner_separation),
    "hinge": _Loss(
        lambda loss, x, theta: loss.lipschitz_L * max(loss.r - float(x @ theta), 0.0),
        _hinge_grad, _in_open_box, "coord_basis",
        lambda loss, data, theta: loss.lipschitz_L * float(np.sum(
            data.p_plus * np.maximum(loss.r - theta, 0.0)
            + (1.0 - data.p_plus) * np.maximum(loss.r + theta, 0.0))) / data.d,
        _corner,
        # at delta = 1 the risk is flat past the corner, so the corner is the
        # only minimizer only when the domain is exactly the box of radius r
        lambda spec: _corner_unique(spec) and (spec.data.delta < 1.0 or (
            spec.domain.p == math.inf and spec.domain.radius == spec.loss.r)),
        lambda spec_v, spec_w: _corner_separation(spec_v, spec_w) / spec_v.data.d),
    "linear": _Loss(
        lambda loss, x, theta: loss.lipschitz_L * float(x @ theta),
        lambda loss, x, theta: loss.lipschitz_L * x,
        lambda loss, theta: True, "cube_bernoulli",
        lambda loss, data, theta: loss.lipschitz_L * data.delta * float(data.nu_array @ theta),
        _linear_argmin, lambda spec: spec.data.delta > 0.0, _linear_separation),
}
_LAWS = {
    "cube_bernoulli": _Law(
        lambda dist, rng, n: _coin_signs(rng.random((n, dist.d)), dist.p_plus),
        _cube_support),
    "coord_basis": _Law(_basis_sample, _basis_support),
}
LOSS_KINDS = tuple(_LOSSES)
DIST_KINDS = tuple(_LAWS)
