"""Privacy-preserving randomized channels Z | x with E[Z | x] = x.

Three production mechanisms plus plumbing:

  linf_maxent    max-entropy unbiased channel on the scaled sign cube
                 {-M, M}^d for inputs with ||x||_inf <= L <= M; independent
                 coordinates with P(Z_i = +M) = 1/2 + x_i/(2M)
  l1_maxent      two-phase (round, tilt) channel on the scaled signed
                 basis {+-M e_j} for inputs with ||x||_1 <= L < M
  dp_hypercube   eps-differentially-private two-level channel on the
                 sign cube; the k = 0 closed form, valid eps < eps_star(d).
                 x rounds to a corner T; Z = B W, W uniform on the half-cube
                 {<w, T> > 0} with probability C_d q+, else on its complement
  dp_linf_sampler  the sampler view of the same two-level channel (an
                 alias: both names map to one row of the kind table)
  dp_l2_sampler  eps-DP hemisphere sampler on the radius-B sphere: x rounds
                 to +-x/||x||_2; Z is uniform on the cap around it with
                 probability e^eps/(e^eps + 1), on the opposite cap otherwise
  identity       no privacy; passes x through (baseline / diagnostics)
  biased_demo    deliberately biased perturbation for the failure demo,
                 centered at x + bias

One private table has a row per kind: the budget it is built from (M,
eps or none), its calibration, one draw, its exact pmf when the support
is finite and, for the M kinds, its worst-case MI.  make_channel,
Channel.sample, channel_pmf, dp_ratio_max, worst_case_mi and the JSON
round trip read the row and do not branch on the kind; other modules ask
a channel for its budget and whether it has a pmf.  Channel.sample is the
one way to draw: one input, with an optional size for repeated draws, or
a batch of inputs with one draw per row.  Exact pmfs are what the exact
mutual-information and DP-ratio certification in the information module
consume.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import NormBall, _corner_matrix

__all__ = [
    "CHANNEL_KINDS",
    "Channel",
    "PrivacyCertificate",
    "SupportPmf",
    "make_channel",
    "channel_pmf",
    "channel_to_json",
    "channel_from_json",
    "dp_ratio_max",
    "worst_case_mi",
    "eps_star",
    "l1_gamma",
    "two_level_constants",
]


class SupportPmf(NamedTuple):
    """Finite conditional law: points (k, d), probs (k,)."""

    points: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class PrivacyCertificate:
    """kind is mutual_information (level = I* in nats) or differential_privacy
    (level = eps)."""

    kind: str
    level: float

    def __post_init__(self) -> None:
        if self.kind not in ("mutual_information", "differential_privacy"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if not self.level >= 0.0:
            raise ValueError("certificate level must be >= 0")


# ---------------------------------------------------------------------------
# calibration constants


def l1_gamma(d: int, m: float) -> float:
    """Tilt exponent for the l1 channel at magnitude ratio m = M1/L > 1.

    gamma solves (e^g - e^-g) / (e^g + e^-g + 2d - 2) = 1/m, the mean
    calibration making the tilted stage unbiased on the rounded atoms.
    """
    if m <= 1.0:
        raise ValueError("l1 channel needs M1 > L")
    u = ((d - 1.0) + math.sqrt((d - 1.0) ** 2 + m * m - 1.0)) / (m - 1.0)
    return math.log(u)


@lru_cache(maxsize=None)
def _upper_count(d: int) -> int:
    # atoms of the sign cube with <z, 1> > 0
    return sum(math.comb(d, i) for i in range(math.ceil(d / 2)))


@lru_cache(maxsize=None)
def _mean_coeff(d: int) -> int:
    # sum over the upper half-cube of z equals this coefficient times 1
    return math.comb(d - 1, math.ceil(d / 2) - 1)


def eps_star(d: int) -> float:
    """Threshold below which the k = 0 two-level channel is LP-optimal;
    infinite at d = 1, where the two-level family never changes shape."""
    if d < 1:
        raise ValueError("d must be >= 1")
    C = _upper_count(d)
    K = d * _mean_coeff(d)
    if K == C:
        return math.inf
    return math.log((K + 2**d - C) / (K - C))


def two_level_constants(d: int, eps: float) -> dict:
    """All derived constants of the k = 0 optimally-DP hypercube channel."""
    if not 0.0 < eps < eps_star(d):
        raise ValueError(f"need 0 < eps < eps_star({d}) = {eps_star(d):.6g}")
    C = _upper_count(d)
    N = _mean_coeff(d)
    e = math.exp(eps)
    q_plus = e / (e * C + 2**d - C)
    q_minus = q_plus / e
    t = (q_plus - q_minus) * N
    return {
        "C_d": C,
        "N_d": N,
        "K_d": d * N,
        "q_plus": q_plus,
        "q_minus": q_minus,
        "t": t,
        "coin": C * q_plus,
        "eps_star": eps_star(d),
    }


def _l2_halfsphere_mean(d: int) -> float:
    # E[<U, v>] for U uniform on the unit hemisphere {<u, v> > 0}, d >= 2
    return 2.0 * math.gamma(d / 2.0) / (math.sqrt(math.pi) * (d - 1) * math.gamma((d - 1) / 2.0))


# ---------------------------------------------------------------------------
# input check


_BALL_TOL = 1e-9


def _checked_rows(x, d: int, ball: NormBall) -> np.ndarray:
    """x as one input (d,) or a batch (R, d), every row finite and in the
    source ball; one reduction checks both, as NaN survives the norm and
    the max."""
    x = np.asarray(x, dtype=float)
    x = x.reshape(1) if x.ndim == 0 else x
    if x.ndim > 2 or x.shape[-1] != d:
        raise ValueError(f"expected a vector or rows of dimension {d}, got shape {x.shape}")
    if ball.p == np.inf:
        top = np.abs(x).max()
    else:
        top = np.linalg.norm(x, ord=ball.p, axis=-1).max()
    L = ball.radius
    if not top <= L * (1.0 + _BALL_TOL) + _BALL_TOL:
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite input")
        raise ValueError(f"input l{ball.p} norm {top:.6g} exceeds source radius {L:.6g}")
    return x


# ---------------------------------------------------------------------------
# draws: (channel, x, n, rng) -> (n, d), for n draws at one input x (d,) or
# one draw per row of x (n, d), from the calibrated constants


def _rademacher(rng, shape) -> np.ndarray:
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _linf_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    M = ch.calibration["B"]
    return np.where(rng.random((n, ch.d)) < 0.5 + x / (2.0 * M), M, -M)


def _l1_output_pmf(ch, x: np.ndarray) -> np.ndarray:
    """Law of Z over the 2d atoms, per row of x: round x onto {+-L e_j},
    then resample through the gamma-tilted law on {+-M e_j}."""
    d, L, gamma = ch.d, ch.source.radius, ch.calibration["gamma"]
    # mean-preserving rounding: directed mass |x_j|/L plus the leftover
    # 1 - ||x||_1/L spread uniformly (cancels in the mean)
    rem = np.maximum(0.0, 1.0 - np.abs(x).sum(axis=-1, keepdims=True) / L)
    w = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)], axis=-1) / L + rem / (2 * d)
    w = w / w.sum(axis=-1, keepdims=True)
    w_mirror = np.concatenate([w[..., d:], w[..., :d]], axis=-1)
    tilted = 1.0 + (math.exp(gamma) - 1.0) * w + (math.exp(-gamma) - 1.0) * w_mirror
    return tilted / ch.calibration["D_gamma"]


def _l1_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    # inverse cdf per row, with the uniforms and cut points of
    # rng.choice(2d, size=n, p=law) at one input
    cdf = np.cumsum(_l1_output_pmf(ch, x), axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(n)
    return ch.calibration["atoms"][(cdf <= u[:, None]).sum(axis=1)]


def _uniform_halfcube(d: int, n: int, rng, upper: bool) -> np.ndarray:
    """Uniform sign vectors with coordinate sum > 0 (upper) or <= 0.

    Upper uses reflection (redrawing ties); lower keeps ties and rejects,
    acceptance >= 1/2 per round.
    """
    out = _rademacher(rng, (n, d))
    s = out.sum(axis=1)
    if upper:
        neg = s < 0.0
        out[neg] = -out[neg]
        pending = np.flatnonzero(s == 0.0)
    else:
        pending = np.flatnonzero(s > 0.0)
    while pending.size:
        red = _rademacher(rng, (pending.size, d))
        ss = red.sum(axis=1)
        if upper:
            neg = ss < 0.0
            red[neg] = -red[neg]
            bad = ss == 0.0
        else:
            bad = ss > 0.0
        out[pending] = red
        pending = pending[bad]
    return out


def _two_level_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    d, cal = ch.d, ch.calibration
    T = np.where(rng.random((n, d)) < 0.5 * (1.0 + x / ch.source.radius), 1.0, -1.0)
    up = rng.random(n) < cal["coin"]
    W = np.empty((n, d))
    n_up = int(up.sum())
    if n_up:
        W[up] = _uniform_halfcube(d, n_up, rng, upper=True)
    if n_up < n:
        W[~up] = _uniform_halfcube(d, n - n_up, rng, upper=False)
    return cal["B"] * W * T


def _l2_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    # round each row to +-u, u = x/||x||_2 (e_1 at the origin), with
    # P(+u) = 1/2 + ||x||_2/(2L); then draw uniform on the radius-B cap
    # {<z, +-u> > 0} with probability pi_eps, on the opposite cap otherwise
    cal = ch.calibration
    nrm = np.sqrt((x * x).sum(axis=-1))
    u = np.where(nrm[..., None] > 0.0, x, np.eye(1, ch.d))
    toward = rng.random(n) < 0.5 + nrm / (2.0 * ch.source.radius)
    near = rng.random(n) < cal["pi_eps"]
    G = rng.standard_normal((n, ch.d))
    U = G / np.sqrt((G * G).sum(axis=1, keepdims=True))
    dot = np.einsum("...j,...j->...", U, u)
    flip = np.where(toward == near, dot < 0.0, dot > 0.0)
    return np.where(flip, -cal["B"], cal["B"])[:, None] * U


def _identity_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    return np.broadcast_to(x, (n, ch.d)).copy()


def _biased_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    cal = ch.calibration
    return x + np.asarray(cal["bias"]) + cal["noise"] * _rademacher(rng, (n, ch.d))


# ---------------------------------------------------------------------------
# exact pmfs at one checked input x (d,)

_PRODUCT_GUARD_D = 20
_MIXTURE_GUARD_D = 10


def _product_corners(d: int) -> np.ndarray:
    if d > _PRODUCT_GUARD_D:
        raise ValueError("support too large to enumerate")
    return _corner_matrix(d)


def _linf_pmf(ch, x: np.ndarray) -> SupportPmf:
    M = ch.calibration["B"]
    corners = _product_corners(ch.d)
    return SupportPmf(M * corners, np.prod(0.5 + corners * (x / (2.0 * M)), axis=1))


def _l1_pmf(ch, x: np.ndarray) -> SupportPmf:
    return SupportPmf(ch.calibration["atoms"], _l1_output_pmf(ch, x))


def _two_level_pmf(ch, x: np.ndarray) -> SupportPmf:
    L, cal = ch.source.radius, ch.calibration
    corners = _product_corners(ch.d)
    q_plus, q_minus, B = cal["q_plus"], cal["q_minus"], cal["B"]
    if np.all(np.abs(np.abs(x) - L) < 1e-12):  # on a corner
        return SupportPmf(B * corners, np.where(corners @ (x / L) > 0.0, q_plus, q_minus))
    if ch.d > _MIXTURE_GUARD_D:
        raise ValueError("interior-input mixture needs d <= 10")
    weights = np.prod(0.5 * (1.0 + corners * (x / L)), axis=1)
    gram = corners @ corners.T
    probs = (np.where(gram > 0.0, q_plus, q_minus) * weights[None, :]).sum(axis=1)
    return SupportPmf(B * corners, probs)


def _identity_pmf(ch, x: np.ndarray) -> SupportPmf:
    return SupportPmf(x[None, :].copy(), np.ones(1))


def _biased_pmf(ch, x: np.ndarray) -> SupportPmf:
    corners = _product_corners(ch.d)
    pts = x + np.asarray(ch.calibration["bias"]) + ch.calibration["noise"] * corners
    return SupportPmf(pts, np.full(len(corners), 1.0 / len(corners)))


# ---------------------------------------------------------------------------
# worst-case MI of the M kinds: (d, L, M) -> nats at the saddle-point source


def binary_entropy(p: float) -> float:
    """h(p) in nats, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _linf_worst_mi(d: int, L: float, M: float) -> float:
    # d independent binary channels, each with crossover 1/2 - L/(2M)
    if M < L:
        raise ValueError("need M >= L")
    return d * (math.log(2.0) - binary_entropy(0.5 + L / (2.0 * M)))


def _l1_worst_mi(d: int, L: float, M: float) -> float:
    gamma = l1_gamma(d, M / L)
    D = math.exp(gamma) + math.exp(-gamma) + 2 * d - 2
    return math.log(2 * d) - math.log(D) + gamma * (math.exp(gamma) - math.exp(-gamma)) / D


# ---------------------------------------------------------------------------
# calibrations; p is the norm index of both the source and the target ball


def _linf_calibration(d: int, L: float, M, *_) -> tuple:
    if M < L:
        raise ValueError("linf_maxent needs M >= L")
    return np.inf, float(M), {"B": float(M)}


def _l1_calibration(d: int, L: float, M, *_) -> tuple:
    if M <= L:
        raise ValueError("l1_maxent needs M > L")
    gamma = l1_gamma(d, M / L)
    atoms = float(M) * np.vstack([np.eye(d), -np.eye(d)])
    atoms.setflags(write=False)
    return 1, float(M), {
        "B": float(M),
        "gamma": gamma,
        "D_gamma": math.exp(gamma) + math.exp(-gamma) + 2 * d - 2,
        "atoms": atoms,
    }


def _two_level_calibration(d: int, L: float, eps, *_) -> tuple:
    cal = dict(two_level_constants(d, eps))
    cal["B"] = L / cal["t"]
    return np.inf, cal["B"], cal


def _l2_calibration(d: int, L: float, eps, *_) -> tuple:
    if eps <= 0.0:
        raise ValueError("dp_l2_sampler needs eps > 0")
    if d < 2:
        raise ValueError("dp_l2_sampler needs d >= 2")
    e = math.exp(eps)
    c_d = _l2_halfsphere_mean(d)
    cal = {
        "pi_eps": e / (e + 1.0),
        "halfsphere_mean": c_d,
        "B": L * (e + 1.0) / ((e - 1.0) * c_d),
    }
    return 2, cal["B"], cal


def _identity_calibration(d: int, L: float, *_) -> tuple:
    return np.inf, L, {"B": L}


def _biased_calibration(d: int, L: float, _, bias, noise) -> tuple:
    bias_vec = np.zeros(d) if bias is None else np.broadcast_to(
        np.asarray(bias, dtype=float), (d,)
    )
    nse = L if noise is None else float(noise)
    reach = L + float(np.max(np.abs(bias_vec))) + nse
    return np.inf, reach, {"bias": tuple(float(b) for b in bias_vec), "noise": nse}


# ---------------------------------------------------------------------------
# the kind table


class _Kind(NamedTuple):
    budget: Optional[str]  # "M", "eps", or None for the non-private kinds
    calibrate: Callable  # (d, L, budget value, bias, noise) -> (p, target radius, calibration)
    draw: Callable  # (channel, x, n, rng) -> (n, d)
    pmf: Optional[Callable]  # (channel, x) -> SupportPmf; None for continuous support
    worst_mi: Optional[Callable] = None  # (d, L, M) -> nats, for the M budget only


_TWO_LEVEL = _Kind("eps", _two_level_calibration, _two_level_draw, _two_level_pmf)
_KINDS = {
    "linf_maxent": _Kind("M", _linf_calibration, _linf_draw, _linf_pmf, _linf_worst_mi),
    "l1_maxent": _Kind("M", _l1_calibration, _l1_draw, _l1_pmf, _l1_worst_mi),
    "dp_hypercube": _TWO_LEVEL,
    "dp_linf_sampler": _TWO_LEVEL,
    "dp_l2_sampler": _Kind("eps", _l2_calibration, _l2_draw, None),
    "identity": _Kind(None, _identity_calibration, _identity_draw, _identity_pmf),
    "biased_demo": _Kind(None, _biased_calibration, _biased_draw, _biased_pmf),
}
CHANNEL_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# channel objects


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable calibrated channel.

    privacy_param is M (maxent kinds), eps (dp kinds), or +inf for the
    non-private kinds; budget names which.  calibration holds the derived
    constants (gamma, q_plus/q_minus, B, pi_eps, ...) satisfying their
    defining equations.
    """

    kind: str
    d: int
    source: NormBall
    target: NormBall
    privacy_param: float
    calibration: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        object.__setattr__(self, "_stream", None)

    @property
    def budget(self) -> str | None:
        """The privacy parameter the kind is built from: "M", "eps", or None
        for the non-private kinds."""
        return _KINDS[self.kind].budget

    @property
    def has_pmf(self) -> bool:
        """True when the support is finite and channel_pmf gives the law."""
        return _KINDS[self.kind].pmf is not None

    @property
    def exact_dp_ratio(self) -> bool:
        """True when dp_ratio_max(ch) can check eps over every corner input."""
        return self.budget == "eps" and self.has_pmf and self.d <= _MIXTURE_GUARD_D

    def rng(self):
        """The channel's own stream, lazily created from its seed."""
        if self._stream is None:
            object.__setattr__(self, "_stream", np.random.default_rng(self.seed))
        return self._stream

    def sample(self, x, rng=None, size=None) -> np.ndarray:
        """Draw Z given x: shape (d,), or (size, d) for size draws at x.

        Every kind also takes X of shape (R, d): one draw per row, in the
        rng order of sample(x, size=R) when every row is x.  Each input
        must be finite and in the source ball; size with a batch raises
        ValueError.
        """
        gen = self.rng() if rng is None else np.random.default_rng(rng)
        x = _checked_rows(x, self.d, self.source)
        draw = _KINDS[self.kind].draw
        if x.ndim == 1:
            z = draw(self, x, 1 if size is None else int(size), gen)
            return z[0] if size is None else z
        if size is not None:
            raise ValueError("pass a batch of inputs or size, not both")
        return draw(self, x, len(x), gen)


def make_channel(
    kind: str,
    d: int,
    L: float = 1.0,
    M: float | None = None,
    eps: float | None = None,
    seed: int | None = None,
    bias=None,
    noise: float | None = None,
) -> Channel:
    """Construct and calibrate a channel.

    Maxent kinds take M (the output magnitude); dp kinds take eps.  The
    hypercube dp kinds require eps < eps_star(d); at or beyond the
    threshold the k = 0 closed form is no longer the LP optimum, so the
    construction refuses rather than silently degrade.
    """
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    if isinstance(d, bool) or not isinstance(d, numbers.Integral):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValueError("d must be >= 1")
    if L <= 0.0:
        raise ValueError("L must be positive")
    row = _KINDS[kind]
    value = {"M": M, "eps": eps}.get(row.budget)
    if row.budget is not None and value is None:
        raise ValueError(f"{kind} needs {row.budget}")
    d = int(d)  # a numpy integer would not serialise to JSON
    p, reach, cal = row.calibrate(d, L, value, bias, noise)
    param = math.inf if row.budget is None else float(value)
    return Channel(kind, d, NormBall(p, L), NormBall(p, reach), param, cal, seed)


# ---------------------------------------------------------------------------
# exact pmfs, ratio checks and the worst-case MI


def channel_pmf(ch: Channel, x) -> SupportPmf:
    """Exact conditional law of Z given one input x, for the kinds with
    finite support.

    x takes the same check as Channel.sample.  Probabilities sum to 1 to
    1e-12 and the pmf mean reproduces x to 1e-10.  dp kinds enumerate the
    2^d corner mixture, so interior inputs are guarded at d <= 10 (corner
    inputs at d <= 20).
    """
    pmf = _KINDS[ch.kind].pmf
    if pmf is None:
        raise ValueError(f"{ch.kind} has continuous support; no exact pmf")
    x = _checked_rows(x, ch.d, ch.source)
    if x.ndim != 1:
        raise ValueError("channel_pmf takes one input vector")
    return pmf(ch, x)


def dp_ratio_max(ch: Channel, inputs=None) -> float:
    """sup over outputs and input pairs of the conditional pmf ratio.

    Defaults to all 2^d corner inputs (the extreme points, where the sup
    is attained).  Only meaningful for the finite-support dp kinds.
    """
    if not (ch.budget == "eps" and ch.has_pmf):
        raise ValueError("dp_ratio_max applies to the finite-support dp kinds")
    L = ch.source.radius
    if inputs is None:
        if ch.d > _MIXTURE_GUARD_D:
            raise ValueError("exhaustive ratio check guarded at d <= 10")
        inputs = L * _corner_matrix(ch.d)
    hi = None
    lo = None
    for x in inputs:
        probs = channel_pmf(ch, x).probs
        hi = probs if hi is None else np.maximum(hi, probs)
        lo = probs if lo is None else np.minimum(lo, probs)
    return float(np.max(hi / lo))


def worst_case_mi(kind: str, d: int, L: float, M: float) -> float:
    """Worst-case (saddle-point) MI in nats of an M-budget kind at magnitude
    M; ValueError for the other kinds and for an M below the kind's edge."""
    worst_mi = _KINDS[kind].worst_mi if kind in _KINDS else None
    if worst_mi is None:
        raise ValueError(f"no closed form for kind {kind!r}")
    return worst_mi(d, L, M)


# ---------------------------------------------------------------------------
# JSON config round-trip


def channel_to_json(ch: Channel) -> str:
    doc = {"kind": ch.kind, "d": ch.d, "L": ch.source.radius,
           "M_or_eps": None if ch.budget is None else ch.privacy_param,
           "seed": ch.seed}
    if "bias" in ch.calibration:
        doc["bias"] = list(ch.calibration["bias"])
        doc["noise"] = ch.calibration["noise"]
    return json.dumps(doc, sort_keys=True)


def channel_from_json(doc) -> Channel:
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    kind = doc["kind"]
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    budget = _KINDS[kind].budget
    raw = doc.get("M_or_eps")
    seed = doc.get("seed")
    seed = None if seed is None else int(seed)
    if budget is None:
        # documents without a bias vector carry one scalar bias in M_or_eps
        extra = {"bias": doc.get("bias", raw), "noise": doc.get("noise")}
    else:
        extra = {budget: float(raw)}
    return make_channel(kind, doc["d"], L=float(doc.get("L", 1.0)), seed=seed, **extra)
