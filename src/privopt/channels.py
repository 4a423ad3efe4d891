"""Privacy-preserving randomized channels Z | x with E[Z | x] = x.

Three production mechanisms plus plumbing:

  linf_maxent    max-entropy unbiased channel on the scaled sign cube
                 {-M, M}^d for inputs with ||x||_inf <= L
  l1_maxent      two-phase (round, tilt) channel on the scaled signed
                 basis {+-M e_j} for inputs with ||x||_1 <= L
  dp_hypercube   eps-differentially-private two-level channel on the
                 sign cube; the k = 0 closed form, valid eps < eps_star(d)
  dp_linf_sampler  the sampler view of the same two-level channel (an
                 alias: TWO_LEVEL_KINDS names both)
  dp_l2_sampler  eps-DP hemisphere sampler on the radius-B sphere
  identity       no privacy; passes x through (baseline / diagnostics)
  biased_demo    deliberately biased perturbation for the failure demo

All samplers take an explicit rng and an optional size for repeated
draws at one input; Channel.sample of the kinds in BATCH_KINDS also takes
a batch of inputs, one draw per row.  Finite-support kinds expose exact
conditional pmfs through channel_pmf, which is what the exact
mutual-information and DP-ratio certification in the information module
consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import NormBall

__all__ = [
    "BATCH_KINDS",
    "CHANNEL_KINDS",
    "TWO_LEVEL_KINDS",
    "Channel",
    "PrivacyCertificate",
    "SupportPmf",
    "make_channel",
    "channel_pmf",
    "channel_to_json",
    "channel_from_json",
    "dp_ratio_max",
    "linf_maxent_sample",
    "l1_maxent_sample",
    "dp_hypercube_sample",
    "dp_linf_sampler",
    "dp_l2_sampler",
    "biased_demo_sample",
    "eps_star",
    "l1_gamma",
    "two_level_constants",
]

CHANNEL_KINDS = (
    "linf_maxent",
    "l1_maxent",
    "dp_hypercube",
    "dp_linf_sampler",
    "dp_l2_sampler",
    "identity",
    "biased_demo",
)

# the two-level hypercube channel under both of its names
TWO_LEVEL_KINDS = ("dp_hypercube", "dp_linf_sampler")
_DP_KINDS = TWO_LEVEL_KINDS + ("dp_l2_sampler",)


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

    @property
    def level_bits(self) -> float:
        if self.kind != "mutual_information":
            raise ValueError("bits conversion only applies to information levels")
        return self.level / math.log(2.0)


# ---------------------------------------------------------------------------
# calibration constants


@lru_cache(maxsize=None)
def _corner_matrix(d: int) -> np.ndarray:
    """All 2^d sign vectors, row i = binary expansion of i mapped 0 -> -1."""
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1)) & 1
    out = bits.astype(float) * 2.0 - 1.0
    out.setflags(write=False)
    return out


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
    # E[<U, v>] for U uniform on the unit hemisphere {<u, v> > 0}
    if d < 2:
        raise ValueError("sphere sampler needs d >= 2")
    return 2.0 * math.gamma(d / 2.0) / (math.sqrt(math.pi) * (d - 1) * math.gamma((d - 1) / 2.0))


# ---------------------------------------------------------------------------
# samplers


def _as_input(x, d_expected=None) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError("input must be a vector")
    if d_expected is not None and x.size != d_expected:
        raise ValueError(f"expected dimension {d_expected}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return x


_BALL_TOL = 1e-9


def _require_ball(x: np.ndarray, p: float, L: float) -> None:
    nrm = np.linalg.norm(x, ord=p)
    if nrm > L * (1.0 + _BALL_TOL) + _BALL_TOL:
        raise ValueError(f"input l{p} norm {nrm:.6g} exceeds source radius {L:.6g}")


def _checked_rows(x, d: int, L: float) -> np.ndarray:
    """x as one input (d,) or a batch (R, d), every row finite and in the
    sup-norm ball of radius L; one reduction checks both, as NaN survives
    the max."""
    x = np.asarray(x, dtype=float)
    x = x.reshape(1) if x.ndim == 0 else x
    if x.ndim > 2 or x.shape[-1] != d:
        raise ValueError(f"expected a vector or rows of dimension {d}, got shape {x.shape}")
    top = np.abs(x).max()
    if not top <= L * (1.0 + _BALL_TOL) + _BALL_TOL:
        if not np.isfinite(top):
            raise ValueError("non-finite input")
        raise ValueError(f"input linf norm {top:.6g} exceeds source radius {L:.6g}")
    return x


def _rademacher(rng, shape) -> np.ndarray:
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def linf_maxent_sample(x, L: float, M: float, rng, size=None) -> np.ndarray:
    """Coordinate-wise unbiased sign channel: P(Z_i = +M) = 1/2 + x_i/(2M).

    Requires ||x||_inf <= L <= M.  Output lies in {-M, +M}^d with
    independent coordinates and E[Z | x] = x exactly.
    """
    return make_channel("linf_maxent", np.size(x), L=L, M=M).sample(x, rng=rng, size=size)


def _linf_draw(ch, x: np.ndarray, n: int, rng) -> np.ndarray:
    M = ch.calibration["B"]
    return np.where(rng.random((n, ch.d)) < 0.5 + x / (2.0 * M), M, -M)


def _l1_atom_matrix(d: int) -> np.ndarray:
    return np.vstack([np.eye(d), -np.eye(d)])


def _l1_rounding_weights(x: np.ndarray, L: float) -> np.ndarray:
    # mean-preserving rounding onto {+-L e_j}: directed mass |x_j|/L plus the
    # leftover 1 - ||x||_1/L spread uniformly (cancels in the mean)
    d = x.size
    rem = max(0.0, 1.0 - np.abs(x).sum() / L)
    w = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)]) / L + rem / (2 * d)
    return w / w.sum()


def _l1_output_pmf(x: np.ndarray, L: float, M: float) -> np.ndarray:
    d = x.size
    gamma = l1_gamma(d, M / L)
    D = math.exp(gamma) + math.exp(-gamma) + 2 * d - 2
    w = _l1_rounding_weights(x, L)
    w_mirror = np.concatenate([w[d:], w[:d]])
    return (1.0 + (math.exp(gamma) - 1.0) * w + (math.exp(-gamma) - 1.0) * w_mirror) / D


def l1_maxent_sample(x, L: float, M1: float, rng, size=None) -> np.ndarray:
    """Two-phase l1 channel: round x onto {+-L e_j}, then resample through
    the gamma-tilted law on {+-M1 e_j}.  E[Z | x] = x exactly; the marginal
    of Z given x is sampled directly from the composed pmf.
    """
    x = _as_input(x)
    if M1 <= L:
        raise ValueError("need M1 > L")
    _require_ball(x, 1, L)
    rng = np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    p_out = _l1_output_pmf(x, L, M1)
    idx = rng.choice(2 * x.size, size=n, p=p_out)
    z = M1 * _l1_atom_matrix(x.size)[idx]
    return z[0] if size is None else z


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


def dp_hypercube_sample(x, eps: float, rng, L: float = 1.0, size=None) -> np.ndarray:
    """Optimally eps-DP channel on the sign cube, k = 0 regime.

    Rounds x to a corner T of {-L, L}^d coordinate-wise, then emits B*W
    with W uniform on {w : <w, T> > 0} with probability C_d q+, uniform on
    the complement otherwise.  Every conditional pmf takes exactly two
    values with ratio e^eps; E[Z | x] = x with B = L/t.
    """
    return make_channel("dp_hypercube", np.size(x), L=L, eps=eps).sample(x, rng=rng, size=size)


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


def dp_linf_sampler(g, L: float, eps: float, rng, size=None) -> np.ndarray:
    """Sampler view of the two-level hypercube channel (identical law)."""
    return dp_hypercube_sample(g, eps, rng, L=L, size=size)


def dp_l2_sampler(g, L: float, eps: float, rng, size=None) -> np.ndarray:
    """eps-DP hemisphere sampler for ||g||_2 <= L, d >= 2.

    Rounds g to a unit direction with a sign coin, then draws Z uniform on
    the spherical cap {||z||_2 = B, <z, g~> > 0} with probability
    pi_eps = e^eps/(e^eps + 1), the opposite cap otherwise.  B is set by
    the hemisphere mean so that E[Z | g] = g.
    """
    g = _as_input(g)
    d = g.size
    if d < 2:
        raise ValueError("dp_l2_sampler needs d >= 2; use dp_linf_sampler at d = 1")
    if eps <= 0.0:
        raise ValueError("need eps > 0")
    _require_ball(g, 2, L)
    e = math.exp(eps)
    B = L * (e + 1.0) / ((e - 1.0) * _l2_halfsphere_mean(d))
    rng = np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    nrm = float(np.linalg.norm(g))
    if nrm == 0.0:
        u = np.zeros(d)
        u[0] = 1.0
        p_plus = 0.5
    else:
        u = g / nrm
        p_plus = 0.5 + nrm / (2.0 * L)
    t_sign = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    cap = np.where(rng.random(n) < e / (e + 1.0), 1.0, -1.0)
    G = rng.standard_normal((n, d))
    U = G / np.linalg.norm(G, axis=1, keepdims=True)
    want = t_sign * cap  # required sign of <U, u>
    flip = (U @ u) * want < 0.0
    U[flip] = -U[flip]
    z = B * U
    return z[0] if size is None else z


def biased_demo_sample(g, bias, rng, size=None, noise: float = 1.0) -> np.ndarray:
    """Perturbation centered at g + bias: looks like an unbiased channel but
    systematically shifts every query.  Diagnostic use only."""
    g = _as_input(g)
    bias = np.broadcast_to(np.asarray(bias, dtype=float), g.shape)
    rng = np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    z = g + bias + noise * _rademacher(rng, (n, g.size))
    return z[0] if size is None else z


# ---------------------------------------------------------------------------
# channel objects


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable calibrated channel.

    privacy_param is M (maxent kinds), eps (dp kinds), or +inf for the
    non-private kinds.  calibration holds the derived constants (gamma,
    q_plus/q_minus, B, pi_eps, ...) satisfying their defining equations.
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
    def L(self) -> float:
        return self.source.radius

    def rng(self):
        """The channel's own stream, lazily created from its seed."""
        if self._stream is None:
            object.__setattr__(self, "_stream", np.random.default_rng(self.seed))
        return self._stream

    def sample(self, x, rng=None, size=None) -> np.ndarray:
        """Draw Z given x: shape (d,), or (size, d) for size draws at x.

        The BATCH_KINDS also take X of shape (R, d): one draw per row, in
        the rng order of sample(x, size=R), after checking that every row
        is finite and in the source ball.  size with a batch, or a batch
        for any other kind, raises ValueError.
        """
        gen = self.rng() if rng is None else np.random.default_rng(rng)
        L = self.source.radius
        draw = _BATCH_DRAWS.get(self.kind)
        if draw is not None:
            x = _checked_rows(x, self.d, L)
            if x.ndim == 1:
                z = draw(self, x, 1 if size is None else int(size), gen)
                return z[0] if size is None else z
            if size is not None:
                raise ValueError("pass a batch of inputs or size, not both")
            return draw(self, x, len(x), gen)
        # the other kinds take one input vector; their samplers reject rows
        if self.kind == "l1_maxent":
            return l1_maxent_sample(x, L, self.calibration["B"], gen, size=size)
        if self.kind == "dp_l2_sampler":
            return dp_l2_sampler(x, L, self.privacy_param, gen, size=size)
        bias = np.asarray(self.calibration["bias"], dtype=float)
        return biased_demo_sample(
            x, bias, gen, size=size, noise=self.calibration["noise"]
        )

    def pmf(self, x) -> SupportPmf:
        return channel_pmf(self, x)


# draws from the calibrated constants for the kinds that take a batch:
# (channel, x, n, rng) -> (n, d), for n draws at one input x (d,) or one
# draw per row of x (n, d)
_BATCH_DRAWS = {
    "linf_maxent": _linf_draw,
    "identity": lambda ch, x, n, rng: np.broadcast_to(x, (n, ch.d)).copy(),
    **dict.fromkeys(TWO_LEVEL_KINDS, _two_level_draw),
}
BATCH_KINDS = tuple(_BATCH_DRAWS)


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
    if d < 1:
        raise ValueError("d must be >= 1")
    if L <= 0.0:
        raise ValueError("L must be positive")
    if kind == "linf_maxent":
        if M is None or M < L:
            raise ValueError("linf_maxent needs M >= L")
        cal = {"B": float(M)}
        return Channel(kind, d, NormBall(np.inf, L), NormBall(np.inf, float(M)),
                       float(M), cal, seed)
    if kind == "l1_maxent":
        if M is None or M <= L:
            raise ValueError("l1_maxent needs M > L")
        gamma = l1_gamma(d, M / L)
        cal = {
            "B": float(M),
            "gamma": gamma,
            "D_gamma": math.exp(gamma) + math.exp(-gamma) + 2 * d - 2,
        }
        return Channel(kind, d, NormBall(1, L), NormBall(1, float(M)),
                       float(M), cal, seed)
    if kind in TWO_LEVEL_KINDS:
        if eps is None:
            raise ValueError(f"{kind} needs eps")
        cal = dict(two_level_constants(d, eps))
        cal["B"] = L / cal["t"]
        return Channel(kind, d, NormBall(np.inf, L), NormBall(np.inf, cal["B"]),
                       float(eps), cal, seed)
    if kind == "dp_l2_sampler":
        if eps is None or eps <= 0.0:
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
        return Channel(kind, d, NormBall(2, L), NormBall(2, cal["B"]),
                       float(eps), cal, seed)
    if kind == "identity":
        ball = NormBall(np.inf, L)
        return Channel(kind, d, ball, ball, math.inf, {"B": L}, seed)
    # biased_demo
    bias_vec = np.zeros(d) if bias is None else np.broadcast_to(
        np.asarray(bias, dtype=float), (d,)
    )
    nse = L if noise is None else float(noise)
    reach = L + float(np.max(np.abs(bias_vec))) + nse
    return Channel(
        "biased_demo", d, NormBall(np.inf, L), NormBall(np.inf, reach),
        math.inf, {"bias": tuple(float(b) for b in bias_vec), "noise": nse}, seed,
    )


# ---------------------------------------------------------------------------
# exact pmfs and ratio checks

_PRODUCT_GUARD_D = 20
_MIXTURE_GUARD_D = 10


def channel_pmf(ch: Channel, x) -> SupportPmf:
    """Exact conditional law of Z given x for finite-support kinds.

    Probabilities sum to 1 to 1e-12 and the pmf mean reproduces x to
    1e-10.  dp kinds enumerate the 2^d corner mixture, so interior inputs
    are guarded at d <= 10 (corner inputs at d <= 20).
    """
    x = _as_input(x, ch.d)
    d = ch.d
    L = ch.source.radius
    if ch.kind == "linf_maxent":
        if d > _PRODUCT_GUARD_D:
            raise ValueError("support too large to enumerate")
        M = ch.calibration["B"]
        corners = _corner_matrix(d)
        probs = np.prod(0.5 + corners * (x / (2.0 * M)), axis=1)
        return SupportPmf(M * corners, probs)
    if ch.kind == "l1_maxent":
        return SupportPmf(
            ch.calibration["B"] * _l1_atom_matrix(d), _l1_output_pmf(x, L, ch.calibration["B"])
        )
    if ch.kind in TWO_LEVEL_KINDS:
        corners = _corner_matrix(d) if d <= _PRODUCT_GUARD_D else None
        if corners is None:
            raise ValueError("support too large to enumerate")
        q_plus, q_minus = ch.calibration["q_plus"], ch.calibration["q_minus"]
        B = ch.calibration["B"]
        on_corner = np.all(np.abs(np.abs(x) - L) < 1e-12)
        if on_corner:
            probs = np.where(corners @ (x / L) > 0.0, q_plus, q_minus)
            return SupportPmf(B * corners, probs)
        if d > _MIXTURE_GUARD_D:
            raise ValueError("interior-input mixture needs d <= 10")
        weights = np.prod(0.5 * (1.0 + corners * (x / L)), axis=1)
        gram = corners @ corners.T
        probs = (np.where(gram > 0.0, q_plus, q_minus) * weights[None, :]).sum(axis=1)
        return SupportPmf(B * corners, probs)
    if ch.kind == "identity":
        return SupportPmf(x[None, :].copy(), np.ones(1))
    if ch.kind == "biased_demo":
        if d > _PRODUCT_GUARD_D:
            raise ValueError("support too large to enumerate")
        corners = _corner_matrix(d)
        pts = x + np.asarray(ch.calibration["bias"]) + ch.calibration["noise"] * corners
        return SupportPmf(pts, np.full(len(corners), 1.0 / len(corners)))
    raise ValueError(f"{ch.kind} has continuous support; no exact pmf")


def dp_ratio_max(ch: Channel, inputs=None) -> float:
    """sup over outputs and input pairs of the conditional pmf ratio.

    Defaults to all 2^d corner inputs (the extreme points, where the sup
    is attained).  Only meaningful for the finite-support dp kinds.
    """
    if ch.kind not in TWO_LEVEL_KINDS:
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


# ---------------------------------------------------------------------------
# JSON config round-trip


def channel_to_json(ch: Channel) -> str:
    doc = {"kind": ch.kind, "d": ch.d, "L": ch.source.radius,
           "M_or_eps": None, "seed": ch.seed}
    if ch.kind in ("linf_maxent", "l1_maxent"):
        doc["M_or_eps"] = ch.calibration["B"]
    elif ch.kind in _DP_KINDS:
        doc["M_or_eps"] = ch.privacy_param
    elif ch.kind == "biased_demo":
        doc["bias"] = list(ch.calibration["bias"])
        doc["noise"] = ch.calibration["noise"]
    return json.dumps(doc, sort_keys=True)


def channel_from_json(doc) -> Channel:
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    kind = doc["kind"]
    d = int(doc["d"])
    L = float(doc.get("L", 1.0))
    raw = doc.get("M_or_eps")
    seed = doc.get("seed")
    seed = None if seed is None else int(seed)
    if kind in ("linf_maxent", "l1_maxent"):
        return make_channel(kind, d, L=L, M=float(raw), seed=seed)
    if kind in _DP_KINDS:
        return make_channel(kind, d, L=L, eps=float(raw), seed=seed)
    if kind == "biased_demo":
        # documents without a bias vector carry one scalar bias in M_or_eps
        return make_channel(kind, d, L=L, bias=doc.get("bias", raw),
                            noise=doc.get("noise"), seed=seed)
    return make_channel(kind, d, L=L, seed=seed)
