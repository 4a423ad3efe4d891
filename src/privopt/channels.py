"""Privacy-preserving randomized channels Z | x with E[Z | x] = x.

Four production mechanisms plus plumbing:

  linf_maxent    max-entropy unbiased channel on the scaled sign cube
                 {-M, M}^d for inputs with ||x||_inf <= L <= M; independent
                 coordinates with P(Z_i = +M) = 1/2 + x_i/(2M)
  l1_maxent      two-phase (round, tilt) channel on the scaled signed
                 basis {+-M e_j} for inputs with ||x||_1 <= L < M
  dp_hypercube   eps-differentially-private two-level channel on the
                 sign cube; the k = 0 closed form, valid eps < eps_star(d).
                 x rounds to a corner T; Z = B W T, where W has k ones placed
                 uniformly at random and the agreement class k has its exact
                 law C(d, k) q+ for 2k > d, C(d, k) q- otherwise
  dp_l2_sampler  eps-DP hemisphere sampler on the radius-B sphere: x rounds
                 to +-x/||x||_2; Z is uniform on the cap around it with
                 probability e^eps/(e^eps + 1), on the opposite cap otherwise
  identity       no privacy; passes x through (baseline / diagnostics)
  biased_demo    deliberately biased perturbation for the failure demo,
                 centered at x + bias

One private table has a row per kind: the budget it is built from (M,
eps or none), its calibration, its draw in two parts, its exact pmf when
the support is finite with the index of a draw among the pmf's points,
its exact conditional mean E[Z | x] (from the law parameters the draw
reads, at every d) and, for the M kinds, its worst-case MI.
make_channel, the Channel methods, channel_pmf, support_index,
dp_ratio_max, worst_case_mi and the JSON round trip read the row and do
not branch on the kind; other modules ask a channel for its budget,
whether it has a pmf, and its mean.

A draw is Z = f(x, U), where the randomness U does not depend on x: the
row's noise draws U for n draws, and its apply maps x through it.
Channel.sample(x) is apply(x, noise(n)): one input, with an optional size
for repeated draws, or a batch of inputs with one draw per row.
Channel.noise and Channel.apply expose the two parts, so a caller whose
inputs come later (a population stream) can draw U ahead.  Every step
that does not read x is in U, so apply is a few passes over x:

  linf_maxent    (v,): thresholds (n, d) uniform on [-M, M); Z_j = +M
                 exactly when v_j <= x_j
  l1_maxent      (u, o): rounding uniforms (n,) and tilt offsets (n,) in
                 [0, 2d); apply rounds x to an atom a with u and returns
                 atom a + o of the cycle +M e_0, ..., +M e_d-1, -M e_0, ...
  dp_hypercube   (v, W): thresholds (n, d) uniform on [-L, L) and the
                 shuffled class rows W (n, d) in {+-B}; Z = W where
                 v <= x, -W elsewhere
  dp_l2_sampler  (toward, near, U): rounding thresholds (n,) uniform on
                 [-L, L), cap coins (n,) and directions (n, d) on the unit
                 sphere
  identity       (empty (n, 0),): no randomness; it carries n
  biased_demo    (e,): the +-noise coins (n, d)

The row's pmf gives the laws of a whole batch, over atoms that every row
shares or that move with x; channel_pmf reads it for one input or for a
batch, whose laws over one atom enumeration exact MI, the DP ratio and the
minimax rows read.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import (_CORNER_MAX_D, _CORNER_PAIRS_MAX_D, NormBall, _coin_signs,
                       _corner_index, _corner_matrix, _integer, _signed_basis)

__all__ = [
    "CHANNEL_KINDS",
    "Channel",
    "PrivacyCertificate",
    "SupportPmf",
    "make_channel",
    "channel_pmf",
    "support_index",
    "channel_to_json",
    "channel_from_json",
    "dp_ratio_max",
    "worst_case_mi",
    "binary_entropy",
    "eps_star",
    "l1_gamma",
    "two_level_constants",
]


class SupportPmf(NamedTuple):
    """Finite conditional law: points (k, d) and probs (k,), or probs (R, k)
    for R inputs over shared points."""

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


def _l1_tilt(d: int, L: float, M: float) -> tuple:
    """(gamma, e^gamma, e^-gamma, D) of the l1 channel: its tilt exponent
    at M/L (l1_gamma), the two tilts, and the normalizer of the tilted law,
    D = e^gamma + e^-gamma + 2d - 2."""
    gamma = l1_gamma(d, M / L)
    up, down = math.exp(gamma), math.exp(-gamma)
    return gamma, up, down, up + down + 2 * d - 2


@lru_cache(maxsize=None)
def _threshold_counts(d: int, k: int) -> tuple:
    """(C_d(k), N_d(k)) of the two-level threshold-k channel: C_d(k) counts
    the corners z of {-1, 1}^d with <z, 1> > k, those with fewer than
    ceil((d - k)/2) entries -1, and their sum is N_d(k) times 1."""
    half = math.ceil((d - k) / 2)
    return sum(math.comb(d, i) for i in range(half)), math.comb(d - 1, half - 1)


def eps_star(d: int) -> float:
    """Threshold below which the k = 0 two-level channel is LP-optimal;
    infinite at d = 1, where the two-level family never changes shape."""
    if d < 1:
        raise ValueError("d must be >= 1")
    C, N = _threshold_counts(d, 0)
    K = d * N
    if K == C:
        return math.inf
    return math.log((K + 2**d - C) / (K - C))


def two_level_constants(d: int, eps: float) -> dict:
    """All derived constants of the k = 0 optimally-DP hypercube channel."""
    if not 0.0 < eps < eps_star(d):
        raise ValueError(f"need 0 < eps < eps_star({d}) = {eps_star(d):.6g}")
    C, N = _threshold_counts(d, 0)
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
        "eps_star": eps_star(d),
    }


def _l2_halfsphere_mean(d: int) -> float:
    # E[<U, v>] for U uniform on the unit hemisphere {<u, v> > 0}, d >= 2
    return 2.0 * math.gamma(d / 2.0) / (math.sqrt(math.pi) * (d - 1) * math.gamma((d - 1) / 2.0))


# ---------------------------------------------------------------------------
# input check


_BALL_TOL = 1e-9


def _real(key: str, v) -> float:
    """v as a float; a bool, a string or null is an error, never a number."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{key} must be a number, got {v!r}")
    return float(v)


def _checked_rows(x, d: int, ball: NormBall) -> np.ndarray:
    """x as one input (d,) or a batch (R, d) in C order (so row sums round
    alike for every layout), every row finite and in the source ball; one
    reduction checks both, as NaN survives the norm and the max.  The norms
    are np.linalg.norm's own formulas, without its dispatch."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim > 2 or x.shape[-1] != d:
        raise ValueError(f"expected a vector or rows of dimension {d}, got shape {x.shape}")
    if ball.p == 2:
        top = np.sqrt(np.add.reduce(x * x, axis=-1))
    else:
        top = np.abs(x)
        if ball.p == 1:
            top = np.add.reduce(top, axis=-1)
    top = np.maximum.reduce(top, axis=None)
    L = ball.radius
    if not top <= L * (1.0 + _BALL_TOL) + _BALL_TOL:
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite input")
        raise ValueError(f"input l{ball.p} norm {top:.6g} exceeds source radius {L:.6g}")
    return x


# ---------------------------------------------------------------------------
# draws, in two parts: noise(channel, n, rng) draws the randomness of n draws,
# which does not depend on the input, as a tuple of arrays with leading
# dimension n; apply(channel, x, *noise) maps one checked input x (d,), or
# one input per row (n, d), through it to the draws (n, d)


def _rademacher(rng, shape) -> np.ndarray:
    # -1.0 exactly where the uniform is below 1/2
    s = _coin_signs(rng.random(shape), 0.5)
    return np.negative(s, out=s)


def _linf_noise(ch, n: int, rng) -> tuple:
    # one threshold v_j uniform on [-M, M) per coin: Z_j = +M exactly when
    # v_j <= x_j, which has probability 1/2 + x_j/(2M)
    M = ch.target.radius
    return (rng.uniform(-M, M, (n, ch.d)),)


def _linf_apply(ch, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    z = np.subtract(x, v)
    return np.copysign(ch.target.radius, z, out=z)


def _l1_output_pmf(ch, x: np.ndarray) -> np.ndarray:
    """Law of Z over the 2d atoms, per row of x: round x onto {+-L e_j},
    then resample through the gamma-tilted law on {+-M e_j}."""
    d, L, cal = ch.d, ch.source.radius, ch.calibration
    # mean-preserving rounding: directed mass |x_j|/L plus the leftover
    # 1 - ||x||_1/L spread uniformly (cancels in the mean)
    rem = np.maximum(0.0, 1.0 - np.abs(x).sum(axis=-1, keepdims=True) / L)
    w = np.maximum(np.concatenate([x, -x], axis=-1), 0.0)
    w /= L
    w += rem / (2 * d)
    w /= w.sum(axis=-1, keepdims=True)
    # 1 + (e^g - 1) w + (e^-g - 1) w_mirror, added left to right
    tilted = cal["tilt_up"] * w
    tilted += 1.0
    tilted += cal["tilt_down"] * w[..., cal["mirror"]]
    tilted /= cal["D_gamma"]
    return tilted


def _l1_noise(ch, n: int, rng) -> tuple:
    # the rounding uniform, and the tilt as an offset o along the cycle of
    # the 2d atoms (+M e_0, ..., +M e_d-1, -M e_0, ...): the rounded atom a
    # moves to a + o mod 2d, where o = 0 (keep) has probability e^g/D, o = d
    # (the mirror) e^-g/D and each other offset 1/D, whatever a is.  y
    # uniform on [0, D) falls in a unit cell per other offset, then in the
    # mirror's cell of width e^-g, then in the keep cell
    cal = ch.calibration
    u, y = rng.random((2, n))
    y *= cal["D_gamma"]
    cell = np.minimum(y, 2 * ch.d - 2).astype(np.intp)
    return u, np.where(y < cal["keep_from"], cal["offsets"][cell], 0)


def _l1_apply(ch, x: np.ndarray, u: np.ndarray, o: np.ndarray) -> np.ndarray:
    # the rounding law as a running total over the atoms: the positive parts
    # of x and -x, plus the leftover L - ||x||_1 spread evenly
    cal = ch.calibration
    c = np.concatenate((x, -x), axis=-1)
    np.maximum(c, 0.0, out=c)
    np.add.accumulate(c, axis=-1, out=c)
    c += cal["ramp"] * np.maximum(ch.source.radius - c[..., -1:], 0.0)
    # the rounded atom a: the number of cut points at or below u times the total
    t = u * c[..., -1]
    if x.ndim == 1:  # one running total for every draw
        a = c[:-1].searchsorted(t, side="right")
    else:
        a = (c[:, :-1] <= t[:, None]).sum(axis=1)
    return cal["atom_cycle"].take(a + o, axis=0)


def _two_level_noise(ch, n: int, rng) -> tuple:
    # one block of d + 1 thresholds per row, uniform on [-L, L): the last
    # picks the agreement class k from its exact cdf (no rejection), so W is
    # k entries +B and d - k entries -B, shuffled per row; the other d round
    # x to a corner, T_j = +1 exactly when v_j <= x_j
    d, L, B = ch.d, ch.source.radius, ch.target.radius
    v = rng.uniform(-L, L, (n, d + 1))
    k = np.searchsorted(ch.calibration["class_cuts"], v[:, d:], side="right")
    W = np.where(np.arange(d) < k, B, -B)
    rng.permuted(W, axis=1, out=W)
    return v[:, :d], W


def _two_level_apply(ch, x: np.ndarray, v: np.ndarray, W: np.ndarray) -> np.ndarray:
    # Z = W T: the sign of (x - v) W, at magnitude B
    z = np.subtract(x, v)
    z *= W
    return np.copysign(ch.target.radius, z, out=z)


def _l2_noise(ch, n: int, rng) -> tuple:
    # the rounding threshold, uniform on [-L, L); the cap coin (near with
    # probability pi_eps); a uniform direction on the unit sphere
    L = ch.source.radius
    toward = rng.uniform(-L, L, n)
    near = rng.random(n) < ch.calibration["pi_eps"]
    G = rng.standard_normal((n, ch.d))
    return toward, near, G / np.sqrt((G * G).sum(axis=1, keepdims=True))


def _l2_apply(ch, x: np.ndarray, toward: np.ndarray, near: np.ndarray,
              U: np.ndarray) -> np.ndarray:
    # round each row to +-u, u = x/||x||_2, with P(+u) = 1/2 + ||x||_2/(2L);
    # then the draw is uniform on the radius-B cap {<z, +-u> > 0} when near,
    # on the opposite cap otherwise: the cap around +u exactly when
    # (toward <= ||x||_2) == near, so U flips when its sign <U, x> < 0
    # disagrees.  At the origin <U, x> is 0 and the cap is a fair coin, so
    # the draw is uniform on the sphere, the law of every pole.
    nrm = np.sqrt(np.vecdot(x, x))
    flip = (np.vecdot(U, x) < 0.0) == ((toward <= nrm) == near)
    B = ch.target.radius
    return np.where(flip, -B, B)[:, None] * U


def _identity_noise(ch, n: int, rng) -> tuple:
    return (np.empty((n, 0)),)  # draws nothing; carries n


def _identity_apply(ch, x: np.ndarray, empty: np.ndarray) -> np.ndarray:
    return np.broadcast_to(x, (len(empty), ch.d)).copy()


def _biased_noise(ch, n: int, rng) -> tuple:
    return (ch.calibration["noise"] * _rademacher(rng, (n, ch.d)),)


def _biased_apply(ch, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    return x + np.asarray(ch.calibration["bias"]) + e


# ---------------------------------------------------------------------------
# exact pmfs at a checked batch X (R, d), in the form _Kind.pmf states

_JOINT_GUARD = 10**7
# support atoms are exact multiples of the calibrated magnitudes, so rounding
# them to this many decimals only absorbs the float noise of equal computations
_SUPPORT_DECIMALS = 12


def _joint_guard(rows: int, cols: int) -> None:
    if rows * cols > _JOINT_GUARD:
        raise ValueError("joint support exceeds enumeration guard")


def _product_corners(d: int, rows: int) -> np.ndarray:
    if d > _CORNER_MAX_D:
        raise ValueError("support too large to enumerate")
    _joint_guard(rows, 2**d)
    return _corner_matrix(d)


def _coin_law(X: np.ndarray, M: float) -> np.ndarray:
    """(R, 2^d) law of the coins P(Z_j = +M) = 1/2 + x_j/(2M) per row of X,
    over the corners in _corner_matrix order."""
    s = X / (2.0 * M)
    signs = np.array([-1.0, 1.0])
    # coin j is bit d - 1 - j of a corner's index, so doubling the width once
    # per coin multiplies each entry's factors left to right: np.prod's bits,
    # without an (R, 2^d, d) array
    p = 0.5 + signs * s[:, :1]
    for j in range(1, X.shape[1]):
        p = (p[:, :, None] * (0.5 + signs * s[:, j:j + 1])[:, None, :]).reshape(len(X), -1)
    return p


def _linf_pmf(ch, X: np.ndarray) -> tuple:
    M = ch.target.radius
    corners = _product_corners(ch.d, len(X))
    return M * corners, _coin_law(X, M)


def _l1_pmf(ch, X: np.ndarray) -> tuple:
    _joint_guard(len(X), 2 * ch.d)
    return ch.calibration["atoms"], _l1_output_pmf(ch, X)


def _two_level_pmf(ch, X: np.ndarray) -> tuple:
    L, cal = ch.source.radius, ch.calibration
    corners = _product_corners(ch.d, len(X))
    # a corner input (every |x_j| within 1e-12 L of L) has the class law of its signs
    inner = np.flatnonzero(np.any(np.abs(np.abs(X) - L) >= 1e-12 * L, axis=1))
    if inner.size and ch.d > _CORNER_PAIRS_MAX_D:
        raise ValueError(f"interior-input mixture needs d <= {_CORNER_PAIRS_MAX_D}")
    levels = lambda agree: np.where(agree > 0.0, cal["q_plus"], cal["q_minus"])
    probs = levels(np.sign(X) @ corners.T)
    if inner.size:  # mix the corner laws by the rounding law; a matmul would reorder the sum
        mix = levels(corners @ corners.T)
        for r, w in zip(inner, _coin_law(X[inner], L)):
            probs[r] = (mix * w).sum(axis=1)
    return ch.target.radius * corners, probs


def _identity_pmf(ch, X: np.ndarray) -> tuple:
    return X[:, None, :].copy(), np.ones((len(X), 1))


def _biased_pmf(ch, X: np.ndarray) -> tuple:
    corners = _product_corners(ch.d, len(X))
    pts = (X + np.asarray(ch.calibration["bias"]))[:, None, :] + ch.calibration["noise"] * corners
    return pts, np.full((len(X), len(corners)), 1.0 / len(corners))


# ---------------------------------------------------------------------------
# support indices: for draws Z (n, d) at one checked input x, the index of
# each draw among the pmf's points at x, read from the draw alone.  A draw
# off the support still gets an index in range, so a caller can check it
# against its point.


def _sign_index(ch, x: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return _corner_index(Z > 0.0)  # the points are B times the sign corners


def _l1_index(ch, x: np.ndarray, Z: np.ndarray) -> np.ndarray:
    # the axis j and the sign: +M e_j is atom j, -M e_j is atom d + j.  An
    # atom has one nonzero entry, so both sums are exact for it; fmin keeps
    # the index of any other draw in range
    d = ch.d
    j = np.fmin((Z != 0.0) @ np.arange(float(d)), d - 1).astype(np.intp)
    return j + d * (Z @ np.ones(d) < 0.0)


def _identity_index(ch, x: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return np.zeros(len(Z), dtype=np.intp)


def _biased_index(ch, x: np.ndarray, Z: np.ndarray) -> np.ndarray:
    # the noise corner of z - (x + bias): coordinate j is +1 exactly when z_j
    # is the point x_j + bias_j + noise, computed as the draw and the pmf do
    c = x + np.asarray(ch.calibration["bias"])
    return _corner_index(Z == c + ch.calibration["noise"])


# ---------------------------------------------------------------------------
# exact conditional means E[Z | x] at a checked batch X (R, d), from the law
# parameters the draws use; no enumeration, so every d


def _linf_mean(ch, X: np.ndarray) -> np.ndarray:
    M = ch.target.radius
    return M * (2.0 * (0.5 + X / (2.0 * M)) - 1.0)


def _l1_mean(ch, X: np.ndarray) -> np.ndarray:
    return _l1_output_pmf(ch, X) @ ch.calibration["atoms"]


def _two_level_mean(ch, X: np.ndarray) -> np.ndarray:
    # E[W_j] = B t with t = sum_k P(class k) (2k - d)/d over the class cdf the
    # draw reads; the rounding to a corner T has E[T] = x/L
    d, cal = ch.d, ch.calibration
    t = np.diff(cal["class_cdf"], prepend=0.0) @ ((2.0 * np.arange(d + 1) - d) / d)
    return ch.target.radius * t * X / ch.source.radius


def _l2_mean(ch, X: np.ndarray) -> np.ndarray:
    # each cap has mean +-B c_d times its pole, and the pole +-u has mean x/L
    cal, B = ch.calibration, ch.target.radius
    return B * (2.0 * cal["pi_eps"] - 1.0) * cal["halfsphere_mean"] * X / ch.source.radius


def _identity_mean(ch, X: np.ndarray) -> np.ndarray:
    return X.copy()  # X may be the caller's own array


def _biased_mean(ch, X: np.ndarray) -> np.ndarray:
    return X + np.asarray(ch.calibration["bias"])  # the +-noise coins cancel


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
    gamma, up, down, D = _l1_tilt(d, L, M)
    return math.log(2 * d) - math.log(D) + gamma * (up - down) / D


# ---------------------------------------------------------------------------
# calibrations; p is the norm index of both the source and the target ball


def _linf_calibration(d: int, L: float, M, *_) -> tuple:
    if M < L:
        raise ValueError("linf_maxent needs M >= L")
    return np.inf, float(M), {}


def _l1_calibration(d: int, L: float, M, *_) -> tuple:
    if M <= L:
        raise ValueError("l1_maxent needs M > L")
    gamma, up, down, D = _l1_tilt(d, L, M)
    atoms = float(M) * _signed_basis(d)
    cycle = np.vstack([atoms, atoms])  # row a + o is atom a + o mod 2d
    # the tilt offset of each cell of [0, D): the 2d - 2 other offsets, then
    # the mirror d (up to keep_from), then keep 0
    offsets = np.r_[1:d, d + 1:2 * d, d]
    ramp = np.arange(1, 2 * d + 1) / (2 * d)  # leftover share of atoms 0..k
    for a in (atoms, cycle, offsets, ramp):
        a.setflags(write=False)
    return 1, float(M), {
        "gamma": gamma,
        "D_gamma": D,
        "tilt_up": up - 1.0,
        "tilt_down": down - 1.0,
        "mirror": np.r_[d:2 * d, 0:d],  # atom +-M e_j <-> -+M e_j
        "atoms": atoms,
        "atom_cycle": cycle,
        "offsets": offsets,
        "keep_from": 2 * d - 2 + down,
        "ramp": ramp,
    }


def _two_level_calibration(d: int, L: float, eps, *_) -> tuple:
    q = two_level_constants(d, eps)
    # cdf of the agreement class k = #{i: W_i = +1}, of mass C(d, k) q+ for
    # 2k > d and C(d, k) q- otherwise, with e^eps = num/den exactly: summed
    # in integers and rounded once (int / int is correctly rounded), so the
    # last entry is 1.0
    num, den = math.exp(eps).as_integer_ratio()
    sizes = [math.comb(d, k) * (num if 2 * k > d else den) for k in range(d + 1)]
    total = sum(sizes)
    cdf = np.array([c / total for c in itertools.accumulate(sizes)])
    # the same cut points on the draw's threshold scale [-L, L), without the
    # final one, so a threshold picks a class k <= d
    cuts = 2.0 * L * cdf[:-1] - L
    for a in (cdf, cuts):
        a.setflags(write=False)
    return np.inf, L / q["t"], {"q_plus": q["q_plus"], "q_minus": q["q_minus"],
                                "class_cdf": cdf, "class_cuts": cuts}


def _l2_calibration(d: int, L: float, eps, *_) -> tuple:
    if eps <= 0.0:
        raise ValueError("dp_l2_sampler needs eps > 0")
    if d < 2:
        raise ValueError("dp_l2_sampler needs d >= 2")
    e = math.exp(eps)
    c_d = _l2_halfsphere_mean(d)
    cal = {"pi_eps": e / (e + 1.0), "halfsphere_mean": c_d}
    return 2, L * (e + 1.0) / ((e - 1.0) * c_d), cal


def _identity_calibration(d: int, L: float, *_) -> tuple:
    return np.inf, L, {}


def _biased_calibration(d: int, L: float, _, bias, noise) -> tuple:
    # each entry of bias passes _real, so a bool or a string is refused
    b = np.asarray(0.0 if bias is None else bias, dtype=object)
    vals = np.array([_real("bias", v) for v in b.flat]).reshape(b.shape)
    bias_vec = np.broadcast_to(vals, (d,))
    nse = L if noise is None else _real("noise", noise)
    reach = L + float(np.max(np.abs(bias_vec))) + nse
    return np.inf, reach, {"bias": tuple(float(b) for b in bias_vec), "noise": nse}


# ---------------------------------------------------------------------------
# the kind table


class _Kind(NamedTuple):
    budget: Optional[str]  # "M", "eps", or None for the non-private kinds
    calibrate: Callable  # (d, L, budget value, bias, noise) -> (p, target radius, calibration)
    noise: Callable  # (channel, n, rng) -> tuple of arrays with leading dimension n
    apply: Callable  # (channel, x, *noise) -> (n, d)
    # (channel, X (R, d)) -> (points, probs (R, k)), points (k, d) when every row
    # shares them, else (R, k, d); None if continuous
    pmf: Optional[Callable]
    index: Optional[Callable]  # (channel, x (d,), Z (n, d)) -> each draw's pmf point at x (n,)
    mean: Callable  # (channel, X (R, d)) -> exact E[Z | x] per row (R, d), at every d
    worst_mi: Optional[Callable] = None  # (d, L, M) -> nats, for the M budget only


_KINDS = {
    "linf_maxent": _Kind("M", _linf_calibration, _linf_noise, _linf_apply, _linf_pmf,
                         _sign_index, _linf_mean, _linf_worst_mi),
    "l1_maxent": _Kind("M", _l1_calibration, _l1_noise, _l1_apply, _l1_pmf, _l1_index,
                       _l1_mean, _l1_worst_mi),
    "dp_hypercube": _Kind("eps", _two_level_calibration, _two_level_noise, _two_level_apply,
                          _two_level_pmf, _sign_index, _two_level_mean),
    "dp_l2_sampler": _Kind("eps", _l2_calibration, _l2_noise, _l2_apply, None, None,
                           _l2_mean),
    "identity": _Kind(None, _identity_calibration, _identity_noise, _identity_apply,
                      _identity_pmf, _identity_index, _identity_mean),
    "biased_demo": _Kind(None, _biased_calibration, _biased_noise, _biased_apply, _biased_pmf,
                         _biased_index, _biased_mean),
}
CHANNEL_KINDS = tuple(_KINDS)


def _kind(kind) -> _Kind:
    """The table row of a channel kind; ValueError for any other value."""
    if kind not in CHANNEL_KINDS:  # a tuple, so an unhashable kind is refused too
        raise ValueError(f"unknown channel kind {kind!r}")
    return _KINDS[kind]


# ---------------------------------------------------------------------------
# channel objects


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable calibrated channel.

    privacy_param is M (maxent kinds), eps (dp kinds), or +inf for the
    non-private kinds; budget names which.  target.radius bounds the
    outputs, and is their magnitude B for a private kind.  calibration holds
    the other derived constants (gamma, q_plus/q_minus, pi_eps, ...).
    """

    kind: str
    d: int
    source: NormBall
    target: NormBall
    privacy_param: float
    calibration: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _kind(self.kind)

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
        return self.budget == "eps" and self.has_pmf and self.d <= _CORNER_PAIRS_MAX_D

    def noise(self, n: int, rng=None) -> tuple:
        """The randomness of n draws, which does not depend on the input: a
        tuple of arrays with leading dimension n, drawn from rng (anything
        np.random.default_rng takes) in the order that sample draws it."""
        return _KINDS[self.kind].noise(self, _integer("n", n), np.random.default_rng(rng))

    def apply(self, x, noise: tuple) -> np.ndarray:
        """The draws (n, d) that noise(n, ...) gives at x: n draws at one
        input x (d,), or one draw per row of X (n, d).  x takes the check
        of sample."""
        x = _checked_rows(x, self.d, self.source)
        if x.ndim == 2 and len(x) != len(noise[0]):
            raise ValueError(f"{len(x)} input rows for {len(noise[0])} noise rows")
        return _KINDS[self.kind].apply(self, x, *noise)

    def mean(self, x) -> np.ndarray:
        """Exact E[Z | x] without a draw, at every d: (d,) at one input x,
        (R, d) for a batch.  x takes the check of sample."""
        x = _checked_rows(x, self.d, self.source)
        return _KINDS[self.kind].mean(self, x.reshape(-1, self.d)).reshape(x.shape)

    def sample(self, x, rng=None, size=None) -> np.ndarray:
        """Draw Z given x: shape (d,), or (size, d) for size draws at x.

        Every kind also takes X of shape (R, d): one draw per row, in the
        rng order of sample(x, size=R) when every row is x.  Each input
        must be finite and in the source ball; size with a batch raises
        ValueError.  The draws are apply(x, noise(n, rng)).
        """
        gen = np.random.default_rng(rng)
        x = _checked_rows(x, self.d, self.source)
        if x.ndim == 2 and size is not None:
            raise ValueError("pass a batch of inputs or size, not both")
        n = len(x) if x.ndim == 2 else 1 if size is None else _integer("size", size)
        row = _KINDS[self.kind]
        z = row.apply(self, x, *row.noise(self, n, gen))
        return z[0] if x.ndim == 1 and size is None else z


def make_channel(
    kind: str,
    d: int,
    L: float = 1.0,
    M: float | None = None,
    eps: float | None = None,
    bias=None,
    noise: float | None = None,
) -> Channel:
    """Construct and calibrate a channel.

    Maxent kinds take M (the output magnitude); dp kinds take eps.
    dp_hypercube requires eps < eps_star(d); at or beyond the
    threshold the k = 0 closed form is no longer the LP optimum, so the
    construction refuses rather than silently degrade.
    """
    row = _kind(kind)
    d = _integer("d", d)  # an int: a numpy integer would not serialise to JSON
    if d < 1:
        raise ValueError("d must be >= 1")
    if L <= 0.0:
        raise ValueError("L must be positive")
    value = {"M": M, "eps": eps}.get(row.budget)
    if row.budget is not None and value is None:
        raise ValueError(f"{kind} needs {row.budget}")
    p, reach, cal = row.calibrate(d, L, value, bias, noise)
    param = math.inf if row.budget is None else float(value)
    return Channel(kind, d, NormBall(p, L), NormBall(p, reach), param, cal)


# ---------------------------------------------------------------------------
# exact pmfs, ratio checks and the worst-case MI


def _first_appearance(a: np.ndarray) -> tuple:
    """Distinct rows of a (m, d), compared with == (so 0.0 and -0.0 are one
    row), numbered in order of first appearance: returns (first, col), where
    a[first[j]] is the first row of group j and row i belongs to group
    col[i]."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    heads = order[new]  # the sort is stable, so each group's first row leads it
    rank = np.argsort(heads, kind="stable")
    col = np.empty(len(a), dtype=np.intp)
    col[order] = np.argsort(rank)[np.cumsum(new) - 1]
    return heads[rank], col


def _kind_pmf(ch: Channel, x) -> tuple:
    """x after the check of Channel.sample, and the kind's pmf at its rows:
    (x, points, probs (R, k)) in the form _Kind.pmf states."""
    pmf = _KINDS[ch.kind].pmf
    if pmf is None:
        raise ValueError(f"{ch.kind} has continuous support; no exact pmf")
    x = _checked_rows(x, ch.d, ch.source)
    return (x,) + pmf(ch, x.reshape(-1, ch.d))


def channel_pmf(ch: Channel, x) -> SupportPmf:
    """Exact conditional law of Z given x, for the kinds with finite support.

    x takes the same check as Channel.sample.  One input x (d,) gives
    points (k, d) and probs (k,), which sum to 1 to 1e-12 with a mean
    within 1e-10 of x.  A batch X (R, d) gives the R laws over one shared
    enumeration: points (k, d), rounded to _SUPPORT_DECIMALS, merged with == and
    numbered in order of first appearance, and probs (R, k).  R k over 10^7
    raises before the kind's batch law is built, R times the merged count
    before the matrix; dp interior inputs need d <= 10, corners d <= 20.
    """
    x, points, probs = _kind_pmf(ch, x)
    R, k = probs.shape
    if x.ndim == 1:
        return SupportPmf(points.reshape(-1, ch.d)[:k], probs[0])
    flat = np.round(points.reshape(-1, ch.d), _SUPPORT_DECIMALS)
    first, col = _first_appearance(flat)
    _joint_guard(R, len(first))
    # one bincount over the flat (row, column) index adds each probability
    # to 0.0 in input order, as np.add.at did
    m = len(first)
    cells = (np.arange(R)[:, None] * m + col.reshape(-1, k)).ravel()
    out = np.bincount(cells, weights=probs.ravel(), minlength=R * m).reshape(R, m)
    return SupportPmf(flat[first], out)


def _pmf_points(ch: Channel, X) -> list:
    """The points of the exact law at each input row of X (R, d), unmerged
    and numbered as support_index numbers them at that row: one (k, d)
    array per row.  X takes the check of Channel.sample.  A kind whose
    points every row shares builds its law at the first row only; the
    others build it row by row, so the enumeration guard sees one row."""
    X = _checked_rows(X, ch.d, ch.source).reshape(-1, ch.d)
    first = _kind_pmf(ch, X[:1])[1]
    if first.ndim == 2:  # (k, d), shared by every row
        return [first] * len(X)
    return [_kind_pmf(ch, x)[1][0] for x in X]


def support_index(ch: Channel, x, Z) -> np.ndarray:
    """The index (n,) of each draw Z (n, d) at one input x among
    channel_pmf(ch, x).points, read from the draw alone: its signs for the
    sign-cube kinds, its axis and sign for l1_maxent, its noise corner for
    biased_demo, 0 for identity.  Each index is in range even when a draw
    is not one of the points, so compare Z with points[index] to check.
    x takes the check of Channel.sample."""
    index = _KINDS[ch.kind].index
    if index is None:
        raise ValueError(f"{ch.kind} has continuous support; no support index")
    x = _checked_rows(x, ch.d, ch.source)
    if x.ndim != 1:
        raise ValueError("support_index takes one input x (d,)")
    return index(ch, x, np.asarray(Z, dtype=float).reshape(-1, ch.d))


def dp_ratio_max(ch: Channel) -> float:
    """max over outputs and over pairs of the 2^d corner inputs (the extreme
    points, where the sup is attained) of the conditional pmf ratio;
    ValueError unless ch.exact_dp_ratio."""
    if not ch.exact_dp_ratio:
        raise ValueError(f"dp_ratio_max needs a finite-support dp kind at d <= {_CORNER_PAIRS_MAX_D}")
    probs = channel_pmf(ch, ch.source.radius * _corner_matrix(ch.d)).probs
    return float(np.max(probs.max(axis=0) / probs.min(axis=0)))


def worst_case_mi(kind: str, d: int, L: float, M: float) -> float:
    """Worst-case (saddle-point) MI in nats of an M-budget kind at dimension
    d, source radius L and magnitude M; ValueError for the other kinds, for
    a d that is not an integer >= 1, an L or M that is not positive, and an
    M below the kind's edge."""
    worst_mi = _KINDS[kind].worst_mi if kind in _KINDS else None
    if worst_mi is None:
        raise ValueError(f"no closed form for kind {kind!r}")
    if _integer("d", d) < 1 or not (L > 0.0 and M > 0.0):
        raise ValueError("need d >= 1 and positive L, M")
    return worst_mi(d, L, M)


# ---------------------------------------------------------------------------
# the channel document: a certify config, and the channel block certify prints


def channel_to_json(ch: Channel) -> str:
    """The channel document: kind, d and L; the budget under its own name,
    M or eps, for the kinds that have one; bias and noise for biased_demo."""
    doc = {"kind": ch.kind, "d": ch.d, "L": ch.source.radius}
    if ch.budget is not None:
        doc[ch.budget] = ch.privacy_param
    if "bias" in ch.calibration:
        doc["bias"] = list(ch.calibration["bias"])
        doc["noise"] = ch.calibration["noise"]
    return json.dumps(doc, sort_keys=True)


def channel_from_json(doc) -> Channel:
    """The channel a document (a dict or its JSON text) describes, read by
    the keys channel_to_json writes: kind, d, L (default 1.0), the kind's
    budget M or eps, bias and noise (default: none and L).  Other keys are
    ignored.  A missing kind, d or budget raises KeyError; a bool, string
    or null where a number goes raises ValueError."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    kind = doc["kind"]
    budget = _kind(kind).budget
    extra = {} if budget is None else {budget: _real(budget, doc[budget])}
    return make_channel(kind, doc["d"], L=_real("L", doc.get("L", 1.0)),
                        bias=doc.get("bias"), noise=doc.get("noise"), **extra)
