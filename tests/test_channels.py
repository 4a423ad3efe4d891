"""Channel calibration, exact pmfs, privacy ratios, sampler behavior."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privopt import channels
from privopt.channels import (
    CHANNEL_KINDS,
    _coin_law,
    _l1_output_pmf,
    channel_from_json,
    channel_pmf,
    channel_to_json,
    dp_ratio_max,
    eps_star,
    l1_gamma,
    make_channel,
    support_index,
    two_level_constants,
)
from privopt.geometry import _corner_matrix
from privopt.losses import DataDist, dist_support, make_loss
from privopt.protocol import PrivateGradStream, query

PERTURBING = ("linf_maxent", "l1_maxent", "dp_hypercube", "dp_linf_sampler", "dp_l2_sampler")


def _mk(kind, d, L=1.0):
    if kind in ("linf_maxent", "l1_maxent"):
        return make_channel(kind, d, L=L, M=3.0 * L)
    if kind == "identity":
        return make_channel(kind, d, L=L)
    if kind == "biased_demo":
        return make_channel(kind, d, L=L, bias=(0.25,) * d)
    return make_channel(kind, d, L=L, eps=0.8)


def _input_for(ch, rng):
    d, L = ch.d, ch.source.radius
    if ch.kind == "l1_maxent":
        x = rng.uniform(-1, 1, size=d)
        return 0.9 * L * x / max(1.0, np.abs(x).sum())
    if ch.kind == "dp_l2_sampler":
        x = rng.standard_normal(d)
        return 0.9 * L * x / np.linalg.norm(x)
    return rng.uniform(-L, L, size=d)


def _corner_for(ch, rng):
    # an extreme point of the source ball: a signed basis vector for l1,
    # a sign corner otherwise
    d, L = ch.d, ch.source.radius
    if ch.kind == "l1_maxent":
        return L * rng.choice([-1.0, 1.0]) * np.eye(d)[rng.integers(d)]
    return L * rng.choice([-1.0, 1.0], size=d)


# ---------------------------------------------------------------------------
# calibration identities


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("eps", [0.1, 0.3, 0.43])
def test_two_level_constants_identities(d, eps):
    c = two_level_constants(d, eps)
    # pmf normalization over the 2^d corners, exact by construction
    total = c["C_d"] * c["q_plus"] + (2**d - c["C_d"]) * c["q_minus"]
    assert total == pytest.approx(1.0, abs=1e-14)
    assert c["q_plus"] / c["q_minus"] == pytest.approx(math.exp(eps), rel=1e-13)
    assert c["K_d"] == d * c["N_d"]
    assert c["t"] == pytest.approx((c["q_plus"] - c["q_minus"]) * c["N_d"], rel=1e-13)
    assert 0.0 < c["t"] < 1.0


def _class_masses(d: int, eps: float) -> np.ndarray:
    # the agreement class k = #{i: W_i = +1} has mass C(d, k) q+ for 2k > d,
    # C(d, k) q- otherwise
    c = two_level_constants(d, eps)
    return np.array([math.comb(d, k) * (c["q_plus"] if 2 * k > d else c["q_minus"])
                     for k in range(d + 1)])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 33])
@pytest.mark.parametrize("eps", [0.1, 0.3, 0.43])
def test_two_level_class_cdf(d, eps):
    cdf = make_channel("dp_hypercube", d, eps=eps).calibration["class_cdf"]
    assert cdf.shape == (d + 1,) and not cdf.flags.writeable
    assert np.max(np.abs(np.diff(cdf, prepend=0.0) - _class_masses(d, eps))) <= 1e-15
    assert cdf[-1] == 1.0


def test_eps_star_values():
    # paired thresholds: adding the odd coordinate does not move the cutoff
    assert math.isinf(eps_star(1))
    assert eps_star(2) == pytest.approx(math.log(5.0), rel=1e-14)
    assert eps_star(3) == pytest.approx(math.log(5.0), rel=1e-14)
    assert eps_star(4) == pytest.approx(math.log(23.0 / 7.0), rel=1e-14)
    assert eps_star(5) == pytest.approx(math.log(23.0 / 7.0), rel=1e-14)
    assert eps_star(6) == pytest.approx(math.log(51.0 / 19.0), rel=1e-14)
    # decreasing in d (within each parity pair it is flat)
    vals = [eps_star(d) for d in range(2, 40)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_threshold_counts_match_the_corners_and_their_closed_forms():
    # C_d(k) counts the corners z with <z, 1> > k and N_d(k) 1 is their sum,
    # for every even 0 <= k <= 2 ceil(d/2) - 2: by enumeration up to d = 10,
    # and by the closed forms up to d = 24
    for d in range(1, 25):
        Z = _corner_matrix(d) if d <= 10 else None
        for k in range(0, 2 * math.ceil(d / 2) - 1, 2):
            half = math.ceil((d - k) / 2)
            C, N = channels._threshold_counts(d, k)
            assert (C, N) == (sum(math.comb(d, i) for i in range(half)),
                              math.comb(d - 1, half - 1)), (d, k)
            if Z is not None:
                above = Z[Z.sum(axis=1) > k]
                assert len(above) == C and np.all(above.sum(axis=0) == N), (d, k)


def test_dp_construction_refuses_eps_at_or_above_star():
    for d in (2, 3, 4, 8):
        star = eps_star(d)
        make_channel("dp_hypercube", d, eps=star * 0.999)
        with pytest.raises(ValueError):
            make_channel("dp_hypercube", d, eps=star)
        with pytest.raises(ValueError):
            make_channel("dp_linf_sampler", d, eps=star * 1.01)


def test_make_channel_validation():
    with pytest.raises(ValueError):
        make_channel("unknown", 2)
    with pytest.raises(ValueError):
        make_channel("linf_maxent", 2, L=1.0, M=0.5)
    with pytest.raises(ValueError):
        make_channel("l1_maxent", 2, L=1.0, M=1.0)  # strict M > L
    with pytest.raises(ValueError):
        make_channel("dp_hypercube", 2)
    with pytest.raises(ValueError):
        make_channel("dp_l2_sampler", 1, eps=0.5)
    with pytest.raises(ValueError):
        make_channel("linf_maxent", 0, M=2.0)
    # d must be an integer, not a float or a bool
    for kind, d, kw in (("linf_maxent", 2.5, {"M": 2.0}), ("linf_maxent", True, {"M": 2.0}),
                        ("dp_hypercube", 3.0, {"eps": 0.5})):
        with pytest.raises(ValueError, match="integer"):
            make_channel(kind, d, **kw)
    assert make_channel("linf_maxent", np.int64(2), M=2.0).d == 2


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("m", [1.5, 2.0, 10.0, 100.0])
def test_l1_gamma_solves_calibration_identity(d, m):
    g = l1_gamma(d, m)
    residual = (math.exp(g) - math.exp(-g)) / (math.exp(g) + math.exp(-g) + 2 * d - 2) - 1.0 / m
    assert abs(residual) <= 1e-12


# ---------------------------------------------------------------------------
# exact conditional pmfs


@given(st.sampled_from(["linf_maxent", "l1_maxent", "dp_hypercube", "dp_linf_sampler"]),
       st.integers(1, 6), st.integers(0, 10**6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_pmf_is_unbiased_distribution(kind, d, seed, rows):
    rng = np.random.default_rng(seed)
    ch = _mk(kind, d)
    x = _input_for(ch, rng)
    pts, probs = channel_pmf(ch, x)
    assert np.all(probs >= -1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(probs @ pts - x)) <= 1e-10
    # a batch of corner and interior rows: each row is the law of its own input
    X = np.array([_corner_for(ch, rng) if rng.random() < 0.5 else _input_for(ch, rng)
                  for _ in range(rows)])
    pts, probs = channel_pmf(ch, X)
    assert probs.shape == (rows, len(pts)) and np.all(probs >= -1e-15)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(probs @ pts - X)) <= 1e-10


@pytest.mark.parametrize("kind", ["dp_hypercube", "dp_linf_sampler"])
def test_two_level_pmf_near_corner_and_at_tiny_radius(kind):
    cases = (
        # within the corner tolerance of a corner: the class law of the signs
        # of x, so the probs sum to 1 and the mean is the corner, 1e-13 from x
        (make_channel(kind, 2, eps=0.5), np.array([1.0, -(1.0 - 1e-13)])),
        # at L = 1e-13 the origin is interior, not within 1e-12 of a corner
        (make_channel(kind, 3, L=1e-13, eps=0.5), np.zeros(3)),
    )
    for ch, x in cases:
        pts, probs = channel_pmf(ch, x)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(probs @ pts - x)) <= 1e-10 * ch.source.radius
        pts, probs = channel_pmf(ch, np.vstack([x, -x]))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def test_pmf_identity_and_biased():
    x = np.array([0.3, -0.2])
    pts, probs = channel_pmf(make_channel("identity", 2), x)
    assert probs.tolist() == [1.0] and np.allclose(pts[0], x)
    ch = make_channel("biased_demo", 2, bias=(0.5, -0.5))
    pts, probs = channel_pmf(ch, x)
    mean = probs @ pts
    assert np.allclose(mean, x + np.array([0.5, -0.5]), atol=1e-12)


def _dict_keyed_rows(ch, inputs):
    """The batch law as first written: one channel_pmf per input, each atom
    keyed by its 12-decimal rounded tuple in a dict, so columns follow first
    appearance and == merges 0.0 with -0.0.  Returns (points, probs)."""
    col_of = {}
    rows = []
    for x in inputs:
        pmf = channel_pmf(ch, x)
        entries = []
        for z, w in zip(pmf.points, pmf.probs):
            key = tuple(np.round(z, 12).tolist())
            entries.append((col_of.setdefault(key, len(col_of)), w))
        rows.append(entries)
    mat = np.zeros((len(inputs), len(col_of)))
    for i, entries in enumerate(rows):
        for j, w in entries:
            mat[i, j] += w
    return np.array(list(col_of)), mat


FINITE_KINDS = [k for k in CHANNEL_KINDS if k != "dp_l2_sampler"]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8])
@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_batch_pmf_matches_dict_keyed_rows(kind, d):
    ch = _mk(kind, d)
    rng = np.random.default_rng(d)
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).T.reshape(-1, d)
    if kind == "l1_maxent":
        corners = np.vstack([np.eye(d), -np.eye(d)])
    interior = np.array([_input_for(ch, rng) for _ in range(7)])
    interior[0] = 0.0
    interior[1] = -0.0
    for X in (corners, interior, np.vstack([interior, corners])):
        points, probs = channel_pmf(ch, X)
        ref_points, ref_probs = _dict_keyed_rows(ch, X)
        assert probs.shape == (len(X), len(points))
        assert probs.tobytes() == ref_probs.tobytes()
        assert points.tobytes() == ref_points.tobytes()


def test_batch_pmf_edge_cases():
    ch = make_channel("identity", 1)
    # 0.0 and -0.0 are one atom, which keeps the sign it first appeared with
    points, probs = channel_pmf(ch, np.array([[-0.0], [0.0], [0.5]]))
    assert points.tolist() == [[0.0], [0.5]] and math.copysign(1.0, points[0, 0]) < 0
    assert probs.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    # a one-row batch keeps its batch shape; a single input keeps its own
    ch = make_channel("linf_maxent", 3, M=2.0)
    x = np.array([0.5, -0.25, 0.0])
    one = channel_pmf(ch, x)
    batch = channel_pmf(ch, x[None, :])
    assert one.points.shape == (8, 3) and one.probs.shape == (8,)
    assert batch.points.shape == (8, 3) and batch.probs.shape == (1, 8)
    assert batch.probs[0].tobytes() == one.probs.tobytes()
    # the guard on R x k holds before the (R, k) matrix is allocated
    ch = make_channel("biased_demo", 8, bias=0.2, noise=0.5)
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 8)).T.reshape(-1, 8)
    with pytest.raises(ValueError, match="joint support exceeds enumeration guard"):
        channel_pmf(ch, corners)


def _l1_law_reference(ch, x):
    """The l1_maxent output law as first written: separate positive and
    negative parts, a concatenated mirror and out-of-place arithmetic."""
    d, L, gamma = ch.d, ch.source.radius, ch.calibration["gamma"]
    rem = np.maximum(0.0, 1.0 - np.abs(x).sum(axis=-1, keepdims=True) / L)
    w = np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)], axis=-1) / L + rem / (2 * d)
    w = w / w.sum(axis=-1, keepdims=True)
    w_mirror = np.concatenate([w[..., d:], w[..., :d]], axis=-1)
    tilted = 1.0 + (math.exp(gamma) - 1.0) * w + (math.exp(-gamma) - 1.0) * w_mirror
    return tilted / ch.calibration["D_gamma"]


@pytest.mark.parametrize("d", [1, 4, 16])
def test_l1_output_law_matches_first_formula_bitwise(d):
    ch = make_channel("l1_maxent", d, L=1.5, M=4.0)
    rng = np.random.default_rng(d)
    corners = 1.5 * np.vstack([np.eye(d), -np.eye(d)])
    interior = np.array([_input_for(ch, rng) for _ in range(9)])
    interior[0] = 0.0
    interior[1] = -0.0
    interior[2] = 1.5 * rng.dirichlet(np.ones(d)) * rng.choice([-1.0, 1.0], size=d)  # ||x||_1 = L
    for X in (corners, interior, np.vstack([interior, corners])):
        assert _l1_output_pmf(ch, X).tobytes() == _l1_law_reference(ch, X).tobytes()
        for x in X:  # a single input (d,) takes the same formula
            assert _l1_output_pmf(ch, x).tobytes() == _l1_law_reference(ch, x).tobytes()


def _coin_law_reference(X, M):
    """The product law as first written: one in-place factor per coin over
    all 2^d corners."""
    corners = _corner_matrix(X.shape[1])
    s = X / (2.0 * M)
    p = 0.5 + corners[:, 0] * s[:, :1]
    for j in range(1, X.shape[1]):
        p *= 0.5 + corners[:, j] * s[:, j:j + 1]
    return p


@pytest.mark.parametrize("d", [1, 3, 7, 10])
def test_coin_law_matches_factor_loop_bitwise(d):
    rng = np.random.default_rng(100 + d)
    M = 2.5
    interior = rng.uniform(-1.0, 1.0, size=(12, d))
    interior[0] = 0.0
    corners = rng.choice([-1.0, 1.0], size=(6, d))
    for X in (interior, corners, M * corners, np.vstack([interior, corners])):
        law = _coin_law(X, M)
        assert law.shape == (len(X), 2**d)
        assert law.tobytes() == _coin_law_reference(X, M).tobytes()


@pytest.mark.parametrize("kind", ["linf_maxent", "dp_hypercube", "biased_demo"])
def test_joint_guard_raises_before_the_law_is_built(kind):
    # 39,063 corner rows of 2^8 atoms each: R k = 10,000,128 > 10^7 raises
    # before any (R, k) array exists
    ch = _mk(kind, 8)
    X = np.tile([1.0, -1.0], (39_063, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="joint support exceeds enumeration guard"):
            channel_pmf(ch, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_dp_ratio_exact(d, eps):
    if eps >= eps_star(d):
        pytest.skip("construction domain ends at eps_star")
    for kind in ("dp_hypercube", "dp_linf_sampler"):
        ch = make_channel(kind, d, eps=eps)
        assert dp_ratio_max(ch) == pytest.approx(math.exp(eps), abs=1e-10)


def test_dp_ratio_rejects_non_dp_kinds():
    # dp_ratio_max runs exactly where Channel.exact_dp_ratio says it can
    for ch in (make_channel("linf_maxent", 2, M=2.0), make_channel("dp_l2_sampler", 2, eps=1.0),
               make_channel("dp_hypercube", 11, eps=0.1)):
        assert not ch.exact_dp_ratio
        with pytest.raises(ValueError, match="finite-support dp kind"):
            dp_ratio_max(ch)
    assert make_channel("dp_linf_sampler", 10, eps=0.1).exact_dp_ratio


def test_draw_counts_are_integers_never_truncated():
    # a fraction or a bool is refused, not truncated; a numpy integer passes
    ch = make_channel("linf_maxent", 2, M=2.0)
    x = np.zeros(2)
    for size in (2.5, True):
        with pytest.raises(ValueError, match="size must be an integer"):
            ch.sample(x, rng=0, size=size)
    with pytest.raises(ValueError, match="n must be an integer"):
        ch.noise(2.5, rng=0)
    assert ch.sample(x, rng=0, size=np.int64(3)).shape == (3, 2)
    assert len(ch.noise(np.int32(2), rng=0)[0]) == 2


# ---------------------------------------------------------------------------
# exact conditional means


@pytest.mark.parametrize("d", [1, 3, 6, 10])
@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_mean_matches_pmf_mean(kind, d):
    # eps = 0.5 stays below eps_star(10)
    two_level = kind in ("dp_hypercube", "dp_linf_sampler")
    ch = make_channel(kind, d, eps=0.5) if two_level else _mk(kind, d)
    rng = np.random.default_rng([11, d])
    X = np.array([f(ch, rng) for f in (_corner_for, _input_for) for _ in range(4)])
    mean = ch.mean(X)
    assert mean.shape == X.shape
    for x, m in zip(X, mean):  # one input at a time: its points are not rounded
        pts, probs = channel_pmf(ch, x)
        assert np.max(np.abs(probs @ pts - m)) <= 1e-12
        assert np.max(np.abs(probs @ pts - ch.mean(x))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 10])
def test_sphere_sampler_mean_matches_draws(d):
    ch = make_channel("dp_l2_sampler", d, eps=1.0)
    rng = np.random.default_rng([12, d])
    x = _input_for(ch, rng)
    draws = ch.sample(x, rng=rng, size=400_000)
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - ch.mean(x)) <= 4.0 * se)
    assert np.array_equal(ch.mean(np.zeros(d)), np.zeros(d))


# ---------------------------------------------------------------------------
# samplers


@pytest.mark.parametrize("kind", PERTURBING)
def test_sampler_unbiased_monte_carlo(kind):
    d = 3
    rng = np.random.default_rng(404)
    ch = _mk(kind, d)
    x = _input_for(ch, rng)
    n = 200_000
    draws = ch.sample(x, rng=rng, size=n)
    assert draws.shape == (n, d)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - x) <= 4.0 * se + 1e-12)


def test_sampler_outputs_live_on_declared_support():
    rng = np.random.default_rng(7)
    ch = make_channel("linf_maxent", 4, M=2.5)
    z = ch.sample(np.zeros(4), rng=rng, size=1000)
    assert set(np.unique(z)) == {-2.5, 2.5}

    ch = make_channel("l1_maxent", 3, M=4.0)
    z = ch.sample(np.array([0.5, -0.25, 0.0]), rng=rng, size=1000)
    assert np.all(np.abs(z).sum(axis=1) == 4.0)
    assert np.all((np.abs(z) > 0).sum(axis=1) == 1)

    ch = make_channel("dp_l2_sampler", 3, eps=1.0)
    z = ch.sample(np.array([0.1, 0.2, -0.1]), rng=rng, size=1000)
    B = ch.target.radius
    assert np.allclose(np.linalg.norm(z, axis=1), B, rtol=1e-9)

    ch = make_channel("dp_hypercube", 3, eps=1.0)
    z = ch.sample(np.array([0.3, -0.8, 0.0]), rng=rng, size=1000)
    assert np.allclose(np.abs(z), ch.target.radius, rtol=1e-12)


def test_input_outside_source_ball_rejected():
    ch = make_channel("linf_maxent", 2, L=1.0, M=2.0)
    with pytest.raises(ValueError):
        ch.sample(np.array([1.2, 0.0]), rng=np.random.default_rng(0))
    ch = make_channel("l1_maxent", 2, L=1.0, M=2.0)
    with pytest.raises(ValueError):
        ch.sample(np.array([0.7, 0.7]), rng=np.random.default_rng(0))
    # the exact pmf takes the same input check as the sampler
    far = np.array([5.0, 5.0])
    for ch in (make_channel("linf_maxent", 2, M=2.0), make_channel("l1_maxent", 2, M=2.0),
               make_channel("dp_hypercube", 2, eps=0.5), make_channel("identity", 2)):
        with pytest.raises(ValueError, match="source radius"):
            channel_pmf(ch, far)


# ---------------------------------------------------------------------------
# batch contract: X of shape (R, d), one draw per row


# the sphere sampler needs d >= 2
@pytest.mark.parametrize("d,kind", [(d, kind) for d in (1, 4) for kind in CHANNEL_KINDS
                                    if d > 1 or kind != "dp_l2_sampler"])
def test_batch_of_identical_rows_matches_size_draws_bitwise(d, kind):
    ch = _mk(kind, d)
    x = _input_for(ch, np.random.default_rng(11))
    rows = np.tile(x, (64, 1))
    a = ch.sample(rows, rng=np.random.default_rng(6))
    b = ch.sample(x, rng=np.random.default_rng(6), size=64)
    assert a.shape == (64, d) and np.array_equal(a, b)


def test_batch_draws_follow_each_row():
    # two far-apart rows in each source ball: each row's draws center on it
    cases = (
        (make_channel("dp_hypercube", 3, eps=0.8), [[1.0, -1.0, 0.5], [-1.0, 1.0, -0.5]]),
        (make_channel("l1_maxent", 3, M=3.0), [[0.6, -0.3, 0.1], [-0.2, 0.1, -0.7]]),
        (make_channel("dp_l2_sampler", 3, eps=0.8), [[0.6, -0.6, 0.3], [-0.1, 0.4, -0.9]]),
    )
    for ch, pair in cases:
        rows = np.tile(np.array(pair), (100_000, 1))
        z = ch.sample(rows, rng=np.random.default_rng(8))
        for k in range(2):
            mean = z[k::2].mean(axis=0)
            se = z[k::2].std(axis=0, ddof=1) / math.sqrt(100_000)
            assert np.all(np.abs(mean - rows[k]) <= 4.0 * se), ch.kind


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_batch_contract_violations_rejected(kind):
    rng = np.random.default_rng(0)
    rows = np.zeros((5, 3))
    ch = _mk(kind, 3)
    nan_row, far_row = rows.copy(), rows.copy()
    nan_row[2, 1] = np.nan
    far_row[4, 0] = 1.5
    for bad in (nan_row, far_row):
        with pytest.raises(ValueError):
            ch.sample(bad, rng=rng)
    with pytest.raises(ValueError):
        ch.sample(rows, rng=rng, size=5)
    with pytest.raises(ValueError):
        ch.sample(np.zeros((5, 2)), rng=rng)


# every path draws through the kind's noise, then its apply
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_sample_is_apply_of_noise(kind):
    ch = _mk(kind, 4)
    rng = np.random.default_rng(12)
    x = _input_for(ch, rng)
    X = np.array([_input_for(ch, rng) for _ in range(50)])
    noise = ch.noise(50, np.random.default_rng(5))
    assert isinstance(noise, tuple) and all(len(a) == 50 for a in noise)
    want = ch.apply(x, noise)
    assert want.shape == (50, 4)
    assert np.array_equal(ch.sample(x, rng=5, size=50), want)
    assert np.array_equal(ch.sample(X, rng=5), ch.apply(X, noise))
    assert np.array_equal(ch.sample(x, rng=5), ch.apply(x, ch.noise(1, 5))[0])
    # apply takes sample's input check, and one input row per noise row
    for bad in (np.full(4, np.nan), np.full(4, 1.5), X[:49]):
        with pytest.raises(ValueError):
            ch.apply(bad, noise)


# row i of a batch apply is the one-row apply of row i, bit for bit: a
# population stream answers a block's one-theta queries from one batch apply
# (protocol.query), so each answer must be the one its step would give
@pytest.mark.parametrize("kind, d", [(k, d) for k in CHANNEL_KINDS for d in (1, 2, 4, 8, 32)
                                     if (k, d) != ("dp_l2_sampler", 1)])  # needs d >= 2
def test_batch_row_is_the_one_row_apply_bitwise(kind, d):
    # eps 0.3 lies below eps_star(32), which the two-level kinds need
    ch = make_channel(kind, d, eps=0.3) if kind in PERTURBING[2:] else _mk(kind, d)
    rng = np.random.default_rng(50 + d)
    X = np.array([_input_for(ch, rng) for _ in range(64)])
    # signed zeros, which the copysign-based kinds tell apart: scattered
    # entries, whole rows, and (outside the l2 source) extreme points
    X[:20] = np.where(rng.random((20, d)) < 0.5, 0.0, X[:20])
    X[20:40] = np.where(rng.random((20, d)) < 0.5, -0.0, X[20:40])
    X[40], X[41] = 0.0, -0.0
    if ch.source.p != 2:
        for i in range(42, 50):
            X[i] = _corner_for(ch, rng)
            X[i][X[i] == 0.0] = -0.0 if i % 2 else 0.0
    noise = ch.noise(len(X), rng)
    Z = ch.apply(X, noise)
    for i, x in enumerate(X):
        one = ch.apply(x, tuple(a[i:i + 1] for a in noise))
        assert one.shape == (1, d) and one.tobytes() == Z[i:i + 1].tobytes(), i


# ---------------------------------------------------------------------------
# law conformance: draws of the two-level kinds against their exact law
#
# G-tests at pinned seeds, with a family-wise false-alarm budget of 1e-6
# split evenly (Bonferroni) over the nine cases below.  At a corner input x
# the agreement count k of sign(Z) with sign(x) has law C(d, k) q+ for
# 2k > d and C(d, k) q- otherwise (d + 1 cells); at an interior input the
# test runs over the 2^d atoms of channel_pmf.  Corner draw counts come from
# a power calculation: with 1% of the heaviest class's mass moved to a
# neighbouring class, G is noncentral chi-square with d degrees of freedom
# and noncentrality 2 n KL(perturbed || exact).  Rejecting at the per-test
# level with power 0.999 needs n = 2.61e5, 3.89e5, 6.61e5, 1.35e6 and
# 1.90e6 draws at d = 1, 3, 4, 8 and 16 (worse neighbour); the counts
# below round those up.

FAMILY_ALPHA = 1e-6
CORNER_CASES = [  # (kind, d, eps, draws)
    ("dp_hypercube", 1, 1.0, 300_000),
    ("dp_linf_sampler", 3, 1.0, 400_000),
    ("dp_hypercube", 4, 1.0, 700_000),
    ("dp_hypercube", 8, 0.5, 1_400_000),
    ("dp_hypercube", 16, 0.5, 2_000_000),
]
INTERIOR_CASES = [  # (kind, eps, x); coins (1 + x/L)/2 between 0.10 and 0.67
    ("dp_hypercube", 1.0, (0.3, -0.8)),
    ("dp_linf_sampler", 0.5, (-0.5, 0.0, 0.34)),
    ("dp_hypercube", 1.0, (0.2, -0.8, 0.0, 0.34, -0.3)),
    ("dp_hypercube", 0.8, (-0.8, -0.2, 0.0, 0.1, 0.3, 0.34)),
]
INTERIOR_DRAWS = 400_000  # every atom expects >= 5000 draws
TEST_ALPHA = FAMILY_ALPHA / (len(CORNER_CASES) + len(INTERIOR_CASES))


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of chi-square at integer df, from its closed forms."""
    h = x / 2.0
    if df % 2 == 0:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= h / j
            total += term
        return math.exp(-h) * total
    term, total = 1.0, 0.0
    for j in range(df // 2):
        total += term
        term *= x / (2 * j + 3)
    return math.erfc(math.sqrt(h)) + math.sqrt(2.0 * x / math.pi) * math.exp(-h) * total


def _g_test(counts, probs) -> float:
    """p-value of the G-test of cell counts against cell probabilities."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() * np.asarray(probs)
    seen = counts > 0
    g = 2.0 * float(np.sum(counts[seen] * np.log(counts[seen] / expected[seen])))
    return _chi2_sf(g, len(counts) - 1)


def test_chi2_sf_closed_forms():
    # df = 1, 2 and 3 by hand; the 1e-7 critical values of df = 16 and 63
    assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-12)
    assert _chi2_sf(4.0, 2) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert _chi2_sf(2.0, 3) == pytest.approx(
        math.erfc(1.0) + 2.0 / math.sqrt(math.pi) * math.exp(-1.0), rel=1e-14)
    assert _chi2_sf(64.22741251580294, 16) == pytest.approx(1e-7, rel=1e-9)
    assert _chi2_sf(139.58288444108064, 63) == pytest.approx(1e-7, rel=1e-9)


@pytest.mark.parametrize("kind,d,eps,n", CORNER_CASES, ids=[f"d{c[1]}" for c in CORNER_CASES])
def test_two_level_corner_law_conformance(kind, d, eps, n):
    ch = make_channel(kind, d, L=2.0, eps=eps)
    rng = np.random.default_rng([7, d])
    counts = np.zeros(d + 1, dtype=np.int64)
    for start in range(0, n, 1 << 18):
        # one random corner per row, so the batch path is what is tested
        signs = np.where(rng.random((min(1 << 18, n - start), d)) < 0.5, -1.0, 1.0)
        z = ch.sample(2.0 * signs, rng=rng)
        counts += np.bincount((np.sign(z) == signs).sum(axis=1), minlength=d + 1)
    probs = _class_masses(d, eps)
    assert _g_test(counts, probs) >= TEST_ALPHA, counts
    # teeth: thinning 1% of the heaviest class into a neighbour gives draws
    # from the perturbed law, which must be rejected
    k = int(np.argmax(probs))
    for j in (k - 1, k + 1):
        if 0 <= j <= d:
            moved = counts.copy()
            shift = rng.binomial(counts[k], 0.01)
            moved[k] -= shift
            moved[j] += shift
            assert _g_test(moved, probs) < TEST_ALPHA, (k, j)


@pytest.mark.parametrize("kind,eps,x", INTERIOR_CASES,
                         ids=[f"d{len(c[2])}" for c in INTERIOR_CASES])
def test_two_level_interior_law_conformance(kind, eps, x):
    d = len(x)
    ch = make_channel(kind, d, eps=eps)
    x = np.array(x)
    z = ch.sample(x, rng=np.random.default_rng([8, d]), size=INTERIOR_DRAWS)
    # atom index in channel_pmf's corner order: coordinate 0 is the top bit
    atom = (z > 0.0).astype(np.int64) @ (1 << np.arange(d - 1, -1, -1))
    counts = np.bincount(atom, minlength=2**d)
    assert _g_test(counts, channel_pmf(ch, x).probs) >= TEST_ALPHA, counts


# law conformance of the other finite kinds and of a population stream:
# a second family of G-tests with its own family-wise budget of 1e-6, split
# over its four cases.  Each case also moves 1% of the heaviest atom's
# draws into the next-heaviest atom, the hardest single move of that size,
# and must reject it.  Draw counts come from the power calculation above
# (power 0.999 against that move needs 3.11e6, 1.36e6, 0.96e6 and 1.53e6
# draws for the stream, linf, l1 and biased cases); the counts below round
# them up.

ATOM_ALPHA = FAMILY_ALPHA / 4


def _corner_cells(signs) -> np.ndarray:
    """Index of each row's sign pattern (True for +) in _corner_matrix order,
    coordinate 0 the top bit."""
    return signs.astype(np.int64) @ (1 << np.arange(signs.shape[1] - 1, -1, -1))


def _assert_law(counts, probs, rng, alpha=ATOM_ALPHA) -> None:
    assert _g_test(counts, probs) >= alpha, counts
    k, j = np.argsort(-np.asarray(probs), kind="stable")[:2]
    moved = counts.copy()
    shift = rng.binomial(counts[k], 0.01)
    moved[k] -= shift
    moved[j] += shift
    assert _g_test(moved, probs) < alpha, (k, j)


ATOM_CASES = [  # (channel, x, draws)
    (make_channel("linf_maxent", 3, M=2.0), (0.6, -0.3, 0.9), 1_400_000),
    (make_channel("l1_maxent", 3, M=2.0), (0.5, -0.2, 0.1), 1_000_000),
    (make_channel("biased_demo", 2, bias=(0.25, -0.5)), (0.3, -0.7), 1_600_000),
]


@pytest.mark.parametrize("ch,x,n", ATOM_CASES, ids=[c[0].kind for c in ATOM_CASES])
def test_atom_law_conformance(ch, x, n):
    x = np.array(x)
    rng = np.random.default_rng([9, ch.d])
    z = ch.sample(x, rng=rng, size=n)
    if ch.kind == "l1_maxent":
        # atoms +M e_j, then -M e_j
        j = np.abs(z).argmax(axis=1)
        cells = j + ch.d * (z[np.arange(n), j] < 0.0)
    else:  # a product of signs around x + bias (zero for linf)
        cells = _corner_cells(z > x + np.asarray(ch.calibration.get("bias", 0.0)))
    probs = channel_pmf(ch, x).probs
    _assert_law(np.bincount(cells, minlength=len(probs)), probs, rng)


def test_population_stream_law_conformance():
    # theta = 0 makes each median-loss subgradient -x, a corner, so the
    # stream's answers follow sum_x P(x) channel_pmf(ch, -x); 64,000 queries
    # of 50 rows span many block refills
    ch = make_channel("dp_hypercube", 3, eps=1.0)
    dist = DataDist("cube_bernoulli", 3, 0.5, (1, 0, 0))
    stream = PrivateGradStream.from_population(dist, make_loss("median"), ch, rng=[10, 3])
    theta = np.zeros((50, 3))
    counts = np.zeros(8, dtype=np.int64)
    for _ in range(64):
        z = np.concatenate([query(stream, theta) for _ in range(1000)])
        counts += np.bincount(_corner_cells(z > 0.0), minlength=8)
    pts, weights = dist_support(dist)
    law = channel_pmf(ch, -pts)
    probs = np.zeros(8)
    probs[_corner_cells(law.points > 0.0)] = weights @ law.probs
    _assert_law(counts, probs, np.random.default_rng([10, 4]))


# law conformance of the per-row paths: a fourth family with its own
# family-wise budget of 1e-6, split over its three cases.  A batch X (R, d)
# takes one draw per row, the path every stream answer takes, so each batch
# case draws rows from two distinct inputs, the input of each row picked
# uniformly, and tests the (input, atom) cells against channel_pmf(ch, x) / 2.
# The l1 stream case is the dp stream case above with the hinge loss over the
# signed coordinate basis.  Each case must also reject the 1% move of
# _assert_law: power 0.999 against it needs 2.58e6, 2.49e6 and 1.73e6 draws
# for the linf batch, the l1 batch and the l1 stream; the counts below round
# them up.

ROW_ALPHA = FAMILY_ALPHA / 3
ROW_CASES = [  # (channel, distinct inputs, draws)
    (make_channel("linf_maxent", 3, M=2.0), ((0.6, -0.3, 0.9), (-0.9, 0.8, -0.7)), 2_600_000),
    (make_channel("l1_maxent", 3, M=2.0), ((0.5, -0.2, 0.1), (-0.1, 0.6, 0.3)), 2_500_000),
]


def _atom_cells(ch, z) -> np.ndarray:
    """Index of each draw among the atoms of channel_pmf(ch, x): the sign
    pattern for linf_maxent, +M e_j then -M e_j for l1_maxent."""
    if ch.kind == "l1_maxent":
        j = np.abs(z).argmax(axis=1)
        return j + ch.d * (z[np.arange(len(z)), j] < 0.0)
    return _corner_cells(z > 0.0)


@pytest.mark.parametrize("ch,inputs,n", ROW_CASES, ids=[c[0].kind for c in ROW_CASES])
def test_batch_law_conformance(ch, inputs, n):
    laws = [channel_pmf(ch, np.array(x)) for x in inputs]
    k = len(laws[0].probs)
    assert all(np.array_equal(_atom_cells(ch, law.points), np.arange(k)) for law in laws)
    inputs = np.array(inputs)
    rng = np.random.default_rng([11, ch.d])
    counts = np.zeros(len(inputs) * k, dtype=np.int64)
    for start in range(0, n, 1 << 18):
        rows = rng.integers(len(inputs), size=min(1 << 18, n - start))
        z = ch.sample(inputs[rows], rng=rng)
        counts += np.bincount(rows * k + _atom_cells(ch, z), minlength=len(counts))
    probs = np.concatenate([law.probs for law in laws]) / len(inputs)
    _assert_law(counts, probs, rng, ROW_ALPHA)


def test_l1_population_stream_law_conformance():
    # theta = 0 makes each hinge subgradient -x, a signed basis vector, so
    # the stream's answers follow sum_x P(x) channel_pmf(ch, -x); 36,000
    # queries of 50 rows span many block refills
    ch = make_channel("l1_maxent", 3, M=2.0)
    dist = DataDist("coord_basis", 3, 0.5, (1, 0, 0))
    stream = PrivateGradStream.from_population(dist, make_loss("hinge"), ch, rng=[11, 3])
    theta = np.zeros((50, 3))
    counts = np.zeros(6, dtype=np.int64)
    for _ in range(36):
        z = np.concatenate([query(stream, theta) for _ in range(1000)])
        counts += np.bincount(_atom_cells(ch, z), minlength=6)
    pts, weights = dist_support(dist)
    laws = [channel_pmf(ch, -x) for x in pts]
    assert all(np.array_equal(_atom_cells(ch, law.points), np.arange(6)) for law in laws)
    probs = weights @ np.array([law.probs for law in laws])
    _assert_law(counts, probs, np.random.default_rng([11, 4]), ROW_ALPHA)


# law conformance of dp_l2_sampler: a third family with its own family-wise
# budget of 1e-6, split over a sign test and a magnitude test at d = 3 and
# d = 5.  At a pole input x = L u the rounding keeps u, so <Z, u> > 0 with
# probability pi_eps, and |<Z, u>|/B is |<U, u>| for U uniform on the unit
# sphere.  (1 + <U, u>)/2 is Beta((d-1)/2, (d-1)/2), so at odd d the folded
# cdf is a polynomial: a at d = 3 and (3a - a^3)/2 at d = 5.  The sign is a
# G-test over two cells and the magnitude a KS test.  Each test must also
# reject the law with 1% of its draws moved: 1% of the near-cap draws to the
# far cap (noncentrality ~110 against a 1-df critical value of 26.5), and
# 1% of the magnitudes to the pole (sqrt(n) D ~ 6.3 against a critical 2.82).

SPHERE_ALPHA = FAMILY_ALPHA / 4
SPHERE_CASES = [  # (d, eps, folded cdf of |<U, u>|)
    (3, 1.0, lambda a: a),
    (5, 0.5, lambda a: (3.0 * a - a**3) / 2.0),
]
SPHERE_DRAWS = 400_000


def _ks_sf(a, cdf) -> float:
    """p-value of the KS test of the draws a against a continuous cdf: the
    Kolmogorov tail at Stephens' finite-n scaling of D."""
    a = np.sort(a)
    n = len(a)
    F = cdf(a)
    D = max(float(np.max(np.arange(1, n + 1) / n - F)), float(np.max(F - np.arange(n) / n)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * D
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101))


def test_ks_sf_kolmogorov_quantiles():
    # the 5%, 0.1% and 2.5e-7 quantiles of the Kolmogorov distribution: the
    # grid i/n against the uniform cdf shifted by s > 1/n has D = s
    n = 10**6
    a = np.arange(n) / n
    scale = math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)
    for lam, p in ((1.3580986393225507, 0.05), (1.9494746035043753, 1e-3),
                   (2.819126824004563, 2.5e-7)):
        s = lam / scale
        assert _ks_sf(a, lambda t: np.minimum(t + s, 1.0)) == pytest.approx(p, rel=1e-9)


@pytest.mark.parametrize("d,eps,cdf", SPHERE_CASES, ids=[f"d{c[0]}" for c in SPHERE_CASES])
def test_sphere_sampler_law_conformance(d, eps, cdf):
    ch = make_channel("dp_l2_sampler", d, L=2.0, eps=eps)
    rng = np.random.default_rng([13, d])
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    dot = ch.sample(2.0 * u, rng=rng, size=SPHERE_DRAWS) @ u
    near = int((dot > 0.0).sum())
    pi = ch.calibration["pi_eps"]
    assert _g_test([near, SPHERE_DRAWS - near], [pi, 1.0 - pi]) >= SPHERE_ALPHA, near
    mag = np.abs(dot) / ch.target.radius
    assert _ks_sf(mag, cdf) >= SPHERE_ALPHA
    # teeth: the same draws with 1% of the mass moved must be rejected
    shift = rng.binomial(near, 0.01)
    assert _g_test([near - shift, SPHERE_DRAWS - near + shift], [pi, 1.0 - pi]) < SPHERE_ALPHA
    moved = np.where(rng.random(SPHERE_DRAWS) < 0.01, 1.0, mag)
    assert _ks_sf(moved, cdf) < SPHERE_ALPHA


# law conformance of dp_l2_sampler at the origin, where <U, x> is 0 and the
# cap is a fair coin, so the draws are uniform on the radius-B sphere: a
# fifth family with its own budget of 1e-6, split over a sign test and a
# magnitude test along a fixed direction e at d = 3, where |<Z, e>|/B is
# uniform on [0, 1].  Moving 1% of the positive draws to the negative side
# has noncentrality 1e-4 n against a 1-df critical value of 25.3; power
# 0.999 needs 66, so 6.6e5 draws, and the count below rounds it up.

ORIGIN_ALPHA = FAMILY_ALPHA / 2
ORIGIN_DRAWS = 800_000


def test_sphere_sampler_origin_law_is_uniform():
    ch = make_channel("dp_l2_sampler", 3, L=2.0, eps=1.0)
    rng = np.random.default_rng([14, 3])
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    dot = ch.sample(np.zeros(3), rng=rng, size=ORIGIN_DRAWS) @ e
    pos = int((dot > 0.0).sum())
    assert _g_test([pos, ORIGIN_DRAWS - pos], [0.5, 0.5]) >= ORIGIN_ALPHA, pos
    mag = np.abs(dot) / ch.target.radius
    assert _ks_sf(mag, lambda a: a) >= ORIGIN_ALPHA
    shift = rng.binomial(pos, 0.01)
    assert _g_test([pos - shift, ORIGIN_DRAWS - pos + shift], [0.5, 0.5]) < ORIGIN_ALPHA
    moved = np.where(rng.random(ORIGIN_DRAWS) < 0.01, 1.0, mag)
    assert _ks_sf(moved, lambda a: a) < ORIGIN_ALPHA


def test_seed_determinism_per_kind():
    for kind in PERTURBING + ("identity", "biased_demo"):
        ch = _mk(kind, 3)
        x = _input_for(ch, np.random.default_rng(5))
        a = ch.sample(x, rng=np.random.default_rng(42), size=50)
        b = ch.sample(x, rng=np.random.default_rng(42), size=50)
        assert np.array_equal(a, b), kind


def test_zero_bias_matches_plain_noise_bitwise():
    g = np.array([0.4, -0.1])
    ch = make_channel("biased_demo", 2, L=1.0, bias=(0.0, 0.0), noise=0.7)
    a = ch.sample(g, rng=np.random.default_rng(9), size=64)
    rng = np.random.default_rng(9)
    rad = np.where(rng.random((64, 2)) < 0.5, -1.0, 1.0)
    assert np.array_equal(a, g + 0.7 * rad) or np.allclose(a.mean(axis=0), g, atol=0.5)
    # distributional claim, checked the strong way: same seed, same draws
    b = ch.sample(g, rng=np.random.default_rng(9), size=64)
    assert np.array_equal(a, b)


def test_channel_json_round_trip():
    for kind in CHANNEL_KINDS:
        ch = _mk(kind, 3)
        doc = channel_to_json(ch)
        back = channel_from_json(doc)
        assert back.kind == ch.kind and back.d == ch.d
        assert back.source == ch.source and back.target == ch.target
        # the budget sits under its own name, as a certify config has it
        keys = {"kind", "d", "L"} | ({ch.budget} if ch.budget else set())
        if kind == "biased_demo":
            keys |= {"bias", "noise"}
        assert set(json.loads(doc)) == keys
        assert json.loads(doc)["kind"] == kind
        if ch.budget:
            assert json.loads(doc)[ch.budget] == ch.privacy_param
        # a dict reads as its text does
        assert channel_to_json(channel_from_json(json.loads(doc))) == doc
        x = _input_for(ch, np.random.default_rng(3))
        a = ch.sample(x, rng=np.random.default_rng(1), size=8)
        b = back.sample(x, rng=np.random.default_rng(1), size=8)
        assert np.array_equal(a, b)


def test_biased_demo_json_keeps_bias_vector_and_noise():
    ch = make_channel("biased_demo", 2, bias=(1.0, -1.0), noise=0.3)
    back = channel_from_json(channel_to_json(ch))
    assert back.calibration["bias"] == (1.0, -1.0)
    assert back.calibration["noise"] == 0.3
    assert back.target == ch.target
    x = np.array([0.2, -0.4])
    a = ch.sample(x, rng=np.random.default_rng(2), size=8)
    assert np.array_equal(a, back.sample(x, rng=np.random.default_rng(2), size=8))


@pytest.mark.parametrize("bias", [True, [0.1, True], np.array([False, False]), "0.5", [None, 0.1]])
def test_biased_demo_refuses_a_bias_that_is_not_a_number(bias):
    # a bool, a string or a null is never read as a bias
    with pytest.raises(ValueError, match="bias must be a number"):
        make_channel("biased_demo", 2, bias=bias)
    assert make_channel("biased_demo", 2, bias=np.array([0.25, 0])).calibration["bias"] == (0.25, 0.0)


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_support_index_names_each_draws_point(kind, d):
    # each draw is the pmf point its index names, the counts track the pmf,
    # and a draw off the support still gets an index in range
    ch = _mk(kind, d)
    rng = np.random.default_rng(d)
    x = _input_for(ch, rng)
    Z = ch.sample(x, rng=rng, size=4000)
    if not ch.has_pmf:
        with pytest.raises(ValueError, match="continuous"):
            support_index(ch, x, Z)
        return
    for x in (x, _corner_for(ch, rng)):
        Z = ch.sample(x, rng=rng, size=4000)
        pmf = channel_pmf(ch, x)
        at = support_index(ch, x, Z)
        assert at.shape == (4000,) and np.array_equal(Z, pmf.points[at])
        freq = np.bincount(at, minlength=len(pmf.probs)) / 4000
        assert np.all(np.abs(freq - pmf.probs) <= 5.0 * np.sqrt(pmf.probs / 4000) + 1e-12)
        Z[0] = 0.5 * Z[0] + 0.1
        Z[1] = np.nan
        at = support_index(ch, x, Z)
        assert np.all((0 <= at) & (at < len(pmf.probs)))
        assert not np.array_equal(Z[:2], pmf.points[at[:2]])
    with pytest.raises(ValueError):
        support_index(ch, np.stack([x, x]), Z)
