"""Loss families: subgradient validity, exact risks, separation oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privopt.geometry import NormBall
from privopt.losses import (
    _LAWS,
    _LOSSES,
    DataDist,
    RiskSpec,
    UnsupportedFamilyError,
    dist_support,
    loss_value,
    make_loss,
    risk_minimizer,
    risk_value,
    sample_datum,
    separation,
    subgrad,
    _in_fixed_region,
    _in_open_box,
    _on_law,
)

KINDS = ("median", "hinge", "linear")
# each loss with the one data law its closed forms are tabled over
PAIRS = (("median", "cube_bernoulli"), ("hinge", "coord_basis"), ("linear", "cube_bernoulli"))

small_vec = st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6).map(
    lambda v: np.array(v, dtype=float)
)


def _datum_for(kind, d, rng):
    # hinge pairs with signed-basis data in the constructions, median and
    # linear with cube corners; the subgradient inequality has to hold for
    # either, so mix
    if rng.random() < 0.5:
        x = np.zeros(d)
        x[rng.integers(d)] = rng.choice((-1.0, 1.0))
        return x
    return rng.choice((-1.0, 1.0), size=d)


@given(st.sampled_from(KINDS), small_vec, st.integers(0, 10**6),
       st.floats(0.1, 5.0), st.floats(0.1, 5.0))
@settings(max_examples=120)
def test_subgradient_inequality(kind, theta, seed, L, r):
    rng = np.random.default_rng(seed)
    loss = make_loss(kind, L=L, r=r)
    x = _datum_for(kind, theta.size, rng)
    g = subgrad(loss, x, theta)
    for _ in range(8):
        y = rng.uniform(-4, 4, size=theta.size)
        lhs = loss_value(loss, x, y)
        rhs = loss_value(loss, x, theta) + float(g @ (y - theta))
        assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))


@given(st.sampled_from(KINDS), small_vec, st.integers(0, 10**6), st.floats(0.1, 5.0))
@settings(max_examples=60)
def test_subgradient_magnitude(kind, theta, seed, L):
    rng = np.random.default_rng(seed)
    loss = make_loss(kind, L=L, r=1.0)
    x = _datum_for(kind, theta.size, rng)
    g = subgrad(loss, x, theta)
    if kind == "median":
        assert np.max(np.abs(g)) <= L + 1e-12
    else:
        # hinge/linear scale the datum itself
        assert np.linalg.norm(g) <= L * np.linalg.norm(x) + 1e-12


def test_subgradient_kink_conventions():
    loss = make_loss("median", L=2.0, r=1.0)
    x = np.array([1.0, -1.0])
    g = subgrad(loss, x, np.array([1.0, 0.5]))
    assert g[0] == 0.0  # sits exactly on the kink, sign(0) = 0
    assert g[1] == 2.0
    hinge = make_loss("hinge", L=1.5, r=1.0)
    e1 = np.array([1.0, 0.0])
    # margin exactly zero still pulls with the full subgradient
    assert np.allclose(subgrad(hinge, e1, e1), -1.5 * e1)
    assert np.allclose(subgrad(hinge, e1, np.array([2.0, 0.0])), 0.0)


def test_hinge_margin_reads_an_infinite_theta_only_where_x_is_nonzero():
    # x = e_0 meets theta_1 = inf only through a zero of x, so the margin is
    # r - theta_0 = 0.4, not the NaN of 0 * inf: -L x on the one-pair and the
    # row branch alike, with no floating-point warning (0 * inf and inf - inf
    # are invalid operations).  Where x is nonzero, a NaN theta_j gives no
    # subgradient and an infinite one a margin of -inf (none); a finite theta
    # gives the plain dot product's bits
    L = 1.5
    loss = make_loss("hinge", L=L, r=0.5)
    x = np.eye(4)[0]
    theta = np.array([0.1, np.inf, 0.0, 0.0])
    X = np.stack([x, -x, x, x, np.eye(4)[1], x, np.r_[1.0, 1.0, 0.0, 0.0]])
    T = np.stack([theta, theta, np.r_[0.6, -np.inf, 0.0, 0.0], np.r_[np.nan, np.inf, 0.0, 0.0],
                  theta, np.r_[0.1, 0.3, -0.2, 0.0], np.r_[np.inf, -np.inf, 0.0, 0.0]])
    want = np.stack([-L * x, L * x, np.zeros(4), np.zeros(4), np.zeros(4), -L * x, np.zeros(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert subgrad(loss, x, theta).tobytes() == (-L * x).tobytes()
        pair = np.stack([x, x])
        assert subgrad(loss, pair, np.stack([theta, theta])).tobytes() == (-L * pair).tobytes()
        assert loss_value(loss, x, theta) == L * (loss.r - theta[0])
        assert subgrad(loss, X, T).tobytes() == want.tobytes()
        for xr, tr, w in zip(X, T, want):
            assert subgrad(loss, xr, tr).tobytes() == w.tobytes()


def test_median_subgradient_takes_paired_rows():
    # every loss answers (R, d) rows with the per-pair subgradients, bit for
    # bit, for C-ordered rows and for the transposed view theta.T that
    # chain-minor mirror descent passes (their dot products round apart)
    rng = np.random.default_rng(4)
    for kind, d in itertools.product(KINDS, (3, 20)):
        loss = make_loss(kind, L=2.0, r=0.5)
        X = np.where(rng.random((8, d)) < 0.5, -1.0, 1.0) * rng.uniform(0.05, 1.0, (8, d))
        chain_minor = rng.uniform(-2, 2, size=(d, 8))
        for theta in (np.ascontiguousarray(chain_minor.T), chain_minor.T):
            G = subgrad(loss, X, theta)
            want = np.array([subgrad(loss, x, t) for x, t in zip(X, theta)])
            assert G.shape == X.shape
            assert G.tobytes() == want.tobytes(), (kind, d, theta.flags.c_contiguous)
        if kind == "hinge":
            # both sides of the margin occur among the rows
            assert len({bool(np.any(g)) for g in G}) == 2


@given(st.sampled_from(PAIRS), st.integers(1, 5), st.floats(0, 1), st.integers(0, 10**6),
       small_vec)
@settings(max_examples=90)
def test_median_risk_closed_form_vs_enumeration(pair, d, delta, seed, theta_raw):
    # every tabled (loss, data) pair against its support enumeration
    kind, dist_kind = pair
    rng = np.random.default_rng(seed)
    nu = rng.choice((-1.0, 0.0, 1.0), size=d)
    data = DataDist(dist_kind, d, delta, tuple(nu))
    loss = make_loss(kind, L=1.3, r=0.7)
    assert loss.data_kind == dist_kind
    spec = RiskSpec(loss, data, NormBall(math.inf, 10.0))
    theta = np.resize(theta_raw, d)
    pts, probs = dist_support(data)
    brute = sum(w * loss_value(loss, x, theta) for x, w in zip(pts, probs))
    assert risk_value(spec, theta) == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_risk_minimizer_median_beats_random_points():
    rng = np.random.default_rng(11)
    data = DataDist("cube_bernoulli", 3, 0.6, (1, -1, 1))
    spec = RiskSpec(make_loss("median", L=1.0, r=2.0), data, NormBall(math.inf, 2.0))
    best = risk_minimizer(spec)
    assert best.unique
    assert np.allclose(best.theta, [2.0, -2.0, 2.0])
    for _ in range(200):
        cand = rng.uniform(-2, 2, size=3)
        assert risk_value(spec, cand) >= best.value - 1e-12


def test_risk_minimizer_hinge_value():
    d, delta = 4, 0.5
    data = DataDist("coord_basis", d, delta, (1, 1, -1, 1))
    spec = RiskSpec(make_loss("hinge", L=2.0, r=1.5), data, NormBall(math.inf, 1.5))
    best = risk_minimizer(spec)
    want = 2.0 * 1.5 * (d - delta * d) / d
    assert best.value == pytest.approx(want, rel=1e-12)
    assert risk_value(spec, best.theta) == pytest.approx(best.value, rel=1e-12)


def test_risk_minimizer_linear_needs_l1_ball_and_basis():
    data_basis = DataDist("cube_bernoulli", 3, 0.4, (0, 1, 0))
    spec = RiskSpec(make_loss("linear", L=1.0, r=1.0), data_basis, NormBall(1, 2.0))
    best = risk_minimizer(spec)
    assert best.value == pytest.approx(-1.0 * 0.4 * 2.0)
    assert np.allclose(best.theta, [0.0, -2.0, 0.0])
    with pytest.raises(UnsupportedFamilyError):
        risk_minimizer(RiskSpec(make_loss("linear"), data_basis, NormBall(2, 2.0)))
    full = DataDist("cube_bernoulli", 3, 0.4, (1, 1, 1))
    with pytest.raises(UnsupportedFamilyError):
        risk_minimizer(RiskSpec(make_loss("linear"), full, NormBall(1, 2.0)))


def test_corner_minimizer_outside_domain_rejected():
    data = DataDist("cube_bernoulli", 3, 0.5, (1, 1, 1))
    spec = RiskSpec(make_loss("median", L=1.0, r=1.0), data, NormBall(1, 1.0))
    with pytest.raises(UnsupportedFamilyError):
        risk_minimizer(spec)


def _grid_inf_sum(spec_v, spec_w, r, npts=161):
    # brute-force inf over a 2-d box grid, adequate because both risks are
    # coordinate-separable piecewise-linear with kinks at +-r
    axis = np.linspace(-r, r, npts)
    best = math.inf
    for t0 in axis:
        for t1 in axis:
            theta = np.array([t0, t1])
            best = min(best, risk_value(spec_v, theta) + risk_value(spec_w, theta))
    return best


@pytest.mark.parametrize("nu,w", [((1, 1), (1, -1)), ((1, -1), (-1, 1)), ((1, 1), (1, 1))])
def test_separation_matches_grid_search(nu, w):
    L, r, delta = 1.2, 0.9, 0.45
    loss = make_loss("median", L=L, r=r)
    dom = NormBall(math.inf, r)
    sv = RiskSpec(loss, DataDist("cube_bernoulli", 2, delta, nu), dom)
    sw = RiskSpec(loss, DataDist("cube_bernoulli", 2, delta, w), dom)
    joint = _grid_inf_sum(sv, sw, r)
    gap = joint - risk_minimizer(sv).value - risk_minimizer(sw).value
    assert separation(sv, sw) == pytest.approx(gap, abs=1e-9)


def test_separation_hinge_formula():
    L, r, delta, d = 2.0, 1.0, 0.3, 4
    loss = make_loss("hinge", L=L, r=r)
    dom = NormBall(math.inf, r)
    sv = RiskSpec(loss, DataDist("coord_basis", d, delta, (1, 1, 1, 1)), dom)
    sw = RiskSpec(loss, DataDist("coord_basis", d, delta, (1, -1, -1, 1)), dom)
    assert separation(sv, sw) == pytest.approx(2.0 * L * r * delta * 2 / d)


def test_sample_datum_frequencies():
    rng = np.random.default_rng(99)
    dist = DataDist("cube_bernoulli", 3, 0.5, (1, -1, 1))
    draws = sample_datum(dist, rng, size=40000)
    assert draws.shape == (40000, 3)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    p_hat = (draws > 0).mean(axis=0)
    p = 0.5 * (1.0 + 0.5 * np.array([1, -1, 1]))
    se = np.sqrt(p * (1 - p) / 40000)
    assert np.all(np.abs(p_hat - p) <= 4 * se)

    dist2 = DataDist("coord_basis", 4, 0.8, (1, 1, 1, 1))
    draws2 = sample_datum(dist2, rng, size=40000)
    assert np.all(np.abs(draws2).sum(axis=1) == 1.0)
    plus_rate = (draws2.sum(axis=1) > 0).mean()
    assert abs(plus_rate - 0.9) <= 4 * math.sqrt(0.9 * 0.1 / 40000)


def test_sample_datum_single_shape():
    dist = DataDist("cube_bernoulli", 5, 0.0, (0,) * 5)
    x = sample_datum(dist, np.random.default_rng(0))
    assert x.shape == (5,)
    # size is an integer: a fraction or a bool is refused, a numpy integer passes
    for size in (2.5, True):
        with pytest.raises(ValueError, match="size must be an integer"):
            sample_datum(dist, np.random.default_rng(0), size=size)
    assert sample_datum(dist, np.random.default_rng(0), size=np.int64(2)).shape == (2, 5)


def test_data_dist_is_a_hashable_value():
    # nu is a tuple of floats, so equal laws compare and hash alike; an
    # ndarray nu made == raise ValueError and hash raise TypeError, in
    # RiskSpec too
    a = DataDist("cube_bernoulli", 3, 0.5, (1, 0, -1))
    b = DataDist("cube_bernoulli", 3, 0.5, np.array([1.0, 0.0, -1.0]))
    assert a == b and hash(a) == hash(b)
    assert a.nu == (1.0, 0.0, -1.0) and all(type(v) is float for v in a.nu)
    assert a != DataDist("cube_bernoulli", 3, 0.5, (1, 0, 1))
    ball = NormBall(math.inf, 1.0)
    spec = RiskSpec(make_loss("median"), a, ball)
    assert spec == RiskSpec(make_loss("median"), b, ball)
    assert len({spec, RiskSpec(make_loss("median"), b, ball)}) == 1


def test_distribution_validation():
    with pytest.raises(ValueError):
        DataDist("cube_bernoulli", 2, 1.5, (1, 1))
    with pytest.raises(ValueError):
        DataDist("cube_bernoulli", 2, 0.5, (1, 2))
    with pytest.raises(ValueError):
        DataDist("coord_basis", 0, 0.5, ())
    for kind in ("nonsense", "custom_empirical"):
        with pytest.raises(ValueError):
            DataDist(kind, 2, 0.5, (1, 1))
    # sample_datum needs an integer d
    for d, nu in ((2.0, (1, 1)), (True, (1,))):
        with pytest.raises(ValueError):
            DataDist("cube_bernoulli", d, 0.5, nu)
    for kind in ("quantile", "logistic"):
        with pytest.raises(ValueError):
            make_loss(kind)
    # a pair outside the table has no closed form, and no fallback
    untabled = RiskSpec(make_loss("median"), DataDist("coord_basis", 2, 0.5, (1, 1)),
                        NormBall(math.inf, 1.0))
    with pytest.raises(UnsupportedFamilyError):
        risk_value(untabled, np.zeros(2))
    with pytest.raises(UnsupportedFamilyError):
        risk_minimizer(untabled)
    with pytest.raises(UnsupportedFamilyError):
        separation(untabled, untabled)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind,law", PAIRS)
def test_subgradients_in_the_fixed_region_are_the_ones_at_zero(kind, law, d, r):
    # over the law's whole support, at in-region thetas (signed zeros and
    # the neighbours of +-r among them) every subgradient has the bits of
    # its subgradient at theta = 0, row by row and one pair at a time
    loss = make_loss(kind, L=1.5, r=r)
    dist = DataDist(law, d, 0.5, (1,) + (0,) * (d - 1))
    pts, _ = dist_support(dist)
    edge = np.nextafter(r, 0.0)
    rng = np.random.default_rng([d, int(4 * r)])
    thetas = [np.full(d, 0.0), np.full(d, -0.0), np.full(d, edge), np.full(d, -edge),
              np.resize([edge, -0.0, -edge, 0.0], d)]
    thetas += list(rng.uniform(-r, r, (20, d)))
    at_zero = subgrad(loss, pts, np.zeros_like(pts))
    assert dist.kind == loss.data_kind and _on_law(loss, pts)
    for theta in thetas:
        assert _in_fixed_region(loss, theta)
        rows = subgrad(loss, pts, np.broadcast_to(theta, pts.shape))
        assert rows.tobytes() == at_zero.tobytes()
        for x, g in zip(pts, at_zero):
            assert subgrad(loss, x, theta).tobytes() == g.tobytes()
    assert _in_fixed_region(loss, np.array(thetas))


@pytest.mark.parametrize("d", [1, 3])
def test_fixed_region_is_open_and_only_on_the_own_law(d):
    # at |theta_1| = r some datum's median subgradient is 0, not -x_1, so
    # the box is open; off the box no theta is fixed, and off the loss's own
    # law no data are (the linear loss is fixed everywhere, on its law only).
    # A population is on the law by its kind, rows by the law's support: at
    # d = 1 the basis points +-e_0 are the cube's two corners
    r = 1.0
    median = make_loss("median", r=r)
    hinge = make_loss("hinge", r=r)
    cube = DataDist("cube_bernoulli", d, 0.5, (1,) + (0,) * (d - 1))
    basis = DataDist("coord_basis", d, 0.5, (1,) + (0,) * (d - 1))
    pts, _ = dist_support(cube)
    basis_pts, _ = dist_support(basis)
    assert _on_law(median, pts) and _on_law(hinge, basis_pts)
    for edge in (r, -r):
        theta = np.zeros(d)
        theta[0] = edge
        assert not _in_fixed_region(median, theta)
        assert not _in_fixed_region(hinge, theta)
        moved = subgrad(median, pts, np.broadcast_to(theta, pts.shape))
        assert moved.tobytes() != subgrad(median, pts, np.zeros_like(pts)).tobytes()
    assert not _in_fixed_region(median, np.full(d, np.nan))
    assert _in_fixed_region(median, np.zeros(d))
    assert basis.kind != median.data_kind
    assert _on_law(median, basis_pts) is (d == 1)
    assert not _in_fixed_region(make_loss("median", r=0.0), np.zeros(d))
    linear = make_loss("linear")
    assert _in_fixed_region(linear, np.full(d, 1e300)) and _on_law(linear, pts)
    assert basis.kind != linear.data_kind
    assert _on_law(linear, basis_pts) is (d == 1)
    # every row of the table has its region tested above
    assert {kind for kind, _ in PAIRS} == set(_LOSSES)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_open_box_one_theta_and_batch_branches_agree(d):
    # the one-theta branch compares Python floats, the batch branch reads
    # min and max; both say every |theta_j| < r, and both refuse NaN in any
    # position (where max(...) alone would not)
    for r in (1.0, 0.0):
        loss = make_loss("median", r=r)
        values = (0.0, -0.0, np.nextafter(r, 0.0), np.nextafter(-r, 0.0), r, -r,
                  np.inf, -np.inf, np.nan)
        for v, pos in itertools.product(values, sorted({0, d // 2, d - 1})):
            theta = np.full(d, 0.5 * r)
            theta[pos] = v
            want = bool(np.all(np.abs(theta) < r))
            assert _in_open_box(loss, theta) is want
            assert _in_open_box(loss, theta[None]) is want
            assert _in_open_box(loss, np.stack([np.zeros(d), theta])) is want


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("law", list(_LAWS))
def test_law_support_test_holds_on_its_draws_only(law, delta):
    # every draw of the law is a point of its support, a basis row with
    # -0.0 zeros among them; an entry 0.5, a basis row with two nonzeros,
    # a zero row and a NaN are not
    d = 4
    dist = DataDist(law, d, delta, (1, -1, 0, 1))
    x = sample_datum(dist, np.random.default_rng(int(4 * delta)), size=500)
    contains = _LAWS[law].contains
    assert contains(x) and contains(-x) and contains(x[:1])
    assert contains(dist_support(dist)[0])
    if law == "coord_basis":
        assert np.signbit(-x[x == 0.0]).all()
    one = np.eye(d)[0] if law == "coord_basis" else np.ones(d)
    bad = [np.r_[0.5, one[1:]], np.r_[1.0, -1.0, np.zeros(d - 2)], np.zeros(d),
           np.r_[one[:-1], np.nan]]
    for row in bad:
        y = x.copy()
        y[7] = row
        assert not contains(y), row
