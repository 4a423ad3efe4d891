"""Entropy helpers, exact MI, closed forms, certificates."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from privopt import channels, information
from privopt.channels import (
    CHANNEL_KINDS,
    Channel,
    _pmf_points,
    channel_pmf,
    make_channel,
    two_level_constants,
    worst_case_mi,
)
from privopt.information import (
    DiscreteDist,
    InfoReport,
    binary_entropy,
    certificate_for,
    certificate_violations,
    certify_channel,
    check_draws_on_support,
    extreme_point_source,
    mi_closed_form,
    mi_from_conditionals,
    mutual_information_exact,
    nats_to_bits,
)

# frozen against an mpmath side computation (40 digits, findroot for gamma)
LINF_MI_D4_M2 = 0.52324814376454783652
L1_MI_D3_M2 = 0.37807619957370322485


def _uniform_corners(d, L=1.0):
    corners = np.array(np.meshgrid(*[[-L, L]] * d)).T.reshape(-1, d)
    return DiscreteDist.uniform(list(corners))


def test_entropy_and_unit_conversions():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert binary_entropy(0.25) == binary_entropy(0.75)
    assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)


def test_discrete_dist_validation():
    with pytest.raises(ValueError):
        DiscreteDist((np.zeros(2), np.ones(2)), (0.7, 0.7))
    with pytest.raises(ValueError):
        DiscreteDist((np.zeros(2), np.ones(2)), (1.2, -0.2))
    # the support is a (k, d) array: one point per row
    for support in (np.zeros(2), np.zeros((2, 1, 1)), [[0.0], [1.0, 1.0]]):
        with pytest.raises(ValueError):
            DiscreteDist(support, (0.5, 0.5))
    u = DiscreteDist.uniform([np.zeros(1), np.ones(1), -np.ones(1)])
    assert len(u) == 3 and sum(u.probs) == pytest.approx(1.0)
    idx = u.sample_indices(np.random.default_rng(0), 3000)
    counts = np.bincount(idx, minlength=3) / 3000
    assert np.all(np.abs(counts - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / 3000))


def test_identity_channel_mi_is_source_entropy():
    ch = make_channel("identity", 2)
    src = _uniform_corners(2)
    assert mutual_information_exact(src, ch) == pytest.approx(math.log(4.0), abs=1e-12)


def test_exact_mi_matches_frozen_closed_forms():
    ch = make_channel("linf_maxent", 4, L=1.0, M=2.0)
    got = mutual_information_exact(_uniform_corners(4), ch)
    assert got == pytest.approx(LINF_MI_D4_M2, abs=1e-10)
    assert mi_closed_form("linf_maxent", 4, 1.0, 2.0).exact == pytest.approx(
        LINF_MI_D4_M2, abs=1e-12)

    ch = make_channel("l1_maxent", 3, L=1.0, M=2.0)
    basis = [e for e in np.vstack([np.eye(3), -np.eye(3)])]
    got = mutual_information_exact(DiscreteDist.uniform(basis), ch)
    assert got == pytest.approx(L1_MI_D3_M2, abs=1e-10)
    assert mi_closed_form("l1_maxent", 3, 1.0, 2.0).exact == pytest.approx(
        L1_MI_D3_M2, abs=1e-12)


def _row_loop_mi(prior, rows):
    # the reference: one row at a time over its nonzero cells
    mix = prior @ rows
    total = 0.0
    for pi, row in zip(prior, rows):
        if pi > 0.0:
            nz = row > 0.0
            total += pi * float(np.sum(row[nz] * np.log(row[nz] / mix[nz])))
    return max(0.0, total)


@pytest.mark.parametrize("kind,d,budget", [
    ("dp_hypercube", 3, {"eps": 0.5}), ("linf_maxent", 5, {"M": 4.0}),
    ("l1_maxent", 4, {"M": 2.0}), ("biased_demo", 5, {}), ("identity", 3, {})])
def test_mi_from_conditionals_matches_row_loop(kind, d, budget):
    ch = make_channel(kind, d, **budget)
    rows = channel_pmf(ch, np.stack(extreme_point_source(ch).support)).probs
    weights = np.random.default_rng(d).random(len(rows))
    weights[::3] = 0.0
    # the per-row sums run over all columns, so only their order changes
    tol = 16 * np.finfo(float).eps
    for prior in (np.full(len(rows), 1.0 / len(rows)), weights / weights.sum()):
        want = _row_loop_mi(prior, rows)
        assert abs(mi_from_conditionals(prior, rows) - want) <= tol * max(1.0, want)
    # a zero-prior row may put mass where the mixture has none
    prior, rows = np.array([0.5, 0.0, 0.5]), np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0],
                                                       [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mi_from_conditionals(prior, rows) == _row_loop_mi(prior, rows)


@pytest.mark.parametrize("kind,budget", [("dp_hypercube", {"eps": 0.1}),
                                         ("linf_maxent", {"M": 2.0})])
def test_exact_mi_at_d10_is_lean_and_matches_references(kind, budget):
    # the 2^10 x 2^10 joint law at the corner source, in at most 64 MiB
    d = 10
    ch = make_channel(kind, d, **budget)
    source = extreme_point_source(ch)
    tracemalloc.start()
    try:
        mi = mutual_information_exact(source, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    if kind == "linf_maxent":
        assert abs(mi - worst_case_mi(kind, d, 1.0, 2.0)) <= 1e-10
        return
    # the output is uniform at this source, and a corner input's law puts
    # q+ on each atom of agreement class k > d/2, q- on the others
    c = two_level_constants(d, 0.1)
    q = [c["q_plus"] if 2 * k > d else c["q_minus"] for k in range(d + 1)]
    want = d * math.log(2.0) + sum(math.comb(d, k) * q[k] * math.log(q[k])
                                   for k in range(d + 1))
    assert abs(mi - want) <= 1e-12


@pytest.mark.parametrize("kind", ["linf_maxent", "l1_maxent"])
@pytest.mark.parametrize("d", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [1.25, 2.0, 4.0, 10.0])
def test_closed_form_ordering_and_asymptotics(kind, d, m):
    if kind == "l1_maxent" and m <= 1.0:
        return
    cf = mi_closed_form(kind, d, 1.0, m)
    assert 0.0 < cf.exact <= cf.upper + 1e-15
    assert cf.asymptotic == pytest.approx(0.5 * cf.upper, rel=1e-15)
    # the exact value approaches dL^2/(2M^2) from below as M grows
    big = mi_closed_form(kind, d, 1.0, 100.0)
    assert big.exact == pytest.approx(big.asymptotic, rel=2e-2)


_FINITE_CHANNELS = [
    ("linf_maxent", 2, {"M": 2.0}),
    ("linf_maxent", 4, {"M": 2.0}),
    ("l1_maxent", 3, {"M": 2.0}),
    ("l1_maxent", 16, {"M": 2.0}),
    ("dp_hypercube", 3, {"eps": 1.0}),
    ("dp_linf_sampler", 4, {"eps": 0.5}),
    ("identity", 3, {}),
    ("biased_demo", 2, {"bias": 0.2, "noise": 0.5}),
]


@pytest.mark.parametrize("kind,d,params", _FINITE_CHANNELS,
                         ids=[f"{kind}-d{d}" for kind, d, _ in _FINITE_CHANNELS])
def test_check_draws_on_support_passes_each_finite_sampler(kind, d, params):
    ch = make_channel(kind, d, **params)
    assert check_draws_on_support(extreme_point_source(ch), ch, 10_000,
                                  np.random.default_rng(11)) is None


@pytest.mark.parametrize("kind,d,params", _FINITE_CHANNELS,
                         ids=[f"{kind}-d{d}" for kind, d, _ in _FINITE_CHANNELS])
def test_pmf_points_are_each_rows_pmf_points(monkeypatch, kind, d, params):
    # each row's points are channel_pmf's at that row; a kind whose rows
    # share their points builds its law once, the others once per row
    ch = make_channel(kind, d, **params)
    X = extreme_point_source(ch).support
    X = np.concatenate([X, 0.5 * X])
    want = [channel_pmf(ch, x).points for x in X]
    row = channels._KINDS[kind]
    calls = []

    def pmf(ch, X):
        calls.append(len(X))
        return row.pmf(ch, X)

    monkeypatch.setitem(channels._KINDS, kind, row._replace(pmf=pmf))
    got = _pmf_points(ch, X)
    assert len(got) == len(X)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    shared = kind not in ("identity", "biased_demo")
    assert calls == [1] if shared else calls == [1] * (len(X) + 1)


def test_check_draws_on_support_reads_the_rng_as_its_draws():
    # the source indices first, then each source point's draws in order, so
    # whatever reads the rng next sees the same state; a numpy integer is a count
    ch = make_channel("linf_maxent", 3, M=2.0)
    src = extreme_point_source(ch)
    rng = np.random.default_rng(4)
    check_draws_on_support(src, ch, np.int64(10_000), rng)
    ref = np.random.default_rng(4)
    per_source = np.bincount(src.sample_indices(ref, 10_000), minlength=len(src))
    for x, n_i in zip(src.support, per_source):
        if n_i:
            ch.sample(x, rng=ref, size=int(n_i))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [100, 9_999, 20_000.5, True, 1e5])
def test_check_draws_on_support_needs_an_integer_n_of_at_least_1e4(n):
    ch = make_channel("dp_hypercube", 3, eps=1.0)
    with pytest.raises(ValueError, match="^n must be"):
        check_draws_on_support(extreme_point_source(ch), ch, n, np.random.default_rng(0))


def test_check_draws_on_support_takes_signed_zeros():
    # identity draws each source point itself, so signed zeros reach the
    # draws; == ignores the sign. The second and third points differ from
    # unsigned ones only in the sign of their zeros; the last is rare
    ch = make_channel("identity", 2, L=5.0)
    pts = ([0.0, 0.0], [-0.0, -0.0], [1.0, -0.0], [5.0, 0.0])
    src = DiscreteDist(tuple(np.array(p) for p in pts), (0.3, 0.2, 0.4999, 0.0001))
    # this seed draws the rare source exactly once
    assert np.bincount(src.sample_indices(np.random.default_rng(3), 10_000))[3] == 1
    check_draws_on_support(src, ch, 10_000, np.random.default_rng(3))


def test_check_draws_on_support_refuses_a_draw_off_the_pmf(monkeypatch):
    # one draw moved off the support names the kind and its source point
    ch = make_channel("l1_maxent", 3, M=2.0)
    sample = Channel.sample

    def shifted(self, x, rng=None, size=None):
        z = sample(self, x, rng=rng, size=size)
        z[-1] *= 0.5
        return z

    monkeypatch.setattr(Channel, "sample", shifted)
    with pytest.raises(ValueError, match="^a l1_maxent draw at source 0 is not a point of its pmf$"):
        check_draws_on_support(extreme_point_source(ch), ch, 10_000, np.random.default_rng(0))


def test_certificates_by_kind():
    ch = make_channel("dp_hypercube", 3, eps=0.5)
    cert = certificate_for(ch)
    assert cert.kind == "differential_privacy" and cert.level == 0.5

    ch = make_channel("linf_maxent", 4, L=1.0, M=2.0)
    cert = certificate_for(ch)
    assert cert.kind == "mutual_information"
    assert cert.level == pytest.approx(LINF_MI_D4_M2, abs=1e-12)

    assert math.isinf(certificate_for(make_channel("identity", 2)).level)
    assert math.isinf(certificate_for(make_channel("biased_demo", 2, bias=(0.1, 0.1))).level)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_worst_case_mi_read_from_kind_table(kind):
    # the certificate and the closed form read one worst-case MI per M kind;
    # no other kind has one
    d, L, M = 3, 1.5, 4.0
    ch = make_channel(kind, d, L=L, M=M, eps=0.3)
    if ch.budget == "M":
        assert certificate_for(ch).level == mi_closed_form(kind, d, L, M).exact
    else:
        with pytest.raises(ValueError):
            mi_closed_form(kind, d, L, M)


def test_extreme_point_source_shapes():
    assert len(extreme_point_source(make_channel("l1_maxent", 4, M=2.0))) == 8
    assert len(extreme_point_source(make_channel("linf_maxent", 3, M=2.0))) == 8
    assert extreme_point_source(make_channel("dp_l2_sampler", 3, eps=1.0)) is None
    assert extreme_point_source(make_channel("linf_maxent", 11, M=2.0)) is None


def test_certify_channel_finite_kinds():
    rng = np.random.default_rng(21)
    rep = certify_channel(make_channel("linf_maxent", 3, M=2.0), rng=rng, n_mc=20_000)
    assert rep.mi_exact == pytest.approx(rep.mi_closed_form, abs=1e-10)
    assert rep.dp_ratio_max is None
    assert rep.unbiasedness_max_residual <= 1e-10

    rep = certify_channel(make_channel("dp_hypercube", 3, eps=1.0), rng=rng, n_mc=20_000)
    assert rep.mi_closed_form is None
    assert rep.dp_ratio_max == pytest.approx(math.e, abs=1e-10)
    assert rep.unbiasedness_max_residual <= 1e-10

    doc = json.loads(rep.to_json())
    assert set(doc) == {"mi_exact_nats", "mi_closed_form_nats", "dp_ratio_max",
                        "unbiasedness_max_residual"}


def test_certify_channel_sphere_sampler_and_bias():
    rng = np.random.default_rng(33)
    rep = certify_channel(make_channel("dp_l2_sampler", 3, eps=1.0), rng=rng, n_mc=40_000)
    assert rep.mi_exact is None and rep.dp_ratio_max is None
    assert rep.unbiasedness_max_residual <= 1e-12

    # the demo channel is biased on purpose; the residual is measured
    # against target mean = x + bias, so it stays at rounding level
    rep = certify_channel(make_channel("biased_demo", 2, bias=(0.4, -0.2)),
                          rng=rng, n_mc=10_000)
    assert rep.unbiasedness_max_residual <= 1e-10


def test_certificate_violations_lists_each_broken_rule():
    # InfoReport is plain data: a report that breaks every rule is built,
    # and certificate_violations lists the rules in order
    ch = make_channel("dp_hypercube", 2, eps=0.5)
    bad = InfoReport(0.5, 0.5 + 1e-6, 2.0, 0.5)
    assert certificate_violations(ch, bad) == [
        "exact and closed-form MI disagree beyond 1e-8",
        "dp ratio 2.0 exceeds exp(eps)",
        "unbiasedness residual 0.5 exceeds 1e-08",
    ]
    ok = InfoReport(0.5, 0.5 + 1e-9, math.exp(0.5) * (1.0 + 1e-10), 1e-9)
    assert certificate_violations(ch, ok) == []


def test_sample_indices_are_rng_choice_bit_for_bit():
    # random laws with zero-probability entries, near-uniform and skewed
    # (where most bucket guesses miss), and sizes around the chunk length
    rng = np.random.default_rng(5)
    for trial in range(60):
        k = int(rng.integers(1, 301))
        p = rng.random(k) ** rng.choice([1, 4, 20])
        p[rng.random(k) < 0.3] = 0.0
        p[rng.integers(k)] += 0.1
        dist = DiscreteDist(np.zeros((k, 1)), p / p.sum())
        n = int(rng.choice([0, 1, 3000, information._INDEX_CHUNK + 1]))
        got = dist.sample_indices(np.random.default_rng(trial), n)
        want = np.random.default_rng(trial).choice(k, size=n, p=dist.probs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
