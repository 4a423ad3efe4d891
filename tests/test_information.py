"""Entropy helpers, exact MI, closed forms, certificates."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privopt.information as information
from privopt.channels import CHANNEL_KINDS, make_channel
from privopt.information import (
    DiscreteDist,
    InfoReport,
    binary_entropy,
    bits_to_nats,
    certificate_for,
    certify_channel,
    extreme_point_source,
    information_to_radius,
    kl_divergence,
    mi_closed_form,
    mi_monte_carlo,
    mutual_information_exact,
    nats_to_bits,
    tv_distance,
)

# frozen against an mpmath side computation (40 digits, findroot for gamma)
LINF_MI_D4_M2 = 0.52324814376454783652
L1_MI_D3_M2 = 0.37807619957370322485
KL_BERN_75_50 = 0.13081203594113695913


def _uniform_corners(d, L=1.0):
    corners = np.array(np.meshgrid(*[[-L, L]] * d)).T.reshape(-1, d)
    return DiscreteDist.uniform(list(corners))


def test_entropy_and_unit_conversions():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert binary_entropy(0.25) == binary_entropy(0.75)
    assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
    assert bits_to_nats(nats_to_bits(0.37)) == pytest.approx(0.37, abs=1e-15)


def test_discrete_dist_validation():
    with pytest.raises(ValueError):
        DiscreteDist((np.zeros(2), np.ones(2)), (0.7, 0.7))
    with pytest.raises(ValueError):
        DiscreteDist((np.zeros(2), np.ones(2)), (1.2, -0.2))
    u = DiscreteDist.uniform([np.zeros(1), np.ones(1), -np.ones(1)])
    assert len(u) == 3 and sum(u.probs) == pytest.approx(1.0)
    idx = u.sample_indices(np.random.default_rng(0), 3000)
    counts = np.bincount(idx, minlength=3) / 3000
    assert np.all(np.abs(counts - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / 3000))


def test_divergences_on_shared_support():
    sup = (np.array([0.0]), np.array([1.0]))
    p = DiscreteDist(sup, (0.75, 0.25))
    q = DiscreteDist(sup, (0.5, 0.5))
    assert kl_divergence(p, q) == pytest.approx(KL_BERN_75_50, abs=1e-14)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)
    assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-15)
    # Pinsker
    assert tv_distance(p, q) <= math.sqrt(0.5 * kl_divergence(p, q)) + 1e-12


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative(pw, qw):
    k = min(len(pw), len(qw))
    pw, qw = np.array(pw[:k]), np.array(qw[:k])
    sup = tuple(np.array([float(i)]) for i in range(k))
    p = DiscreteDist(sup, tuple(pw / pw.sum()))
    q = DiscreteDist(sup, tuple(qw / qw.sum()))
    assert kl_divergence(p, q) >= -1e-12
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-12


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


@pytest.mark.parametrize("kind", ["linf_maxent", "l1_maxent"])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("M", [1.5, 3.0, 20.0])
def test_information_to_radius_inverts_closed_form(kind, d, M):
    if kind == "l1_maxent" and d == 1 and M == 1.5:
        pass  # valid, keep
    I = mi_closed_form(kind, d, 1.0, M).exact
    assert information_to_radius(kind, d, 1.0, I) == pytest.approx(M, rel=1e-9)


def test_information_to_radius_edges():
    assert information_to_radius("linf_maxent", 3, 1.0, 3 * math.log(2.0)) == 1.0
    with pytest.raises(ValueError):
        information_to_radius("linf_maxent", 3, 1.0, 3 * math.log(2.0) + 0.01)
    with pytest.raises(ValueError):
        information_to_radius("l1_maxent", 3, 1.0, math.log(6.0))
    with pytest.raises(ValueError):
        information_to_radius("linf_maxent", 3, 1.0, 0.0)
    with pytest.raises(ValueError):
        information_to_radius("dp_hypercube", 3, 1.0, 0.4)


def test_mi_monte_carlo_brackets_exact():
    ch = make_channel("linf_maxent", 2, L=1.0, M=2.0)
    src = _uniform_corners(2)
    exact = mutual_information_exact(src, ch)
    est, se = mi_monte_carlo(src, ch, 50_000, np.random.default_rng(11))
    cells = 4 * 4
    miller_madow = (cells - 1) / (2 * 50_000)
    assert abs(est - exact) <= 4.0 * se + miller_madow
    with pytest.raises(ValueError):
        mi_monte_carlo(src, ch, 100, np.random.default_rng(0))


def _grouped_loop_mi_monte_carlo(source, ch, n, rng):
    """The plug-in MI with its grouped jackknife as first written: np.unique
    per source and one full plug-in re-evaluation per occupied cell.
    Returns (est, std_err, counts)."""
    rng = np.random.default_rng(rng)
    idx = source.sample_indices(rng, n)
    per_source = np.bincount(idx, minlength=len(source))
    col_of = {}
    joint = {}
    for i in range(len(source)):
        n_i = int(per_source[i])
        if n_i == 0:
            continue
        zs = ch.sample(source.support[i], rng=rng, size=n_i)
        keys, counts = np.unique(np.round(zs, 12), axis=0, return_counts=True)
        for z, c in zip(keys, counts):
            j = col_of.setdefault(tuple(z.tolist()), len(col_of))
            joint[(i, j)] = joint.get((i, j), 0) + int(c)
    counts = np.zeros((len(source), len(col_of)))
    for (i, j), c in joint.items():
        counts[i, j] = c
    est = information._plugin_mi(counts)
    cells = [(i, j, counts[i, j]) for (i, j) in joint]
    loo = np.empty(len(cells))
    for k, (i, j, _) in enumerate(cells):
        counts[i, j] -= 1.0
        loo[k] = information._plugin_mi(counts)
        counts[i, j] += 1.0
    weights = np.array([c for (_, _, c) in cells])
    mean_loo = float((weights * loo).sum() / n)
    var = (n - 1.0) / n * float((weights * (loo - mean_loo) ** 2).sum())
    return est, math.sqrt(max(var, 0.0)), counts


def _mp_jackknife_se(counts, digits=50):
    """Grouped delete-one jackknife of the plug-in MI, straight from its
    definition, in `digits`-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    table = [[int(c) for c in row] for row in counts]
    cells = [(i, j) for i, row in enumerate(table) for j, c in enumerate(row) if c]

    def plugin(t):
        n = sum(map(sum, t))
        rows = [sum(row) for row in t]
        cols = [sum(col) for col in zip(*t)]
        return mpmath.fsum(c * mpmath.log(mpmath.mpf(c) * n / (rows[i] * cols[j]))
                           for i, row in enumerate(t) for j, c in enumerate(row)
                           if c) / n

    with mpmath.workdps(digits):
        n = sum(map(sum, table))
        loo = []
        for i, j in cells:
            table[i][j] -= 1
            loo.append(plugin(table))
            table[i][j] += 1
        w = [table[i][j] for i, j in cells]
        mean = mpmath.fsum(wk * lk for wk, lk in zip(w, loo)) / n
        var = mpmath.mpf(n - 1) / n * mpmath.fsum(
            wk * (lk - mean) ** 2 for wk, lk in zip(w, loo))
        return float(mpmath.sqrt(var))


_MC_CHANNELS = (
    [("linf_maxent", d, {"M": 2.0}) for d in (1, 2, 3, 4)]
    + [("dp_hypercube", d, {"eps": 0.5}) for d in (1, 2, 3, 4)]
    + [("l1_maxent", d, {"M": 2.0}) for d in (1, 2, 4, 8)]
    + [("identity", 3, {})]
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,d,budget", _MC_CHANNELS)
def test_mi_monte_carlo_matches_grouped_loop(kind, d, budget, seed):
    ch = make_channel(kind, d, **budget)
    src = extreme_point_source(ch)
    est, se = mi_monte_carlo(src, ch, 10_000, np.random.default_rng(seed))
    ref_est, ref_se, _ = _grouped_loop_mi_monte_carlo(src, ch, 10_000,
                                                      np.random.default_rng(seed))
    assert est == ref_est  # same counts, same columns, same summation order
    assert se == pytest.approx(ref_se, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("kind,d,budget", [
    ("identity", 3, {}), ("linf_maxent", 2, {"M": 2.0}), ("linf_maxent", 3, {"M": 4.0}),
    ("dp_hypercube", 2, {"eps": 0.5}), ("l1_maxent", 2, {"M": 2.0}),
])
def test_mi_monte_carlo_std_err_matches_50_digit_jackknife(kind, d, budget):
    ch = make_channel(kind, d, **budget)
    src = extreme_point_source(ch)
    _, se = mi_monte_carlo(src, ch, 10_000, np.random.default_rng(5))
    *_, counts = _grouped_loop_mi_monte_carlo(src, ch, 10_000, np.random.default_rng(5))
    assert se == pytest.approx(_mp_jackknife_se(counts), rel=1e-13, abs=0.0)


def test_mi_monte_carlo_evaluates_plugin_once(monkeypatch):
    # the jackknife is an O(1) update per cell, not a plug-in per cell
    calls = []
    plugin = information._plugin_mi
    monkeypatch.setattr(information, "_plugin_mi",
                        lambda counts: calls.append(1) or plugin(counts))
    ch = make_channel("linf_maxent", 3, M=2.0)
    mi_monte_carlo(extreme_point_source(ch), ch, 10_000, np.random.default_rng(0))
    assert len(calls) == 1


class _SignedZeroChannel:
    """Emits (x + b, z) with b a fair bit and z = 0.0, or with signed_zero a
    fair-coin -0.0 / 0.0: the sign carries no information and == ignores it."""

    def __init__(self, signed_zero):
        self.signed_zero = signed_zero

    def sample(self, x, rng=None, size=None):
        b = rng.integers(0, 2, size)
        z = np.where(rng.random(size) < 0.5, -0.0, 0.0)
        return np.column_stack([x[0] + b, z if self.signed_zero else np.abs(z)])


def test_mi_monte_carlo_dedupe_edge_cases():
    src = DiscreteDist(tuple(np.array([v]) for v in (0.0, 1.0, 5.0)),
                       (0.5, 0.4999, 0.0001))
    seed, n = 3, 10_000
    # this seed draws the rare source exactly once
    assert np.bincount(src.sample_indices(np.random.default_rng(seed), n))[2] == 1
    signed = mi_monte_carlo(src, _SignedZeroChannel(True), n, np.random.default_rng(seed))
    ref_est, ref_se, counts = _grouped_loop_mi_monte_carlo(
        src, _SignedZeroChannel(True), n, np.random.default_rng(seed))
    # 0.0 and -0.0 share a column: first coordinates 0, 1, 2 and one of 5, 6
    assert counts.shape == (3, 4)
    assert signed[0] == ref_est
    assert signed[1] == pytest.approx(ref_se, rel=1e-10, abs=0.0)
    assert signed == mi_monte_carlo(src, _SignedZeroChannel(False), n,
                                    np.random.default_rng(seed))


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
    # no other kind has one to certify or invert
    d, L, M = 3, 1.5, 4.0
    ch = make_channel(kind, d, L=L, M=M, eps=0.3)
    if ch.budget == "M":
        assert certificate_for(ch).level == mi_closed_form(kind, d, L, M).exact
    else:
        with pytest.raises(ValueError):
            mi_closed_form(kind, d, L, M)
        with pytest.raises(ValueError):
            information_to_radius(kind, d, L, 0.4)


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
    assert set(doc) == {"mi_exact_nats", "mi_closed_form_nats", "mi_monte_carlo_nats",
                        "dp_ratio_max", "unbiasedness_max_residual"}


def test_certify_channel_sphere_sampler_and_bias():
    rng = np.random.default_rng(33)
    rep = certify_channel(make_channel("dp_l2_sampler", 3, eps=1.0), rng=rng, n_mc=40_000)
    assert rep.mi_exact is None and rep.dp_ratio_max is None
    B = make_channel("dp_l2_sampler", 3, eps=1.0).calibration["B"]
    assert rep.unbiasedness_max_residual <= 6.0 * B / math.sqrt(40_000)

    # the demo channel is biased on purpose; the residual is measured
    # against target mean = x + bias, so it stays at pmf precision
    rep = certify_channel(make_channel("biased_demo", 2, bias=(0.4, -0.2)),
                          rng=rng, n_mc=10_000)
    assert rep.unbiasedness_max_residual <= 1e-10


def test_inforeport_rejects_inconsistent_values():
    with pytest.raises(ValueError):
        InfoReport(0.5, 0.5 + 1e-6, None, None, 0.0)
