"""Mirror descent and SGD: rates, determinism, and many chains at once."""

import math
import warnings

import numpy as np
import pytest

from privopt import optimizers
from privopt.channels import make_channel, two_level_constants
from privopt.geometry import NormBall
from privopt.losses import DataDist, RiskSpec, make_loss, risk_minimizer, risk_value
from privopt.optimizers import (
    OptimizerConfig,
    mirror_descent_l1,
    sgd_l2,
    step_size_for,
)
from privopt.protocol import PrivateGradStream, as_grad_oracle


def test_config_validation():
    ball = NormBall(1, 1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("newton", ball, 2, 10, 1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd_l2", ball, 2, 0, 1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd_l2", ball, 2, 10, 0.0)
    with pytest.raises(ValueError):
        OptimizerConfig("sgd_l2", ball, 0, 10, 1.0)
    # the run needs integer dim and steps; True would pass as one step
    for dim, steps in ((2.0, 10), (2, 10.5), (2, True)):
        with pytest.raises(ValueError):
            OptimizerConfig("sgd_l2", ball, dim, steps, 1.0)


def test_step_size_formulas():
    assert step_size_for("mirror_descent_l1", NormBall(1, 2.0), 3.0, 100, 4) == \
        pytest.approx(math.sqrt(2 * math.log(8)) / (2.0 * 3.0 * 10.0), rel=1e-15)
    assert step_size_for("sgd_l2", NormBall(2, 2.0), 4.0, 100, 3) == 0.5
    with pytest.raises(ValueError):
        step_size_for("adam", NormBall(2, 1.0), 1.0, 10, 2)


def test_domain_norm_mismatch_rejected():
    oracle = lambda theta, rng: np.zeros(2)
    with pytest.raises(ValueError):
        mirror_descent_l1(oracle, OptimizerConfig(
            "mirror_descent_l1", NormBall(2, 1.0), 2, 4, 1.0), 0)
    with pytest.raises(ValueError):
        sgd_l2(oracle, OptimizerConfig("sgd_l2", NormBall(1, 1.0), 2, 4, 1.0), 0)
    # each optimizer runs only a config of its own method
    with pytest.raises(ValueError):
        mirror_descent_l1(oracle, OptimizerConfig("sgd_l2", NormBall(1, 1.0), 2, 4, 1.0), 0)
    with pytest.raises(ValueError):
        sgd_l2(oracle, OptimizerConfig("mirror_descent_l1", NormBall(2, 1.0), 2, 4, 1.0), 0)


def test_mirror_descent_linear_rate():
    # deterministic linear objective c.theta over the l1 ball: the regret
    # bound r M sqrt(2 log(2d) / n) must hold for the averaged iterate
    c = np.array([0.8, -0.3, 0.1])
    r, n = 1.0, 10_000
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, r), 3, n, 0.8)
    run = mirror_descent_l1(lambda theta, rng: c, cfg, 0)
    assert float(c @ run.averaged) + 0.8 * r <= 0.8 * r * math.sqrt(2 * math.log(6) / n) * 1.05
    assert np.abs(run.averaged).sum() <= r + 1e-9


def test_sgd_quadratic_rate():
    a = np.array([1.0, 0.5])
    r, n = 2.0, 4096
    f_star = 0.0
    gap = lambda th: 0.5 * float((th - a) @ (th - a)) - f_star
    cfg = OptimizerConfig("sgd_l2", NormBall(2, r), 2, n, 4.0)
    seen = []

    def oracle(theta, rng):  # the oracle sees every iterate theta_t
        seen.append(theta.copy())
        return theta - a

    run = sgd_l2(oracle, cfg, 0)
    iterates = np.array(seen)
    assert gap(run.averaged) <= 3.0 * r * 4.0 / math.sqrt(n)
    assert np.all(np.linalg.norm(iterates, axis=1) <= r + 1e-9)
    assert np.allclose(iterates.mean(axis=0), run.averaged, atol=1e-12)
    assert iterates[0] @ iterates[0] == 0.0


def test_noisy_oracle_still_converges():
    c = np.array([0.6, -0.6])
    def oracle(theta, rng):
        return c + np.where(rng.random(2) < 0.5, -1.0, 1.0)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 2, 20_000, 1.6)
    run = mirror_descent_l1(oracle, cfg, 7)
    assert float(c @ run.averaged) + 0.6 <= 1.6 * math.sqrt(2 * math.log(4) / 20_000) * 2.0


def test_seed_plumbing_and_determinism():
    def oracle(theta, rng):
        return rng.standard_normal(2) * 0.1 + np.array([0.3, -0.3])
    cfg = OptimizerConfig("sgd_l2", NormBall(2, 1.0), 2, 200, 1.0)
    a = sgd_l2(oracle, cfg, 123)
    b = sgd_l2(oracle, cfg, 123)
    assert np.array_equal(a.averaged, b.averaged)
    c = sgd_l2(oracle, cfg, np.random.default_rng(123))
    assert np.array_equal(a.averaged, c.averaged)


def test_chains_match_single_runs_bitwise():
    # a deterministic oracle with its own target per row: R chains stepped
    # together must reproduce R single runs row by row, bit for bit, at
    # every iterate; at d = 8 the lift is 16 wide, where a pairwise and an
    # in-order sum of the weights differ in the last bits
    steps, r = 257, 1.5

    def oracle_for(target, seen):
        # the oracle sees every iterate theta_t, so it records the trace
        def oracle(theta, rng):
            seen.append(theta.copy())
            return np.sign(theta - target) + 0.25 * (theta - target)
        return oracle

    for d in (3, 8):
        cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, r), d, steps, 2.0)
        all_targets = np.random.default_rng(d).uniform(-1.0, 1.0, size=(4, d))
        all_targets[3] = 0.0
        for chains in (1, 2, 4):
            targets = all_targets[:chains]
            seen = []
            run = mirror_descent_l1(oracle_for(targets, seen), cfg, 99, chains=chains)
            iterates = np.array(seen)
            assert run.averaged.shape == targets.shape
            assert iterates.shape == (steps,) + targets.shape
            for row, target in enumerate(targets):
                single_seen = []
                single = mirror_descent_l1(oracle_for(target, single_seen), cfg, 99)
                assert np.array_equal(run.averaged[row], single.averaged)
                assert np.array_equal(iterates[:, row], np.array(single_seen))
    with pytest.raises(ValueError):
        mirror_descent_l1(oracle_for(all_targets, []), cfg, 99, chains=0)


def _mirror_descent_reference(grad_oracle, config, rng, chains=None):
    """mirror_descent_l1's averaged iterate with a log-renormalized lift:
    each step divides the weights by their sum and stores their log."""
    gen = np.random.default_rng(rng)
    d, n, r = config.dim, config.steps, config.domain.radius
    step = r * step_size_for("mirror_descent_l1", config.domain, config.grad_bound, n, d)
    cols = () if chains is None else (chains,)
    lw = np.full((2 * d,) + cols, -math.log(2 * d))
    theta = np.zeros((d,) + cols)
    total = np.zeros((d,) + cols)
    for _ in range(n):
        total += theta
        g = step * np.asarray(grad_oracle(theta.T, gen), dtype=float).T
        lw[:d] -= g
        lw[d:] += g
        w = np.exp(lw - lw.max(axis=0))
        w /= np.add.accumulate(w)[-1]
        lw = np.log(w)
        theta = r * (w[:d] - w[d:])
    return np.ascontiguousarray(total.T) / n


@pytest.mark.parametrize("d", [1, 4, 32])
@pytest.mark.parametrize("chains", [None, 50])
@pytest.mark.parametrize("r", [1.0, 50.0])
def test_mirror_descent_matches_log_renormalized_reference(d, chains, r):
    # a noisy quadratic pull toward a target inside the ball: the lift is
    # never renormalized in log space, which moves the average only at
    # rounding level over n = 4096 steps
    cols = () if chains is None else (chains,)
    target = np.random.default_rng(d).uniform(-1.0, 1.0, size=cols + (d,))
    target *= 0.6 * r / np.abs(target).sum(axis=-1, keepdims=True)

    def oracle(theta, rng):
        return (theta - target) / r + rng.standard_normal(theta.shape)

    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, r), d, 4096, 3.0)
    got = mirror_descent_l1(oracle, cfg, 5, chains=chains).averaged
    want = _mirror_descent_reference(oracle, cfg, 5, chains=chains)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _replay(grads):
    """An oracle that answers its t-th query with grads[t], whatever theta."""
    steps = iter(grads)
    return lambda theta, rng: next(steps)


def _spy_rescales(monkeypatch):
    """Record, for each rescale, which chains' lift sums were out of range
    and whether any was below the range."""
    calls = []
    inner = optimizers._rescale

    def spy(lw, w, s):
        calls.append((~((optimizers._SUM_LO < s) & (s < optimizers._SUM_HI)),
                      bool(np.any(s <= optimizers._SUM_LO))))
        return inner(lw, w, s)

    monkeypatch.setattr(optimizers, "_rescale", spy)
    return calls


@pytest.mark.parametrize("chains", [None, 50])
def test_mirror_descent_rescale_matches_reference_and_single_runs(chains, monkeypatch):
    # a small grad_bound makes each step move the log-weights by up to 4.5,
    # so a chain with a steady pull leaves the sum's range about every 50
    # steps and is rescaled; with R = 50 only the even chains pull hard
    d, n, r = 4, 2048, 1.0
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, r), d, n, 0.01)
    cols = () if chains is None else (chains,)
    rng = np.random.default_rng(8)
    grads = np.array([1.0, -0.5, 0.25, 0.0]) + 0.5 * rng.standard_normal((n,) + cols + (d,))
    hard = np.arange(chains or 1) % 2 == 0
    if chains is not None:
        grads[:, ~hard] *= 1e-3
    calls = _spy_rescales(monkeypatch)
    got = mirror_descent_l1(_replay(grads), cfg, 0, chains=chains).averaged
    assert len(calls) >= n // 100
    rescaled = np.logical_or.reduce([np.atleast_1d(out) for out, _ in calls])
    assert np.array_equal(rescaled, hard)
    with np.errstate(divide="ignore"):  # the reference takes the log of 0
        want = _mirror_descent_reference(_replay(grads), cfg, 0, chains=chains)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if chains is not None:
        for row in range(chains):
            single = mirror_descent_l1(_replay(grads[:, row]), cfg, 0).averaged
            assert np.array_equal(got[row], single)


@pytest.mark.parametrize("chains", [None, 3])
def test_mirror_descent_survives_one_huge_gradient(chains, monkeypatch):
    # one gradient of -1e5 overflows the exp of one half of the lift and
    # flushes the other to 0; the steady pull back afterwards then drags
    # the sum below the range, so both checks fire, and neither warns
    d, n = 2, 4096
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, 1.0)
    cols = () if chains is None else (chains,)
    grads = np.full((n,) + cols + (d,), 4.0)
    grads[0] = -1e5
    if chains is not None:
        grads[:, 1] = 0.5  # a chain that never leaves the range
    calls = _spy_rescales(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mirror_descent_l1(_replay(grads), cfg, 0, chains=chains).averaged
    assert [below for _, below in calls] == [False, True]
    with np.errstate(divide="ignore"):  # the reference takes the log of 0
        want = _mirror_descent_reference(_replay(grads), cfg, 0, chains=chains)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if chains is not None:
        for row in range(chains):
            single = mirror_descent_l1(_replay(grads[:, row]), cfg, 0).averaged
            assert np.array_equal(got[row], single)


def test_mirror_descent_rejects_gradients_not_shaped_like_theta():
    # one gradient (d,) for R = d chains would broadcast along the chains
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 3, 4, 1.0)
    with pytest.raises(ValueError, match="shape"):
        mirror_descent_l1(lambda theta, rng: np.ones(3), cfg, 0, chains=3)
    with pytest.raises(ValueError, match="shape"):
        mirror_descent_l1(lambda theta, rng: np.ones((1, 3)), cfg, 0)


def _median_gap(d, delta, L, r):
    spec = RiskSpec(make_loss("median", L=L, r=r),
                    DataDist("cube_bernoulli", d, delta, (1,) + (0,) * (d - 1)),
                    NormBall(1, r))
    best = risk_minimizer(spec).value
    return spec, lambda theta: risk_value(spec, theta) - best


def test_batched_chains_match_sequential_statistically():
    # private dp run, d = 2: same population risk within Monte-Carlo error
    d, steps, reps, delta, L, r, eps = 2, 512, 48, 0.5, 1.0, 1.0, 0.5
    spec, gap = _median_gap(d, delta, L, r)
    ch = make_channel("dp_hypercube", d, L=L, eps=eps)
    B = L / two_level_constants(d, eps)["t"]
    rng = np.random.default_rng(31)
    stream = PrivateGradStream.from_population(spec.data, spec.loss, ch, rng=rng)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, r), d, steps, B)
    avg = mirror_descent_l1(as_grad_oracle(stream), cfg, rng, chains=reps).averaged
    gaps_batched = np.array([gap(a) for a in avg])

    nu = np.array([1.0] + [0.0] * (d - 1))
    gaps_seq = []
    for rep in range(reps):
        gen = np.random.default_rng(np.random.SeedSequence([777, rep]))

        def oracle(theta, rng):
            x = np.where(gen.random(d) < 0.5 * (1.0 + delta * nu), 1.0, -1.0)
            return ch.sample(L * np.sign(theta - r * x), rng=gen)

        gaps_seq.append(gap(mirror_descent_l1(oracle, cfg, gen).averaged))
    gaps_seq = np.array(gaps_seq)

    se = math.sqrt(gaps_batched.var(ddof=1) / reps + gaps_seq.var(ddof=1) / reps)
    assert abs(gaps_batched.mean() - gaps_seq.mean()) <= 4.0 * se
