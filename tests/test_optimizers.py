"""Mirror descent and SGD: rates, determinism, and many chains at once."""

import math
import warnings

import numpy as np
import pytest

from privopt import optimizers, protocol
from privopt.channels import Channel, make_channel, two_level_constants
from privopt.geometry import NormBall
from privopt.losses import (DataDist, RiskSpec, make_loss, risk_minimizer, risk_value,
                            sample_datum, subgrad)
from privopt.optimizers import (
    OptimizerConfig,
    mirror_descent_l1,
    sgd_l2,
    step_size_for,
)
from privopt.protocol import PrivateGradStream, as_grad_oracle, query


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


@pytest.mark.parametrize("grad_bound", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_config_refuses_a_grad_bound_outside_zero_to_inf(grad_bound):
    # nan made mirror descent return an all-NaN average, and inf a step
    # size of 0, so both optimizers ignored every gradient and returned 0
    with pytest.raises(ValueError, match="grad_bound must be positive and finite"):
        OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 2, 10, grad_bound)


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


def test_chains_is_an_integer_never_truncated():
    # a fraction or a bool is refused, not run as int(chains); a numpy integer passes
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 2, 4, 1.0)

    def oracle(theta, rng):
        return np.ones_like(theta)

    for chains in (2.5, True):
        with pytest.raises(ValueError, match="chains must be an integer"):
            mirror_descent_l1(oracle, cfg, 0, chains=chains)
    assert mirror_descent_l1(oracle, cfg, 0, chains=np.int64(2)).averaged.shape == (2, 2)


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


_NARROW = r"^oracle gave a gradient of shape \(1,\) for theta \(3,\)$"


def test_optimizers_reject_gradients_not_shaped_like_theta():
    # one gradient (d,) for R = d chains would broadcast along the chains,
    # and sgd_l2 used to broadcast a (1,) gradient over theta (3,)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 3, 4, 1.0)
    with pytest.raises(ValueError, match="shape"):
        mirror_descent_l1(lambda theta, rng: np.ones(3), cfg, 0, chains=3)
    with pytest.raises(ValueError, match="shape"):
        mirror_descent_l1(lambda theta, rng: np.ones((1, 3)), cfg, 0)
    with pytest.raises(ValueError, match=_NARROW):
        mirror_descent_l1(lambda theta, rng: np.array([1.0]), cfg, 0)
    cfg = OptimizerConfig("sgd_l2", NormBall(2, 1.0), 3, 10, 1.0)
    with pytest.raises(ValueError, match=_NARROW):
        sgd_l2(lambda theta, rng: np.array([1.0]), cfg, 0)


@pytest.mark.parametrize("window,msg", [
    (lambda most: np.ones((most, 1)), _NARROW),
    (lambda most: np.ones((0, 3)), "^oracle answered 0 queries ahead, not 1 to 10$"),
    (lambda most: np.ones((most + 1, 3)), "^oracle answered 11 queries ahead, not 1 to 10$"),
], ids=["narrow", "none", "too-many"])
def test_window_answers_follow_the_per_step_answer_rule(window, msg):
    # a window's answers are (k, *theta.shape) with 1 <= k <= most; a (k, 1)
    # window for theta (3,) used to broadcast and run to the end, while the
    # per-step path refuses each (1,) answer with the same message
    def oracle(theta, rng):
        raise AssertionError("the first window is refused before any single step")

    oracle.ahead = lambda theta, most: (window(most), lambda thetas: len(thetas) + 1)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 3, 10, 1.0)
    with pytest.raises(ValueError, match=msg):
        mirror_descent_l1(oracle, cfg, 0)


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


# ---------------------------------------------------------------------------
# an oracle that answers ahead: the window path against the per-step path

_FAMILIES = {  # (channel kind, its budget, loss, data law)
    "linf_maxent": ("linf_maxent", {"M": 4.0}, "median", "cube_bernoulli"),
    "dp_hypercube": ("dp_hypercube", {"eps": 0.5}, "median", "cube_bernoulli"),
    "identity": ("identity", {}, "median", "cube_bernoulli"),
    "l1_maxent": ("l1_maxent", {"M": 4.0}, "hinge", "coord_basis"),
    "dp_l2_sampler": ("dp_l2_sampler", {"eps": 1.0}, "hinge", "coord_basis"),
}


def _stream_pair(family, d, rng, owners=None, r=1.0, count=2):
    """count (two) streams with the same seed, the same channel and the same
    law: from the population, or over the same owners when owners is a
    count."""
    kind, budget, loss, law = _FAMILIES[family]
    ch = make_channel(kind, d, L=1.0, **budget)
    loss = make_loss(loss, L=1.0, r=r)
    dist = DataDist(law, d, 0.5, (1,) + (0,) * (d - 1))
    if owners is None:
        return ch, [PrivateGradStream.from_population(dist, loss, ch, rng=rng)
                    for _ in range(count)]
    data = sample_datum(dist, np.random.default_rng(rng), size=owners)
    return ch, [PrivateGradStream.from_data(data, loss, ch, rng=rng) for _ in range(count)]


class _Replay:
    """The per-step reference of a stream, built on an unused one: its
    blocks replayed as the stream's refills draw them (owners or data, then
    noise, from its rng), and every query answered with
    Channel.apply(subgrad(...)) of its own rows.  It never guesses; it
    keeps its own cursor and advances the stream's rng."""

    def __init__(self, stream):
        self.stream, self.rng, self.cursor = stream, stream.rng, 0
        self.x, self.noise, self.next = np.empty((0, stream.channel.d)), (), 0

    def __call__(self, theta, rng=None):
        s, theta = self.stream, np.asarray(theta, dtype=float)
        m = len(theta) if theta.ndim == 2 else 1
        if s.population is None and self.cursor >= len(s.data):
            raise RuntimeError("single-pass stream exhausted")
        if self.next + m > len(self.x):
            if s.population is None:
                self.x = s.data[self.cursor:self.cursor + protocol._BLOCK_ROWS]
            else:
                self.x = sample_datum(s.population, self.rng,
                                      size=m * max(1, protocol._BLOCK_ROWS // m))
            self.noise, self.next = s.channel.noise(len(self.x), self.rng), 0
        span = slice(self.next, self.next + m)
        self.next += m
        self.cursor += m
        x = self.x[span] if theta.ndim == 2 else self.x[span.start]
        z = s.channel.apply(subgrad(s.loss, x, theta), tuple(a[span] for a in self.noise))
        return z if theta.ndim == 2 else z[0]


def _both_paths(streams, cfg, chains=None):
    """The run over the answering-ahead oracle, and over the per-step
    replay of the other stream; exceptions are returned."""
    replay = _Replay(streams[1])
    outs = []
    for oracle in (as_grad_oracle(streams[0]), replay):
        try:
            outs.append(mirror_descent_l1(oracle, cfg, 0, chains=chains).averaged)
        except Exception as e:  # noqa: BLE001 - compared below
            outs.append(e)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor
    return outs


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _count_paths(monkeypatch):
    """Count the windows and the single queries of stream oracles made
    after this call."""
    counts = {"windows": 0, "queries": 0}
    ahead, one = protocol._ahead, protocol.query

    def counted(name, fn):
        def wrapped(*a):
            counts[name] += 1
            return fn(*a)
        return wrapped

    monkeypatch.setattr(protocol, "_ahead", counted("windows", ahead))
    monkeypatch.setattr(protocol, "query", counted("queries", one))
    return counts


@pytest.mark.parametrize("chains", [None, 1, 7, 50])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_window_path_equals_per_step_path_on_population_streams(family, chains, monkeypatch):
    # d = 8, where an in-order and a pairwise sum of the 16 lift weights
    # differ in the last bits; 2500 steps span three blocks of one chain
    d, n = 8, 2500
    ch, streams = _stream_pair(family, d, 17)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, ch.target.radius)
    counts = _count_paths(monkeypatch)
    windowed, stepped = _both_paths(streams, cfg, chains)
    assert counts["windows"] > 0
    _assert_same_bits(windowed, stepped)


@pytest.mark.parametrize("family", ["dp_hypercube", "l1_maxent"])
def test_owner_list_oracle_answers_one_query_at_a_time(family, monkeypatch):
    # an owner releases one view of its datum, so an owner list's oracle
    # does not answer ahead: its run is the per-step loop of a plain
    # callable over the same owners
    d, n = 8, 2500
    ch, streams = _stream_pair(family, d, 23, owners=n)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, ch.target.radius)
    assert not hasattr(as_grad_oracle(streams[0]), "ahead")
    counts = _count_paths(monkeypatch)
    via_oracle, stepped = _both_paths(streams, cfg)
    assert counts == {"windows": 0, "queries": n}  # the oracle's queries
    _assert_same_bits(via_oracle, stepped)
    assert streams[0].exhausted()


@pytest.mark.parametrize("method", [mirror_descent_l1, sgd_l2])
@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("family,r,spread", [(f, 1.0, None) for f in _FAMILIES] + [
    ("l1_maxent", 0.02, None), ("dp_hypercube", 1.0, 0.02)],
    ids=list(_FAMILIES) + ["l1_maxent-flip", "dp_hypercube-uniform"])
def test_owner_list_queries_equal_the_replay(family, r, spread, d, method):
    # an owner list's one-theta queries read their block's guess as a
    # population's do; both optimizers step bit for bit as over the replay,
    # which never guesses, and the rng, the cursor and the error of the
    # query past the last owner end as per step.  2500 owners span three
    # blocks, the last short.  The hinge r = 0.02 flips many subgradients
    # within a block, and owners uniform on [-0.02, 0.02]^d under the
    # median loss miss nearly every guess
    n = 2500
    ch, streams = _stream_pair(family, d, 53, owners=n, r=r)
    if spread is not None:
        data = np.random.default_rng(53).uniform(-spread, spread, (n, d))
        streams = [PrivateGradStream.from_data(data, s.loss, ch, rng=53) for s in streams]
    domain = NormBall(1 if method is mirror_descent_l1 else 2, 1.0)
    cfg = OptimizerConfig(method.__name__, domain, d, n, ch.target.radius)
    oracle, replay = as_grad_oracle(streams[0]), _Replay(streams[1])
    _assert_same_bits(method(oracle, cfg, 0).averaged, method(replay, cfg, 0).averaged)
    for ask in (oracle, replay):
        with pytest.raises(RuntimeError, match="single-pass stream exhausted"):
            ask(np.zeros(d), None)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor == n


def test_owner_list_oracle_raises_like_a_plain_callable_when_short():
    # 2000 owners for 2500 steps: both oracles raise at query 2000, after
    # the same refills
    d, n = 4, 2500
    ch, streams = _stream_pair("dp_hypercube", d, 29, owners=2000)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, ch.target.radius)
    via_oracle, stepped = _both_paths(streams, cfg)
    for e in (via_oracle, stepped):
        assert isinstance(e, RuntimeError) and str(e) == "single-pass stream exhausted"
    assert streams[0].cursor == 2000


@pytest.mark.parametrize("method", [mirror_descent_l1, sgd_l2])
@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_per_step_queries_equal_the_replay(family, d, method):
    # a wrapped oracle has no ahead, so every step is one query, answered
    # from its block's guess when its subgradient is the guessed one; both
    # optimizers step bit for bit as over the replay, which never guesses,
    # and so does mirror descent in windows.  2500 steps span three blocks
    n = 2500
    ch, streams = _stream_pair(family, d, 41, count=3)
    domain = NormBall(1 if method is mirror_descent_l1 else 2, 1.0)
    cfg = OptimizerConfig(method.__name__, domain, d, n, ch.target.radius)
    oracle = as_grad_oracle(streams[0])
    replay = _Replay(streams[2])
    stepped = method(replay, cfg, 0).averaged
    for s, run in ((streams[0], method(lambda theta, rng: oracle(theta, rng), cfg, 0)),
                   (streams[1], method(as_grad_oracle(streams[1]), cfg, 0))):
        _assert_same_bits(run.averaged, stepped)
        assert s.rng.bit_generator.state == replay.rng.bit_generator.state
        assert s.cursor == replay.cursor == n


@pytest.mark.parametrize("method", [mirror_descent_l1, sgd_l2])
def test_per_step_queries_equal_the_replay_when_subgradients_flip(method, monkeypatch):
    # the hinge r = 0.02 flip configuration, one query per step: many
    # steps leave the guess and are redone with their row's own noise, and
    # the run is still bit for bit the replay's
    d, n = 8, 2500
    ch, streams = _stream_pair("l1_maxent", d, 31, r=0.02)
    domain = NormBall(1 if method is mirror_descent_l1 else 2, 1.0)
    cfg = OptimizerConfig(method.__name__, domain, d, n, ch.target.radius)
    rows = []
    apply = Channel.apply

    def counted(self, x, noise):
        rows.append(len(noise[0]))
        return apply(self, x, noise)

    monkeypatch.setattr(Channel, "apply", counted)
    run = method(lambda theta, rng: query(streams[0], theta), cfg, 0).averaged
    monkeypatch.undo()
    assert rows.count(protocol._BLOCK_ROWS) == 3 and 0 < rows.count(1) < n
    replay = _Replay(streams[1])
    _assert_same_bits(run, method(replay, cfg, 0).averaged)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor


def test_answering_ahead_raises_where_the_per_step_replay_does():
    # l1_maxent with source radius 0.5 under the hinge with L = 1: every
    # nonzero subgradient is refused, and at theta = 0 every subgradient is
    # nonzero, so both runs raise at the first query, after consuming it
    d = 4
    ch = make_channel("l1_maxent", d, L=0.5, M=2.0)
    loss = make_loss("hinge", L=1.0, r=0.1)
    dist = DataDist("coord_basis", d, 0.5, (1,) + (0,) * (d - 1))
    streams = [PrivateGradStream.from_population(dist, loss, ch, rng=43) for _ in range(2)]
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, 100, ch.target.radius)
    windowed, stepped = _both_paths(streams, cfg)
    for e in (windowed, stepped):
        assert isinstance(e, ValueError) and "exceeds source radius" in str(e)
    assert str(windowed) == str(stepped) and streams[0].cursor == 1


class _ScriptedOracle:
    """An oracle that answers ahead from blocks of `block` queries and
    answers every query with the gradient g; the guesses for the steps in
    `wrong` (counted from 0 over the run) fail their check.  The log has
    ("step",) per single query and ("window", most, k, m) per window."""

    def __init__(self, g, block, wrong=()):
        self.g, self.block, self.wrong = np.asarray(g, float), block, set(wrong)
        self.served, self.log = 0, []

    def __call__(self, theta, rng):
        self.served += 1
        self.log.append(("step",))
        return self.g.copy()

    def ahead(self, theta, most):
        k = min(most, self.block - self.served % self.block)
        start = self.served

        def settle(thetas):
            bad = [t for t in range(1, len(thetas) + 1) if start + t in self.wrong]
            m = bad[0] if bad else len(thetas) + 1
            self.served += m
            self.log.append(("window", most, k, m))
            return m

        return np.broadcast_to(self.g, (k,) + self.g.shape).copy(), settle


def _scripted_run(oracle, n=40):
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), 2, n, 1.0)
    mirror_descent_l1(oracle, cfg, 0)
    return oracle.log


def test_window_cut_short_by_the_block_end_keeps_the_cap():
    # blocks of 5 queries and no wrong guess: every window is a block's
    # tail, wastes nothing, and asks for all the steps left
    assert _scripted_run(_ScriptedOracle([1.0, -1.0], 5)) == [
        ("window", 40 - 5 * i, 5, 5) for i in range(8)]


def test_window_after_a_failed_check_is_capped_and_single_steps_follow():
    # the guess for step 7 fails: 7 steps are kept, one single step
    # follows, and the next window asks for at most 2 * 7; a window that
    # checks out resets the single steps, and a full one doubles the cap
    assert _scripted_run(_ScriptedOracle([1.0, -1.0], 20, wrong={7})) == [
        ("window", 40, 20, 7), ("step",), ("window", 14, 12, 12),
        ("window", 14, 14, 14), ("window", 6, 6, 6)]


def test_single_steps_double_while_every_check_fails():
    # every guess fails: each window keeps its first step only, and the
    # single steps between windows run 1, 2, 4, ...; the window of one
    # step at a block's tail (step 19) checks no guess and changes nothing
    log = _scripted_run(_ScriptedOracle([1.0, -1.0], 20, wrong=range(1, 40)), n=40)
    runs, singles = [], 0
    for entry in log:
        if entry[0] == "step":
            singles += 1
            continue
        assert entry[3] == 1
        runs.append(singles)
        singles = 0
    assert ("window", 2, 1, 1) in log
    assert runs == [0, 1, 2, 4, 8, 0, 16] and singles == 2


@pytest.mark.parametrize("chains", [None, 50])
def test_window_path_keeps_the_verified_prefix_when_subgradients_flip(chains, monkeypatch):
    # hinge with margin r = 0.02 on the l1 ball of radius 1: the iterates
    # cross the kink <x, theta> = r again and again, so speculated windows
    # fail verification and single steps follow the short ones; the run
    # stays bit for bit the per-step one, and the window cap bounds the
    # rows drawn through the channel by 3 n R
    d, n, R = 8, 600, chains or 1
    ch, streams = _stream_pair("l1_maxent", d, 31, r=0.02)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, ch.target.radius)
    rows = []
    apply = Channel.apply

    def counted(self, x, noise):
        rows.append(len(noise[0]))
        return apply(self, x, noise)

    monkeypatch.setattr(Channel, "apply", counted)
    counts = _count_paths(monkeypatch)
    windowed = mirror_descent_l1(as_grad_oracle(streams[0]), cfg, 0, chains=chains).averaged
    drawn = sum(rows)
    monkeypatch.undo()
    assert counts["windows"] > 0 and counts["queries"] > 0
    replay = _Replay(streams[1])
    stepped = mirror_descent_l1(replay, cfg, 0, chains=chains).averaged
    _assert_same_bits(windowed, stepped)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor
    assert n * R < drawn <= 3 * n * R  # some answers were redone, within the bound


def test_single_steps_that_refill_a_block_add_at_most_that_block(monkeypatch):
    # the one-chain flip config over four blocks: single steps follow the
    # failed windows, and one that refills a block applies all its rows as
    # the block's guess, which a later window of that block applies again.
    # The run stays the per-step one, and the rows drawn through the
    # channel are at most 3 n plus one block per such refill (seed 38:
    # single steps refill two of the four blocks)
    d, n = 8, 4000
    ch, streams = _stream_pair("l1_maxent", d, 38, r=0.02)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, ch.target.radius)
    rows = []
    apply, answer = Channel.apply, protocol._answer
    answers = [0]

    def counted(self, x, noise):
        rows.append(len(noise[0]))
        return apply(self, x, noise)

    def answered(*a):
        answers[0] += 1
        return answer(*a)

    monkeypatch.setattr(Channel, "apply", counted)
    monkeypatch.setattr(protocol, "_answer", answered)
    counts = _count_paths(monkeypatch)
    windowed = mirror_descent_l1(as_grad_oracle(streams[0]), cfg, 0).averaged
    monkeypatch.undo()
    refills = answers[0] - counts["windows"]  # the block guesses of single steps
    assert refills > 0
    assert sum(rows) <= 3 * n + protocol._BLOCK_ROWS * refills
    replay = _Replay(streams[1])
    _assert_same_bits(windowed, mirror_descent_l1(replay, cfg, 0).averaged)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor


@pytest.mark.parametrize("chains", [None, 50])
def test_window_path_rescales_inside_a_window(chains, monkeypatch):
    # grad_bound 0.01 makes each step move the log-weights by up to
    # 4 / 0.01 times its usual size, so lift sums leave their range within
    # a window and a rescale cuts it
    d, n = 4, 1500
    ch, streams = _stream_pair("linf_maxent", d, 37)
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, 0.01)
    calls = _spy_rescales(monkeypatch)
    windowed = mirror_descent_l1(as_grad_oracle(streams[0]), cfg, 0, chains=chains).averaged
    assert len(calls) >= 10
    monkeypatch.undo()
    replay = _Replay(streams[1])
    stepped = mirror_descent_l1(replay, cfg, 0, chains=chains).averaged
    _assert_same_bits(windowed, stepped)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor


def _spy_settles(monkeypatch):
    """Count, after this call, the guesses answered (protocol._answer), the
    single queries, the subgradient calls, and the settle calls that had
    thetas to check."""
    counts = {"answers": 0, "queries": 0, "subgrads": 0, "settles": 0}
    ahead, answer, one, grad = protocol._ahead, protocol._answer, protocol.query, protocol.subgrad

    def counted(name, fn):
        def wrapped(*a):
            counts[name] += 1
            return fn(*a)
        return wrapped

    def spied_ahead(*a):
        z, settle = ahead(*a)

        def spied_settle(thetas):
            counts["settles"] += len(thetas) > 0
            return settle(thetas)

        return z, spied_settle

    monkeypatch.setattr(protocol, "_ahead", spied_ahead)
    monkeypatch.setattr(protocol, "_answer", counted("answers", answer))
    monkeypatch.setattr(protocol, "query", counted("queries", one))
    monkeypatch.setattr(protocol, "subgrad", counted("subgrads", grad))
    return counts


@pytest.mark.parametrize("chains", [None, 1, 50])
@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("loss,law,fixed", [
    ("median", "cube_bernoulli", True), ("hinge", "coord_basis", True),
    ("linear", "cube_bernoulli", True), ("median", "coord_basis", False)])
def test_settle_reads_no_data_only_where_the_loss_is_fixed(loss, law, fixed, d, chains,
                                                           monkeypatch):
    # r = 2 on the l1 ball of radius 1 keeps every theta inside the open
    # box |theta_j| < r: settle then recomputes no subgradient when the
    # stream draws the loss's own law, and recomputes every window's
    # subgradients when it does not (median over coord_basis); both runs
    # are the per-step replay's bit for bit.  At d = 1 with one chain the
    # total has one entry, which the window adds with np.add.accumulate
    n = 2500
    ch = make_channel("linf_maxent", d, L=1.0, M=4.0)
    dist = DataDist(law, d, 0.5, (1,) + (0,) * (d - 1))
    streams = [PrivateGradStream.from_population(dist, make_loss(loss, L=1.0, r=2.0), ch, rng=47)
               for _ in range(2)]
    cfg = OptimizerConfig("mirror_descent_l1", NormBall(1, 1.0), d, n, ch.target.radius)
    counts = _spy_settles(monkeypatch)
    windowed = mirror_descent_l1(as_grad_oracle(streams[0]), cfg, 0, chains=chains).averaged
    monkeypatch.undo()
    recomputed = counts["subgrads"] - counts["answers"] - counts["queries"]
    assert counts["settles"] > 0
    assert recomputed == (0 if fixed else counts["settles"])
    replay = _Replay(streams[1])
    _assert_same_bits(windowed, mirror_descent_l1(replay, cfg, 0, chains=chains).averaged)
    assert streams[0].rng.bit_generator.state == replay.rng.bit_generator.state
    assert streams[0].cursor == replay.cursor
