"""Owner/stream protocol: routing, exhaustion, rng ownership, audits."""

import json

import numpy as np
import pytest

from privopt.channels import Channel, make_channel
from privopt.geometry import NormBall
from privopt.losses import DataDist, make_loss, sample_datum, subgrad
from privopt.optimizers import OptimizerConfig, sgd_l2
from privopt.protocol import (
    _BLOCK_ROWS,
    PrivateGradStream,
    as_grad_oracle,
    audit_leakage,
    query,
)


def _parts(d=2, kind="linf_maxent"):
    loss = make_loss("median", L=1.0, r=1.0)
    ch = make_channel(kind, d, L=1.0, M=2.0) if kind == "linf_maxent" \
        else make_channel(kind, d, eps=0.5)
    return loss, ch


def test_owner_respond_is_channelized_subgradient():
    loss, ch = _parts()
    datum = np.array([1.0, -1.0])
    a = query(PrivateGradStream.from_data([datum], loss, ch, rng=3), np.zeros(2))
    # replay: same subgradient, same channel, same seed; a list of one owner
    # draws one row of noise, as one sample does
    g = subgrad(loss, datum, np.zeros(2))
    b = ch.sample(g, rng=np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-2.0, 2.0}  # output leaves on the M-cube


def test_single_pass_walks_once_then_raises():
    loss, ch = _parts()
    data = [np.array([1.0, 1.0]), np.array([-1.0, 1.0]), np.array([1.0, -1.0])]
    stream = PrivateGradStream.from_data(data, loss, ch, rng=0)
    assert not stream.exhausted()
    for k in range(3):
        z = query(stream, np.zeros(2))
        assert z.shape == (2,) and stream.cursor == k + 1
    assert stream.exhausted()
    with pytest.raises(RuntimeError):
        query(stream, np.zeros(2))


def test_population_stream_mints_fresh_data():
    loss, ch = _parts()
    dist = DataDist("cube_bernoulli", 2, 0.5, (1, 0))
    stream = PrivateGradStream.from_population(dist, loss, ch, rng=5)
    draws = np.array([query(stream, np.zeros(2)) for _ in range(200)])
    assert draws.shape == (200, 2)
    assert not stream.exhausted()
    with pytest.raises(ValueError):
        PrivateGradStream(data=np.zeros((0, 2)), loss=loss, channel=ch)
    with pytest.raises(ValueError):
        PrivateGradStream(population=dist, loss=loss)


def test_stream_refuses_owners_and_population_together():
    # a stream is one or the other: given both, the population would answer
    # every query and the owner list would be dropped without a word
    loss, ch = _parts()
    dist = DataDist("cube_bernoulli", 2, 0.5, (1, 0))
    with pytest.raises(ValueError, match="not both"):
        PrivateGradStream(data=np.eye(2), population=dist, loss=loss, channel=ch)


def test_streams_check_dimensions_at_construction():
    # an owner list is a non-empty (n, channel.d) array and a population has
    # the channel's d; a mismatch used to surface only at the first query
    loss, ch = _parts(d=1)
    for data in ([0.5, -0.5], np.zeros((0, 1)), np.zeros((3, 2)), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError):
            PrivateGradStream.from_data(data, loss, ch, rng=0)
    PrivateGradStream.from_data([[0.5], [-0.5]], loss, ch, rng=0)
    dist = DataDist("cube_bernoulli", 2, 0.5, (1, 0))
    with pytest.raises(ValueError, match="dimension"):
        PrivateGradStream.from_population(dist, loss, ch, rng=0)


def test_owner_list_builds_without_per_owner_generators():
    # 10^5 owners are one (n, d) array: building the list spawns no child
    # generator and does no per-owner work.  SeedSequence is an immutable
    # type, so its spawn is replaced in a subclass that the stream seeds from
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("an owner list spawned a child generator")

    loss, ch = _parts(d=3, kind="dp_hypercube")
    data = np.tile([1.0, -1.0, 1.0], (10**5, 1))
    stream = PrivateGradStream.from_data(data, loss, ch, rng=NoSpawn(7))
    zs = np.array([query(stream, np.zeros(3)) for _ in range(3)])
    assert zs.shape == (3, 3) and stream.cursor == 3 and not stream.exhausted()


@pytest.mark.parametrize("kind", ["dp_hypercube", "dp_l2_sampler"])
def test_owner_list_replays_from_blocks_of_stream_noise(kind):
    # a refill takes the next min(_BLOCK_ROWS, owners left) owners and draws
    # their channel noise in one call from the stream rng; each owner answers
    # once, in order.  The last block is short: for either kind, noise drawn
    # for a full block there would change its answers
    d, n = 3, 2 * _BLOCK_ROWS + 5
    rng = np.random.default_rng(30)
    if kind == "dp_hypercube":
        loss, ch = _parts(d=d, kind=kind)
        data = rng.choice((-1.0, 1.0), size=(n, d))
    else:
        loss, ch = make_loss("hinge", L=1.0, r=1.0), make_channel(kind, d, eps=1.0)
        data = np.eye(d)[rng.integers(d, size=n)] * rng.choice((-1.0, 1.0), size=(n, 1))
    thetas = rng.uniform(-0.5, 0.5, (n, d))
    stream = PrivateGradStream.from_data(data, loss, ch, rng=31)
    got = np.array([query(stream, t) for t in thetas])
    assert stream.cursor == n and stream.exhausted()
    with pytest.raises(RuntimeError):
        query(stream, thetas[0])
    rng = np.random.default_rng(31)
    want = []
    for start in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - start)
        noise = ch.noise(rows, rng)
        for j in range(rows):
            g = subgrad(loss, data[start + j], thetas[start + j])
            want.append(ch.apply(g, tuple(a[j:j + 1] for a in noise))[0])
    assert np.array_equal(got, np.array(want))


def test_population_stream_answers_a_batch():
    # a (R, d) theta is R queries: R fresh data, R subgradients, R draws,
    # replayable from the same seed through the layers below; the first
    # query fills the block with data, then their channel noise
    loss, ch = _parts(d=3, kind="dp_hypercube")
    dist = DataDist("cube_bernoulli", 3, 0.5, (1, 0, 0))
    theta = np.linspace(-0.5, 0.5, 15).reshape(5, 3)
    z = query(PrivateGradStream.from_population(dist, loss, ch, rng=12), theta)
    rng = np.random.default_rng(12)
    rows = 5 * (_BLOCK_ROWS // 5)
    x = sample_datum(dist, rng, size=rows)
    noise = ch.noise(rows, rng)
    want = ch.apply(subgrad(loss, x[:5], theta), tuple(a[:5] for a in noise))
    assert np.array_equal(z, want)
    with pytest.raises(ValueError):
        query(PrivateGradStream.from_population(dist, loss, ch, rng=12), theta[:0])
    owners = PrivateGradStream.from_data([np.ones(3)] * 5, loss, ch, rng=0)
    with pytest.raises(ValueError):
        query(owners, theta)


_THETA_RULE = (r"a stream answers one theta \(4,\), and a population also a batch \(R, 4\); "
               r"got shape ")


@pytest.mark.parametrize("ask", ["query", "ahead"])
@pytest.mark.parametrize("shape,msg", [
    ((2, 8), _THETA_RULE + r"\(2, 8\)"),
    ((3,), _THETA_RULE + r"\(3,\)"),
    ((2, 3), _THETA_RULE + r"\(2, 3\)"),
    ((2, 2, 4), _THETA_RULE + r"\(2, 2, 4\)"),
    ((), _THETA_RULE + r"\(\)"),
    ((0, 4), "a batch query needs at least one row"),
], ids=["wide-batch", "narrow", "narrow-batch", "three-axes", "scalar", "empty-batch"])
def test_population_theta_outside_the_rule_is_refused_before_the_stream_moves(ask, shape, msg):
    # a population stream takes one theta (d,) or a non-empty batch (R, d),
    # d the channel's, and query and the oracle's ahead refuse any other
    # theta alike, before the block, the cursor or the rng moves.  ahead
    # used to answer (2, 8) as two rows and fail on (3,) inside a reshape,
    # and query consumed a row before its subgradient saw the width
    loss, ch = _parts(d=4, kind="dp_hypercube")
    dist = DataDist("cube_bernoulli", 4, 0.5, (1, 0, 0, 0))
    stream = PrivateGradStream.from_population(dist, loss, ch, rng=1)
    state = stream.rng.bit_generator.state
    with pytest.raises(ValueError, match=msg):
        if ask == "query":
            query(stream, np.zeros(shape))
        else:
            as_grad_oracle(stream).ahead(np.zeros(shape), 5)
    assert stream.cursor == 0 and stream._block == ()
    assert stream.rng.bit_generator.state == state


@pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 4), ()],
                         ids=["narrow", "batch", "batch-of-one", "scalar"])
def test_owner_list_theta_outside_the_rule_is_refused_before_the_stream_moves(shape):
    # an owner list takes one theta (d,); a (3,) theta used to consume an
    # owner before its subgradient saw the width
    loss, ch = _parts(d=4, kind="dp_hypercube")
    stream = PrivateGradStream.from_data(np.ones((3, 4)), loss, ch, rng=1)
    state = stream.rng.bit_generator.state
    with pytest.raises(ValueError, match=_THETA_RULE):
        query(stream, np.zeros(shape))
    assert stream.cursor == 0 and stream._block == ()
    assert stream.rng.bit_generator.state == state


@pytest.mark.parametrize("m", [50, 1])
def test_population_stream_refills_without_reusing_noise(m, monkeypatch):
    # m rows per query; 50 does not divide _BLOCK_ROWS, so each refill draws
    # 50 * (_BLOCK_ROWS // 50) rows and every query spends m unread ones.
    # One-theta queries answer from their block's guess (one apply over the
    # whole block), so each answer is traced to the apply that drew it and
    # to the noise rows behind it: no noise row serves two queries
    loss, ch = _parts(d=3, kind="dp_hypercube")
    dist = DataDist("cube_bernoulli", 3, 0.5, (1, 0, 0))
    per_block = _BLOCK_ROWS // m
    queries = 3 * per_block + 2  # three refills after the first block
    theta = np.random.default_rng(4).uniform(-0.3, 0.3, (m, 3))
    applied = []  # (noise rows, draws) of each Channel.apply
    apply = Channel.apply

    def spy(self, x, noise):
        z = apply(self, x, noise)
        applied.append((noise[0], z))
        return z

    monkeypatch.setattr(Channel, "apply", spy)
    stream = PrivateGradStream.from_population(dist, loss, ch, rng=21)
    got = [query(stream, theta if m > 1 else theta[0]) for _ in range(queries)]
    monkeypatch.undo()
    # replay the blocks: data, then noise, from the stream's seed
    rng = np.random.default_rng(21)
    want, rows = [], m * per_block
    for _ in range(4):
        x = sample_datum(dist, rng, size=rows)
        noise = ch.noise(rows, rng)
        for i in range(0, rows, m):
            g = subgrad(loss, x[i:i + m] if m > 1 else x[i], theta if m > 1 else theta[0])
            z = ch.apply(g, tuple(a[i:i + m] for a in noise))
            want.append(z if m > 1 else z[0])
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    served = []
    for a in got:  # each answer is m rows of one apply's draws
        noise_rows, z = next((n, z) for n, z in applied if np.shares_memory(a, z))
        i = (a.__array_interface__["data"][0] - z.__array_interface__["data"][0]) // z.strides[0]
        served.append(noise_rows[i:i + m])
    u = np.concatenate(served)
    assert len(u) == queries * m and len(np.unique(u, axis=0)) == len(u)


def _spy_apply_rows(monkeypatch) -> list:
    """The rows of each Channel.apply call made after this call."""
    rows, apply = [], Channel.apply

    def counted(self, x, noise):
        rows.append(len(noise[0]))
        return apply(self, x, noise)

    monkeypatch.setattr(Channel, "apply", counted)
    return rows


def _one_theta_stream(owners, dist, loss, ch, n, rng):
    """A population stream, or an owner list of n owners drawn from the
    population's law (from a generator of its own)."""
    if not owners:
        return PrivateGradStream.from_population(dist, loss, ch, rng=rng)
    data = sample_datum(dist, np.random.default_rng([rng, 1]), size=n)
    return PrivateGradStream.from_data(data, loss, ch, rng=rng)


@pytest.mark.parametrize("owners", [False, True], ids=["population", "owner-list"])
def test_one_theta_queries_apply_each_block_once_while_subgradients_hold(owners, monkeypatch):
    # the median loss at |theta_j| < r has the subgradient L sign(theta - r x)
    # = -L x whatever theta is: every query reads its block's guess, so each
    # block costs one apply of its rows, and no query is redone.  An owner
    # list's last block holds the 300 owners left
    n = 2 * _BLOCK_ROWS + 300
    loss, ch = _parts(d=4, kind="linf_maxent")
    dist = DataDist("cube_bernoulli", 4, 0.5, (1, 0, 0, 0))
    thetas = np.random.default_rng(5).uniform(-0.9, 0.9, (n, 4))
    rows = _spy_apply_rows(monkeypatch)
    stream = _one_theta_stream(owners, dist, loss, ch, n, 6)
    for t in thetas:
        query(stream, t)
    assert rows == [_BLOCK_ROWS] * 2 + [300 if owners else _BLOCK_ROWS]


@pytest.mark.parametrize("owners", [False, True], ids=["population", "owner-list"])
def test_one_theta_queries_redo_only_rows_whose_subgradient_changed(owners, monkeypatch):
    # hinge with margin r = 0.02 and thetas near 0: <x, theta> = +-theta_j
    # crosses r often, so many rows leave their block's guess.  The rows
    # through Channel.apply are the blocks' rows (for an owner list, its
    # owners), plus one per redone query, and those are the queries whose
    # subgradient differs from the guessed one (found by a replay of the
    # blocks)
    d, n = 8, 2 * _BLOCK_ROWS + 300
    ch = make_channel("l1_maxent", d, L=1.0, M=4.0)
    loss = make_loss("hinge", L=1.0, r=0.02)
    dist = DataDist("coord_basis", d, 0.5, (1,) + (0,) * (d - 1))
    thetas = np.random.default_rng(7).uniform(-0.05, 0.05, (n, d))
    rows = _spy_apply_rows(monkeypatch)
    stream = _one_theta_stream(owners, dist, loss, ch, n, 8)
    got = np.array([query(stream, t) for t in thetas])
    monkeypatch.undo()
    rng, want, redone, block_rows = np.random.default_rng(8), [], 0, 0
    for start in range(0, n, _BLOCK_ROWS):
        x = stream.data[start:start + _BLOCK_ROWS] if owners \
            else sample_datum(dist, rng, size=_BLOCK_ROWS)
        noise = ch.noise(len(x), rng)
        block_rows += len(x)
        for j, t in enumerate(thetas[start:start + _BLOCK_ROWS]):
            g = subgrad(loss, x[j], t)
            redone += g.tobytes() != subgrad(loss, x[j], thetas[start]).tobytes()
            want.append(ch.apply(g, tuple(a[j:j + 1] for a in noise))[0])
    assert got.tobytes() == np.array(want).tobytes()
    assert 0 < redone < n // 2
    assert block_rows == (n if owners else 3 * _BLOCK_ROWS)
    assert sum(rows) == block_rows + redone
    assert rows.count(1) == redone and len(rows) == 3 + redone


def _refused_row_parts():
    # l1_maxent with source radius 0.5 under the hinge with L = 1: a
    # subgradient is 0 or -x, of l1 norm 1, which the channel refuses.  At
    # theta = (0.9, 0) the datum +e_0 (probability 1/2 at delta = 1) has
    # subgradient 0 and the data +-e_1 have -x.  Seed 1 draws +e_0 first
    # and +-e_1 second
    ch = make_channel("l1_maxent", 2, L=0.5, M=2.0)
    loss = make_loss("hinge", L=1.0, r=0.1)
    dist = DataDist("coord_basis", 2, 1.0, (1, 0))
    return ch, loss, dist, np.array([0.9, 0.0])


def test_answering_ahead_raises_only_where_the_step_does():
    # the window's second query has a subgradient the channel refuses: the
    # step answers the first query and raises at the second, and so does
    # the oracle's ahead, which used to raise at once for the whole window
    ch, loss, dist, theta = _refused_row_parts()
    rng = np.random.default_rng(1)
    x = sample_datum(dist, rng, size=_BLOCK_ROWS)
    noise = ch.noise(_BLOCK_ROWS, rng)
    assert x[0].tolist() == [1.0, 0.0] and x[1][0] == 0.0
    first = ch.apply(subgrad(loss, x[0], theta), tuple(a[:1] for a in noise))[0]
    streams = [PrivateGradStream.from_population(dist, loss, ch, rng=1) for _ in range(2)]
    assert query(streams[0], theta).tobytes() == first.tobytes()
    z, settle = as_grad_oracle(streams[1]).ahead(theta, 10)
    assert z.shape == (1, 2) and z[0].tobytes() == first.tobytes()
    assert settle(np.empty((0, 2))) == 1
    for s in streams:
        with pytest.raises(ValueError, match="exceeds source radius 0.5"):
            query(s, theta)
        assert s.cursor == 2
    assert streams[0].rng.bit_generator.state == streams[1].rng.bit_generator.state


@pytest.mark.parametrize("owners", [False, True], ids=["population", "owner-list"])
def test_block_guess_stops_before_a_row_the_channel_refuses(owners):
    # the refilling query guesses its block at theta = (0.9, 0), where the
    # second row's subgradient is refused: the first query is still
    # answered, and the second row is not guessed.  Asked at theta, it
    # raises there as its step does; at a theta where its subgradient is 0
    # it is answered per step, as are the rows after it.  The owner list
    # holds the population's first block as its owners, and its rng draws
    # only their noise
    ch, loss, dist, theta = _refused_row_parts()
    rng = np.random.default_rng(1)
    x = sample_datum(dist, rng, size=_BLOCK_ROWS)
    noise_rng = np.random.default_rng(1) if owners else rng
    noise = ch.noise(_BLOCK_ROWS, noise_rng)

    def fresh():
        if owners:
            return PrivateGradStream.from_data(x, loss, ch, rng=1)
        return PrivateGradStream.from_population(dist, loss, ch, rng=1)

    first = ch.apply(subgrad(loss, x[0], theta), tuple(a[:1] for a in noise))[0]
    with pytest.raises(ValueError, match="exceeds source radius 0.5"):
        ch.apply(subgrad(loss, x[1], theta), tuple(a[1:2] for a in noise))
    refused = fresh()
    assert query(refused, theta).tobytes() == first.tobytes()
    with pytest.raises(ValueError, match="exceeds source radius 0.5"):
        query(refused, theta)
    assert refused.cursor == 2
    assert refused.rng.bit_generator.state == noise_rng.bit_generator.state
    stream = fresh()
    query(stream, theta)
    assert len(stream._guess[0]) == 1
    for j in range(1, 6):
        t = np.array([0.9, 0.5]) * x[j].sum() if x[j][0] == 0.0 else theta
        want = ch.apply(subgrad(loss, x[j], t), tuple(a[j:j + 1] for a in noise))[0]
        assert query(stream, t).tobytes() == want.tobytes()


def test_stream_determinism_and_owner_rng_isolation():
    loss, ch = _parts()
    data = [np.array([1.0, -1.0])] * 4
    runs = []
    for _ in range(2):
        stream = PrivateGradStream.from_data(data, loss, ch, rng=42)
        runs.append(np.array([query(stream, np.zeros(2)) for _ in range(4)]))
    assert np.array_equal(runs[0], runs[1])
    # each owner spends its own rows of the stream's noise block: identical
    # data need not answer alike
    stream = PrivateGradStream.from_data(data, loss, ch, rng=42)
    zs = np.array([query(stream, np.zeros(2)) for _ in range(4)])
    assert len(np.unique(zs, axis=0)) > 1
    # streams compare by identity; owners' arrays made == raise
    a, b = (PrivateGradStream.from_data(np.array(data), loss, ch, rng=42) for _ in range(2))
    assert a == a and a != b


def test_oracle_adapter_ignores_caller_rng():
    loss, ch = _parts()
    dist = DataDist("cube_bernoulli", 2, 0.5, (1, 0))
    outs = []
    for caller_rng in (np.random.default_rng(0), np.random.default_rng(999), None):
        stream = PrivateGradStream.from_population(dist, loss, ch, rng=8)
        oracle = as_grad_oracle(stream)
        outs.append(np.array([oracle(np.zeros(2), caller_rng) for _ in range(6)]))
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_stream_drives_optimizer_end_to_end():
    loss, ch = _parts()
    dist = DataDist("cube_bernoulli", 2, 0.8, (1, 0))
    stream = PrivateGradStream.from_population(dist, loss, ch, rng=10)
    cfg = OptimizerConfig("sgd_l2", NormBall(2, 1.0), 2, 800,
                          grad_bound=ch.target.radius)
    run = sgd_l2(as_grad_oracle(stream), cfg, 0)
    # the population median sits at the +e1 corner direction
    assert run.averaged[0] > 0.3


def test_audit_flags_by_channel_kind():
    loss, ch = _parts(kind="dp_hypercube")
    data = [np.array([1.0, -1.0])] * 3
    rep = audit_leakage(PrivateGradStream.from_data(data, loss, ch, rng=0))
    assert rep["learner_view"] == "(theta, Z) pairs only"
    assert rep["mode"] == "single_pass" and rep["n_owners"] == 3
    assert len(rep["owners"]) == 3
    entry = rep["owners"][0]
    assert entry["certificate"]["kind"] == "differential_privacy"
    assert entry["dp_ratio_verified"] is True
    assert entry["dp_ratio_max"] == pytest.approx(np.exp(0.5), abs=1e-10)
    # no datum field anywhere in the report
    assert all("datum" not in e for e in rep["owners"])

    loss2, _ = _parts()
    ident = make_channel("identity", 2)
    rep = audit_leakage(PrivateGradStream.from_data(data, loss2, ident, rng=0))
    assert rep["owners"][0]["certificate"] == "none (non-private)"

    dist = DataDist("cube_bernoulli", 2, 0.5, (1, 0))
    rep = audit_leakage(PrivateGradStream.from_population(dist, loss, ch, rng=0))
    assert rep["n_owners"] == "population" and len(rep["owners"]) == 1


def test_audit_json_is_pinned():
    # the report of an owner list and of a population, byte for byte; its
    # "mode" comes from the stream type
    loss = make_loss("median", L=1.0, r=1.0)
    ch = make_channel("dp_hypercube", 2, eps=0.5)
    data = [np.array([1.0, -1.0]), np.array([-1.0, 1.0]), np.array([1.0, 1.0])]
    entry = ('{"channel_kind": "dp_hypercube", "certificate": {"kind": '
             '"differential_privacy", "level": 0.5}, "dp_ratio_max": '
             '1.6487212707001282, "dp_ratio_verified": true}')
    assert json.dumps(audit_leakage(PrivateGradStream.from_data(data, loss, ch, rng=0))) == (
        '{"learner_view": "(theta, Z) pairs only", "mode": "single_pass", '
        f'"n_owners": 3, "owners": [{entry}, {entry}, {entry}]}}')
    dist = DataDist("cube_bernoulli", 2, 0.5, (1, 0))
    maxent = make_channel("linf_maxent", 2, L=1.0, M=2.0)
    assert json.dumps(audit_leakage(PrivateGradStream.from_population(dist, loss, maxent, rng=0))) == (
        '{"learner_view": "(theta, Z) pairs only", "mode": "with_replacement", '
        '"n_owners": "population", "owners": [{"channel_kind": "linf_maxent", '
        '"certificate": {"kind": "mutual_information", "level": 0.261624071882274}}]}')
