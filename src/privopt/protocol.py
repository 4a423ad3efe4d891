"""The private communication loop: learner sends theta, each data owner
answers with a channel-perturbed subgradient of its own datum.

The learner-visible trace is (theta_t, Z_t) pairs and nothing else; the
datum never crosses the owner boundary.  A stream either walks a fixed
owner list once, so each owner releases exactly one private view of its
datum, or draws a fresh datum from a population for every query.

Both kinds draw ahead: the channel noise depends on neither theta nor the
datum, so one refill takes a block of data (the next owners of the list,
or fresh draws from the population) and then draws their noise in one
call, and each query spends the next rows of it.  Every answer is still
its own datum through its own draw, and the learner still sees only
(theta, Z).

Every stream answers its one-theta queries ahead, a population and an
owner list alike: the query that refills the block answers every row of
it at its theta (the block's guess: one subgrad over the rows, then one
Channel.apply), and each later one-theta query of the block returns its
guessed row when its own subgradient, at its real theta, equals the
guessed one bit for bit.  Row i of a batch apply is the one-row apply of
row i, so that is its per-step answer; any other query applies its row's
noise to its real subgradient.  No draw is added, so the rng, the cursor
and an owner list's exhaustion end as per step.  R-row queries answer
per step.

The refill records with the block whether its data are points of the
loss's own law (PrivateGradStream._ready: a population by its kind, an
owner block when every row is a point of the law's support), and the
guess whether the block is fixed: on the law, with its theta in the
loss's fixed region (losses._in_fixed_region).  There each row's
subgradient is the same bits at every theta of the region, so a one-theta
query of a fixed block whose own theta lies in the region returns its
guessed row on that check alone, with no subgradient and no bit compare.
At d = 4 the one-theta region check compares Python floats in about
0.9 us, against about 3.2 us for the subgrad call and bit compare it
replaces (timeit, Python 3.11 and numpy 2.4 on a 2-core x86_64 VM).

Every query, and every answer ahead, first checks theta against one rule
(PrivateGradStream._rows), so a theta it refuses moves nothing.

A population stream's oracle (as_grad_oracle) also answers ahead, under
the contract the optimizers module docstring states: oracle.ahead(theta,
most) answers the next k <= most queries at the one theta (the rows left
in the block after the refill query would make now), and its settle
consumes the leading answers that query would give at the real thetas.
No refill is drawn that query would not draw.  How many queries a
learner asks ahead, and what that costs, is the learner's policy (see
optimizers.mirror_descent_l1).  Where the population is the loss's own
law and the guessed theta and every real theta lie in the loss's fixed
region (losses._Loss), each datum's subgradient is the same bits at all
of them, so settle keeps every answer on the thetas alone, as a one-theta
query of a fixed block does; elsewhere it recomputes the subgradients and
compares their bits (_same_bits, the one bit-equality rule of both).

When the channel refuses a guessed subgradient, either guess keeps its
first query alone: each later query is answered, or raises, at its real
theta, as its step does.

Answering ahead is a shortcut of the simulation, not a protocol round.
Its guessed answers for the queries the learner does not keep or that do
not match, and the count m that settle computes from the raw data, are
not part of the (theta, Z) transcript: the rows behind them are answered
again, with the same noise, at their real theta.  The learner's output
depends on the kept answers alone and equals the per-step run bit for
bit, so it is a function of the per-step transcript; the intermediate
view is not an LDP transcript.  An owner list's block guess is such a
shortcut too, and an owner list never answers ahead (its oracle has no
ahead), so each of its owners releases exactly one view to the learner:
its answer at its real theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import information
from .channels import Channel, dp_ratio_max
from .losses import DataDist, LossFn, _in_fixed_region, _on_law, sample_datum, subgrad

__all__ = [
    "PrivateGradStream",
    "query",
    "as_grad_oracle",
    "audit_leakage",
]

# rows a stream draws per refill; a population rounds it down to a multiple
# of the rows per query (at least one query)
_BLOCK_ROWS = 1024
# a block with no guessed rows: empty subgradients G and draws Z, not fixed
_NO_GUESS = ((), (), False)


@dataclass(eq=False)
class PrivateGradStream:
    """Ordered owners, the rows of data (n, d), each answering one query;
    or a population that mints a fresh owner per query."""

    data: Optional[np.ndarray] = None
    rng: object = None
    population: Optional[DataDist] = None
    loss: Optional[LossFn] = None
    channel: Optional[Channel] = None
    cursor: int = field(default=0, init=False)  # owners that have answered
    # the block: data (rows, d), channel noise, whether the data are points
    # of the loss's own law; and the next unread row
    _block: tuple = field(default=(), init=False, repr=False)
    _next: int = field(default=0, init=False, repr=False)
    # the block's guess (see query): subgradients G and draws Z of its
    # leading rows at the refilling query's theta, and whether the block is
    # fixed there (its data on the law, and that theta in the fixed region)
    _guess: tuple = field(default=_NO_GUESS, init=False, repr=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.rng)
        if self.population is not None and self.data is not None:
            raise ValueError("pass data or a population, not both")
        if self.population is None and self.data is None:
            raise ValueError("need data or a population")
        if self.loss is None or self.channel is None:
            raise ValueError("streams need loss and channel")
        d = self.channel.d
        if self.population is not None:
            if self.population.d != d:
                raise ValueError(f"population dimension {self.population.d} "
                                 f"!= channel dimension {d}")
            return
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or len(self.data) == 0 or self.data.shape[1] != d:
            raise ValueError(f"owner data must be a non-empty (n, {d}) array, "
                             f"got shape {self.data.shape}")

    @classmethod
    def from_data(cls, data, loss: LossFn, channel: Channel,
                  rng=None) -> "PrivateGradStream":
        return cls(data=data, rng=rng, loss=loss, channel=channel)

    @classmethod
    def from_population(cls, dist: DataDist, loss: LossFn, channel: Channel,
                        rng=None) -> "PrivateGradStream":
        return cls(rng=rng, population=dist, loss=loss, channel=channel)

    def exhausted(self) -> bool:
        return self.population is None and self.cursor >= len(self.data)

    def _rows(self, theta: np.ndarray) -> int:
        """The queries theta asks, under the theta rule: one theta (d,), or
        for a population a non-empty batch (R, d) of R queries, d the
        channel's.  Any other theta raises ValueError before the block, the
        cursor or the rng moves."""
        d = self.channel.d
        if theta.shape == (d,):
            return 1
        if self.population is None or theta.ndim != 2 or theta.shape[1] != d:
            raise ValueError(f"a stream answers one theta ({d},), and a population also "
                             f"a batch (R, {d}); got shape {theta.shape}")
        if len(theta) == 0:
            raise ValueError("a batch query needs at least one row")
        return len(theta)

    def _ready(self, m: int) -> bool:
        """Refill the block when fewer than m rows are left in it: the next
        min(_BLOCK_ROWS, owners left) rows of the owner list, or
        m * max(1, _BLOCK_ROWS // m) data drawn from the population with
        sample_datum; then their channel noise from the stream rng, and
        whether they are points of the loss's own law: a population by its
        kind, owner rows by the law's support (losses._on_law).  Rows left
        over in a population block (only when m changes) are dropped
        unserved.  True when it refilled; RuntimeError, with nothing moved,
        when every owner of the list has answered."""
        if self._block and self._next + m <= len(self._block[0]):
            return False
        if self.population is None:
            X = self.data[self.cursor:self.cursor + _BLOCK_ROWS]
            if len(X) == 0:
                raise RuntimeError("single-pass stream exhausted")
            on_law = _on_law(self.loss, X)
        else:
            X = sample_datum(self.population, self.rng, size=m * max(1, _BLOCK_ROWS // m))
            on_law = self.population.kind == self.loss.data_kind
        self._block = (X, self.channel.noise(len(X), self.rng), on_law)
        self._next = 0
        self._guess = _NO_GUESS
        return True

    def _take(self, m: int) -> slice:
        """The span of the block's next m rows, consumed; the block holds
        them (see _ready)."""
        span = slice(self._next, self._next + m)
        self._next += m
        self.cursor += m
        return span


def _same_bits(a: np.ndarray, b: np.ndarray):
    """Whether subgradients a and b, float arrays of one shape, are the
    same bits: one bool for one (d,) pair, else one per leading row.  Bits,
    not values, so that a -0.0 guess for a +0.0 subgradient (which
    copysign-based channels tell apart) is not kept."""
    if a.ndim == 1:
        return a.tobytes() == b.tobytes()
    same = a.view(np.int64) == b.view(np.int64)
    return np.logical_and.reduce(same, axis=tuple(range(1, same.ndim)))


def _answer(stream: PrivateGradStream, theta: np.ndarray, start: int, k: int) -> tuple:
    """Up to k queries of the block from row start, each of theta's rows,
    answered at the one theta: their subgradients G and channel draws Z,
    both (j, *theta.shape).  j = 1 < k when the channel refuses one of
    the subgradients: only the first query is answered, and raises here
    when it is refused; each later query is answered, or raises, at its
    real theta, as its step would."""
    X, noise, _ = stream._block
    ch = stream.channel
    rows = theta.size // ch.d
    x = X[start:start + k * rows].reshape((k,) + theta.shape)
    G = subgrad(stream.loss, x, np.broadcast_to(theta, x.shape))
    flat = G.reshape(-1, ch.d)

    def draws(j):
        return ch.apply(flat[:j * rows], tuple([a[start:start + j * rows] for a in noise]))

    try:
        return G, draws(k).reshape(G.shape)
    except ValueError:
        return G[:1], draws(1).reshape(G[:1].shape)


def query(stream: PrivateGradStream, theta) -> np.ndarray:
    """One protocol round: route theta to the next owner, return its Z.
    theta follows the theta rule (PrivateGradStream._rows): one theta (d,)
    is one query, and a population stream's batch (R, d) is R queries.  An
    owner list raises RuntimeError once every owner has answered.

    A one-theta query that refills the block, of a population or of an
    owner list, also answers every row of the new block at its theta (the
    guess), and records whether the block is fixed there: its data on
    the loss's law (see _ready) and theta in the loss's fixed region
    (losses._in_fixed_region).  Each one-theta query of the block returns
    its row's guessed answer when the block is fixed and its own theta lies
    in the loss's fixed region, or else when its own subgradient equals
    the guessed one bit for bit, and applies its row's noise to that
    subgradient otherwise: each is its per-step answer (see the module
    docstring)."""
    theta = np.asarray(theta, dtype=float)
    m = stream._rows(theta)
    refilled = stream._ready(m)
    span = stream._take(m)
    X, noise, on_law = stream._block
    if theta.ndim == 2:
        return stream.channel.apply(subgrad(stream.loss, X[span], theta),
                                    tuple([a[span] for a in noise]))
    i = span.start
    if refilled:
        stream._guess = (*_answer(stream, theta, i, len(X)),
                         on_law and _in_fixed_region(stream.loss, theta))
    G, Z, fixed = stream._guess
    if fixed and i < len(G) and _in_fixed_region(stream.loss, theta):
        return Z[i]
    g = subgrad(stream.loss, X[i], theta)
    if i < len(G) and _same_bits(g, G[i]):
        return Z[i]
    return stream.channel.apply(g, tuple([a[span] for a in noise]))[0]


def _ahead(stream: PrivateGradStream, theta, most: int) -> tuple:
    """The next k <= most queries of a population stream answered at the
    one theta, which follows query's theta rule: the rows left in the
    block after the refill query would make now, or only the first when
    the channel refuses one of their subgradients (see _answer).

    Returns (Z, settle).  Z (k, *theta.shape) holds the k answers, each
    the channel draw of its datum's subgradient at theta.  settle(thetas),
    with thetas (j, *theta.shape) for j < k the thetas queries 1..j would
    really be asked at, keeps the answers up to the first whose
    subgradient at its theta differs from the guessed one in any bit, and
    consumes and returns their number m >= 1.  It keeps all j + 1 without
    reading the data when the block's data are on the loss's own law (see
    PrivateGradStream._ready) and theta and every one of thetas lie in the
    loss's fixed region (see losses._Loss), where every datum's
    subgradient is the same bits at each theta; otherwise it recomputes
    the j subgradients in one call and compares their bits."""
    theta = np.asarray(theta, dtype=float)
    rows = stream._rows(theta)
    stream._ready(rows)  # the refill query would make now
    start = stream._take(rows).start  # query 0 is always kept
    X, _, on_law = stream._block
    guess, z = _answer(stream, theta, start, min(most, (len(X) - start) // rows))
    fixed = on_law and _in_fixed_region(stream.loss, theta)

    def settle(thetas) -> int:
        j = len(thetas)
        m = j + 1
        if j and not (fixed and _in_fixed_region(stream.loss, thetas)):
            x = X[start + rows:start + m * rows].reshape((j,) + theta.shape)
            kept = _same_bits(subgrad(stream.loss, x, thetas), guess[1:m])
            m = 1 + (j if kept.all() else int(kept.argmin()))
        stream._take((m - 1) * rows)  # the block holds them: no refill
        return m

    return z, settle


def as_grad_oracle(stream: PrivateGradStream):
    """Adapt a stream to the optimizer oracle contract (stream rngs rule).
    Its one-theta calls read the block's guess as query does.  A
    population stream's oracle also answers ahead, as
    oracle.ahead(theta, most); an owner list's has no ahead, so it steps
    query by query.  See the module docstring."""

    def oracle(theta, rng):
        return query(stream, theta)

    if stream.population is not None:
        oracle.ahead = functools.partial(_ahead, stream)
    return oracle


def _channel_entry(ch: Channel) -> dict:
    cert = information.certificate_for(ch)
    entry = {
        "channel_kind": ch.kind,
        "certificate": "none (non-private)" if math.isinf(cert.level)
        else {"kind": cert.kind, "level": cert.level},
    }
    if ch.exact_dp_ratio:
        ratio = dp_ratio_max(ch)
        entry["dp_ratio_max"] = ratio
        entry["dp_ratio_verified"] = information.dp_ratio_verified(ch.privacy_param, ratio)
    return entry


def audit_leakage(stream: PrivateGradStream) -> dict:
    """Structural audit of what the learner can see.

    The learner's interface is query(); by construction its view is the
    (theta, Z) sequence.  The report attaches each owner's channel
    certificate (worst-case MI or eps), flagging non-private channels.
    "(theta, Z) pairs only" describes the per-step protocol: the guessed
    answers of a stream's one-theta queries, and of a population stream's
    ahead, are a simulation shortcut outside that transcript (see the
    module docstring).  An owner list has no ahead, and each of its owners
    still releases one view, its answer at its real theta.
    """
    population = stream.population is not None
    return {
        "learner_view": "(theta, Z) pairs only",
        "mode": "with_replacement" if population else "single_pass",
        "n_owners": "population" if population else len(stream.data),
        "owners": [_channel_entry(stream.channel)] * (1 if population else len(stream.data)),
    }
