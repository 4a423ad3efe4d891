"""The private communication loop: learner sends theta, each data owner
answers with a channel-perturbed subgradient of its own datum.

The learner-visible trace is (theta_t, Z_t) pairs and nothing else; the
datum never crosses the owner boundary.  A stream either walks a fixed
owner list once, so each owner releases exactly one private view of its
datum, or draws a fresh datum from a population for every query.

A population stream draws ahead: the channel noise does not depend on
theta, so one refill draws a block of data and then their noise, and each
query spends the next rows of it.  Every answer is still a fresh datum
through a fresh draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import Channel, dp_ratio_max
from .information import certificate_for
from .losses import DataDist, LossFn, sample_datum, subgrad

__all__ = [
    "DataOwner",
    "PrivateGradStream",
    "query",
    "as_grad_oracle",
    "audit_leakage",
]

# rows a population stream draws per refill, rounded down to a multiple of
# the rows per query (at least one query)
_BLOCK_ROWS = 1024


@dataclass
class DataOwner:
    """One participant: private datum, loss, channel, own rng stream."""

    datum: np.ndarray
    loss: LossFn
    channel: Channel
    rng: object = None

    def __post_init__(self) -> None:
        self.datum = np.asarray(self.datum, dtype=float)
        self.rng = np.random.default_rng(self.rng)

    def respond(self, theta) -> np.ndarray:
        # the only exit point for information about the datum
        g = subgrad(self.loss, self.datum, theta)
        return self.channel.sample(g, rng=self.rng)


@dataclass
class PrivateGradStream:
    """Ordered owners, each answering one query, or a population that
    mints a fresh owner per query."""

    owners: Optional[tuple] = None
    rng: object = None
    population: Optional[DataDist] = None
    loss: Optional[LossFn] = None
    channel: Optional[Channel] = None
    cursor: int = field(default=0, init=False)  # owners that have answered
    # the population block: data (rows, d), channel noise, next unread row
    _block: tuple = field(default=(), init=False, repr=False, compare=False)
    _next: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.rng)
        if self.population is not None and self.owners is not None:
            raise ValueError("pass owners or a population, not both")
        if self.population is not None:
            if self.loss is None or self.channel is None:
                raise ValueError("population streams need loss and channel")
        elif not self.owners:
            raise ValueError("need owners or a population")
        else:
            self.owners = tuple(self.owners)

    @classmethod
    def from_data(cls, data, loss: LossFn, channel: Channel,
                  rng=None) -> "PrivateGradStream":
        rng = np.random.default_rng(rng)
        owners = tuple(
            DataOwner(x, loss, channel, rng=rng.spawn(1)[0]) for x in data
        )
        return cls(owners=owners, rng=rng)

    @classmethod
    def from_population(cls, dist: DataDist, loss: LossFn, channel: Channel,
                        rng=None) -> "PrivateGradStream":
        return cls(rng=np.random.default_rng(rng), population=dist,
                   loss=loss, channel=channel)

    def exhausted(self) -> bool:
        return self.population is None and self.cursor >= len(self.owners)

    def _take(self, m: int) -> tuple:
        """The next m (data, noise) rows of the population block.  When
        fewer than m rows are left, a refill draws m * max(1, _BLOCK_ROWS
        // m) data with sample_datum, then their channel noise, from the
        stream rng; the rows left over (only when m changes) are dropped
        unserved."""
        if not self._block or self._next + m > len(self._block[0]):
            rows = m * max(1, _BLOCK_ROWS // m)
            X = sample_datum(self.population, self.rng, size=rows)
            self._block = (X, self.channel.noise(rows, self.rng))
            self._next = 0
        span = slice(self._next, self._next + m)
        self._next += m
        X, noise = self._block
        return X[span], tuple([a[span] for a in noise])


def query(stream: PrivateGradStream, theta) -> np.ndarray:
    """One protocol round: route theta to the next owner, return its Z.
    An owner list raises RuntimeError once every owner has answered; a
    population stream answers theta of shape (R, d) with R queries."""
    theta = np.asarray(theta, dtype=float)
    if stream.population is not None:
        batch = theta.ndim == 2
        if batch and len(theta) == 0:
            raise ValueError("a batch query needs at least one row")
        x, noise = stream._take(len(theta) if batch else 1)
        z = stream.channel.apply(subgrad(stream.loss, x if batch else x[0], theta), noise)
        return z if batch else z[0]
    if stream.exhausted():
        raise RuntimeError("single-pass stream exhausted")
    stream.cursor += 1
    return stream.owners[stream.cursor - 1].respond(theta)


def as_grad_oracle(stream: PrivateGradStream):
    """Adapt a stream to the optimizer oracle contract (stream rngs rule)."""

    def oracle(theta, rng):
        return query(stream, theta)

    return oracle


def _channel_entry(ch: Channel) -> dict:
    cert = certificate_for(ch)
    entry = {
        "channel_kind": ch.kind,
        "certificate": "none (non-private)" if math.isinf(cert.level)
        else {"kind": cert.kind, "level": cert.level},
    }
    if ch.exact_dp_ratio:
        ratio = dp_ratio_max(ch)
        entry["dp_ratio_max"] = ratio
        entry["dp_ratio_verified"] = bool(
            ratio <= math.exp(ch.privacy_param) * (1.0 + 1e-9)
        )
    return entry


def audit_leakage(stream: PrivateGradStream) -> dict:
    """Structural audit of what the learner can see.

    The learner's interface is query(); by construction its view is the
    (theta, Z) sequence.  The report attaches each owner's channel
    certificate (worst-case MI or eps), flagging non-private channels.
    """
    population = stream.population is not None
    report = {
        "learner_view": "(theta, Z) pairs only",
        "mode": "with_replacement" if population else "single_pass",
    }
    if population:
        report["n_owners"] = "population"
        report["owners"] = [_channel_entry(stream.channel)]
        return report
    report["n_owners"] = len(stream.owners)
    cache = {}
    entries = []
    for owner in stream.owners:
        key = id(owner.channel)
        if key not in cache:
            cache[key] = _channel_entry(owner.channel)
        entries.append(cache[key])
    report["owners"] = entries
    return report
