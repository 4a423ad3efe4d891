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
    "PrivateGradStream",
    "query",
    "as_grad_oracle",
    "audit_leakage",
]

# rows a stream draws per refill; a population rounds it down to a multiple
# of the rows per query (at least one query)
_BLOCK_ROWS = 1024


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
    # the block: data (rows, d), channel noise, next unread row
    _block: tuple = field(default=(), init=False, repr=False)
    _next: int = field(default=0, init=False, repr=False)

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

    def _take(self, m: int) -> tuple:
        """The next m (data, noise) rows of the block.  When fewer than m
        rows are left, a refill takes the next min(_BLOCK_ROWS, owners
        left) rows of the owner list, or draws m * max(1, _BLOCK_ROWS // m)
        data from the population with sample_datum; then it draws their
        channel noise from the stream rng.  Population rows left over (only
        when m changes) are dropped unserved."""
        if not self._block or self._next + m > len(self._block[0]):
            if self.population is None:
                X = self.data[self.cursor:self.cursor + _BLOCK_ROWS]
            else:
                X = sample_datum(self.population, self.rng, size=m * max(1, _BLOCK_ROWS // m))
            self._block = (X, self.channel.noise(len(X), self.rng))
            self._next = 0
        span = slice(self._next, self._next + m)
        self._next += m
        self.cursor += m
        X, noise = self._block
        return X[span], tuple([a[span] for a in noise])


def query(stream: PrivateGradStream, theta) -> np.ndarray:
    """One protocol round: route theta to the next owner, return its Z.
    An owner list answers one theta (d,) per query and raises RuntimeError
    once every owner has answered; a population stream answers theta of
    shape (R, d) with R queries."""
    theta = np.asarray(theta, dtype=float)
    batch = theta.ndim == 2
    if stream.population is None:
        if batch:
            raise ValueError("an owner list answers one theta per query")
        if stream.exhausted():
            raise RuntimeError("single-pass stream exhausted")
    elif batch and len(theta) == 0:
        raise ValueError("a batch query needs at least one row")
    x, noise = stream._take(len(theta) if batch else 1)
    z = stream.channel.apply(subgrad(stream.loss, x if batch else x[0], theta), noise)
    return z if batch else z[0]


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
    return {
        "learner_view": "(theta, Z) pairs only",
        "mode": "with_replacement" if population else "single_pass",
        "n_owners": "population" if population else len(stream.data),
        "owners": [_channel_entry(stream.channel)] * (1 if population else len(stream.data)),
    }
