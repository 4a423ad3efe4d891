"""The private communication loop: learner sends theta, each data owner
answers with a channel-perturbed subgradient of its own datum.

The learner-visible trace is (theta_t, Z_t) pairs and nothing else; the
datum never crosses the owner boundary.  Streams come in two modes:
single_pass walks a fixed owner list once (streaming), with_replacement
draws an owner (or a fresh datum from a population) i.i.d. per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

STREAM_MODES = ("single_pass", "with_replacement")


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
    """Ordered owner collection, or a population that mints owners on
    demand (population implies with_replacement)."""

    owners: Optional[tuple] = None
    mode: str = "single_pass"
    cursor: int = 0
    rng: object = None
    population: Optional[DataDist] = None
    loss: Optional[LossFn] = None
    channel: Optional[Channel] = None

    def __post_init__(self) -> None:
        if self.mode not in STREAM_MODES:
            raise ValueError(f"unknown stream mode {self.mode!r}")
        self.rng = np.random.default_rng(self.rng)
        if self.population is not None:
            if self.loss is None or self.channel is None:
                raise ValueError("population streams need loss and channel")
            if self.mode != "with_replacement":
                raise ValueError("population streams are with_replacement only")
        elif not self.owners:
            raise ValueError("need owners or a population")
        else:
            self.owners = tuple(self.owners)

    @classmethod
    def from_data(cls, data, loss: LossFn, channel: Channel, rng=None,
                  mode: str = "single_pass") -> "PrivateGradStream":
        rng = np.random.default_rng(rng)
        owners = tuple(
            DataOwner(x, loss, channel, rng=rng.spawn(1)[0]) for x in data
        )
        return cls(owners=owners, mode=mode, rng=rng)

    @classmethod
    def from_population(cls, dist: DataDist, loss: LossFn, channel: Channel,
                        rng=None) -> "PrivateGradStream":
        return cls(owners=None, mode="with_replacement",
                   rng=np.random.default_rng(rng), population=dist,
                   loss=loss, channel=channel)

    def exhausted(self) -> bool:
        return (self.mode == "single_pass" and self.owners is not None
                and self.cursor >= len(self.owners))


def query(stream: PrivateGradStream, theta) -> np.ndarray:
    """One protocol round: route theta to the next owner, return its Z.
    A population stream answers theta of shape (R, d) with R queries."""
    theta = np.asarray(theta, dtype=float)
    if stream.population is not None:
        x = sample_datum(stream.population, stream.rng,
                         size=len(theta) if theta.ndim == 2 else None)
        g = subgrad(stream.loss, x, theta)
        return stream.channel.sample(g, rng=stream.rng)
    if stream.mode == "single_pass":
        if stream.cursor >= len(stream.owners):
            raise RuntimeError("single-pass stream exhausted")
        owner = stream.owners[stream.cursor]
        stream.cursor += 1
    else:
        owner = stream.owners[int(stream.rng.integers(len(stream.owners)))]
    return owner.respond(theta)


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
    report = {
        "learner_view": "(theta, Z) pairs only",
        "mode": stream.mode,
    }
    if stream.population is not None:
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
