"""Core event model: sensor events, geometry, packets and the 4D feature map.

An event stream is clustered packet by packet.  Each packet of consecutive
events is mapped into a normalized feature space with four coordinates:
column, row, polarity and an exponentially decayed age.  All four components
live in [0, 1], so a single scalar bandwidth is meaningful across dimensions.
The decay is measured against the newest timestamp in the packet, which makes
the feature map a pure per-packet function of the raw events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from .errors import ContractViolationError, OutOfBoundsError, StreamOrderError


@dataclass(frozen=True)
class Event:
    """One asynchronous sensor sample.

    t is in seconds, x/y are integer pixel indices, p is the polarity of the
    intensity change (True = positive).
    """

    t: float
    x: int
    y: int
    p: bool

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0:
            raise ContractViolationError(f"event timestamp must be finite and >= 0, got {self.t}")


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the sensor array."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ContractViolationError(f"sensor geometry must be positive, got {self.width}x{self.height}")

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height


@dataclass(frozen=True)
class DecayParams:
    """Temporal decay settings for the feature map.

    tau is the decay time constant in seconds.  The reference timestamp is
    always the newest event of the packet being featurized ("packet-newest"
    policy), so older events get strictly smaller decayed-age values.
    """

    tau: float = 0.025

    def __post_init__(self):
        if not (self.tau > 0):
            raise ContractViolationError(f"tau must be > 0, got {self.tau}")


def feature_matrix(t, x, y, p, geom: SensorGeometry, params: DecayParams) -> np.ndarray:
    """(n, 4) feature matrix of one packet, from its event columns.

    Spatial coordinates are divided by (dimension - 1) so both sensor borders
    land exactly on 0 and 1.  Polarity maps to {0, 1}.  The decayed age is
    exp(-(t_ref - t) / tau) with t_ref the newest timestamp of the packet, so
    it is 1 for the newest event and strictly decreasing in age.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x)
    y = np.asarray(y)
    outside = (x < 0) | (x >= geom.width) | (y < 0) | (y >= geom.height)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfBoundsError(f"event at ({x[i]}, {y[i]}) outside sensor {geom.width}x{geom.height}")
    fx = x / (geom.width - 1) if geom.width > 1 else np.zeros(len(x))
    fy = y / (geom.height - 1) if geom.height > 1 else np.zeros(len(y))
    fp = (np.asarray(p) != 0).astype(float)
    ft = np.exp(-(t.max() - t) / params.tau)
    return np.column_stack([fx, fy, fp, ft])


@dataclass(frozen=True, eq=False)
class Packet:
    """A bounded, time-ordered batch of events as parallel columns.

    t, x, y and p are the event fields as arrays and features is their
    (n, 4) feature matrix.  Built by make_packet.
    """

    events: List[Event]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.events)

    @property
    def t_ref(self) -> float:
        """Timestamp of the newest event, the decay reference."""
        return float(self.t.max())

    def feature_array(self) -> np.ndarray:
        """(n, 4) float array of feature vectors."""
        return self.features


def make_packet(events: Sequence[Event], geom: SensorGeometry, params: DecayParams) -> Packet:
    """Build a packet from already-ordered events, computing all features."""
    events = list(events)
    if not events:
        raise ContractViolationError("cannot build a packet from zero events")
    t = np.array([e.t for e in events], dtype=float)
    x = np.array([e.x for e in events], dtype=int)
    y = np.array([e.y for e in events], dtype=int)
    p = np.array([e.p for e in events], dtype=int)
    return Packet(events, t, x, y, p, feature_matrix(t, x, y, p, geom, params))


def packetize(
    stream: Iterable[Event],
    size: int,
    geom: SensorGeometry,
    params: DecayParams,
) -> Iterator[Packet]:
    """Split a time-ordered stream into consecutive packets of `size` events.

    The last packet may be smaller.  Raises StreamOrderError (with the global
    stream index) if timestamps ever decrease.
    """
    if size < 1:
        raise ContractViolationError(f"packet size must be >= 1, got {size}")
    buffer: List[Event] = []
    prev_t = -math.inf
    for i, e in enumerate(stream):
        if e.t < prev_t:
            raise StreamOrderError(i)
        prev_t = e.t
        buffer.append(e)
        if len(buffer) == size:
            yield make_packet(buffer, geom, params)
            buffer = []
    if buffer:
        yield make_packet(buffer, geom, params)
