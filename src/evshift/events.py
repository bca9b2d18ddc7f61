"""Core event model: sensor events, streams, geometry, packets and the 4D feature map.

A stream is held as four columns in an EventStream, from reader or generator
to writers; Event objects are built only on demand.  packet_chunks cuts the
stream into packets, clustered one by one.  Each packet of consecutive events
is mapped into a normalized feature space with four coordinates: column, row,
polarity and an exponentially decayed age.  All four components live in
[0, 1], so a single scalar bandwidth is meaningful across dimensions.  The
decay is measured against the newest timestamp in the packet, which makes the
feature map a pure per-packet function of the raw events.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import ContractViolationError, OutOfBoundsError, StreamOrderError, require_finite


class _EventFields(NamedTuple):
    t: float
    x: int
    y: int
    p: bool


class Event(_EventFields):
    """One asynchronous sensor sample, a named tuple (t, x, y, p).

    t is in seconds, x/y are integer pixel indices, p is the polarity of the
    intensity change (True = positive).  Every way to build one, _make and
    _replace included, checks t.
    """

    __slots__ = ()

    def __new__(cls, t: float, x: int, y: int, p: bool):
        if not math.isfinite(t) or t < 0:
            raise ContractViolationError(f"event timestamp must be finite and >= 0, got {t}")
        return tuple.__new__(cls, (t, x, y, p))

    @classmethod
    def _make(cls, iterable) -> "Event":
        return cls(*iterable)

    def _replace(self, **changes) -> "Event":
        unknown = changes.keys() - self._fields
        if unknown:
            raise ValueError(f"Got unexpected field names: {sorted(unknown)!r}")
        return type(self)(**{**self._asdict(), **changes})


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the sensor array."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ContractViolationError(f"sensor geometry must be positive, got {self.width}x{self.height}")

    def contains(self, x, y):
        """Whether pixel (x, y) lies on the sensor; elementwise for arrays."""
        return (0 <= x) & (x < self.width) & (0 <= y) & (y < self.height)


@dataclass(frozen=True)
class DecayParams:
    """Temporal decay settings for the feature map.

    tau is the decay time constant in seconds.  The reference timestamp is
    always the newest event of the packet being featurized ("packet-newest"
    policy), so older events get strictly smaller decayed-age values.
    """

    tau: float = 0.025

    def __post_init__(self):
        require_finite(self)
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
    outside = ~geom.contains(x, y)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfBoundsError(f"event at ({x[i]}, {y[i]}) outside sensor {geom.width}x{geom.height}")
    fx = x / (geom.width - 1) if geom.width > 1 else np.zeros(len(x))
    fy = y / (geom.height - 1) if geom.height > 1 else np.zeros(len(y))
    fp = (np.asarray(p) != 0).astype(float)
    with np.errstate(over="ignore"):  # an age that overflows over tau decays to exp(-inf) = 0, exactly
        ft = np.exp(-(t.max() - t) / params.tau)
    return np.column_stack([fx, fy, fp, ft])


@dataclass(frozen=True, eq=False)
class EventStream(Sequence[Event]):
    """An event stream as four equal-length columns: t float64, x, y and p
    int64 (Event does not bound p).  As a Sequence of Event, stream[i] and
    iteration build Events on demand; a slice or a boolean mask gives an
    EventStream.  The sensor geometry is passed alongside, never stored.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name, dtype in (("t", np.float64), ("x", np.int64), ("y", np.int64), ("p", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not len(self.t) == len(self.x) == len(self.y) == len(self.p):
            raise ContractViolationError("event columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key: Union[int, slice, np.ndarray]) -> Union[Event, "EventStream"]:
        if isinstance(key, (int, np.integer)):
            return Event(float(self.t[key]), int(self.x[key]), int(self.y[key]), int(self.p[key]))
        return EventStream(self.t[key], self.x[key], self.y[key], self.p[key])

    def __iter__(self) -> Iterator[Event]:
        columns = self.t.tolist(), self.x.tolist(), self.y.tolist(), self.p.tolist()
        t = self.t
        if len(t) and not (t.min() >= 0 and t.max() < math.inf):  # a nan fails both
            return map(Event, *columns)  # the same events, up to the one Event refuses
        # Every t passes Event's check, so the tuples are built without it.
        return map(partial(tuple.__new__, Event), zip(*columns))

    @staticmethod
    def concat(parts: Sequence["EventStream"]) -> "EventStream":
        """The streams one after another."""
        return EventStream(*(np.concatenate([getattr(s, c) for s in parts]) for c in "txyp"))

    def first_disorder(self) -> int:
        """Index of the first event older than the one before it, or len(self)."""
        back = self.t[1:] < self.t[:-1]
        return int(np.argmax(back)) + 1 if back.any() else len(self)


def as_stream(events: Iterable[Event]) -> EventStream:
    """A stream as it is, or any other iterable of Event read into columns."""
    if isinstance(events, EventStream):
        return events
    events = list(events)
    return EventStream(
        [e.t for e in events], [e.x for e in events], [e.y for e in events], [e.p for e in events]
    )


@dataclass(frozen=True, eq=False)
class Packet:
    """A bounded, time-ordered batch of events: the t, x, y and p columns
    and their (n, 4) feature matrix.  Built by make_packet."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def events(self) -> EventStream:
        """The packet's events, a view of its columns."""
        return EventStream(self.t, self.x, self.y, self.p)

    @property
    def t_ref(self) -> float:
        """Timestamp of the newest event, the decay reference."""
        return float(self.t.max())

    def feature_array(self) -> np.ndarray:
        """(n, 4) float array of feature vectors."""
        return self.features


def make_packet(events: Iterable[Event], geom: SensorGeometry, params: DecayParams) -> Packet:
    """Build a packet from already-ordered events, computing all features."""
    s = as_stream(events)
    if not len(s):
        raise ContractViolationError("cannot build a packet from zero events")
    return Packet(s.t, s.x, s.y, s.p, feature_matrix(s.t, s.x, s.y, s.p, geom, params))


def packet_chunks(chunks: Iterable[EventStream], size: int, geom: SensorGeometry,
                  params: DecayParams) -> Iterator[Packet]:
    """Cut a stream, given as consecutive chunks that may be empty, into packets
    of `size` events, carrying fewer than `size` from chunk to chunk; only the
    last packet may be smaller.  The size is checked before any chunk is read."""
    if size < 1:
        raise ContractViolationError(f"packet size must be >= 1, got {size}")

    def packets() -> Iterator[Packet]:
        carry = EventStream([], [], [], [])
        for chunk in chunks:
            events = EventStream.concat([carry, chunk]) if len(carry) else chunk
            full = len(events) - len(events) % size
            for start in range(0, full, size):
                yield make_packet(events[start : start + size], geom, params)
            carry = events[full:]
        if len(carry):
            yield make_packet(carry, geom, params)

    return packets()


def packetize(stream: Iterable[Event], size: int, geom: SensorGeometry, params: DecayParams) -> Iterator[Packet]:
    """Lazily split a time-ordered stream into packets of `size` events, the
    last maybe smaller, as packet_chunks of one chunk.  Raises StreamOrderError
    (with the global stream index) if timestamps ever decrease."""
    stream = as_stream(stream)
    packets = packet_chunks([stream], size, geom, params)  # checks the size first
    if (i := stream.first_disorder()) < len(stream):
        raise StreamOrderError(i)
    yield from packets
