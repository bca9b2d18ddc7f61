"""Background-activity prefilter (Delbruck, "Frame-free dynamic digital
vision", 2008).

Drops events with no spatiotemporal support: an event survives only if some
strictly earlier event (kept or not) occurred within `radius` pixels and
within `window` seconds.  The first event at an isolated location is always
dropped.  Support depends on the raw stream alone, never on earlier keep
decisions, so all events are decided at once by sorting and searching:
the whole stream by filter_stream, or one chunk after another, each led by
the few earlier events it can still see, by filter_chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np

from .errors import ContractViolationError, OutOfBoundsError, StreamOrderError, require_finite, require_integer
from .events import Event, EventStream, SensorGeometry, as_stream


@dataclass(frozen=True)
class FilterParams:
    radius: int = 1
    window: float = 0.005

    def __post_init__(self):
        require_finite(self)
        require_integer(self.radius, "filter radius")
        if self.radius < 1:
            raise ContractViolationError(f"filter radius must be >= 1, got {self.radius}")
        if not (self.window > 0):
            raise ContractViolationError(f"filter window must be > 0, got {self.window}")


def filter_stream(
    stream: Iterable[Event],
    params: FilterParams,
    geom: SensorGeometry,
) -> EventStream:
    """The supported events in order, support checked against raw history.

    Support requires 0 < t - m <= window, m being the newest timestamp
    strictly below t within `radius` (Chebyshev), so simultaneous neighbours
    do not support each other.  In a time-ordered stream "strictly earlier"
    is a smaller dense time rank.  One stable sort orders the events by
    pixel * R + rank, pixels numbered on the sensor padded by the radius
    and R the number of distinct timestamps; then per offset one
    searchsorted of the shifted keys, already sorted, lands just past the
    newest earlier event at that neighbour.  The cost grows as
    (2r+1)^2 * n * log n: at radius 1 that is 5-10x faster than a per-event
    pass over per-pixel timestamp maps, from radius 4 or 5 on it is slower.
    Offsets beyond the sensor never match, so they are clamped to its size.

    The first decreasing timestamp (StreamOrderError) or event outside the
    sensor (OutOfBoundsError, as in the padding it could support its
    neighbours) raises, naming its index.
    """
    stream = as_stream(stream)
    x, y, n = stream.x, stream.y, len(stream)
    outside = ~geom.contains(x, y)
    i = int(np.argmax(outside)) if outside.any() else n
    if (back := stream.first_disorder()) <= i and back < n:
        raise StreamOrderError(back)
    if i < n:
        raise OutOfBoundsError(f"event {i} at ({x[i]}, {y[i]}) outside sensor {geom.width}x{geom.height}")
    return stream[support_mask(stream, params, geom)]


def _check_keys(geom: SensorGeometry, params: FilterParams, ranks: int) -> Tuple[int, int]:
    """The clamped radii (rx, ry); ContractViolationError where `ranks`
    distinct timestamps overflow the int64 keys of support_mask."""
    width, height = int(geom.width), int(geom.height)
    rx, ry = min(int(params.radius), width - 1), min(int(params.radius), height - 1)
    if (height + 2 * ry) * (width + 2 * rx) * ranks > np.iinfo(np.int64).max:
        raise ContractViolationError(
            f"{width}x{height} sensor with {ranks} distinct timestamps overflows the filter's int64 keys"
        )
    return rx, ry


def support_mask(stream: EventStream, params: FilterParams, geom: SensorGeometry) -> np.ndarray:
    """The keep mask of filter_stream over a time-ordered stream of events
    on the sensor, which are not checked here."""
    t, x, y, n = stream.t, stream.x, stream.y, len(stream)
    if n == 0:
        return np.zeros(0, dtype=bool)
    rises = np.empty(n, dtype=bool)
    rises[0] = True
    np.greater(t[1:], t[:-1], out=rises[1:])
    rank = np.cumsum(rises) - 1  # dense: equal timestamps share a rank
    times = t[rises]  # times[rank] == t
    ranks = int(rank[-1]) + 1
    rx, ry = _check_keys(geom, params, ranks)
    row = int(geom.width) + 2 * rx
    keys = ((y + ry) * row + (x + rx)) * ranks + rank
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # before[j] is the key sorted just before keys[j]; -1 ahead of the first.
    before = np.concatenate(([-1], keys))
    # gap = (newest earlier neighbour's rank) - rank, maximised over offsets:
    # a key below the neighbour pixel's first key gives gap < -rank.
    gap = np.full(n, np.iinfo(np.int64).min)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            query = keys + (dy * row + dx) * ranks
            found = before[np.searchsorted(keys, query)]
            found -= query
            np.maximum(gap, found, out=gap)
    newest = gap + rank[order]
    m = np.where(newest >= 0, times[np.maximum(newest, 0)], -np.inf)
    age = t[order] - m
    keep = np.empty(n, dtype=bool)
    keep[order] = (0 < age) & (age <= params.window)
    return keep


def filter_chunks(chunks: Iterable[EventStream], params: FilterParams, geom: SensorGeometry) -> Iterator[EventStream]:
    """filter_stream over a stream handed in consecutive chunks, each chunk's
    supported events as it comes; the chunks must be time-ordered, also
    across chunk edges, and on the sensor, which is not checked here.

    Each chunk is decided on itself led by the context: the earlier events
    that a later event can still see.  Those are the events with
    t_last - t <= window, t_last being the newest time so far, since a
    later event at t >= t_last sees an earlier one only if t - m <= window,
    and float subtraction rounds monotonically.  Of these, per pixel only
    the newest before t_last and the newest at t_last can be some later
    event's newest strictly earlier neighbour there, so the context holds
    at most two events per pixel, however long the window.  The int64 key
    check counts the distinct timestamps of the whole stream, as
    filter_stream does: once they overflow, the rest of the stream is only
    counted, and the error names the count at its end.
    """
    context = None
    ranks, last = 0, -np.inf
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        ranks += int(np.count_nonzero(np.diff(chunk.t, prepend=last) > 0))
        last = chunk.t[-1]
        try:
            _check_keys(geom, params, ranks)
        except ContractViolationError:
            continue
        both = chunk if context is None else EventStream.concat([context, chunk])
        yield chunk[support_mask(both, params, geom)[len(both) - len(chunk):]]
        near = both[last - both.t <= params.window]
        # Newest first, so that np.unique's first index is the newest per (pixel, at t_last).
        key = np.column_stack([near.y * geom.width + near.x, near.t == last])
        _, newest = np.unique(key[::-1], axis=0, return_index=True)
        context = near[np.sort(len(near) - 1 - newest)]
    _check_keys(geom, params, ranks)
