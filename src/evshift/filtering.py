"""Background-activity prefilter.

Drops events with no spatiotemporal support: an event survives only if some
strictly earlier event (kept or not) occurred within `radius` pixels and
within `window` seconds.  The first event at an isolated location is always
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ContractViolationError, OutOfBoundsError, StreamOrderError, require_finite
from .events import Event, EventStream, SensorGeometry, as_stream


@dataclass(frozen=True)
class FilterParams:
    radius: int = 1
    window: float = 0.005

    def __post_init__(self):
        require_finite(self)
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

    Support requires 0 < t - t' <= window, so simultaneous neighbors do not
    support each other.  Two timestamps are kept per pixel (latest, and latest
    strictly older one) so that equal-timestamp arrivals at a pixel cannot
    mask an older supporting event there.  The first decreasing timestamp
    (StreamOrderError) or event outside the sensor (OutOfBoundsError, as in
    the padding it could support its neighbours) raises, naming its index.
    """
    stream = as_stream(stream)
    t, x, y, n = stream.t, stream.x, stream.y, len(stream)
    outside = ~geom.contains(x, y)
    i = int(np.argmax(outside)) if outside.any() else n
    if (back := stream.first_disorder()) <= i and back < n:
        raise StreamOrderError(back)
    if i < n:
        raise OutOfBoundsError(f"event {i} at ({x[i]}, {y[i]}) outside sensor {geom.width}x{geom.height}")
    r, window = params.radius, params.window
    d = 2 * r + 1
    # Pad by radius so neighborhood slices never need bounds checks: the
    # neighbourhood of pixel (x, y) is [y : y + d, x : x + d].
    shape = (geom.height + 2 * r, geom.width + 2 * r)
    last = np.full(shape, -math.inf)
    prev = np.full(shape, -math.inf)
    keep = []
    for e_t, e_x, e_y in zip(t.tolist(), x.tolist(), y.tolist()):
        view_last = last[e_y : e_y + d, e_x : e_x + d]
        m = view_last.max()
        if m >= e_t:
            # Equal timestamps present; fall back to the strictly older entries.
            view_prev = prev[e_y : e_y + d, e_x : e_x + d]
            m = np.where(view_last < e_t, view_last, view_prev).max()
        keep.append(0 < e_t - m <= window)
        cy, cx = e_y + r, e_x + r
        if e_t > last[cy, cx]:
            prev[cy, cx] = last[cy, cx]
            last[cy, cx] = e_t
    return stream[np.array(keep, dtype=bool)]
