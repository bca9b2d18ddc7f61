"""Background-activity prefilter.

Drops events with no spatiotemporal support: an event survives only if some
strictly earlier event (kept or not) occurred within `radius` pixels and
within `window` seconds.  The first event at an isolated location is always
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractViolationError, OutOfBoundsError, StreamOrderError
from .events import Event, SensorGeometry


@dataclass(frozen=True)
class FilterParams:
    radius: int = 1
    window: float = 0.005

    def __post_init__(self):
        if self.radius < 1:
            raise ContractViolationError(f"filter radius must be >= 1, got {self.radius}")
        if not (self.window > 0):
            raise ContractViolationError(f"filter window must be > 0, got {self.window}")


def filter_stream(
    stream: Iterable[Event],
    params: FilterParams,
    geom: SensorGeometry,
) -> Iterator[Event]:
    """Yield supported events in order, checking support against raw history.

    Support requires 0 < t - t' <= window, so simultaneous neighbors do not
    support each other.  Two timestamps are kept per pixel (latest, and latest
    strictly older one) so that equal-timestamp arrivals at a pixel cannot
    mask an older supporting event there.  An event outside the sensor
    raises OutOfBoundsError naming its stream index: in the padding it
    could otherwise support its in-sensor neighbours.
    """
    r = params.radius
    # Pad by radius so neighborhood slices never need bounds checks.
    shape = (geom.height + 2 * r, geom.width + 2 * r)
    last = np.full(shape, -math.inf)
    prev = np.full(shape, -math.inf)
    prev_t = -math.inf
    for i, e in enumerate(stream):
        if e.t < prev_t:
            raise StreamOrderError(i)
        prev_t = e.t
        if not geom.contains(e.x, e.y):
            raise OutOfBoundsError(f"event {i} at ({e.x}, {e.y}) outside sensor {geom.width}x{geom.height}")
        y, x = e.y + r, e.x + r
        view_last = last[y - r : y + r + 1, x - r : x + r + 1]
        m = view_last.max()
        if m >= e.t:
            # Equal timestamps present; fall back to the strictly older entries.
            view_prev = prev[y - r : y + r + 1, x - r : x + r + 1]
            m = np.where(view_last < e.t, view_last, view_prev).max()
        if 0 < e.t - m <= params.window:
            yield e
        if e.t > last[y, x]:
            prev[y, x] = last[y, x]
            last[y, x] = e.t
