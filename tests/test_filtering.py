"""Support filter checked against a direct quadratic reference."""

import time

import numpy as np
import pytest

from evshift.errors import ContractViolationError, OutOfBoundsError, StreamOrderError
from evshift.events import Event, SensorGeometry
from evshift.filtering import FilterParams, filter_stream


def brute_force_filter(events, radius, window):
    """Quadratic reference: scan every earlier event for support."""
    kept = []
    for i, e in enumerate(events):
        for j in range(i):
            o = events[j]
            if abs(o.x - e.x) <= radius and abs(o.y - e.y) <= radius and 0 < e.t - o.t <= window:
                kept.append(e)
                break
    return kept


def random_stream(rng, n, width, height, dt_scale, duplicate_frac=0.0):
    events = []
    t = 0.0
    for _ in range(n):
        if events and duplicate_frac and rng.uniform() < duplicate_frac:
            pass  # reuse current t: simultaneous events
        else:
            t += float(rng.exponential(dt_scale))
        events.append(
            Event(
                t=t,
                x=int(rng.integers(0, width)),
                y=int(rng.integers(0, height)),
                p=bool(rng.integers(0, 2)),
            )
        )
    return events


def test_matches_brute_force_on_random_streams():
    start = time.monotonic()
    geom = SensorGeometry(16, 12)
    params = FilterParams(radius=1, window=0.005)
    rng = np.random.default_rng(17)
    for trial in range(30):
        dt_scale = float(rng.choice([1e-4, 1e-3, 1e-2]))
        events = random_stream(rng, 250, 16, 12, dt_scale, duplicate_frac=0.3)
        got = list(filter_stream(events, params, geom))
        want = brute_force_filter(events, 1, 0.005)
        assert got == want, f"trial {trial}: {len(got)} kept vs {len(want)} expected"
    assert time.monotonic() - start < 10.0


def test_matches_brute_force_with_larger_radius():
    geom = SensorGeometry(20, 20)
    params = FilterParams(radius=3, window=0.02)
    rng = np.random.default_rng(99)
    for _ in range(10):
        events = random_stream(rng, 200, 20, 20, 5e-3, duplicate_frac=0.2)
        got = list(filter_stream(events, params, geom))
        want = brute_force_filter(events, 3, 0.02)
        assert got == want


def test_isolated_event_dropped():
    geom = SensorGeometry(10, 10)
    out = list(filter_stream([Event(t=0.0, x=5, y=5, p=True)], FilterParams(), geom))
    assert out == []


def test_pair_keeps_second_only():
    geom = SensorGeometry(10, 10)
    a = Event(t=0.0, x=5, y=5, p=True)
    b = Event(t=0.001, x=6, y=5, p=False)
    out = list(filter_stream([a, b], FilterParams(radius=1, window=0.005), geom))
    assert out == [b]


def test_simultaneous_neighbors_do_not_support():
    geom = SensorGeometry(10, 10)
    a = Event(t=0.5, x=5, y=5, p=True)
    b = Event(t=0.5, x=5, y=6, p=True)
    out = list(filter_stream([a, b], FilterParams(), geom))
    assert out == []


def test_equal_time_arrivals_do_not_mask_older_support():
    geom = SensorGeometry(10, 10)
    # c sees b at its own pixel with equal t, but a is strictly older support.
    a = Event(t=0.100, x=5, y=5, p=True)
    b = Event(t=0.103, x=5, y=5, p=True)
    c = Event(t=0.103, x=5, y=5, p=False)
    out = list(filter_stream([a, b, c], FilterParams(radius=1, window=0.005), geom))
    assert out == [b, c]


def test_window_boundary_inclusive():
    geom = SensorGeometry(10, 10)
    a = Event(t=0.0, x=5, y=5, p=True)
    on_edge = Event(t=0.005, x=5, y=5, p=True)
    out = list(filter_stream([a, on_edge], FilterParams(radius=1, window=0.005), geom))
    assert out == [on_edge]
    past_edge = Event(t=0.0051, x=5, y=5, p=True)
    out = list(filter_stream([a, past_edge], FilterParams(radius=1, window=0.005), geom))
    assert out == []


def test_radius_boundary():
    # Square neighborhood: diagonal distance 1 is in, distance 2 is out.
    geom = SensorGeometry(12, 12)
    a = Event(t=0.0, x=5, y=5, p=True)
    inside = Event(t=0.001, x=6, y=6, p=True)
    outside = Event(t=0.002, x=8, y=8, p=True)
    out = list(filter_stream([a, inside, outside], FilterParams(radius=1, window=0.005), geom))
    assert inside in out
    assert outside not in out


def test_border_pixels_ok():
    geom = SensorGeometry(4, 4)
    a = Event(t=0.0, x=0, y=0, p=True)
    b = Event(t=0.001, x=0, y=0, p=True)
    c = Event(t=0.002, x=3, y=3, p=True)
    out = list(filter_stream([a, b, c], FilterParams(), geom))
    assert out == [b]


def test_order_violation_raises():
    geom = SensorGeometry(10, 10)
    events = [Event(t=0.1, x=1, y=1, p=True), Event(t=0.05, x=1, y=1, p=True)]
    with pytest.raises(StreamOrderError) as info:
        list(filter_stream(events, FilterParams(), geom))
    assert info.value.index == 1


def test_event_outside_sensor_raises():
    geom = SensorGeometry(4, 4)
    inside = Event(t=0.101, x=3, y=1, p=True)
    assert list(filter_stream([inside], FilterParams(), geom)) == []
    # At x == width the event would land in the map's padding and support
    # its in-sensor neighbour.
    with pytest.raises(OutOfBoundsError) as info:
        list(filter_stream([Event(t=0.1, x=4, y=1, p=True), inside], FilterParams(), geom))
    assert "event 0 at (4, 1) outside sensor 4x4" in str(info.value)
    for x, y in ((9, 1), (-1, 0), (1, -2), (0, 40)):
        with pytest.raises(OutOfBoundsError) as info:
            list(filter_stream([inside, Event(t=0.2, x=x, y=y, p=True)], FilterParams(), geom))
        assert f"event 1 at ({x}, {y})" in str(info.value)


def test_param_validation():
    with pytest.raises(ContractViolationError):
        FilterParams(radius=0)
    with pytest.raises(ContractViolationError):
        FilterParams(window=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractViolationError):
            FilterParams(window=bad)
