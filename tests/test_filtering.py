"""Support filter checked against a direct quadratic reference and an exact
per-event loop over two timestamp maps."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evshift import filtering
from evshift.errors import ContractViolationError, OutOfBoundsError, StreamOrderError
from evshift.events import Event, EventStream, SensorGeometry
from evshift.filtering import FilterParams, filter_chunks, filter_stream, support_mask
from evshift.scenes import build_scene
from evshift.synth import generate


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


def two_map_filter(stream, radius, window, geom):
    """Linear reference, the keep mask: one pass over the events with two
    timestamps per pixel, the latest and the latest strictly older one, so
    that equal-timestamp arrivals at a pixel cannot mask an older supporting
    event there."""
    d = 2 * radius + 1
    # Pad by radius so the neighbourhood of pixel (x, y) is [y : y + d, x : x + d].
    shape = (geom.height + 2 * radius, geom.width + 2 * radius)
    last = np.full(shape, -math.inf)
    prev = np.full(shape, -math.inf)
    keep = []
    for e in stream:
        view_last = last[e.y : e.y + d, e.x : e.x + d]
        m = view_last.max()
        if m >= e.t:
            # Equal timestamps present; fall back to the strictly older entries.
            view_prev = prev[e.y : e.y + d, e.x : e.x + d]
            m = np.where(view_last < e.t, view_last, view_prev).max()
        keep.append(0 < e.t - m <= window)
        cy, cx = e.y + radius, e.x + radius
        if e.t > last[cy, cx]:
            prev[cy, cx] = last[cy, cx]
            last[cy, cx] = e.t
    return np.array(keep, dtype=bool)


def assert_same_stream(got, want):
    for column in "txyp":
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column))


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


@st.composite
def tied_streams(draw):
    """Streams on a small sensor with many equal timestamps and events on all
    four border rows and columns, with a radius and a window near the step."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    border = lambda size: st.sampled_from([0, size - 1, *range(size)])  # borders twice as likely
    ticks = st.sampled_from([0, 0, 0, 1, 1, 2, 5])  # mostly equal timestamps
    n = draw(st.integers(0, 300))
    rows = draw(st.lists(st.tuples(ticks, border(width), border(height), st.integers(0, 1)), min_size=n, max_size=n))
    tick, x, y, p = np.array(rows, dtype=np.int64).reshape(len(rows), 4).T
    step = draw(st.sampled_from([1e-3, 0.7e-3, 2.5e-4]))
    window = step * draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 7.0]))
    params = FilterParams(draw(st.integers(1, 3)), window)
    return EventStream(np.cumsum(tick * step), x, y, p), SensorGeometry(width, height), params


@settings(max_examples=100, deadline=None)
@given(case=tied_streams())
def test_matches_two_map_loop_on_tied_border_streams(case):
    stream, geom, params = case
    want = stream[two_map_filter(stream, params.radius, params.window, geom)]
    assert_same_stream(filter_stream(stream, params, geom), want)


@settings(max_examples=100, deadline=None)
@given(case=tied_streams(), cuts=st.lists(st.integers(0, 300), max_size=12))
def test_chunked_filter_matches_two_map_loop(case, cuts):
    # chunk edges anywhere, inside runs of equal timestamps too, some chunks empty
    stream, geom, params = case
    edges = [0, *sorted(c for c in cuts if c <= len(stream)), len(stream)]
    chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
    kept = list(filter_chunks(chunks, params, geom))
    assert len(kept) == sum(len(c) > 0 for c in chunks)
    got = EventStream(*(np.concatenate([getattr(k, c) for k in kept] or [[]]) for c in "txyp"))
    assert_same_stream(got, stream[two_map_filter(stream, params.radius, params.window, geom)])


def test_chunked_filter_context_follows_the_keep_tests_rounding():
    # 0.004 - m rounds to <= 0.003, yet m < 0.004 - 0.003 (which rounds to 0.001):
    # a context of t >= t_last - window would drop the support of the last event
    m = 0.0009999999999999998
    assert 0.004 - m <= 0.003 and m < 0.004 - 0.003
    geom, params = SensorGeometry(10, 10), FilterParams(1, 0.003)
    stream = EventStream([m, 0.004, 0.004], [0, 9, 1], [0, 9, 1], [1, 1, 1])
    want = filter_stream(stream, params, geom)
    assert want.t.tolist() == [0.004]
    kept = list(filter_chunks([stream[:2], stream[2:]], params, geom))
    assert_same_stream(kept[1], want)


def test_chunked_filter_context_holds_two_events_per_pixel(monkeypatch):
    # a window longer than the stream, so the window alone would keep every event
    geom, params = SensorGeometry(3, 2), FilterParams(1, 100.0)
    rng = np.random.default_rng(3)
    n = 3000
    stream = EventStream(np.repeat(np.arange(n // 3) * 1e-3, 3), rng.integers(0, 3, n), rng.integers(0, 2, n),
                         np.zeros(n, dtype=int))
    want = filter_stream(stream, params, geom)
    decided = []

    def recorded(both, *args):
        decided.append(len(both))
        return support_mask(both, *args)

    monkeypatch.setattr(filtering, "support_mask", recorded)
    kept = list(filter_chunks([stream[i : i + 100] for i in range(0, n, 100)], params, geom))
    np.testing.assert_array_equal(np.concatenate([k.t for k in kept]), want.t)
    assert len(decided) == 30 and max(decided) <= 100 + 2 * 3 * 2


def test_two_map_loop_matches_brute_force():
    rng = np.random.default_rng(5)
    geom = SensorGeometry(9, 7)
    for radius in (1, 2, 3):
        events = random_stream(rng, 200, 9, 7, 1e-3, duplicate_frac=0.4)
        keep = two_map_filter(events, radius, 0.002, geom)
        assert [e for e, k in zip(events, keep) if k] == brute_force_filter(events, radius, 0.002)


@pytest.fixture(scope="module")
def reference_events():
    gen = generate(build_scene("reference"))
    return gen.events, gen.geometry


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_reference_scene_matches_two_map_loop(reference_events, radius):
    stream, geom = reference_events
    params = FilterParams(radius=radius)
    want = stream[two_map_filter(stream, radius, params.window, geom)]
    assert_same_stream(filter_stream(stream, params, geom), want)


def test_empty_and_single_event_streams():
    geom = SensorGeometry(3, 2)
    empty = filter_stream(EventStream([], [], [], []), FilterParams(), geom)
    assert len(empty) == 0 and empty.t.dtype == np.float64
    assert len(filter_stream([Event(t=0.0, x=2, y=1, p=True)], FilterParams(radius=4), geom)) == 0


def test_radius_beyond_sensor_reaches_every_pixel():
    # Offsets are clamped to the sensor, which still covers opposite corners.
    geom = SensorGeometry(3, 2)
    a = Event(t=0.0, x=0, y=0, p=True)
    b = Event(t=0.001, x=2, y=1, p=True)
    assert list(filter_stream([a, b], FilterParams(radius=2), geom)) == [b]
    assert list(filter_stream([a, b], FilterParams(radius=10**12), geom)) == [b]
    assert list(filter_stream([a, b], FilterParams(radius=1), geom)) == []


def test_sort_keys_that_overflow_int64_are_refused():
    geom = SensorGeometry(2**31, 2**31)
    events = [Event(t=float(i), x=0, y=0, p=True) for i in range(3)]
    with pytest.raises(ContractViolationError, match="overflows"):
        filter_stream(events, FilterParams(), geom)


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
    for bad in (1.5, 2.0, "2", None, True, np.float64(2.0)):
        with pytest.raises(ContractViolationError, match="must be an integer"):
            FilterParams(radius=bad)
    assert FilterParams(radius=np.int64(2)).radius == 2
    assert FilterParams(radius=np.int32(3)).radius == 3
