import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evshift.errors import ContractViolationError, OutOfBoundsError, StreamOrderError
from evshift.events import (
    DecayParams,
    Event,
    EventStream,
    SensorGeometry,
    feature_matrix,
    make_packet,
    packet_chunks,
    packetize,
)


def one_feature(e, geom, dp):
    return feature_matrix([e.t], [e.x], [e.y], [e.p], geom, dp)[0]


BAD_TIMES = [math.nan, math.inf, -math.inf, -0.5, -5e-324]


def test_event_rejects_bad_timestamps():
    """Every way to build an Event checks t, with one message."""
    good = Event(t=0.5, x=1, y=2, p=True)
    for bad in BAD_TIMES:
        message = re.escape(f"event timestamp must be finite and >= 0, got {bad}")
        with pytest.raises(ContractViolationError, match=message):
            Event(t=bad, x=0, y=0, p=True)
        with pytest.raises(ContractViolationError, match=message):
            Event._make([bad, 0, 0, True])
        with pytest.raises(ContractViolationError, match=message):
            good._replace(t=bad)
    assert good._replace(x=7) == Event(0.5, 7, 2, True)
    assert Event._make((0.0, 1, 2, 0)) == Event(0.0, 1, 2, 0)
    with pytest.raises(ValueError, match="unexpected field names"):
        good._replace(z=1)


def test_event_is_a_named_tuple():
    e = Event(t=0.25, x=3, y=4, p=1)
    assert e == (0.25, 3, 4, 1) and hash(e) == hash((0.25, 3, 4, 1))
    t, x, y, p = e
    assert (t, x, y, p) == (e.t, e.x, e.y, e.p) == (e[0], e[1], e[2], e[3])
    assert repr(e) == "Event(t=0.25, x=3, y=4, p=1)"
    assert e._fields == ("t", "x", "y", "p")
    with pytest.raises(AttributeError):
        e.t = 1.0


def checked_one_by_one(stream):
    """The events of a stream built one at a time by Event, and the message
    of the error that stopped them, or None."""
    events = []
    for values in zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.p.tolist()):
        try:
            events.append(Event(*values))
        except ContractViolationError as exc:
            return events, str(exc)
    return events, None


def iterated(stream):
    events = []
    try:
        for e in stream:
            events.append(e)
    except ContractViolationError as exc:
        return events, str(exc)
    return events, None


@settings(max_examples=300, deadline=None)
@given(
    t=st.lists(st.floats(0.0, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1.7e308]), max_size=40),
    bad=st.lists(st.tuples(st.integers(0, 39), st.sampled_from(BAD_TIMES)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_iteration_equals_checked_construction(t, bad, seed):
    for i, value in bad:
        if i < len(t):
            t[i] = value
    rng = np.random.default_rng(seed)
    n = len(t)
    stream = EventStream(t, rng.integers(-9, 300, n), rng.integers(-9, 300, n), rng.integers(-1, 3, n))
    want_events, want_error = checked_one_by_one(stream)
    got_events, got_error = iterated(stream)
    assert got_error == want_error
    assert [type(e) for e in got_events] == [Event] * len(want_events)
    assert [tuple(map(repr, e)) for e in got_events] == [tuple(map(repr, e)) for e in want_events]
    if want_error is None:
        assert [stream[i] for i in range(n)] == got_events


def test_out_of_bounds_event_rejected_at_featurization():
    g = SensorGeometry(8, 8)
    dp = DecayParams()
    with pytest.raises(OutOfBoundsError):
        feature_matrix([0.0], [-1], [0], [1], g, dp)
    with pytest.raises(OutOfBoundsError):
        make_packet([Event(t=0.0, x=0, y=8, p=True)], g, dp)


def test_geometry_contains():
    g = SensorGeometry(240, 180)
    assert g.contains(0, 0)
    assert g.contains(239, 179)
    assert not g.contains(240, 0)
    assert not g.contains(0, 180)
    with pytest.raises(ContractViolationError):
        SensorGeometry(0, 10)


def test_decay_values():
    p = DecayParams(tau=0.025)
    ft = feature_matrix([0.95, 0.975, 1.0], [0, 0, 0], [0, 0, 0], [0, 0, 0], SensorGeometry(8, 8), p)[:, 3]
    assert ft[2] == 1.0
    assert ft[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert ft[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
    with pytest.raises(ContractViolationError):
        DecayParams(tau=0.0)


def test_param_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ContractViolationError):
            DecayParams(tau=bad)


def test_feature_normalization_corners():
    g = SensorGeometry(240, 180)
    p = DecayParams()
    f = one_feature(Event(t=1.0, x=0, y=0, p=0), g, p)
    assert f.tolist() == [0.0, 0.0, 0.0, 1.0]
    f = one_feature(Event(t=1.0, x=239, y=179, p=1), g, p)
    assert f[:3].tolist() == [1.0, 1.0, 1.0]
    mid = one_feature(Event(t=1.0, x=120, y=90, p=1), g, p)
    assert mid[0] == pytest.approx(120 / 239)
    assert mid[1] == pytest.approx(90 / 179)
    with pytest.raises(OutOfBoundsError):
        one_feature(Event(t=1.0, x=240, y=0, p=1), g, p)


def test_make_packet_reference_is_newest_event():
    g = SensorGeometry(10, 10)
    events = [Event(t=0.1 * i, x=i, y=i, p=1) for i in range(5)]
    pkt = make_packet(events, g, DecayParams())
    assert pkt.t_ref == events[-1].t
    assert len(pkt) == 5
    arr = pkt.feature_array()
    assert arr.shape == (5, 4)
    # newest event decays to exactly one
    assert arr[-1, 3] == 1.0
    assert np.all(arr[:, 3] <= 1.0)
    assert np.all(arr[:, 3] > 0.0)


@st.composite
def ordered_packets(draw):
    width = draw(st.integers(1, 300))
    height = draw(st.integers(1, 300))
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(0.0, 1e-2), min_size=n, max_size=n))
    t0 = draw(st.floats(0.0, 100.0))
    events = [
        Event(
            t=t0 + sum(gaps[: i + 1]),
            x=draw(st.integers(0, width - 1)),
            y=draw(st.integers(0, height - 1)),
            p=draw(st.integers(0, 1)),
        )
        for i in range(n)
    ]
    tau = draw(st.floats(1e-4, 1.0))
    return events, SensorGeometry(width, height), DecayParams(tau=tau)


@settings(max_examples=200, deadline=None)
@given(ordered_packets())
def test_packet_features_match_scalar_path(case):
    events, g, dp = case
    pkt = make_packet(events, g, dp)
    arr = pkt.feature_array()
    t_ref = events[-1].t
    assert pkt.t_ref == t_ref
    for i, e in enumerate(events):
        expect = [
            e.x / (g.width - 1) if g.width > 1 else 0.0,
            e.y / (g.height - 1) if g.height > 1 else 0.0,
            float(e.p),
            math.exp(-(t_ref - e.t) / dp.tau),
        ]
        assert np.allclose(arr[i], expect, rtol=0, atol=1e-15)


def test_packetize_sizes_and_remainder():
    g = SensorGeometry(10, 10)
    events = [Event(t=0.01 * i, x=1, y=1, p=1) for i in range(23)]
    packets = list(packetize(events, 10, g, DecayParams()))
    assert [len(p) for p in packets] == [10, 10, 3]
    assert packets[0].t_ref == events[9].t
    assert packets[2].t_ref == events[22].t
    assert list(packetize([], 10, g, DecayParams())) == []


def test_packetize_rejects_disorder_with_global_index():
    g = SensorGeometry(10, 10)
    events = [
        Event(t=0.0, x=1, y=1, p=1),
        Event(t=0.2, x=1, y=1, p=1),
        Event(t=0.1, x=1, y=1, p=1),
    ]
    with pytest.raises(StreamOrderError) as info:
        list(packetize(events, 2, g, DecayParams()))
    assert info.value.index == 2


def test_packetize_allows_equal_timestamps():
    g = SensorGeometry(10, 10)
    events = [Event(t=0.5, x=1, y=1, p=1) for _ in range(4)]
    packets = list(packetize(events, 2, g, DecayParams()))
    assert len(packets) == 2
    assert packets[0].feature_array()[:, 3].tolist() == [1.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 150), size=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(0, 150), max_size=12))
def test_packet_chunks_equal_slices_of_the_whole_stream(n, size, seed, cuts):
    g = SensorGeometry(7, 5)
    dp = DecayParams(tau=0.01)
    rng = np.random.default_rng(seed)
    stream = EventStream(np.cumsum(rng.integers(0, 3, n)) * 1e-3, rng.integers(0, 7, n), rng.integers(0, 5, n),
                         rng.integers(0, 2, n))
    # repeated cut points give empty chunks, as filter_chunks may yield
    edges = [0, *sorted(min(c, n) for c in cuts), n]
    chunks = [stream[a:b] for a, b in zip(edges[:-1], edges[1:])]
    got = list(packet_chunks(iter(chunks), size, g, dp))
    want = [make_packet(stream[s : s + size], g, dp) for s in range(0, n, size)]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("t", "x", "y", "p", "features"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_packet_size_is_checked_before_any_chunk_is_read():
    def unread():
        raise AssertionError("a chunk was read")
        yield

    with pytest.raises(ContractViolationError, match="packet size must be >= 1"):
        packet_chunks(unread(), 0, SensorGeometry(10, 10), DecayParams())
    # packetize stays lazy, and checks the size before the order
    events = [Event(t=0.2, x=1, y=1, p=1), Event(t=0.1, x=1, y=1, p=1)]
    packets = packetize(events, 0, SensorGeometry(10, 10), DecayParams())
    with pytest.raises(ContractViolationError, match="packet size must be >= 1"):
        next(packets)


def test_empty_packet_rejected():
    with pytest.raises(ContractViolationError):
        make_packet([], SensorGeometry(10, 10), DecayParams())
