import os
import warnings

import numpy as np
import pytest

from evshift.errors import ParseError, StreamOrderError
from evshift.events import Event, SensorGeometry
from evshift.io import (
    LabeledEvents,
    TrackRow,
    atomic_write_text,
    read_centers,
    read_events,
    read_labeled_events,
    read_tracks,
    read_truth,
    write_centers,
    write_events,
    write_labeled_events,
    write_tracks,
    write_truth,
)

GEOM = SensorGeometry(64, 48)


def sample_events():
    return [
        Event(t=0.0, x=0, y=0, p=True),
        Event(t=0.12345678901234567, x=63, y=47, p=False),
        Event(t=0.5, x=10, y=20, p=True),
    ]


def test_events_round_trip(tmp_path):
    path = str(tmp_path / "ev.txt")
    events = sample_events()
    write_events(path, events, GEOM)
    back, geom = read_events(path)
    assert geom == GEOM
    assert back == events
    assert back[1].t == 0.12345678901234567  # repr round-trip is exact


def test_events_write_is_byte_deterministic(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    write_events(a, sample_events(), GEOM)
    write_events(b, sample_events(), GEOM)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_events_header_beats_fallback_geometry(tmp_path):
    path = str(tmp_path / "ev.txt")
    write_events(path, [Event(t=0.0, x=5, y=5, p=True)], SensorGeometry(10, 10))
    _, geom = read_events(path, geom=SensorGeometry(99, 99))
    assert geom == SensorGeometry(10, 10)


def test_events_need_some_geometry(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("0.5 1 2 1\n")
    with pytest.raises(ParseError):
        read_events(str(path))
    events, geom = read_events(str(path), geom=GEOM)
    assert len(events) == 1
    assert geom == GEOM


def test_events_out_of_order_rejected(tmp_path):
    path = tmp_path / "ev.txt"
    path.write_text("# 10 10\n0.2 1 1 1\n0.2 3 3 1\n\n0.1 2 2 0\n")
    with pytest.raises(StreamOrderError) as info:
        read_events(str(path))
    assert info.value.index == 2
    assert f"{path}:5:" in str(info.value)


def test_events_polarity_must_be_binary(tmp_path):
    path = tmp_path / "ev.txt"
    for bad in ("-1", "2", "7"):
        path.write_text(f"# 10 10\n0.1 1 1 0\n0.2 1 1 {bad}\n")
        with pytest.raises(ParseError) as info:
            read_events(str(path))
        assert info.value.line_no == 3
        assert "polarity" in str(info.value)
    path.write_text("# 10 10\n0.1 1 1 0\n0.2 1 1 1\n")
    events, _ = read_events(str(path))
    assert [e.p for e in events] == [0, 1]


def test_events_outside_sensor_name_their_line(tmp_path):
    path = tmp_path / "ev.txt"
    path.write_text("# 4 4\n0.1 1 1 1\n0.2 9 1 0\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert info.value.line_no == 3
    assert f"{path}:3: event at (9, 1) outside 4x4" in str(info.value)
    # blank and comment lines count as lines but not as events
    path.write_text("# 4 4\n\n0.1 1 1 1\n# note\n0.2 1 2 0\n0.3 1 4 1\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert info.value.line_no == 6


def test_events_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# 10 10\n0.1 1 1\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert info.value.line_no == 2
    path.write_text("# 10 10\n0.1 1 1 x\n")
    with pytest.raises(ParseError):
        read_events(str(path))
    path.write_text("# 0 10\n0.1 1 1 1\n")
    with pytest.raises(ParseError):
        read_events(str(path))
    path.write_text("# 10 10\n0.1 50 50 1\n")
    with pytest.raises(ParseError):
        read_events(str(path))
    with pytest.raises(FileNotFoundError):
        read_events(str(tmp_path / "nope.txt"))


def test_events_blank_lines_and_comments_skipped(tmp_path):
    path = tmp_path / "ev.txt"
    path.write_text("# 10 10\n\n# a comment\n0.1 1 1 1\n\n")
    events, geom = read_events(str(path))
    assert len(events) == 1
    assert geom == SensorGeometry(10, 10)


def test_labeled_events_round_trip(tmp_path):
    path = str(tmp_path / "lab.csv")
    rows = LabeledEvents(
        t=np.array([0.1, 0.2, 0.3]),
        x=np.array([1, 2, 3]),
        y=np.array([4, 5, 6]),
        p=np.array([0, 1, 0]),
        packet_id=np.array([0, 0, 1]),
        cluster_id=np.array([0, -1, 2]),
    )
    write_labeled_events(path, rows)
    back = read_labeled_events(path)
    assert np.array_equal(back.t, rows.t)
    assert np.array_equal(back.x, rows.x)
    assert np.array_equal(back.p, rows.p)
    assert np.array_equal(back.packet_id, rows.packet_id)
    assert np.array_equal(back.cluster_id, rows.cluster_id)
    assert len(back) == 3


def test_tracks_round_trip(tmp_path):
    path = str(tmp_path / "tracks.csv")
    rows = [
        TrackRow(t=0.1, track_id=0, x=10.5, y=20.25, vx=1.5, vy=-2.5,
                 status="confirmed", raw_cx=10.4, raw_cy=20.3),
        TrackRow(t=0.2, track_id=1, x=30.0, y=40.0, vx=0.0, vy=0.0,
                 status="tentative", raw_cx=float("nan"), raw_cy=float("nan")),
    ]
    write_tracks(path, rows)
    back = read_tracks(path)
    assert len(back) == 2
    assert back[0] == rows[0]
    assert back[1].status == "tentative"
    assert np.isnan(back[1].raw_cx) and np.isnan(back[1].raw_cy)


def test_tracks_header_checked(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ParseError):
        read_tracks(str(path))


def test_truth_round_trip(tmp_path):
    path = str(tmp_path / "truth.csv")
    events = sample_events()
    labels = np.array([0, 1, -1])
    write_truth(path, events, labels)
    t, x, y, p, obj = read_truth(path)
    assert np.array_equal(t, [e.t for e in events])
    assert np.array_equal(x, [e.x for e in events])
    assert np.array_equal(p, [1, 0, 1])
    assert np.array_equal(obj, labels)
    with pytest.raises(ValueError):
        write_truth(path, events, np.array([0]))


def test_centers_round_trip(tmp_path):
    path = str(tmp_path / "centers.csv")
    t = np.array([0.0, 0.001, 0.002])
    obj = np.array([0, 0, 1])
    xy = np.array([[10.0, 20.0], [10.5, 20.5], [30.0, 40.0]])
    write_centers(path, t, obj, xy)
    bt, bobj, bxy = read_centers(path)
    assert np.array_equal(bt, t)
    assert np.array_equal(bobj, obj)
    assert np.array_equal(bxy, xy)


def test_csv_error_reports_line(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0\n")
    with pytest.raises(ParseError) as info:
        read_labeled_events(str(path))
    assert info.value.line_no == 2
    path.write_text("t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,zzz\n")
    with pytest.raises(ParseError):
        read_labeled_events(str(path))


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(str(path), "new")
    assert path.read_text() == "new"
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert leftovers == []


def test_read_events_keeps_ordered_stream_silent(tmp_path):
    path = str(tmp_path / "ev.txt")
    write_events(path, sample_events(), GEOM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events, _ = read_events(path)
    assert len(events) == 3
