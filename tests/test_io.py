import dataclasses
import math
import os
import warnings

import io_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evshift import io
from evshift.errors import ParseError, StreamOrderError
from evshift.events import Event, EventStream, SensorGeometry
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
    assert list(back) == events
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
    # a two-word comment is not a geometry header, before one or without one
    path.write_text("# a note\n# 10 10\n0.1 1 1 1\n")
    events, geom = read_events(str(path))
    assert len(events) == 1
    assert geom == SensorGeometry(10, 10)
    path.write_text("# a note\n0.1 1 1 1\n")
    events, geom = read_events(str(path), SensorGeometry(4, 4))
    assert len(events) == 1
    assert geom == SensorGeometry(4, 4)


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
    with pytest.raises(ParseError) as info:
        read_labeled_events(str(path))
    assert info.value.line_no == 2
    # blank lines count as lines but not as rows
    for bad_row in ("0.3,1,2,0,0", "0.3,1,2,0,0,zzz", "zzz,1,2,0,0,1"):
        path.write_text(f"t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,1\n\n{bad_row}\n")
        with pytest.raises(ParseError) as info:
            read_labeled_events(str(path))
        assert info.value.line_no == 4
        assert f"{path}:4:" in str(info.value)
    # a quoted field across lines would shift every later line number
    path.write_text('t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,1\n0.2,1,2,0,0,"1\n2"\nzzz,1,2,0,0,1\n')
    with pytest.raises(ParseError) as info:
        read_labeled_events(str(path))
    assert info.value.line_no == 3


# Timestamps that repr must spell in full, ties among them, and zero's sign.
HARD_TIMES = st.one_of(
    st.floats(0, 1e6),
    st.sampled_from([-0.0, 0.0, 0.1, 0.1 + 0.2, 1 / 3, 5e-324, 2.0**53 + 2, 1e16 / 3]),
)
# Lines that read_events skips; they count as lines but not as events.
FILLERS = st.lists(st.sampled_from(["", "   ", "# note"]), max_size=2)

# rule -> (exception, event line fields rewritten to break it, from the
# original fields, the previous event's timestamp and the geometry)
BREAKS = {
    "field count": (ParseError, lambda f, prev, g: f[:3]),
    "bad number": (ParseError, lambda f, prev, g: [f[0], "1.5", *f[2:]]),
    "negative t": (ParseError, lambda f, prev, g: ["-1.0", *f[1:]]),
    "nan t": (ParseError, lambda f, prev, g: ["nan", *f[1:]]),
    "polarity 2": (ParseError, lambda f, prev, g: [*f[:3], "2"]),
    "decreasing t": (StreamOrderError, lambda f, prev, g: [repr(prev / 2), *f[1:]]),
    "outside sensor": (ParseError, lambda f, prev, g: [f[0], str(g.width), *f[2:]]),
}


@st.composite
def event_files(draw):
    """(geometry, stream, its event file's lines with fillers, each event's line index)."""
    geom = SensorGeometry(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
    n = draw(st.integers(1, 12))
    t = sorted(draw(st.lists(HARD_TIMES, min_size=n, max_size=n)))
    x, y = ([draw(st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1))) for _ in range(n)]
            for size in (geom.width, geom.height))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    stream = EventStream(t, x, y, p)
    lines = [f"# {geom.width} {geom.height}", *draw(FILLERS)]
    at = []
    for e in stream:
        lines.extend(draw(FILLERS))
        at.append(len(lines))
        lines.append(f"{e.t!r} {e.x} {e.y} {e.p}")
    return geom, stream, lines + draw(FILLERS), at


@settings(max_examples=150, deadline=None)
@given(case=event_files())
def test_event_file_round_trip_is_exact(tmp_path_factory, case):
    geom, stream, lines, _ = case
    directory = tmp_path_factory.mktemp("events")
    written, padded, again = directory / "a.txt", directory / "b.txt", directory / "c.txt"
    write_events(str(written), stream, geom)
    padded.write_text("\n".join(lines) + "\n")
    back, back_geom = read_events(str(padded))
    assert back_geom == geom
    for name in "txyp":
        # repr tells -0.0 from 0.0
        assert list(map(repr, getattr(back, name).tolist())) == list(map(repr, getattr(stream, name).tolist()))
    write_events(str(again), back, back_geom)
    assert again.read_bytes() == written.read_bytes()


@settings(max_examples=300, deadline=None)
@given(case=event_files(), data=st.data())
def test_event_file_errors_name_the_first_broken_line(tmp_path_factory, case, data):
    geom, stream, lines, at = case
    broken = sorted(data.draw(st.lists(st.integers(0, len(stream) - 1), min_size=1, max_size=2, unique=True)))
    rules = [data.draw(st.sampled_from(sorted(BREAKS))) for _ in broken]
    for k, rule in zip(broken, rules):
        assume(rule != "decreasing t" or (k > 0 and stream.t[k - 1] > 0))
        lines[at[k]] = " ".join(BREAKS[rule][1](lines[at[k]].split(), float(stream.t[k - 1]), geom))
    # The earliest broken line wins, but the sensor bounds are checked
    # only once every line passed the other rules.
    k, rule = next((kr for kr in zip(broken, rules) if kr[1] != "outside sensor"), (broken[0], rules[0]))
    path = tmp_path_factory.mktemp("events") / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BREAKS[rule][0]) as info:
        read_events(str(path))
    assert f"{path}:{at[k] + 1}:" in str(info.value)
    if rule == "decreasing t":
        assert info.value.index == k


# Each CSV reader with its header and a row template whose `{}` sits in an
# int column.
INT_FIELD_FILES = {
    "labeled": (read_labeled_events, "t,x,y,p,packet_id,cluster_id", "0.1,1,2,0,0,{}"),
    "tracks": (read_tracks, "t,track_id,x,y,vx,vy,status,raw_cx,raw_cy", "0.1,{},1.0,2.0,0.0,0.0,tentative,nan,nan"),
    "truth": (read_truth, "t,x,y,p,object_id", "0.1,{},2,0,3"),
    "centers": (read_centers, "t,object_id,cx,cy", "0.1,{},1.0,2.0"),
}


@pytest.mark.parametrize("name", sorted(INT_FIELD_FILES))
def test_int_columns_reject_non_integers(tmp_path, name):
    reader, header, row = INT_FIELD_FILES[name]
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n{row.format(-7)}\n{row.format(2**63 - 1)}\n")
    reader(str(path))
    for bad in ("3.7", "nan", "1e20", "7.0", str(2**63)):
        path.write_text(f"{header}\n{row.format(7)}\n\n{row.format(bad)}\n")
        with pytest.raises(ParseError) as info:
            reader(str(path))
        assert info.value.line_no == 4
        assert repr(bad) in str(info.value)


@pytest.mark.parametrize("chunk_rows", [1, io._CHUNK_ROWS])
@pytest.mark.parametrize("bad", ["nan", "-inf", "Infinity", "1e999"])
def test_labeled_t_must_be_finite(tmp_path, monkeypatch, chunk_rows, bad):
    # through the bulk chunk parse, its per-line rerun, and the per-line
    # reader that a file with a stray header goes to at once
    monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
    rows = f"0.1,1,2,0,0,0\n\n{bad},1,2,0,0,0\n0.3,1,2,0,1,0\n"
    for header in ("t,x,y,p,packet_id,cluster_id\n", '"t",x,y,p,packet_id,cluster_id\n'):
        path = tmp_path / "lab.csv"
        path.write_text(header + rows)
        for read in (read_labeled_events, lambda p: list(io.labeled_chunks(p))):
            with pytest.raises(ParseError) as info:
                read(str(path))
            assert info.value.line_no == 4
            assert repr(bad) in str(info.value)


@pytest.mark.parametrize("chunk_rows", [1, io._CHUNK_ROWS])
def test_an_int_beyond_int64_leaves_the_other_events_as_written(tmp_path, monkeypatch, chunk_rows):
    # numpy reads [12, 2**63] as floats; the error names line 2 as written at any chunk size
    monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "ev.txt"
    path.write_text(f"# 10 10\n0.0 12 0 0\n0.25 {2**63} 0 0\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert str(info.value) == f"{path}:2: event at (12, 0) outside 10x10"


def _ints():
    # Small and negative ids, and ints beyond 2**53 that float64 cannot hold.
    return st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1), st.just(2**53 + 1))


def _floats():
    return st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))


def _write_labeled(path, cols):
    dtypes = [float, np.int64, np.int64, np.int64, np.int64, np.int64]
    write_labeled_events(path, LabeledEvents(*(np.array(c, dtype=d) for c, d in zip(cols, dtypes))))


def _read_labeled(path):
    back = read_labeled_events(path)
    return [back.t, back.x, back.y, back.p, back.packet_id, back.cluster_id]


def _write_tracks(path, cols):
    write_tracks(path, [TrackRow(*r) for r in zip(*cols)])


def _read_tracks(path):
    rows = read_tracks(path)
    return [[getattr(r, f.name) for r in rows] for f in dataclasses.fields(TrackRow)]


def _write_truth(path, cols):
    t, x, y, p, obj = cols
    write_truth(path, [Event(*e) for e in zip(t, x, y, p)], np.array(obj, dtype=np.int64))


def _write_centers(path, cols):
    t, obj, cx, cy = cols
    write_centers(path, np.array(t, dtype=float), np.array(obj, dtype=np.int64), np.column_stack([cx, cy]))


def _read_centers(path):
    t, obj, xy = read_centers(path)
    return [t, obj, xy[:, 0], xy[:, 1]]


STRATEGIES = {float: _floats(), int: _ints(), str: st.sampled_from(["tentative", "confirmed", "dead"])}
# Event rejects a negative or non-finite timestamp; -0.0 passes that check.
EVENT_TIMES = st.one_of(st.floats(0, allow_infinity=False), st.just(-0.0))
# The labeled, tracks and centers readers refuse a t that is NaN or infinite.
FINITE_TIMES = st.floats(allow_nan=False, allow_infinity=False)
# The labeled and truth readers refuse a p other than 0 or 1.
POLARITIES = st.integers(0, 1)
# (format, column index) -> the draws of a column that a reader's rule narrows
RULED_COLUMN = {
    ("truth", 0): EVENT_TIMES, ("labeled", 0): FINITE_TIMES, ("tracks", 0): FINITE_TIMES, ("centers", 0): FINITE_TIMES,
    ("truth", 3): POLARITIES, ("labeled", 3): POLARITIES,
}
# name -> (column kinds, writer from columns, reader to columns)
FORMATS = {
    "labeled": ((float, int, int, int, int, int), _write_labeled, _read_labeled),
    "tracks": ((float, int, float, float, float, float, str, float, float), _write_tracks, _read_tracks),
    "truth": ((float, int, int, int, int), _write_truth, lambda path: list(read_truth(path))),
    "centers": ((float, int, float, float), _write_centers, _read_centers),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_round_trip_is_exact(tmp_path_factory, name, data):
    kinds, write, read = FORMATS[name]
    strategies = [RULED_COLUMN.get((name, i), STRATEGIES[k]) for i, k in enumerate(kinds)]
    n = data.draw(st.integers(0, 6))
    cols = [data.draw(st.lists(s, min_size=n, max_size=n)) for s in strategies]
    directory = tmp_path_factory.mktemp(name)
    first, second = directory / "a.csv", directory / "b.csv"
    write(str(first), cols)
    back = read(str(first))
    for kind, drawn, got in zip(kinds, cols, back):
        if isinstance(got, np.ndarray):
            assert got.dtype.kind == {float: "f", int: "i"}[kind]
            got = got.tolist()
        assert all(type(v) is kind for v in got)
        # repr tells -0.0 from 0.0 and matches nan with nan
        assert list(map(repr, got)) == list(map(repr, drawn))
    write(str(second), back)
    assert first.read_bytes() == second.read_bytes()


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


def test_header_only_files_read_back_empty(tmp_path):
    events_path = tmp_path / "ev.txt"
    events_path.write_text("# 10 10\n")
    csv_path = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events, geom = read_events(str(events_path))
        assert len(events) == 0 and geom == SensorGeometry(10, 10)
        for reader, header, _ in INT_FIELD_FILES.values():
            csv_path.write_text(header + "\n")
            back = reader(str(csv_path))
            assert all(len(col) == 0 for col in back) if isinstance(back, tuple) else len(back) == 0


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    path = tmp_path / "ev.txt"
    path.write_bytes(b"# 10 10\n0.1 1 2 1\n0.2 1 2 \xff1\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert f"{path}:3: not valid UTF-8" in str(info.value)
    # the earliest broken line wins, also over a byte in a comment
    path.write_bytes(b"# 10 10\n0.1 1 2 2\n# \xe9t\xe9\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert info.value.line_no == 2
    path.write_bytes(b"# 10 10\n0.1 1 2 1\n# \xe9t\xe9\n")
    with pytest.raises(ParseError) as info:
        read_events(str(path))
    assert info.value.line_no == 3
    path.write_bytes("# 10 10\n# été \u2003\n0.1\u20031 2 1\n".encode())
    events, _ = read_events(str(path))
    assert len(events) == 1


def test_csv_bytes_that_are_not_utf8_name_their_line(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_bytes(b"t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,1\n\n0.2,1,2,0,0,\xff1\n")
    with pytest.raises(ParseError) as info:
        read_labeled_events(str(path))
    assert f"{path}:4: not valid UTF-8" in str(info.value)
    path = tmp_path / "tracks.csv"
    path.write_bytes(b"t,track_id,x,y,vx,vy,status,raw_cx,raw_cy\n0.1,0,1.0,2.0,0.0,0.0,t\xe9ntative,nan,nan\n")
    with pytest.raises(ParseError) as info:
        read_tracks(str(path))
    assert info.value.line_no == 2


def test_a_directory_is_not_an_input_file(tmp_path):
    for reader in (read_events, read_labeled_events, read_tracks, read_truth, read_centers):
        with pytest.raises(FileNotFoundError):
            reader(str(tmp_path))


# Rows the writers emitted before they wrote in chunks: the oracle for the
# chunked writer.
def one_pass_text(columns, data, header=None, sep=","):
    text = [col if kind in (str, io.track_status) else map({float: repr, io.finite: repr, int: str, io.polarity: str}[kind], map(kind, col))
            for (_, kind), col in zip(columns, data)]
    lines = [",".join(name for name, _ in columns) if header is None else header, *map(sep.join, zip(*text))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, io._CHUNK_ROWS - 1, io._CHUNK_ROWS, io._CHUNK_ROWS + 1])
def test_chunked_writes_equal_one_pass_formatting(tmp_path, n):
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.exponential(1e-4, n))
    x, y = rng.integers(0, 240, n), rng.integers(0, 180, n)
    p = rng.integers(0, 2, n).astype(bool)  # a bool array in an int column writes 1 and 0
    packet_id, cluster_id = np.arange(n) // 500, rng.integers(-1, 4, n)
    path = tmp_path / "out"

    write_labeled_events(str(path), LabeledEvents(t, x, y, p, packet_id, cluster_id))
    assert path.read_text() == one_pass_text(io.LABELED_COLUMNS, [t, x, y, p, packet_id, cluster_id])

    stream = EventStream(t, x, y, p)
    write_events(str(path), stream, SensorGeometry(240, 180))
    assert path.read_text() == one_pass_text(io.EVENT_COLUMNS, [t, x, y, stream.p], header="# 240 180", sep=" ")

    # list columns of numpy scalars, as TrackRow fields may hold them
    status = rng.choice(["tentative", "confirmed", "dead"], n).tolist()
    rows = [TrackRow(*r) for r in zip(t.tolist(), cluster_id.tolist(), *(rng.normal(size=(4, n)) * 100),
                                      status, list(t), [math.nan] * n)]
    write_tracks(str(path), rows)
    cols = [[getattr(r, name) for r in rows] for name in io.TRACKS_HEADER]
    assert path.read_text() == one_pass_text(io.TRACKS_COLUMNS, cols)


def test_writers_convert_values_to_their_column_kind(tmp_path):
    path = tmp_path / "tracks.csv"
    row = TrackRow(np.float64(0.1), np.int64(3), np.float64(1.5), 2, 0.0, 0.0, "confirmed", np.float32(0.5), math.nan)
    write_tracks(str(path), [row])
    assert path.read_text().splitlines()[1] == "0.1,3,1.5,2.0,0.0,0.0,confirmed,0.5,nan"
    write_labeled_events(str(path), LabeledEvents(*(np.array([v]) for v in (0.25, 1, 2, True, 0, False))))
    assert path.read_text().splitlines()[1] == "0.25,1,2,1,0,0"


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("old\n")
    n = io._CHUNK_ROWS + 3
    cluster_id = np.zeros(n)
    cluster_id[-1] = math.nan  # int(nan) fails in the second chunk, after the first was written
    ints = np.zeros(n, dtype=np.int64)
    with pytest.raises(ValueError):
        write_labeled_events(str(path), LabeledEvents(np.zeros(n), ints, ints, ints, ints, cluster_id))
    assert path.read_text() == "old\n"
    assert [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")] == []


# Tokens on which the bulk parse and the per-line reader could part ways,
# in groups: spellings both accept, values only the per-line reader
# accepts, padding, and text neither accepts.
NUMBER_TOKENS = [
    ["+1", "-0", "01", ".5", "5.", "1e-3", "nan", "-nan", "Infinity", "-inf", str(2**63 - 1)],
    ["1_0", "\u0663", '"1"', '"1', "\x1c1", "1\x1f", "1\x1d"],
    [" 1", " 1 ", "\t1", "1\x0c", "\u20031", "\xa01", "1\x85", "1\r"],
    ["3.7", "7.0", "1e20", str(2**63), "0x10", "x", "", "\u200b1", "1\u200b", "#", "\udcff"],
]
STATUS_TOKENS = [
    [" dead ", "con firmed", "", "déad"],
    ['"dead"', '"a,b"', '""', 'a"b', '"dead'],
    ["a\x1cb", "\x1f", "\u200b", "#"],
    ["\udcff"],
]
FILLER_LINES = ["", "   ", "\t", "# note", "# a b c d", "\x0c", "\udcff"]
PADDING = [" ", "\t", "\x0c", "\u2003", "\x85", "\x1c"]
# "\r" alone is a line break when the file is read as text.
ENDINGS = ["\r\n", "\r", ""]


def grouped(groups):
    """A token from a group drawn first, so that small groups are not rare."""
    return st.sampled_from(groups).flatmap(st.sampled_from)


@st.composite
def edited_file(draw, header, rows, sep, hard_headers, hard_field, hard_seps):
    """The text of a file of `header` and `rows` (lists of fields joined by
    `sep`) after up to three edits, each bringing in one hard token: a
    field, a separator, the header, a field too many or too few, a filler
    line, padding or a line ending.  hard_field(row length) is a strategy
    for (column index, token).
    """
    seps = [[sep] * (len(r) - 1) for r in rows]
    lines = None
    edits = ["field", "field", "field", "sep", "count", "header", "filler", "pad", "end"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)):
        if edit == "header":
            header = draw(st.sampled_from(hard_headers))
        elif edit in ("field", "sep", "count") and rows:
            i = draw(st.integers(0, len(rows) - 1))
            if edit == "field":
                j, token = draw(hard_field(len(rows[i])))
                rows[i][j] = token
            elif edit == "sep" and seps[i]:
                seps[i][draw(st.integers(0, len(seps[i]) - 1))] = draw(st.sampled_from(hard_seps))
            elif edit == "count" and len(rows[i]) > 1:
                if draw(st.booleans()):
                    rows[i].pop(), seps[i].pop()
                else:
                    rows[i].append("1"), seps[i].append(sep)
        elif edit in ("filler", "pad", "end"):
            if lines is None:
                lines = [[header, "\n"], *([f[0] + "".join(s + v for s, v in zip(g, f[1:])), "\n"] for f, g in zip(rows, seps))]
            i = draw(st.integers(0, len(lines) - 1))
            if edit == "filler":
                lines.insert(i + 1, [draw(st.sampled_from(FILLER_LINES)), "\n"])
            elif edit == "pad":
                pad = draw(st.sampled_from(PADDING))
                lines[i][0] = pad + lines[i][0] if draw(st.booleans()) else lines[i][0] + pad
            else:
                lines[i][1] = draw(st.sampled_from(ENDINGS))
    if lines is None:
        lines = [[header, "\n"], *([f[0] + "".join(s + v for s, v in zip(g, f[1:])), "\n"] for f, g in zip(rows, seps))]
    return "".join(line + end for line, end in lines)


@st.composite
def hard_event_files(draw):
    """(text of an event file from hard tokens, fallback geometry)."""
    n = draw(st.integers(0, 6))
    steps = draw(st.lists(st.sampled_from([0.0, 0.25, 0.1 + 0.2, 1.0]), min_size=n, max_size=n))
    t = np.cumsum(steps).tolist()
    rows = [[repr(t[i]), *(draw(st.sampled_from(["0", "1", "9"])) for _ in range(2)), draw(st.sampled_from(["0", "1"]))]
            for i in range(n)]
    hard_headers = ["", "0 1 1 1", "#10\t10 ", "# 0 10", "# note", "  # 10 10", "# 10", "\udcff# 10 10", "# 10 10 # c"]
    # The stream rules: a negative, an earlier or a non-finite time, a polarity of 2, an event off the sensor.
    tokens = grouped(NUMBER_TOKENS + [["-1", "0", "2", "10", "inf"]])

    def fields(size):
        return st.tuples(st.integers(0, size - 1), tokens)

    text = draw(edited_file("# 10 10", rows, " ", hard_headers, fields, PADDING))
    return text, draw(st.sampled_from([None, SensorGeometry(4, 4)]))


def outcome(read, path, *args):
    """What a reader did with a file: its columns by repr, or its error."""
    try:
        result = read(path, *args)
    except (ParseError, StreamOrderError) as exc:
        return type(exc), getattr(exc, "line_no", None), getattr(exc, "index", None), str(exc)
    if isinstance(result, tuple):  # read_events: (stream, geometry)
        stream, geom = result
        return [repr(getattr(stream, name).tolist()) for name in "txyp"], geom
    return [(col.dtype, repr(col.tolist())) for col in result]


# Small chunks put filler lines, quotes, padding and faults on chunk edges.
CHUNK_ROWS = st.sampled_from([1, 2, 3, io._CHUNK_ROWS])


@settings(max_examples=400, deadline=None)
@given(case=hard_event_files(), chunk_rows=CHUNK_ROWS)
def test_event_reader_equals_per_line_reader(tmp_path_factory, case, chunk_rows):
    text, geom = case
    path = tmp_path_factory.mktemp("events") / "ev.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_CHUNK_ROWS", chunk_rows)
        assert outcome(read_events, str(path), geom) == outcome(io_oracle.read_events_per_line, str(path), geom)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), chunk_rows=CHUNK_ROWS)
def test_csv_reader_equals_per_line_reader(tmp_path_factory, name, data, chunk_rows):
    columns = {"labeled": io.LABELED_COLUMNS, "tracks": io.TRACKS_COLUMNS,
               "truth": io.TRUTH_COLUMNS, "centers": io.CENTERS_COLUMNS}[name]
    kinds = [kind for _, kind in columns]
    plain = {float: ["0.5", "-0.0", "1e-300", "nan", "inf", repr(0.1 + 0.2)], int: ["0", "-7", "12"],
             io.track_status: ["confirmed", "dead"]}
    plain[io.finite] = plain[float]
    plain[io.polarity] = ["0", "1"]
    rows = [[data.draw(st.sampled_from(plain[k])) for k in kinds] for _ in range(data.draw(st.integers(0, 5)))]
    header = ",".join(io._names(columns))
    hard_headers = [header + " ", '"t"' + header[1:], header[:-1], header.upper(), "\ufeff" + header]

    def fields(size):
        # a kind first, so that the one status column is not rare
        columns = range(min(size, len(kinds)))
        column = st.sampled_from(list(dict.fromkeys(kinds[:size]))).flatmap(
            lambda kind: st.sampled_from([j for j in columns if kinds[j] is kind]))
        return column.flatmap(lambda j: st.tuples(st.just(j), grouped(STATUS_TOKENS if kinds[j] is io.track_status else NUMBER_TOKENS)))

    text = data.draw(edited_file(header, rows, ",", hard_headers, fields, [", ", " ,", "\x1c,", ",\u2003", ",\x1f", ";"]))
    path = tmp_path_factory.mktemp(name) / "f.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_CHUNK_ROWS", chunk_rows)
        assert outcome(io._read_csv, str(path), columns) == outcome(io_oracle.read_csv_per_line, str(path), columns)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_quote_left_open_at_the_end_of_a_chunk(tmp_path, monkeypatch, chunk_rows):
    # The open quote takes in the line break and, unless the file ends there, the next line.
    monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
    path = str(tmp_path / "lab.csv")
    for rest in ("", "0.3,1,2,0,0,1\n"):
        with open(path, "w") as fh:
            fh.write('t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,1\n0.2,1,2,0,0,"1\n' + rest)
        assert outcome(io._read_csv, path, io.LABELED_COLUMNS) == outcome(io_oracle.read_csv_per_line, path, io.LABELED_COLUMNS)
