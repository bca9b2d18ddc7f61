"""The filter, cluster and track commands read and process their input in
chunks of io._CHUNK_ROWS lines and write their output in pieces of
io._WRITE_ROWS rows.  Their bytes, printed counts and errors must equal
those of the library calls that they stand for, run on the whole input at
once, at any chunk and piece size."""

import contextlib
import dataclasses
import io as _stringio
import json
import os
import subprocess
import sys
import textwrap

import io_oracle
import numpy as np
import pytest
import tracking_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import evshift
from evshift import cli, io, pipeline
from evshift.clustering import cluster_packet
from evshift.errors import EmptyAlignmentError, ParseError
from evshift.events import EventStream, SensorGeometry, make_packet
from evshift.filtering import filter_stream
from evshift.io import (
    LabeledEvents,
    read_events,
    read_labeled_events,
    write_events,
    write_labeled_events,
    write_tracks,
)
from evshift.pipeline import labeled_from_packets
from evshift.scenes import build_scene
from evshift.synth import generate
from evshift.tracking import TrackerParams, TrackStatus

SRC = os.path.dirname(os.path.dirname(evshift.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
CHUNK_ROWS = [1, 2, 3, 499, 500, 501, 7 * 500]


def run(argv):
    """(exit code, stdout, stderr) of one command run through main()."""
    out, err = _stringio.StringIO(), _stringio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def outcome(argv):
    """(exit code, stdout, stderr, output bytes or None) of main(argv)."""
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
        os.unlink(out)
    rc, stdout, stderr = run(argv)
    return rc, stdout, stderr, open(out, "rb").read() if os.path.exists(out) else None


def whole_input_command(args):
    """The filter, cluster or track command as the library calls that it
    stands for, run on the whole input at once."""
    cfg = cli._build_config(args)
    if args.command == "track":
        rows = read_labeled_events(args.input)
        if len(rows) == 0:
            raise EmptyAlignmentError("labeled event file is empty")
        tracks, _ = tracking_oracle.track_labelings(rows, cfg.pipeline_params().tracker_params)
        write_tracks(args.out, tracks)
        counts = {"packets": len(np.unique(rows.packet_id)), "tracks": len({r.track_id for r in tracks}),
                  "confirmed_tracks": len({r.track_id for r in tracks if r.status == TrackStatus.CONFIRMED.value})}
    else:
        events, geom = read_events(args.input)
        params = cfg.pipeline_params()
        if args.command == "filter":
            kept = events if params.filter_params is None else filter_stream(events, params.filter_params, geom)
            write_events(args.out, kept, geom)
            counts = {"events_in": len(events), "events_out": len(kept)}
        else:
            size = params.packet_size  # sliced here, not cut by the code under test
            packets = [make_packet(events[s : s + size], geom, params.decay) for s in range(0, len(events), size)]
            labelings = [cluster_packet(packet, params.ms_params) for packet in packets]
            write_labeled_events(args.out, labeled_from_packets(packets, labelings))
            counts = {"packets": len(packets), "clusters": sum(lab.n_clusters for lab in labelings),
                      "kernel_evals": sum(lab.ops_count for lab in labelings)}
    print("\n".join(f"{key} = {value}" for key, value in counts.items()))
    return 0


def oracle(argv):
    """outcome(argv) with the command replaced by whole_input_command."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "cmd_" + argv[0], whole_input_command)
        return outcome(argv)


@st.composite
def streams(draw):
    """A small sensor and a stream on it whose timestamps come in runs of
    equal values, some long, one time step of 1 ms apart or more."""
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 6))
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40)), min_size=1, max_size=12))
    steps = np.repeat(np.cumsum([gap for gap, _ in runs]), [size for _, size in runs])
    n = len(steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stream = EventStream(steps * 1e-3, rng.integers(0, width, n), rng.integers(0, height, n), rng.integers(0, 2, n))
    return stream, SensorGeometry(width, height)


@settings(max_examples=60, deadline=None)
@given(
    drawn=streams(),
    chunk_rows=st.sampled_from(CHUNK_ROWS),
    radius=st.integers(1, 3),
    window_steps=st.sampled_from([1, 2, 3, 10, 1000]),
    no_filter=st.booleans(),
    packet_size=st.integers(1, 60),
)
def test_streamed_commands_equal_whole_file_path(tmp_path_factory, drawn, chunk_rows, radius, window_steps,
                                                 no_filter, packet_size):
    stream, geom = drawn
    d = tmp_path_factory.mktemp("chunks")
    events, kept, labeled, tracks = (str(d / name) for name in ("ev.txt", "kept.txt", "lab.csv", "tracks.csv"))
    write_events(events, stream, geom)
    settings_ = ["--filter-radius", str(radius), "--filter-window", repr(window_steps * 1e-3)]
    commands = [
        ["filter", "--in", events, "--out", kept, *settings_, *(["--no-filter"] if no_filter else [])],
        ["cluster", "--in", kept, "--out", labeled, "--packet-size", str(packet_size)],
        ["track", "--in", labeled, "--out", tracks],
    ]
    for argv in commands:
        want = oracle(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_CHUNK_ROWS", chunk_rows)
            mp.setattr(io, "_WRITE_ROWS", chunk_rows)
            assert outcome(argv) == want, argv[0]


SCRIPT = textwrap.dedent("""
    import hashlib, json, sys
    sys.path.insert(0, sys.argv[3])
    from evshift import io
    from test_streaming import oracle, outcome

    events, d = sys.argv[1], sys.argv[2]
    commands = [
        ["filter", "--in", events, "--out", d + "/kept.txt"],
        ["cluster", "--in", d + "/kept.txt", "--out", d + "/lab.csv", "--packet-size", "100"],
        ["track", "--in", d + "/lab.csv", "--out", d + "/tracks.csv"],
    ]
    digests = {}
    for rows in ("oracle", 499, 500, 501, 3500):
        h = hashlib.sha256()
        for argv in commands:
            if rows != "oracle":
                io._CHUNK_ROWS = io._WRITE_ROWS = rows
            rc, stdout, _, out = oracle(argv) if rows == "oracle" else outcome(argv)
            assert rc == 0
            h.update(stdout.encode())
            h.update(out)
        digests[str(rows)] = h.hexdigest()
    print(json.dumps(digests))
""")


def test_any_chunk_size_and_blas_thread_count_give_the_same_bytes(tmp_path):
    gen = generate(dataclasses.replace(build_scene("reference"), duration=0.1))
    events = str(tmp_path / "ev.txt")
    write_events(events, gen.events, gen.geometry)
    digests = []
    # BLAS reads its thread count when numpy loads, so each count is a process
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=SRC)
        res = subprocess.run([sys.executable, "-c", SCRIPT, events, str(tmp_path), TESTS], env=env,
                             capture_output=True, text=True, check=True)
        digests.extend(json.loads(res.stdout).values())
    assert len(digests) == 10 and len(set(digests)) == 1


# --- comments, faults and odd inputs, at 3 lines per chunk ------------------

@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(io, "_CHUNK_ROWS", 3)


def test_malformed_line_after_an_off_sensor_event_wins(tmp_path, small_chunks):
    # line 2 (chunk 1) is off the sensor, line 8 (chunk 3) is malformed
    bad = tmp_path / "ev.txt"
    bad.write_text("# 10 10\n0.1 12 1 1\n" + "".join(f"0.{i} 1 1 0\n" for i in range(2, 7)) + "0.7 1 1\n0.8 1 1 1\n")
    for command in ("filter", "cluster"):
        rc, _, err = run([command, "--in", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 4 and f"{bad}:8: expected 4 fields" in err
    assert not (tmp_path / "o").exists()


def test_decreasing_timestamp_at_a_chunk_edge(tmp_path, small_chunks):
    # lines 2-4 are chunk 1; line 5 opens chunk 2 earlier than line 4
    bad = tmp_path / "ev.txt"
    bad.write_text("# 10 10\n0.1 1 1 1\n0.2 1 1 1\n0.3 1 1 1\n0.25 1 1 1\n0.4 1 1 1\n")
    for command in ("filter", "cluster"):
        rc, _, err = run([command, "--in", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 5 and f"{bad}:5: timestamp 0.25" in err


def test_mid_file_comment_gives_the_bytes_of_the_plain_file(tmp_path, small_chunks):
    lines = [f"{0.001 * (i // 2)!r} {i % 4} {i % 3} {i % 2}\n" for i in range(40)]
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("# 5 4\n" + "".join(lines))
    commented.write_text("# 5 4\n" + "".join(lines[:20]) + "# a comment\n" + "".join(lines[20:]))
    for command in ("filter", "cluster"):
        args = ["--out", str(tmp_path / "o"), "--filter-window", "0.002", "--packet-size", "7"]
        want = outcome([command, "--in", str(plain), *args])
        assert want[0] == 0
        assert outcome([command, "--in", str(commented), *args]) == want


@st.composite
def labeled_packets(draw):
    """Labeled rows of a few packets, some of them all NOISE, each packet's
    times after those of every lower packet id; on a coin flip one packet's
    rows are cut in two parts, and on another the parts come in shuffled
    file order, so that a packet's rows need not be adjacent."""
    parts = []
    for pid in sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=8))):
        n = draw(st.integers(1, 12))
        steps, x, y, cid = (np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))
                            for lo, hi in ((0, 9), (0, 30), (0, 20), (-1, 2)))
        parts.append(LabeledEvents(0.01 * pid + 1e-3 * np.sort(steps), x, y, y % 2, np.full(n, pid), cid))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(parts) - 1))
        cut = draw(st.integers(0, len(parts[i])))
        parts[i:i + 1] = [parts[i][:cut], parts[i][cut:]]
    if draw(st.booleans()):
        parts = draw(st.permutations(parts))
    return LabeledEvents.concat(parts)


@settings(max_examples=80, deadline=None)
@given(rows=labeled_packets(), chunk_rows=st.sampled_from([1, 2, 3, 5, 8192]))
def test_tracks_from_chunk_sums_equal_the_per_packet_loop(tmp_path_factory, rows, chunk_rows):
    want_rows, _ = tracking_oracle.track_labelings(rows, TrackerParams())
    d = tmp_path_factory.mktemp("labels")
    lab, tracks, want = (str(d / name) for name in ("lab.csv", "tracks.csv", "want.csv"))
    write_labeled_events(lab, rows)
    write_tracks(want, want_rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_CHUNK_ROWS", chunk_rows)
        rc, out, _, got = outcome(["track", "--in", lab, "--out", tracks])
    assert rc == 0 and out.startswith(f"packets = {len(np.unique(rows.packet_id))}\n")
    assert got == open(want, "rb").read()


def test_decreasing_packet_ids_are_tracked_in_packet_order(tmp_path, small_chunks):
    lab, tracks, want = tmp_path / "lab.csv", tmp_path / "tracks.csv", tmp_path / "want.csv"
    packet_id = np.repeat([0, 2, 1, 3], 8)
    i = np.arange(len(packet_id))
    # time goes on in packet id order, which is what the tracker follows
    rows = LabeledEvents(0.001 * (8 * packet_id + i % 8), 10 + i % 5, 10 + i % 3, i % 2, packet_id, (i // 4) % 2)
    write_labeled_events(str(lab), rows)
    rc, out, _ = run(["track", "--in", str(lab), "--out", str(tracks)])
    assert rc == 0 and out.startswith("packets = 4\n")
    write_tracks(str(want), tracking_oracle.track_labelings(rows, TrackerParams())[0])
    assert tracks.read_bytes() == want.read_bytes()


def test_blank_lines_in_a_labeled_file_give_the_bytes_of_the_plain_file(tmp_path, small_chunks):
    packet_id = np.repeat([0, 1, 2, 3], 6)
    i = np.arange(len(packet_id))
    rows = LabeledEvents(0.001 * i, 10 + i % 5, 10 + i % 3, i % 2, packet_id, (i // 3) % 2)
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    write_labeled_events(str(plain), rows)
    lines = plain.read_text().splitlines(keepends=True)
    # lines 11-13 are blank, a whole chunk of them
    blank.write_text("".join(lines[:10] + ["\n"] * 3 + lines[10:]))
    want = outcome(["track", "--in", str(plain), "--out", str(tmp_path / "o.csv")])
    assert want[0] == 0
    assert outcome(["track", "--in", str(blank), "--out", str(tmp_path / "o.csv")]) == want


def test_an_empty_labeled_file_fails_before_the_output_is_opened(tmp_path, small_chunks):
    lab = tmp_path / "lab.csv"
    lab.write_text("t,x,y,p,packet_id,cluster_id\n")
    rc, _, err = run(["track", "--in", str(lab), "--out", str(tmp_path / "missing" / "tracks.csv")])
    assert rc == 8 and "labeled event file is empty" in err
    # ... and before the tracker parameters are checked
    rc, _, err = run(["track", "--in", str(lab), "--out", str(tmp_path / "tracks.csv"), "--gate", "0"])
    assert rc == 8 and "labeled event file is empty" in err


def test_failing_run_leaves_the_old_output(tmp_path, small_chunks):
    bad = tmp_path / "ev.txt"
    bad.write_text("# 10 10\n" + "".join(f"0.{i} 1 1 0\n" for i in range(1, 8)) + "0.8 1 x 1\n")
    out = tmp_path / "o.txt"
    out.write_text("old\n")
    assert run(["filter", "--in", str(bad), "--out", str(out)])[0] == 4
    assert out.read_text() == "old\n"
    assert [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")] == []


def test_output_over_its_own_input(tmp_path, small_chunks):
    lines = [f"{0.001 * i!r} {i % 4} {i % 3} {i % 2}\n" for i in range(30)]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("# 5 4\n" + "".join(lines))
    want = run(["filter", "--in", str(a), "--out", str(b), "--filter-window", "0.003"])
    assert want[0] == 0
    assert run(["filter", "--in", str(a), "--out", str(a), "--filter-window", "0.003"]) == want
    assert a.read_bytes() == b.read_bytes()


def test_header_only_and_empty_inputs(tmp_path, small_chunks):
    events = tmp_path / "ev.txt"
    events.write_text("# 10 10\n")
    assert run(["filter", "--in", str(events), "--out", str(tmp_path / "o.txt")])[:2] == (
        0, "events_in = 0\nevents_out = 0\n")
    assert (tmp_path / "o.txt").read_text() == "# 10 10\n"
    assert run(["cluster", "--in", str(events), "--out", str(tmp_path / "o.csv")])[:2] == (
        0, "packets = 0\nclusters = 0\nkernel_evals = 0\n")
    assert (tmp_path / "o.csv").read_text() == "t,x,y,p,packet_id,cluster_id\n"
    lab = tmp_path / "lab.csv"
    lab.write_text("t,x,y,p,packet_id,cluster_id\n")
    rc, _, err = run(["track", "--in", str(lab), "--out", str(tmp_path / "tracks.csv")])
    assert rc == 8 and "labeled event file is empty" in err
    assert not (tmp_path / "tracks.csv").exists()


def test_packet_size_below_one_exits_6(tmp_path, small_chunks):
    events = tmp_path / "ev.txt"
    events.write_text("# 10 10\n0.1 1 1 1\n0.2 1 1 1\n")
    # the size is checked before the output is opened: a writable --out is
    # left unwritten, and a missing directory gives 6, not 3
    for out in (tmp_path / "o.csv", tmp_path / "missing" / "x.csv"):
        rc, _, err = run(["cluster", "--in", str(events), "--out", str(out), "--packet-size", "0"])
        assert rc == 6 and "packet size must be >= 1" in err, out
    assert sorted(os.listdir(tmp_path)) == ["ev.txt"]


def test_key_overflow_counts_the_distinct_timestamps_of_the_whole_stream(tmp_path, monkeypatch):
    # three distinct timestamps overflow the filter's keys on this sensor, two do
    # not, and no chunk is decided on more than two
    monkeypatch.setattr(io, "_CHUNK_ROWS", 1)
    events = tmp_path / "ev.txt"
    events.write_text("# 2000000000 2000000000\n0.1 1 1 1\n0.2 1 1 1\n0.3 1 1 1\n")
    rc, _, err = run(["filter", "--in", str(events), "--out", str(tmp_path / "o.txt"), "--filter-window", "0.01"])
    assert rc == 6 and "3 distinct timestamps overflows" in err


def test_key_overflow_names_the_distinct_timestamps_of_the_whole_stream(tmp_path, monkeypatch):
    # the keys overflow at the third timestamp; the error names all four
    monkeypatch.setattr(io, "_CHUNK_ROWS", 1)
    events = tmp_path / "ev.txt"
    events.write_text("# 2000000000 2000000000\n0.1 1 1 1\n0.2 1 1 1\n0.3 1 1 1\n0.4 1 1 1\n")
    rc, _, err = run(["filter", "--in", str(events), "--out", str(tmp_path / "o.txt"), "--filter-window", "0.01"])
    assert rc == 6 and "4 distinct timestamps overflows" in err


def test_a_read_fault_later_in_the_file_wins(tmp_path, small_chunks):
    # line 9 (chunk 3) is malformed; the command fails before it or cannot open its output
    bad = tmp_path / "ev.txt"
    bad.write_text("# 10 10\n" + "".join(f"0.{i} 1 1 0\n" for i in range(1, 8)) + "0.8 1 x 1\n")
    missing = str(tmp_path / "missing" / "o")
    for argv in (["cluster", "--out", str(tmp_path / "o"), "--packet-size", "0"],
                 ["filter", "--out", missing], ["cluster", "--out", missing]):
        rc, _, err = run([argv[0], "--in", str(bad), *argv[1:]])
        assert rc == 4 and f"{bad}:9: " in err, argv
    # time goes back at packet 1, which ends in chunk 2; line 10 (chunk 3) holds zz
    lab = tmp_path / "lab.csv"
    rows = [(0.9, 0), (0.9, 0), (0.9, 0), (0.4, 1), (0.4, 1), (0.95, 2), (0.95, 2), (0.95, 2)]
    lab.write_text("t,x,y,p,packet_id,cluster_id\n" + "".join(f"{t},5,5,0,{pid},0\n" for t, pid in rows)
                   + "zz,5,5,0,2,0\n")
    rc, _, err = run(["track", "--in", str(lab), "--out", str(tmp_path / "tracks.csv")])
    assert rc == 4 and f"{lab}:10: t must be float" in err


def test_a_fault_after_a_commented_header_raises_from_the_chunks_of_one_read(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_CHUNK_ROWS", 2)
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(io, "open", counted_open, raising=False)
    # lines 4-10 are events, line 11 is malformed; the chunks start at line 4
    events, labeled = tmp_path / "ev.txt", tmp_path / "lab.csv"
    events.write_text("# note\n\n# 10 10\n" + "".join(f"0.{i} {i} 1 {i % 2}\n" for i in range(1, 8)) + "0.8 1 1\n")
    geom, chunks = io.event_chunks(str(events))
    assert geom == SensorGeometry(10, 10) and opened == [str(events)]
    got = []
    with pytest.raises(ParseError) as info:
        got.extend(chunks)
    with pytest.raises(ParseError) as want:
        io_oracle.read_events_per_line(str(events))
    assert (info.value.line_no, str(info.value)) == (11, str(want.value))
    assert [e.x for chunk in got for e in chunk] == [1, 2, 3, 4, 5, 6]
    # the same for a labeled file, whose rows end in a row of five fields
    rows = "".join(f"0.{i},1,1,0,0,0\n" for i in range(1, 8))
    labeled.write_text("t,x,y,p,packet_id,cluster_id\n" + rows + "0.8,1,1,0,0\n")
    got = []
    with pytest.raises(ParseError) as info:
        got.extend(io.labeled_chunks(str(labeled)))
    with pytest.raises(ParseError) as want:
        io_oracle.read_csv_per_line(str(labeled), io.LABELED_COLUMNS)
    assert (info.value.line_no, str(info.value)) == (9, str(want.value))
    assert sum(map(len, got)) == 6 and opened == [str(events), str(labeled)]


@pytest.fixture
def clustered(monkeypatch):
    """The packets that reach pipeline.cluster_packet, in order."""
    packets = []
    cluster = pipeline.cluster_packet

    def spy(packet, params):
        packets.append(packet)
        return cluster(packet, params)

    monkeypatch.setattr(pipeline, "cluster_packet", spy)
    return packets


def test_missing_output_directory_exits_before_clustering(tmp_path, clustered):
    events = tmp_path / "ev.txt"
    events.write_text("# 10 10\n" + "".join(f"0.{i} 1 1 0\n" for i in range(1, 8)))
    rc, _, err = run(["cluster", "--in", str(events), "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 3 and "file not found" in err
    assert clustered == []


@pytest.mark.parametrize("chunk_rows, where", [(500, "end"), (3, "middle")])
def test_a_comment_clusters_each_packet_once(tmp_path, monkeypatch, clustered, chunk_rows, where):
    gen = generate(dataclasses.replace(build_scene("reference"), duration=0.1))
    events, kept, commented, out = (str(tmp_path / name) for name in ("ev.txt", "kept.txt", "c.txt", "o.csv"))
    write_events(events, gen.events, gen.geometry)
    assert run(["filter", "--in", events, "--out", kept])[0] == 0
    lines = open(kept).readlines()
    at = len(lines) if where == "end" else len(lines) // 2
    open(commented, "w").write("".join(lines[:at] + ["# note\n"] + lines[at:]))
    want = oracle(["cluster", "--in", kept, "--out", out])
    monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
    assert outcome(["cluster", "--in", commented, "--out", out]) == want
    assert want[1].startswith(f"packets = {len(clustered)}\n")


# --- memory ------------------------------------------------------------------

# VmHWM (Linux) is the peak RSS of the command's own process; ru_maxrss
# would also count what the forked child shared with the test process
# before its exec, which hides any peak below the test process's size.
MEASURE = textwrap.dedent("""
    import contextlib, io, sys
    from evshift.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(sys.argv[2:]) == int(sys.argv[1])
    print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
""")


@pytest.fixture(scope="module")
def repeated_reference(tmp_path_factory):
    """The reference events and their generator labels, repeated 1x and 4x
    with shifted times: {repeats: {input name: path}}.  The inputs are the
    events, the same with a comment on line 1 and with a bad last line, the
    labeled rows, the same with a bad last line and with the rows of packet
    0 moved to the end, and the labeled rows with every row in packet 0."""
    gen = generate(build_scene("reference"))
    s = gen.events
    span = float(s.t[-1]) + 0.01
    d = tmp_path_factory.mktemp("repeated")
    paths = {}
    for k in (1, 4):
        t = np.concatenate([s.t + i * span for i in range(k)])
        x, y, p = (np.tile(c, k) for c in (s.x, s.y, s.p))
        names = ("events", "commented", "bad events", "labeled", "bad labeled", "packet 0 last", "one packet")
        paths[k] = {name: str(d / f"{name.replace(' ', '_')}{k}") for name in names}
        write_events(paths[k]["events"], EventStream(t, x, y, p), gen.geometry)
        for name, packet_id in (("labeled", np.arange(len(t)) // 500), ("one packet", np.zeros(len(t), dtype=int))):
            write_labeled_events(paths[k][name], LabeledEvents(t, x, y, p, packet_id, np.tile(gen.labels, k)))
        events, labeled = (open(paths[k][name]).read() for name in ("events", "labeled"))
        open(paths[k]["commented"], "w").write("# a note\n" + events)
        open(paths[k]["bad events"], "w").write(events + "0.5 1 1\n")
        open(paths[k]["bad labeled"], "w").write(labeled + "0.5,1,1,0,0\n")
        header, *rows = labeled.splitlines(keepends=True)
        open(paths[k]["packet 0 last"], "w").write("".join([header, *rows[500:], *rows[:500]]))  # packet 0: rows[:500]
    return paths


# case -> (command, input, exit code): the faults exit 4 at the last line
MEMORY_CASES = {
    "filter": ("filter", "events", 0),
    "cluster": ("cluster", "events", 0),
    "track": ("track", "labeled", 0),
    "track one packet": ("track", "one packet", 0),
    "filter, comment on line 1": ("filter", "commented", 0),
    "filter, bad last line": ("filter", "bad events", 4),
    "track, bad last line": ("track", "bad labeled", 4),
    "track, packet ids go back": ("track", "packet 0 last", 0),
}


@pytest.mark.parametrize("case", list(MEMORY_CASES))
def test_peak_memory_does_not_grow_with_the_stream(tmp_path, repeated_reference, case):
    command, source, code = MEMORY_CASES[case]
    peaks = {}
    for k, paths in repeated_reference.items():
        extra = ["--max-iters", "2"] if command == "cluster" else []
        argv = [command, "--in", paths[source], "--out", str(tmp_path / "out"), *extra]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
        res = subprocess.run([sys.executable, "-c", MEASURE, str(code), *argv], env=env, capture_output=True, text=True,
                             check=True)
        peaks[k] = int(res.stdout.split()[-1])
    assert peaks[4] <= 1.10 * peaks[1], peaks
