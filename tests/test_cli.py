"""Command flows exercised through main() on small generated files."""

import math

import numpy as np
import pytest

from evshift.cli import main
from evshift.io import LabeledEvents, TrackRow, read_events, write_labeled_events, write_tracks, write_truth
from evshift.events import Event
from evshift.pipeline import PipelineParams, run_pipeline
from evshift.synth import Keyframes, SceneSpec, ShapeSpec, save_scene

SQUARE = ((-7.0, -7.0), (7.0, -7.0), (7.0, 7.0), (-7.0, 7.0))


@pytest.fixture
def scene_path(tmp_path):
    shapes = (
        ShapeSpec(
            shape_id=0,
            vertices=SQUARE,
            polarity=1,
            keys=Keyframes(t=(0.0, 0.3), x=(20.0, 50.0), y=(18.0, 18.0)),
        ),
        ShapeSpec(
            shape_id=1,
            vertices=SQUARE,
            polarity=0,
            keys=Keyframes(t=(0.0, 0.3), x=(75.0, 45.0), y=(42.0, 42.0)),
        ),
    )
    scene = SceneSpec(
        width=100,
        height=60,
        duration=0.3,
        shapes=shapes,
        spacing=0.5,
        noise_rate=300.0,
        seed=9,
    )
    path = str(tmp_path / "scene.json")
    save_scene(scene, path)
    return path


def out_lines(capsys):
    return dict(
        line.split(" = ", 1)
        for line in capsys.readouterr().out.strip().split("\n")
        if " = " in line
    )


def test_full_flow(tmp_path, capsys, scene_path):
    ev = str(tmp_path / "ev.txt")
    truth = str(tmp_path / "truth.csv")
    centers = str(tmp_path / "centers.csv")
    rc = main(["synth", "--scene", scene_path, "--out", ev, "--truth", truth, "--centers", centers])
    assert rc == 0
    synth_out = out_lines(capsys)
    n_events = int(synth_out["events"])
    assert n_events > 1000

    filt = str(tmp_path / "filt.txt")
    rc = main(["filter", "--in", ev, "--out", filt])
    assert rc == 0
    filt_out = out_lines(capsys)
    assert int(filt_out["events_out"]) < int(filt_out["events_in"]) == n_events

    lab = str(tmp_path / "lab.csv")
    rc = main(["cluster", "--in", filt, "--out", lab, "--packet-size", "100"])
    assert rc == 0
    cluster_out = out_lines(capsys)
    assert int(cluster_out["packets"]) == -(-int(filt_out["events_out"]) // 100)
    assert int(cluster_out["clusters"]) > 0
    assert int(cluster_out["kernel_evals"]) > 0

    tracks = str(tmp_path / "tracks.csv")
    rc = main(["track", "--in", lab, "--out", tracks])
    assert rc == 0
    track_out = out_lines(capsys)
    assert int(track_out["confirmed_tracks"]) >= 2

    rc = main(["eval-cluster", "--pred", lab, "--truth", truth])
    assert rc == 0
    ev_out = out_lines(capsys)
    assert 0.0 <= float(ev_out["mean_f"]) <= 1.0
    assert float(ev_out["mean_f"]) > 0.7
    assert "pooled_f" in ev_out

    rc = main([
        "eval-cluster", "--pred", lab, "--truth", truth,
        "--kmeans", "--geometry", "100x60",
    ])
    assert rc == 0
    km_out = out_lines(capsys)
    assert "kmeans_mean_f" in km_out
    assert "f_gap" in km_out

    rc = main(["eval-track", "--tracks", tracks, "--centers", centers])
    assert rc == 0
    tr_out = out_lines(capsys)
    assert float(tr_out["mean_error"]) < 3.0
    assert float(tr_out["valid_fraction"]) > 0.5

    cost = str(tmp_path / "cost.csv")
    rc = main(["bench", "--scene", scene_path, "--factors", "1.0", "--out", cost, "--packet-size", "100"])
    assert rc == 0
    header = open(cost).readline().strip()
    assert header == "factor,ms_ops_per_s,track_ops_per_s,frame_baseline,reduction,detections_per_s"


def test_outputs_are_byte_deterministic(tmp_path, capsys, scene_path, monkeypatch):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(["synth", "--scene", scene_path, "--out", a]) == 0
    assert main(["synth", "--scene", scene_path, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    la = str(tmp_path / "a.csv")
    lb = str(tmp_path / "b.csv")
    assert main(["cluster", "--in", a, "--out", la, "--packet-size", "100"]) == 0
    monkeypatch.setenv("EVSHIFT_THREADS", "3")
    assert main(["cluster", "--in", b, "--out", lb, "--packet-size", "100"]) == 0
    assert open(la, "rb").read() == open(lb, "rb").read()
    capsys.readouterr()


def test_cluster_then_track_matches_run_pipeline(tmp_path, capsys, scene_path):
    ev = str(tmp_path / "ev.txt")
    lab = str(tmp_path / "lab.csv")
    tracks = str(tmp_path / "tracks.csv")
    assert main(["synth", "--scene", scene_path, "--out", ev]) == 0
    assert main(["cluster", "--in", ev, "--out", lab, "--packet-size", "100"]) == 0
    assert main(["track", "--in", lab, "--out", tracks]) == 0
    capsys.readouterr()
    events, geom = read_events(ev)
    res = run_pipeline(events, geom, PipelineParams(packet_size=100, filter_params=None))
    assert len(res.track_rows) > 0
    lib_lab = str(tmp_path / "lib_lab.csv")
    lib_tracks = str(tmp_path / "lib_tracks.csv")
    write_labeled_events(lib_lab, res.labeled)
    write_tracks(lib_tracks, res.track_rows)
    assert open(lab, "rb").read() == open(lib_lab, "rb").read()
    assert open(tracks, "rb").read() == open(lib_tracks, "rb").read()


def test_seed_override_changes_noise(tmp_path, capsys, scene_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(["synth", "--scene", scene_path, "--out", a, "--seed", "1"]) == 0
    assert main(["synth", "--scene", scene_path, "--out", b, "--seed", "2"]) == 0
    assert open(a, "rb").read() != open(b, "rb").read()
    capsys.readouterr()


def test_config_file_and_cli_precedence(tmp_path, capsys, scene_path):
    ev = str(tmp_path / "ev.txt")
    assert main(["synth", "--scene", scene_path, "--out", ev]) == 0
    n = int(out_lines(capsys)["events"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("packet_size = 50\nbandwidth = 0.1\n")
    lab = str(tmp_path / "lab.csv")
    # file layer beats defaults
    assert main(["cluster", "--in", ev, "--out", lab, "--config", str(cfg)]) == 0
    assert int(out_lines(capsys)["packets"]) == -(-n // 50)
    # CLI layer beats the file
    assert main(["cluster", "--in", ev, "--out", lab, "--config", str(cfg), "--packet-size", "200"]) == 0
    assert int(out_lines(capsys)["packets"]) == -(-n // 200)
    # a bad file value loses to an explicit flag but wins when unopposed
    bad = tmp_path / "bad.cfg"
    bad.write_text("bandwidth = 0.0\n")
    assert main(["cluster", "--in", ev, "--out", lab, "--config", str(bad)]) == 6
    assert main(["cluster", "--in", ev, "--out", lab, "--config", str(bad), "--bandwidth", "0.1"]) == 0
    capsys.readouterr()


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["filter", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.txt")]) == 3
    assert main(["synth", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.txt")]) == 3
    capsys.readouterr()


def test_exit_code_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# 10 10\n0.1 1 1\n")
    assert main(["filter", "--in", str(bad), "--out", str(tmp_path / "o.txt")]) == 4
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 3\n")
    assert main(["filter", "--in", str(bad), "--out", str(tmp_path / "o.txt"), "--config", str(cfg)]) == 4
    cfg.write_text("bandwidth = up\n")
    assert main(["cluster", "--in", str(bad), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 4
    capsys.readouterr()


def test_exit_code_non_integer_label(tmp_path, capsys):
    bad = tmp_path / "lab.csv"
    for value in ("3.7", "nan", "1e20"):
        bad.write_text(f"t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,0\n0.2,1,2,0,0,{value}\n")
        assert main(["track", "--in", str(bad), "--out", str(tmp_path / "tracks.csv")]) == 4
        assert f"{bad}:3: cluster_id" in capsys.readouterr().err
    assert not (tmp_path / "tracks.csv").exists()


def test_exit_code_stream_order(tmp_path, capsys):
    bad = tmp_path / "disorder.txt"
    bad.write_text("# 10 10\n0.2 1 1 1\n0.1 2 2 0\n")
    assert main(["filter", "--in", str(bad), "--out", str(tmp_path / "o.txt")]) == 5
    assert f"{bad}:3:" in capsys.readouterr().err


def test_exit_code_bad_thread_count(tmp_path, capsys, monkeypatch):
    ev = tmp_path / "ev.txt"
    ev.write_text("# 10 10\n0.1 1 1 1\n0.2 2 2 0\n")
    out = str(tmp_path / "o.csv")
    assert main(["cluster", "--in", str(ev), "--out", out, "--threads", "0"]) == 6
    monkeypatch.setenv("EVSHIFT_THREADS", "junk")
    assert main(["cluster", "--in", str(ev), "--out", out]) == 6
    assert "EVSHIFT_THREADS" in capsys.readouterr().err


def test_exit_code_contract_violations(tmp_path, capsys):
    lab = str(tmp_path / "lab.csv")
    truth = str(tmp_path / "truth.csv")
    events = [Event(t=0.001 * i, x=10 + i, y=10, p=True) for i in range(6)]
    write_labeled_events(
        lab,
        LabeledEvents(
            t=np.array([e.t for e in events]),
            x=np.array([e.x for e in events]),
            y=np.array([e.y for e in events]),
            p=np.ones(6, dtype=int),
            packet_id=np.zeros(6, dtype=int),
            cluster_id=np.zeros(6, dtype=int),
        ),
    )
    write_truth(truth, events[:5], np.zeros(5, dtype=int))
    # one predicted event has no truth counterpart
    assert main(["eval-cluster", "--pred", lab, "--truth", truth]) == 6
    # k-means asked for without the geometry needed to rebuild features
    write_truth(truth, events, np.zeros(6, dtype=int))
    assert main(["eval-cluster", "--pred", lab, "--truth", truth, "--kmeans"]) == 6
    assert main(["bench", "--scene", "reference", "--factors", "a,b"]) == 6
    capsys.readouterr()


def test_exit_code_empty_alignment(tmp_path, capsys):
    lab = str(tmp_path / "lab.csv")
    truth = str(tmp_path / "truth.csv")
    events = [Event(t=0.001 * i, x=10 + i, y=10, p=True) for i in range(6)]
    write_labeled_events(
        lab,
        LabeledEvents(
            t=np.array([e.t for e in events]),
            x=np.array([e.x for e in events]),
            y=np.array([e.y for e in events]),
            p=np.ones(6, dtype=int),
            packet_id=np.zeros(6, dtype=int),
            cluster_id=np.zeros(6, dtype=int),
        ),
    )
    others = [Event(t=5.0 + 0.001 * i, x=40 + i, y=40, p=False) for i in range(4)]
    write_truth(truth, others, np.zeros(4, dtype=int))
    assert main(["eval-cluster", "--pred", lab, "--truth", truth]) == 8
    tracks = str(tmp_path / "tracks.csv")
    write_tracks(
        tracks,
        [TrackRow(t=0.1, track_id=0, x=1.0, y=1.0, vx=0.0, vy=0.0,
                  status="tentative", raw_cx=math.nan, raw_cy=math.nan)],
    )
    centers = str(tmp_path / "centers.csv")
    from evshift.io import write_centers

    write_centers(centers, np.array([0.0, 0.2]), np.array([0, 0]), np.array([[1.0, 1.0], [2.0, 2.0]]))
    # no confirmed samples to score
    assert main(["eval-track", "--tracks", tracks, "--centers", centers]) == 8
    capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    capsys.readouterr()


def test_unknown_builtin_scene_reports_missing_file(tmp_path, capsys):
    # a name that is not built in is treated as a path
    rc = main(["synth", "--scene", "not-a-scene", "--out", str(tmp_path / "o.txt")])
    assert rc == 3
    capsys.readouterr()
