"""Command flows exercised through main() on small generated files."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evshift
from evshift import io
from evshift.cli import _truth_labels_for, main
from evshift.clustering import NOISE
from evshift.config import RunConfig
from evshift.io import (
    LabeledEvents, TrackRow, read_events, write_centers, write_labeled_events, write_tracks, write_truth,
)
from evshift.errors import ContractViolationError, EmptyAlignmentError
from evshift.events import Event
from evshift.pipeline import PipelineParams, run_pipeline
from evshift.scenes import build_scene
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


def test_outputs_are_byte_deterministic(tmp_path, capsys, scene_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(["synth", "--scene", scene_path, "--out", a]) == 0
    assert main(["synth", "--scene", scene_path, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    la = str(tmp_path / "a.csv")
    lb = str(tmp_path / "b.csv")
    assert main(["cluster", "--in", a, "--out", la, "--packet-size", "100"]) == 0
    assert main(["cluster", "--in", b, "--out", lb, "--packet-size", "100"]) == 0
    assert open(la, "rb").read() == open(lb, "rb").read()
    capsys.readouterr()


def test_cluster_output_does_not_depend_on_blas_threads(tmp_path, capsys, scene_path):
    ev = str(tmp_path / "ev.txt")
    assert main(["synth", "--scene", scene_path, "--out", ev]) == 0
    capsys.readouterr()
    # BLAS reads its thread count when numpy loads, so each run is a process
    src = os.path.dirname(os.path.dirname(evshift.__file__))
    outputs = []
    for n in ("1", "2"):
        out = str(tmp_path / f"lab{n}.csv")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "evshift.cli", "cluster", "--in", ev, "--out", out]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]


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


def test_exit_code_directory_as_input(tmp_path, capsys):
    assert main(["filter", "--in", str(tmp_path), "--out", str(tmp_path / "o.txt")]) == 3
    assert main(["track", "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 3
    assert "file not found" in capsys.readouterr().err


def test_exit_code_bytes_that_are_not_utf8(tmp_path, capsys):
    events = tmp_path / "ev.txt"
    events.write_bytes(b"# 10 10\n0.1 1 2 1\n0.2 1 2 \xff1\n")
    assert main(["filter", "--in", str(events), "--out", str(tmp_path / "o.txt")]) == 4
    assert f"{events}:3: not valid UTF-8" in capsys.readouterr().err
    labeled = tmp_path / "lab.csv"
    labeled.write_bytes(b"t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,\xff1\n")
    assert main(["track", "--in", str(labeled), "--out", str(tmp_path / "tracks.csv")]) == 4
    assert f"{labeled}:2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("times", [[0.0, 1e-3, 2e-3, 1e100, 1e200, 1e300], [0.0, 1e103], [0.0, 1e-3, 2e-3, 2e102]])
def test_exit_code_tracker_overflow(tmp_path, capsys, times):
    # one packet per time, one cluster of two events in each.  The last gap
    # overflows the process noise: dt ** 3 itself in the first two files,
    # its product with q_var in the third, which used to write NaN rows.
    lab = tmp_path / "lab.csv"
    lab.write_text("t,x,y,p,packet_id,cluster_id\n"
                   + "".join(f"{t!r},{10 + k},12,1,{i},0\n" for i, t in enumerate(times) for k in (0, 1)))
    out = tmp_path / "tracks.csv"
    assert main(["track", "--in", str(lab), "--out", str(out)]) == 7
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()


# numpy's RuntimeWarnings go to stderr in a process of its own
@pytest.mark.parametrize("argv, err", [
    # an age over tau overflows: its decay is exp(-inf) = 0, exactly
    (["cluster", "--in", "ev.txt", "--packet-size", "4", "--tau", "1e-320"], ""),
    (["track", "--in", "lab.csv", "--r-var", "1e308"], "error: update with a measurement variance of 1e+308 is not finite\n"),
], ids=["cluster tau 1e-320", "track r_var 1e308"])
def test_numerical_extremes_print_no_warnings(tmp_path, argv, err):
    (tmp_path / "ev.txt").write_text("# 20 20\n" + "".join(f"{i * 1e-3!r} {10 + i % 2} 12 1\n" for i in range(8)))
    (tmp_path / "lab.csv").write_text("t,x,y,p,packet_id,cluster_id\n"
                                      + "".join(f"{i * 1e-3!r},{10 + k},12,1,{i},0\n" for i in range(3) for k in (0, 1)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(evshift.__file__)))
    res = subprocess.run([sys.executable, "-m", "evshift.cli", *argv, "--out", "out.csv"], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert (res.returncode, res.stderr) == (7 if err else 0, err)


def test_exit_code_scene_directory(tmp_path, capsys):
    assert main(["synth", "--scene", str(tmp_path), "--out", str(tmp_path / "o.txt")]) == 3
    assert f"file not found: {tmp_path}" in capsys.readouterr().err


def test_exit_code_config_directory(tmp_path, scene_path, capsys):
    ev = str(tmp_path / "ev.txt")
    assert main(["synth", "--scene", scene_path, "--out", ev]) == 0
    capsys.readouterr()
    assert main(["filter", "--in", ev, "--out", str(tmp_path / "o.txt"), "--config", str(tmp_path)]) == 3
    assert f"file not found: {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("edit, message", [
    # "duration": Infinity made synth exit 1 with an OverflowError traceback
    (lambda d: d.update(duration=math.inf), "duration must be finite, got inf"),
    # "noise_rate": NaN exited 0 and rendered no noise
    (lambda d: d.update(noise_rate=math.nan), "noise_rate must be finite, got nan"),
    (lambda d: d.update(width=math.inf), "bad scene description"),
    (lambda d: d["shapes"][0]["vertices"][2].__setitem__(1, -math.inf), "vertices must be finite, got -inf"),
    (lambda d: d["shapes"][1]["keys"]["t"].__setitem__(1, math.nan), "t must be finite, got nan"),
])
def test_exit_code_scene_value_not_finite(tmp_path, capsys, scene_path, edit, message):
    with open(scene_path) as fh:
        d = json.load(fh)
    edit(d)
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps(d))  # NaN and Infinity, as Python's json writes them
    out = tmp_path / "o.txt"
    assert main(["synth", "--scene", str(scene), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    # the fault is in no one line, so the message names none
    assert err.startswith(f"error: {scene}: {message}") and ":0:" not in err
    assert not out.exists()


def test_exit_code_scene_not_utf8(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_bytes(b'{\n  "width": 10,\n  "name": "\xff"\n}\n')
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "o.txt")]) == 4
    assert f"{scene}:3: not valid UTF-8" in capsys.readouterr().err


def test_exit_code_config_not_utf8(tmp_path, scene_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"bandwidth = 0.1\n# \xff\n")
    assert main(["synth", "--scene", scene_path, "--out", str(tmp_path / "o.txt"), "--config", str(cfg)]) == 4
    assert f"{cfg}:2: not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


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


def test_exit_code_headerless_events(tmp_path, capsys):
    bare = tmp_path / "nohdr.txt"
    bare.write_text("0.1 1 1 1\n0.2 1 2 0\n")
    for command, out in (("filter", "o.txt"), ("cluster", "o.csv")):
        assert main([command, "--in", str(bare), "--out", str(tmp_path / out)]) == 4
        assert f"{bare}:1: no '# WIDTH HEIGHT' geometry header" in capsys.readouterr().err
        assert not (tmp_path / out).exists()


def test_exit_code_non_integer_label(tmp_path, capsys):
    bad = tmp_path / "lab.csv"
    for value in ("3.7", "nan", "1e20"):
        bad.write_text(f"t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,0\n0.2,1,2,0,0,{value}\n")
        assert main(["track", "--in", str(bad), "--out", str(tmp_path / "tracks.csv")]) == 4
        assert f"{bad}:3: cluster_id" in capsys.readouterr().err
    assert not (tmp_path / "tracks.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exit_code_non_finite_label_time(tmp_path, capsys, value):
    # track used to exit 7 with a non-finite process noise, and
    # eval-cluster 6, neither naming the line
    lab = tmp_path / "lab.csv"
    lab.write_text(f"t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,0\n{value},1,2,0,0,0\n0.3,1,2,0,1,0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("t,x,y,p,object_id\n0.1,1,2,0,0\n0.2,1,2,0,0\n0.3,1,2,0,0\n")
    out = tmp_path / "tracks.csv"
    assert main(["track", "--in", str(lab), "--out", str(out)]) == 4
    assert f"{lab}:3: t must be finite, got '{value}'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["eval-cluster", "--pred", str(lab), "--truth", str(truth)]) == 4
    assert f"{lab}:3: t must be finite, got '{value}'" in capsys.readouterr().err


def test_exit_code_polarity_not_binary(tmp_path, capsys):
    # track and eval-cluster took a labeled or truth p of 7 and exited 0
    lab = tmp_path / "lab.csv"
    lab.write_text("t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,0\n0.2,1,2,7,0,0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("t,x,y,p,object_id\n0.1,1,2,0,0\n0.2,1,2,7,0\n")
    out = tmp_path / "tracks.csv"
    assert main(["track", "--in", str(lab), "--out", str(out)]) == 4
    assert f"{lab}:3: p must be 0 or 1, got '7'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["eval-cluster", "--pred", str(lab), "--truth", str(truth)]) == 4
    assert f"{lab}:3: p must be 0 or 1, got '7'" in capsys.readouterr().err
    lab.write_text("t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,0\n0.2,1,2,1,0,0\n")
    assert main(["eval-cluster", "--pred", str(lab), "--truth", str(truth)]) == 4
    assert f"{truth}:3: p must be 0 or 1, got '7'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "bench"])
def test_exit_code_speed_factor_that_overflows_times(tmp_path, capsys, scene_path, command):
    # synth wrote inf timestamps and bench printed a reduction of 1.0, both exiting 0
    out = tmp_path / "out"
    factor = ["--speed-factor", "1e-310"] if command == "synth" else ["--factors", "1,1e-310"]
    assert main([command, "--scene", scene_path, "--out", str(out), *factor]) == 6
    assert "speed factor must keep times finite, got 1e-310" in capsys.readouterr().err
    assert not out.exists()


def test_synth_from_a_saved_builtin_scene_writes_the_same_bytes(tmp_path, capsys):
    path = str(tmp_path / "ref.json")
    save_scene(build_scene("reference"), path)
    written = {}
    for scene in ("reference", path):
        outs = [str(tmp_path / f"{len(written)}.{name}") for name in ("events.txt", "truth.csv", "centers.csv")]
        assert main(["synth", "--scene", scene, "--out", outs[0], "--truth", outs[1], "--centers", outs[2]]) == 0
        written[scene] = [capsys.readouterr().out] + [open(out, "rb").read() for out in outs]
    assert written["reference"] == written[path]


def test_exit_code_stream_order(tmp_path, capsys):
    bad = tmp_path / "disorder.txt"
    bad.write_text("# 10 10\n0.2 1 1 1\n0.1 2 2 0\n")
    assert main(["filter", "--in", str(bad), "--out", str(tmp_path / "o.txt")]) == 5
    assert f"{bad}:3:" in capsys.readouterr().err


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
    # ... even when no packet is scoreable, which alone would exit 8
    write_truth(truth, events, np.full(6, -1))
    assert main(["eval-cluster", "--pred", lab, "--truth", truth]) == 8
    assert main(["eval-cluster", "--pred", lab, "--truth", truth, "--kmeans"]) == 6
    assert main(["bench", "--scene", "reference", "--factors", "a,b"]) == 6
    capsys.readouterr()


@pytest.mark.parametrize("k", ["0", "-3"])
def test_exit_code_kmeans_k_below_one(tmp_path, capsys, k):
    absent = str(tmp_path / "absent.csv")  # the check comes before any file is read
    args = ["eval-cluster", "--pred", absent, "--truth", absent, "--kmeans", "--geometry", "10x10"]
    assert main([*args, "--kmeans-k", k]) == 6
    assert f"kmeans_k must be >= 1, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["synth", "bench", "kmeans", "scene file"])
def test_negative_seed_exits_with_its_class(tmp_path, capsys, scene_path, case):
    # each of these died with a ValueError traceback from np.random.default_rng
    out = str(tmp_path / "out")
    if case == "kmeans":  # a valid file: the k-means seed is seed + packet_id
        lab, truth = str(tmp_path / "lab.csv"), str(tmp_path / "truth.csv")
        events = [Event(t=0.001 * i, x=10 + i, y=10, p=True) for i in range(6)]
        write_labeled_events(lab, LabeledEvents(
            np.array([e.t for e in events]), np.array([e.x for e in events]), np.full(6, 10), np.ones(6, dtype=int),
            np.full(6, -1), np.zeros(6, dtype=int)))
        write_truth(truth, events, np.zeros(6, dtype=int))
        argv, code, message = ["eval-cluster", "--pred", lab, "--truth", truth, "--kmeans", "--geometry", "240x180"], 6, -1
    elif case == "scene file":
        with open(scene_path) as fh:
            d = json.load(fh)
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(dict(d, seed=-1)))
        argv, code, message = ["synth", "--scene", str(scene), "--out", out], 4, -1
    else:
        argv, code, message = [case, "--scene", "reference", "--seed", "-5", "--out", out], 6, -5
    assert main(argv) == code
    assert f"seed must be >= 0, got {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag", ["--threshold", "--gate"])
def test_exit_code_eval_track_invalid_setting(tmp_path, capsys, flag):
    tracks = str(tmp_path / "tracks.csv")
    centers = str(tmp_path / "centers.csv")
    write_centers(centers, np.array([0.0, 0.2]), np.array([0, 0]), np.array([[1.0, 1.0], [2.0, 2.0]]))
    row = TrackRow(t=0.1, track_id=0, x=1.5, y=1.5, vx=0.0, vy=0.0, status="confirmed", raw_cx=1.5, raw_cy=1.5)
    write_tracks(tracks, [row])
    args = ["eval-track", "--tracks", tracks, "--centers", centers]
    assert main(args) == 0
    assert main([*args, flag, "-1"]) == 6
    # with no confirmed sample there is nothing to score, whatever the setting
    write_tracks(tracks, [dataclasses.replace(row, status="tentative")])
    assert main([*args, flag, "-1"]) == 8
    capsys.readouterr()


# A row that eval-track used to take, as a tracks or centers row: a NaN
# first sample left its track unmatched, a non-finite center time was
# scored and a row of another status was dropped, and each exited 0.
BAD_SCORED_ROWS = [
    *[("tracks", f"{t},0,1.5,1.5,0.0,0.0,confirmed,1.5,1.5", f"t must be finite, got '{t}'") for t in ("nan", "inf")],
    *[("tracks", f"0.15,0,1.5,1.5,0.0,0.0,{status},1.5,1.5",
       f"status must be tentative, confirmed or dead, got '{status}'") for status in ("bogus", "", "Confirmed")],
    *[("centers", f"{t},0,1.5,1.5", f"t must be finite, got '{t}'") for t in ("nan", "-inf")],
]


@pytest.mark.parametrize("chunk_rows", [1, io._CHUNK_ROWS])
@pytest.mark.parametrize("name, row, message", BAD_SCORED_ROWS)
def test_exit_code_eval_track_bad_row(tmp_path, monkeypatch, capsys, chunk_rows, name, row, message):
    # one-line chunks and one whole-file chunk: the bulk parse and the per-line reader refuse it alike
    monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
    files = {
        "tracks": ["t,track_id,x,y,vx,vy,status,raw_cx,raw_cy", "0.1,0,1.5,1.5,0.0,0.0,confirmed,1.5,1.5",
                   "0.2,0,2.5,2.5,0.0,0.0,confirmed,2.5,2.5"],
        "centers": ["t,object_id,cx,cy", "0.0,0,1.0,1.0", "0.3,0,3.0,3.0"],
    }
    files[name].insert(2, row)
    for key, lines in files.items():
        (tmp_path / f"{key}.csv").write_text("\n".join(lines) + "\n")
    args = ["eval-track", "--tracks", str(tmp_path / "tracks.csv"), "--centers", str(tmp_path / "centers.csv")]
    assert main(args) == 4
    assert f"{tmp_path / name}.csv:3: {message}" in capsys.readouterr().err


FLOAT_SETTINGS = [f.name for f in dataclasses.fields(RunConfig) if f.type in ("float", "Optional[float]")]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_SETTINGS)
def test_non_finite_setting_rejected(tmp_path, capsys, key, value):
    lab = tmp_path / "lab.csv"
    lab.write_text("t,x,y,p,packet_id,cluster_id\n0.1,1,2,0,0,0\n")
    out = tmp_path / "tracks.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    flag = ["--" + key.replace("_", "-"), value]
    for extra in (flag, ["--config", str(cfg)]):
        assert main(["track", "--in", str(lab), "--out", str(out), *extra]) == 6
        assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


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


def dict_truth_labels(rows, truth):
    """Reference join: a queue of object ids per (t, x, y, p) key, in truth
    file order; each prediction pops the head of its key's queue."""
    tt, tx, ty, tp, tobj = truth
    if len(tt) == 0 or len(rows) == 0:
        raise EmptyAlignmentError("no rows")
    queues = defaultdict(deque)
    for i in range(len(tt)):
        queues[(float(tt[i]), int(tx[i]), int(ty[i]), int(tp[i]))].append(int(tobj[i]))
    out = np.empty(len(rows), dtype=int)
    unmatched = 0
    for i in range(len(rows)):
        q = queues.get((float(rows.t[i]), int(rows.x[i]), int(rows.y[i]), int(rows.p[i])))
        if not q:
            unmatched += 1
            out[i] = NOISE
            continue
        out[i] = q.popleft()
    if unmatched == len(rows):
        raise EmptyAlignmentError("no match")
    if unmatched > 0:
        raise ContractViolationError("unmatched rows")
    return out


# Few distinct keys, so duplicates and ties are common; -0.0 equals 0.0
# and nan matches nothing, as in a dict.
JOIN_KEYS = st.tuples(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, math.nan]), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)
)


def _columns(keys):
    return [np.array([k[i] for k in keys], dtype=float if i == 0 else np.int64) for i in range(4)]


@settings(max_examples=300, deadline=None)
@given(truth=st.lists(st.tuples(JOIN_KEYS, st.integers(-1, 3)), max_size=12), data=st.data())
def test_truth_join_matches_dict_oracle(truth, data):
    picks = data.draw(st.permutations(range(len(truth))))[: data.draw(st.integers(0, len(truth)))]
    pred_keys = [truth[i][0] for i in picks] + data.draw(st.lists(JOIN_KEYS, max_size=3))
    pred_keys = [pred_keys[i] for i in data.draw(st.permutations(range(len(pred_keys))))]
    zeros = np.zeros(len(pred_keys), dtype=np.int64)
    rows = LabeledEvents(*_columns(pred_keys), packet_id=zeros, cluster_id=zeros)
    cols = (*_columns([k for k, _ in truth]), np.array([obj for _, obj in truth], dtype=np.int64))
    try:
        want = dict_truth_labels(rows, cols)
    except (ContractViolationError, EmptyAlignmentError) as exc:
        with pytest.raises(type(exc)):
            _truth_labels_for(rows, cols)
    else:
        assert np.array_equal(_truth_labels_for(rows, cols), want)
