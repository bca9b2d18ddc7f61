import numpy as np
import pytest

from evshift import bench, cli
from evshift.bench import (
    COST_HEADER,
    _shed_packets,
    frame_baseline,
    measure_factor,
    run_sweep,
    write_cost_csv,
)
from evshift.errors import ContractViolationError
from evshift.events import SensorGeometry
from evshift.pipeline import PipelineParams
from evshift.synth import Keyframes, SceneSpec, ShapeSpec, generate

SQUARE = ((-7.0, -7.0), (7.0, -7.0), (7.0, 7.0), (-7.0, 7.0))


def sweep_scene(duration=0.4):
    shape = ShapeSpec(
        shape_id=0,
        vertices=SQUARE,
        keys=Keyframes(t=(0.0, duration), x=(20.0, 75.0), y=(25.0, 25.0)),
    )
    return SceneSpec(width=100, height=50, duration=duration, shapes=(shape,), noise_rate=0.0, seed=2)


def small_params():
    return PipelineParams(packet_size=100)


def test_frame_baseline_at_desk_scale():
    assert frame_baseline(SensorGeometry(240, 180), fps=30.0) == 1_296_000.0
    assert frame_baseline(SensorGeometry(10, 10), fps=1.0) == 100.0
    with pytest.raises(ContractViolationError):
        frame_baseline(SensorGeometry(10, 10), fps=0.0)


def test_shed_packets_without_capacity_keeps_all():
    assert np.array_equal(_shed_packets(7, 100, 1.0, None), np.arange(7))
    assert np.array_equal(_shed_packets(0, 100, 1.0, 50.0), np.arange(0))


def test_shed_packets_budget_arithmetic():
    # budget = capacity * duration // packet_size = 5 of 10 packets
    idx = _shed_packets(10, 100, 2.0, 250.0)
    assert idx.tolist() == [1, 3, 5, 7, 9]
    # generous capacity keeps everything
    assert np.array_equal(_shed_packets(10, 100, 2.0, 1e9), np.arange(10))
    # starved consumer processes nothing
    assert _shed_packets(10, 100, 2.0, 10.0).tolist() == []
    with pytest.raises(ContractViolationError):
        _shed_packets(10, 100, 2.0, 0.0)


def test_shed_packets_spread_is_even():
    idx = _shed_packets(9, 10, 1.0, 30.0)  # budget 3 of 9
    assert len(idx) == 3
    gaps = np.diff(idx)
    assert gaps.max() - gaps.min() <= 1


def test_measure_factor_row_consistency():
    row = measure_factor(sweep_scene(), 1.0, small_params())
    assert row.factor == 1.0
    assert row.frame_baseline == 30.0 * 100 * 50
    assert row.reduction == pytest.approx(
        1.0 - (row.ms_ops_per_s + row.track_ops_per_s) / row.frame_baseline, rel=1e-12
    )
    assert row.detections_per_s == row.track_ops_per_s
    assert row.n_processed_packets == row.n_packets
    assert row.n_events_kept <= row.n_events_raw
    assert row.kernel_evals_per_s > row.ms_ops_per_s  # several sweeps per event
    assert 0.0 < row.tracking_share < 1.0


def test_sweep_rates_scale_with_factor():
    report = run_sweep(sweep_scene(), [1.0, 2.0], params=small_params())
    r1, r2 = report.rows
    assert r1.n_events_raw == r2.n_events_raw  # same events, compressed time
    ratio = r2.ms_ops_per_s / r1.ms_ops_per_s
    assert 1.7 < ratio < 2.3
    assert r2.duration == pytest.approx(r1.duration / 2.0, rel=1e-12)
    assert r2.reduction < r1.reduction  # more events per second to process


def test_capacity_flattens_detections():
    scene = sweep_scene()
    params = small_params()
    free = run_sweep(scene, [4.0, 8.0], params=params)
    f4, f8 = free.rows
    assert f8.detections_per_s / f4.detections_per_s > 1.5  # uncapped keeps scaling
    capped = run_sweep(scene, [4.0, 8.0], params=params, capacity=4000.0)
    c4, c8 = capped.rows
    assert c4.n_processed_packets < c4.n_packets
    assert c8.n_processed_packets < c8.n_packets
    assert c8.detections_per_s / c4.detections_per_s < 1.35  # plateau under the cap


def test_cost_csv_format(tmp_path):
    report = run_sweep(sweep_scene(), [1.0], params=small_params())
    path = tmp_path / "cost.csv"
    write_cost_csv(str(path), report)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "factor,ms_ops_per_s,track_ops_per_s,frame_baseline,reduction,detections_per_s"
    assert lines[0] == ",".join(COST_HEADER)
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert float(fields[0]) == 1.0
    assert float(fields[3]) == 150000.0
    # identical runs produce identical bytes
    again = tmp_path / "cost2.csv"
    write_cost_csv(str(again), run_sweep(sweep_scene(), [1.0], params=small_params()))
    assert path.read_bytes() == again.read_bytes()


def test_run_sweep_rejects_empty_factors():
    with pytest.raises(ContractViolationError):
        run_sweep(sweep_scene(), [])


def test_sweep_renders_once_and_matches_measure_factor(monkeypatch):
    scene, params = sweep_scene(), small_params()
    want = [measure_factor(scene, f, params) for f in (1.0, 2.0, 4.0)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(bench, "generate", counted)
    report = run_sweep(scene, [1.0, 2.0, 4.0], params=params)
    assert len(calls) == 1
    assert report.rows == want


@pytest.mark.parametrize("factors, fps, capacity, message", [
    ([1.0, 0.0], 30.0, None, "speed factor must be > 0, got 0.0"),
    ([1.0, 2.0], 0.0, None, "fps must be > 0, got 0.0"),
    ([1.0], 30.0, -5.0, "capacity must be > 0, got -5.0"),
])
def test_bad_settings_fail_before_the_scene_is_rendered(monkeypatch, capsys, factors, fps, capacity, message):
    def never(*args, **kwargs):
        raise AssertionError("the scene was rendered")

    monkeypatch.setattr(bench, "generate", never)
    argv = ["bench", "--scene", "reference", "--factors", ",".join(map(repr, factors)), "--fps", repr(fps)]
    assert cli.main(argv + ([] if capacity is None else ["--capacity", repr(capacity)])) == 6
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ContractViolationError, match=message):
        run_sweep(sweep_scene(), factors, params=small_params(), fps=fps, capacity=capacity)
    with pytest.raises(ContractViolationError, match=message):
        measure_factor(sweep_scene(), factors[-1], small_params(), fps=fps, capacity=capacity)
