import json

import numpy as np
import pytest

from evshift.errors import ContractViolationError, ParseError
from evshift.synth import (
    NOISE_LABEL,
    Keyframes,
    SceneSpec,
    ShapeSpec,
    generate,
    load_scene,
    regular_polygon,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    shoelace_centroid,
)

SQUARE = ((-7.0, -7.0), (7.0, -7.0), (7.0, 7.0), (-7.0, 7.0))


def square_scene(noise_rate=0.0, duration=1.0, polarity="motion"):
    shape = ShapeSpec(
        shape_id=0,
        vertices=SQUARE,
        keys=Keyframes(t=(0.0, duration), x=(20.0, 60.0), y=(25.0, 25.0)),
        polarity=polarity,
    )
    return SceneSpec(width=100, height=50, duration=duration, shapes=(shape,), noise_rate=noise_rate, seed=3)


def test_regular_polygon_geometry():
    v = np.asarray(regular_polygon(6, 10.0))
    assert v.shape == (6, 2)
    assert np.allclose(np.hypot(v[:, 0], v[:, 1]), 10.0)
    assert np.allclose(v.mean(axis=0), [0.0, 0.0], atol=1e-12)
    with pytest.raises(ContractViolationError):
        regular_polygon(2, 10.0)
    with pytest.raises(ContractViolationError):
        regular_polygon(5, 0.0)


def test_shoelace_centroid_known_triangle():
    cx, cy = shoelace_centroid(((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)))
    assert cx == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert cy == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ContractViolationError):
        shoelace_centroid(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))


def test_keyframes_validation_and_clamping():
    with pytest.raises(ContractViolationError):
        Keyframes(t=(0.0, 1.0), x=(0.0,), y=(0.0, 1.0))
    with pytest.raises(ContractViolationError):
        Keyframes(t=(0.0, 0.0), x=(0.0, 1.0), y=(0.0, 1.0))
    k = Keyframes(t=(0.0, 1.0), x=(0.0, 10.0), y=(5.0, 5.0))
    tx, ty, ang, sc = k.pose(np.array([-1.0, 0.5, 2.0]))
    assert np.allclose(tx, [0.0, 5.0, 10.0])
    assert np.allclose(ty, 5.0)
    assert np.allclose(ang, 0.0)
    assert np.allclose(sc, 1.0)


def test_generate_is_deterministic():
    a = generate(square_scene(noise_rate=100.0))
    b = generate(square_scene(noise_rate=100.0))
    assert list(a.events) == list(b.events)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers_xy, b.centers_xy)


def test_stream_sorted_in_bounds_and_labeled():
    g = generate(square_scene(noise_rate=100.0))
    assert len(g.events) == len(g.labels)
    assert len(g.events) > 100
    ts = np.array([e.t for e in g.events])
    assert np.all(np.diff(ts) >= 0)
    for e in g.events:
        assert g.geometry.contains(e.x, e.y)
        assert 0.0 <= e.t <= g.duration + 1e-9
    assert set(np.unique(g.labels)) <= {NOISE_LABEL, 0}
    assert np.sum(g.labels == NOISE_LABEL) > 0
    assert np.sum(g.labels == 0) > 0


def test_speed_factor_is_pure_time_compression():
    base = generate(square_scene(noise_rate=50.0), speed_factor=1.0)
    fast = generate(square_scene(noise_rate=50.0), speed_factor=2.0)
    assert len(base.events) == len(fast.events)
    for e1, e2 in zip(base.events, fast.events):
        assert e2.t == e1.t / 2.0
        assert (e2.x, e2.y, e2.p) == (e1.x, e1.y, e1.p)
    assert np.array_equal(base.labels, fast.labels)
    assert np.allclose(fast.centers_t, base.centers_t / 2.0)
    assert np.array_equal(fast.centers_xy, base.centers_xy)
    assert fast.duration == base.duration / 2.0


def test_motion_polarity_marks_leading_and_trailing_edges():
    g = generate(square_scene())
    # square translating along +x: only the vertical edges emit, leading
    # edge with positive polarity, trailing edge with negative
    for e, lab in zip(g.events, g.labels):
        if lab == NOISE_LABEL:
            continue
        cx = 20.0 + 40.0 * e.t
        if e.p:
            assert abs(e.x - (cx + 7.0)) <= 1.1
        else:
            assert abs(e.x - (cx - 7.0)) <= 1.1
        assert 25.0 - 8.1 <= e.y <= 25.0 + 8.1
    pols = {e.p for e in g.events}
    assert pols == {0, 1}


def test_fixed_polarity_override():
    g = generate(square_scene(polarity=1))
    assert len(g.events) > 0
    assert all(e.p == 1 for e in g.events)


def test_centers_follow_keyframes():
    g = generate(square_scene())
    assert np.all(g.centers_obj == 0)
    want_x = 20.0 + 40.0 * g.centers_t
    assert np.allclose(g.centers_xy[:, 0], want_x, atol=1e-9)
    assert np.allclose(g.centers_xy[:, 1], 25.0, atol=1e-12)
    assert g.centers_t[0] == 0.0
    assert g.centers_t[-1] == pytest.approx(1.0, abs=1e-9)


def test_event_count_scales_with_sweep_length():
    near = square_scene()
    far_shape = ShapeSpec(
        shape_id=0,
        vertices=SQUARE,
        keys=Keyframes(t=(0.0, 1.0), x=(10.0, 90.0), y=(25.0, 25.0)),
    )
    far = SceneSpec(width=100, height=50, duration=1.0, shapes=(far_shape,), seed=3)
    ratio = len(generate(far).events) / len(generate(near).events)
    assert 1.7 < ratio < 2.3


def test_static_shape_emits_nothing():
    shape = ShapeSpec(
        shape_id=0,
        vertices=SQUARE,
        keys=Keyframes(t=(0.0,), x=(50.0,), y=(25.0,)),
    )
    scene = SceneSpec(width=100, height=50, duration=0.5, shapes=(shape,))
    assert len(generate(scene).events) == 0


def test_empty_scene():
    scene = SceneSpec(width=100, height=50, duration=0.5, shapes=())
    g = generate(scene)
    assert len(g.events) == 0
    assert len(g.labels) == 0
    assert len(g.centers_t) == 0


def test_scene_dict_round_trip():
    scene = square_scene(noise_rate=10.0)
    again = scene_from_dict(scene_to_dict(scene))
    assert again == scene


def test_scene_file_round_trip(tmp_path):
    scene = square_scene(noise_rate=10.0, polarity=1)
    path = str(tmp_path / "scene.json")
    save_scene(scene, path)
    assert load_scene(path) == scene


def test_scene_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError):
        load_scene(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"width": 10}))
    with pytest.raises(ParseError):
        load_scene(str(missing))
    with pytest.raises(ContractViolationError):
        scene_from_dict({"width": 10})


def test_scene_validation():
    with pytest.raises(ContractViolationError):
        SceneSpec(width=0, height=10, duration=1.0, shapes=())
    with pytest.raises(ContractViolationError):
        SceneSpec(width=10, height=10, duration=0.0, shapes=())
    with pytest.raises(ContractViolationError):
        ShapeSpec(shape_id=0, vertices=((0, 0), (1, 1)), keys=Keyframes(t=(0.0,), x=(0.0,), y=(0.0,)))
    with pytest.raises(ContractViolationError):
        ShapeSpec(shape_id=0, vertices=SQUARE, keys=Keyframes(t=(0.0,), x=(0.0,), y=(0.0,)), polarity="up")
    shape = ShapeSpec(shape_id=0, vertices=SQUARE, keys=Keyframes(t=(0.0,), x=(0.0,), y=(0.0,)))
    with pytest.raises(ContractViolationError):
        SceneSpec(width=10, height=10, duration=1.0, shapes=(shape, shape))
    with pytest.raises(ContractViolationError):
        generate(SceneSpec(width=10, height=10, duration=1.0, shapes=()), speed_factor=0.0)
