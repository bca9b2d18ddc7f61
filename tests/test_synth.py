import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import synth_oracle
from evshift.cli import main
from evshift.errors import ContractViolationError, ParseError
from evshift.events import EventStream
from evshift.scenes import build_scene
from evshift.synth import (
    _CHUNK_STEPS,
    MAX_CENTER_SAMPLES,
    MAX_NOISE_EVENTS,
    MAX_OUTLINE_POINTS,
    MAX_STEPS,
    NOISE_LABEL,
    GeneratedScene,
    Keyframes,
    SceneSpec,
    ShapeSpec,
    _outline_points,
    _quiet_bounds,
    _quiet_cells,
    _sample_outline,
    _world_planes,
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
    with pytest.raises(ContractViolationError, match="bad scene description: 'height'"):
        scene_from_dict({"width": 10})
    d = scene_to_dict(square_scene())
    for vertex in ([1.0], [1.0, 2.0, 3.0]):
        d["shapes"][0]["vertices"] = [vertex, *SQUARE[1:]]
        with pytest.raises(ContractViolationError, match=f"bad scene description: expected 2 values, got {len(vertex)}"):
            scene_from_dict(d)


@pytest.mark.parametrize("name", ["reference", "tracking", "stability"])
def test_scene_files_of_the_hand_written_codec_load(tmp_path, name):
    scene = build_scene(name)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(synth_oracle.scene_to_dict(scene), indent=2) + "\n")
    assert load_scene(str(path)) == scene
    # save_scene writes the same content, its keys in declaration order
    save_scene(scene, str(path))
    with open(path) as fh:
        saved = json.load(fh)
    assert saved == json.loads(json.dumps(synth_oracle.scene_to_dict(scene)))
    assert list(saved) == [f.name for f in dataclasses.fields(SceneSpec)]
    assert list(saved["shapes"][0]) == [f.name for f in dataclasses.fields(ShapeSpec)]


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolationError, match="must be finite"):
            SceneSpec(width=10, height=10, duration=1.0, shapes=(), dt=bad)
        with pytest.raises(ContractViolationError, match="must be finite"):
            ShapeSpec(shape_id=0, vertices=SQUARE[:2] + ((bad, 1.0),), keys=Keyframes(t=(0.0,), x=(0.0,), y=(0.0,)))
        with pytest.raises(ContractViolationError, match="must be finite"):
            Keyframes(t=(0.0, 1.0), x=(0.0, 1.0), y=(0.0, 1.0), scale=(1.0, bad))


# The sizes of the built-in scenes and, past each cap, the value that breaks it.
# None of these tests renders a scene.
@pytest.mark.parametrize("change, message", [
    (dict(spacing=1e-7), f"outline points of a shape must be at most {MAX_OUTLINE_POINTS:,}, got 1.11679e+09"),
    (dict(noise_rate=1e15), f"expected noise events, noise_rate * duration, must be at most {MAX_NOISE_EVENTS:,}, got 6e+14"),
    (dict(centers_stride=1e-12), f"center samples must be at most {MAX_CENTER_SAMPLES:,}, got 3e+12"),
    (dict(duration=1e9), f"time steps, duration / dt, must be at most {MAX_STEPS:,}, got 1e+13"),
    (dict(dt=1e-12), "time steps, duration / dt, must be at most"),
])
def test_scene_caps(tmp_path, capsys, change, message):
    scene = build_scene("reference")
    with pytest.raises(ContractViolationError) as info:
        dataclasses.replace(scene, **change)
    assert str(info.value).startswith(message)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(scene_to_dict(scene), **change)))
    with pytest.raises(ParseError) as info:
        load_scene(str(path))
    assert str(info.value).startswith(f"{path}: {message}")
    # bench reads the scene file before it checks the factors, and refuses
    # a factor of 0 before it renders anything
    assert main(["bench", "--scene", str(path), "--factors", "0"]) == 4
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def _first_shape(d, **change):
    d["shapes"][0].update(change)
    return d


def _far_vertex(d):
    # the overflowing area was NaN, which the zero-area test let through
    d["shapes"][0]["vertices"] = [[1e308, 19.0], *d["shapes"][0]["vertices"][1:]]
    return dict(d, spacing=1e306)


def _far_keys(d):
    d["shapes"][2]["keys"]["x"] = [-1.7e308, 1.7e308, -1.7e308]
    return d


# Each exited otherwise before it was refused at load_scene: equal vertices
# with a traceback, collinear ones with 6 after rendering, shape_id 2**70 and
# width 2**70 with tracebacks, shape_id -1 (the noise label) with 0, and the
# far vertex and keys with 0 and NaN centers.
@pytest.mark.parametrize("change, message", [
    (lambda d: _first_shape(d, vertices=[[3.0, 4.0]] * 3), "polygon has zero area"),
    (lambda d: _first_shape(d, vertices=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), "polygon has zero area"),
    (lambda d: _first_shape(d, shape_id=2**70), f"shape_id must be >= 0 and < 2**63, got {2**70}"),
    (lambda d: _first_shape(d, shape_id=-1), "shape_id must be >= 0 and < 2**63, got -1"),
    (lambda d: dict(d, width=2**70), f"width must be < 2**63, got {2**70}"),
    (lambda d: dict(d, height=2**63), f"height must be < 2**63, got {2**63}"),
    (_far_vertex, "vertex coordinates must be at most 2**53 in magnitude, got 1e+308"),
    (_far_keys, "a shape must stay within 2**53 px of the origin, reaches 1.7e+308"),
], ids=["equal vertices", "collinear vertices", "shape_id 2**70", "shape_id -1", "width 2**70", "height 2**63",
        "vertex 1e308", "key x 1.7e308"])
def test_scene_file_out_of_range_exits_4_before_rendering(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(change(scene_to_dict(build_scene("reference")))))
    out = tmp_path / "events.txt"
    assert main(["synth", "--scene", str(path), "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def _short_reference(change=lambda d: d):
    """The reference scene cut to 50 ms, as a JSON dict edited by `change`."""
    return change(json.loads(json.dumps(scene_to_dict(dataclasses.replace(build_scene("reference"), duration=0.05)))))


# Far but within the reach, and where products and sums of coordinates
# overflow, and casts to int64 do.
FAR_VALUES = [1e9, 2.0**50, 2.0**53, 2.0**53 + 2.0, 2.0**62, 2.0**63, 1.5e154, 1e306, 1e308, 1.7e308]


@st.composite
def far_scene_dicts(draw):
    """The short reference scene with up to three vertex coordinates, key
    x, y or scale values drawn up to +-1.7e308, and a spacing up to 1e306."""
    d = _short_reference()
    shapes = d["shapes"]
    slots = [(v, j) for shape in shapes for v in shape["vertices"] for j in (0, 1)]
    slots += [(keys, i) for keys in (shape["keys"][n] for shape in shapes for n in ("x", "y", "scale")) for i in range(len(keys))]
    far = st.sampled_from(FAR_VALUES).flatmap(lambda v: st.sampled_from([v, -v]))
    for values, i in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3)):
        values[i] = draw(st.one_of(far, st.floats(-1.7e308, 1.7e308)))
    if draw(st.booleans()):
        d["spacing"] = draw(st.one_of(st.sampled_from([1.5e154, 1e306]), st.floats(0.05, 1e306)))
    return d


@settings(max_examples=60, deadline=None)
@given(d=far_scene_dicts())
@example(d=_short_reference(_far_vertex))
@example(d=_short_reference(_far_keys))
def test_far_scenes_are_refused_or_render_finite_values(d):
    try:
        scene = scene_from_dict(d)
    except ContractViolationError:
        return
    g = generate(scene)
    assert np.isfinite(g.events.t).all() and np.isfinite(g.centers_t).all() and np.isfinite(g.centers_xy).all()


def test_largest_ids_and_sizes_are_accepted():
    shape = ShapeSpec(shape_id=2**63 - 1, vertices=SQUARE, keys=Keyframes(t=(0.0,), x=(50.0,), y=(25.0,)))
    g = generate(SceneSpec(width=2**63 - 1, height=2**63 - 1, duration=0.01, shapes=(shape,), noise_rate=300.0))
    assert g.centers_obj.tolist() == [2**63 - 1] * 11
    assert len(g.events) == int((g.labels == NOISE_LABEL).sum()) > 0


def test_scene_caps_sit_far_above_the_builtin_scenes():
    sizes = []
    for name in ("reference", "tracking", "stability"):
        s = build_scene(name)
        sizes.append((
            max(len(_sample_outline(shape.vertices, s.spacing)[0]) for shape in s.shapes),
            round(s.duration / s.dt),
            s.noise_rate * s.duration,
            (round(s.duration / s.centers_stride) + 1) * len(s.shapes),
        ))
    most = [max(column) for column in zip(*sizes)]
    assert most == [225, 100_000, 12_000, 70_007]
    caps = [MAX_OUTLINE_POINTS, MAX_STEPS, MAX_NOISE_EVENTS, MAX_CENTER_SAMPLES]
    assert all(cap >= 10 * size for cap, size in zip(caps, most))


@settings(max_examples=200, deadline=None)
@given(
    vertices=st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=8),
    repeat=st.booleans(),
    spacing=st.floats(0.05, 30.0),
)
def test_outline_points_count_what_sample_outline_samples(vertices, repeat, spacing):
    if repeat:  # an edge of zero length gets no points
        vertices = vertices[:1] + vertices
    points = _outline_points(tuple(vertices), spacing)
    assume(points > 0)  # _sample_outline needs an edge of nonzero length
    assert points == len(_sample_outline(vertices, spacing)[0])


def test_speed_factor_that_overflows_times_is_refused():
    scene = square_scene()
    with pytest.raises(ContractViolationError, match="speed factor must keep times finite, got 1e-310"):
        generate(scene, speed_factor=1e-310)
    # a factor that only makes the times tiny stays accepted
    assert generate(scene, speed_factor=1e300).duration == 1e-300
    # The last center sample falls 0.9e-12 after the duration, and a factor
    # that keeps the duration finite may still overflow it.
    shape = ShapeSpec(shape_id=0, vertices=SQUARE, keys=Keyframes(t=(0.0,), x=(50.0,), y=(25.0,)))
    tiny = SceneSpec(width=100, height=50, duration=1e-12, shapes=(shape,), centers_stride=1.9e-12)
    assert math.isfinite(tiny.duration / 8e-321)
    with pytest.raises(ContractViolationError, match="speed factor must keep times finite, got 8e-321"):
        generate(tiny, speed_factor=8e-321)


# --- Differential property: the scene codec against the hand-written one.

BUILTIN_SCENES = [build_scene(name) for name in ("reference", "tracking", "stability")]
FIELD_NAMES = sorted({f.name for cls in (SceneSpec, ShapeSpec, Keyframes) for f in dataclasses.fields(cls)})
MUTANT_VALUES = [None, True, False, "", "x", "12", "1.5", [], [1.0], [1.0, 2.0, 3.0], {}, {"t": [0.0]},
                 math.nan, 1e308, -1e308, 2**70, 2.5, -1, 0]


def _paths(value, path=()):
    """The path of every value nested in a JSON value, the value's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield from _paths(v, path + (key,))


@st.composite
def mutated_scene_dicts(draw):
    scene = draw(st.one_of(st.sampled_from(BUILTIN_SCENES), scenes_with_keys()))
    d = json.loads(json.dumps(synth_oracle.scene_to_dict(scene)))
    for _ in range(draw(st.integers(1, 3))):
        # every field as likely as any other, whatever the number of its values
        by_field = {}
        for path in _paths(d):
            by_field.setdefault(tuple(k for k in path if isinstance(k, str)), []).append(path)
        path = draw(st.sampled_from(by_field[draw(st.sampled_from(sorted(by_field)))]))
        container = d
        for key in path[:-1]:
            container = container[key]
        value = container[path[-1]] if path else d
        how = draw(st.sampled_from(["drop", "add", "set"]))
        new = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES + [3.0])))
        if how == "drop" and path:
            del container[path[-1]]  # in a vertex: one value
        elif how == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(FIELD_NAMES + ["extra"]))] = new
        elif how == "add" and isinstance(value, list):
            value.append(new)  # in a vertex: three values
        elif path:
            container[path[-1]] = new
        else:
            d = new
    return d


def _decoded(decode, d):
    """The repr of the scene that `decode` reads from a copy of `d`, which
    tells 240 from 240.0, or the class of its refusal."""
    try:
        return repr(decode(copy.deepcopy(d)))
    except ContractViolationError:
        return ContractViolationError


@settings(max_examples=400, deadline=None)
@given(d=mutated_scene_dicts())
def test_scene_from_dict_equals_hand_written_codec(d):
    assert _decoded(scene_from_dict, d) == _decoded(synth_oracle.scene_from_dict, d)


# --- Oracle: the plain renderer, with full position and velocity arrays for
# every (time step, outline point) cell.  generate must match it bit for bit.


def _oracle_pose_points(base, tx, ty, ang, sc):
    c, s = np.cos(ang), np.sin(ang)
    rx = c[:, None] * base[None, :, 0] - s[:, None] * base[None, :, 1]
    ry = s[:, None] * base[None, :, 0] + c[:, None] * base[None, :, 1]
    out = np.empty((len(tx), len(base), 2))
    out[:, :, 0] = tx[:, None] + sc[:, None] * rx
    out[:, :, 1] = ty[:, None] + sc[:, None] * ry
    return out


def oracle_generate(scene, speed_factor=1.0, folded_rate=False):
    """Full (k, n, 2) position and velocity arrays for every cell of every
    chunk.  folded_rate computes the rate as |vn| * (ds / spacing**2), an
    order that rounds differently."""
    rng = np.random.default_rng(scene.seed)
    pieces = [(np.zeros(0), *[np.zeros(0, dtype=int)] * 4)]
    dt = scene.dt
    n_steps = int(round(scene.duration / dt))
    for shape in scene.shapes:
        base, normals, ds = _sample_outline(shape.vertices, scene.spacing)
        acc = (0.1 * np.arange(len(base))) % 1.0
        for k0 in range(0, n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, n_steps)
            times = (np.arange(k0, k1) + 0.5) * dt
            tx, ty, ang, sc = shape.keys.pose(times)
            pos = _oracle_pose_points(base, tx, ty, ang, sc)
            half = 0.5 * dt
            txp, typ, angp, scp = shape.keys.pose(times + half)
            txm, tym, angm, scm = shape.keys.pose(times - half)
            vel = (_oracle_pose_points(base, txp, typ, angp, scp) - _oracle_pose_points(base, txm, tym, angm, scm)) / dt
            c, s = np.cos(ang), np.sin(ang)
            nx = c[:, None] * normals[None, :, 0] - s[:, None] * normals[None, :, 1]
            ny = s[:, None] * normals[None, :, 0] + c[:, None] * normals[None, :, 1]
            vn = vel[:, :, 0] * nx + vel[:, :, 1] * ny
            speed = np.hypot(vel[:, :, 0], vel[:, :, 1])
            if folded_rate:
                rate = np.abs(vn) * (ds[None, :] / (scene.spacing * scene.spacing))
            else:
                rate = np.abs(vn) * ds[None, :] / (scene.spacing * scene.spacing)
            rate[np.abs(vn) < 0.1 * speed] = 0.0
            grown = acc[None, :] + np.cumsum(rate * dt, axis=0)
            before = np.vstack([acc[None, :], grown[:-1]])
            fired = np.floor(grown) > np.floor(before)
            acc = grown[-1].copy()
            if not fired.any():
                continue
            kk, ii = np.nonzero(fired)
            r = rate[kk, ii]
            frac = (np.floor(before[kk, ii]) + 1.0 - before[kk, ii]) / np.maximum(r * dt, 1e-300)
            t_emit = (kk + k0) * dt + np.clip(frac, 0.0, 1.0) * dt
            px = np.rint(pos[kk, ii, 0]).astype(int)
            py = np.rint(pos[kk, ii, 1]).astype(int)
            inside = (px >= 0) & (px < scene.width) & (py >= 0) & (py < scene.height)
            if shape.polarity == "motion":
                pol = (vn[kk, ii] > 0).astype(int)
            else:
                pol = np.full(len(kk), int(shape.polarity))
            label = np.full(int(inside.sum()), shape.shape_id)
            pieces.append((t_emit[inside], px[inside], py[inside], pol[inside], label))
    if scene.noise_rate > 0:
        n_noise = int(rng.poisson(scene.noise_rate * scene.duration))
        pieces.append((
            rng.uniform(0.0, scene.duration, n_noise),
            rng.integers(0, scene.width, n_noise),
            rng.integers(0, scene.height, n_noise),
            rng.integers(0, 2, n_noise),
            np.full(n_noise, NOISE_LABEL),
        ))
    t, x, y, p, lab = map(np.concatenate, zip(*pieces))
    order = np.argsort(t, kind="stable")
    ct = np.arange(0.0, scene.duration + 0.5 * scene.centers_stride, scene.centers_stride)
    ct = ct[ct <= scene.duration + 1e-12]
    centers = [(np.zeros(0), np.zeros(0, dtype=int), np.zeros((0, 2)))]
    for shape in scene.shapes:
        cx0, cy0 = shoelace_centroid(shape.vertices)
        tx, ty, ang, sc = shape.keys.pose(ct)
        c, s = np.cos(ang), np.sin(ang)
        cx = tx + sc * (c * cx0 - s * cy0)
        cy = ty + sc * (s * cx0 + c * cy0)
        centers.append((ct / speed_factor, np.full(len(ct), shape.shape_id), np.stack([cx, cy], axis=1)))
    centers_t, centers_obj, centers_xy = map(np.concatenate, zip(*centers))
    return GeneratedScene(
        events=EventStream(t[order] / speed_factor, x[order], y[order], p[order]),
        labels=lab[order].astype(int),
        geometry=scene.geometry,
        centers_t=centers_t,
        centers_obj=centers_obj,
        centers_xy=centers_xy,
        duration=scene.duration / speed_factor,
    )


def rendered_bits(g):
    """Every output of generate, floats as their bit patterns."""
    cols = {
        "t": g.events.t, "x": g.events.x, "y": g.events.y, "p": g.events.p, "labels": g.labels,
        "centers_t": g.centers_t, "centers_obj": g.centers_obj, "centers_xy": g.centers_xy,
        "duration": np.float64(g.duration),
    }
    return {k: np.asarray(v).view(np.int64) if np.asarray(v).dtype == np.float64 else np.asarray(v) for k, v in cols.items()}


def assert_same_bits(g, oracle):
    got, want = rendered_bits(g), rendered_bits(oracle)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


def _not_power_of_two(v):
    return math.frexp(v)[0] != 0.5


@st.composite
def scenes_with_keys(draw):
    dt = draw(st.sampled_from([1e-4, 7e-5, 2.3e-4]))
    n_steps = draw(st.integers(300, 5000).filter(lambda n: n % _CHUNK_STEPS))
    duration = n_steps * dt
    width, height = draw(st.integers(40, 120)), draw(st.integers(30, 90))
    key_floats = st.floats(-0.2, 1.2, allow_nan=False)
    shapes = []
    for shape_id in range(draw(st.integers(1, 3))):
        n_keys = draw(st.integers(1, 3))
        t = sorted(draw(st.lists(st.floats(0.0, duration), min_size=n_keys, max_size=n_keys, unique=True)))
        if any(b - a < 1e-6 for a, b in zip(t, t[1:])):
            t = [t[0]]
        n_keys = len(t)

        def coords(size):
            return tuple(size * v for v in draw(st.lists(key_floats, min_size=n_keys, max_size=n_keys)))

        extra = {}
        if draw(st.booleans()):
            extra["angle"] = tuple(draw(st.lists(st.floats(-4.0, 4.0), min_size=n_keys, max_size=n_keys)))
        if draw(st.booleans()):
            extra["scale"] = tuple(draw(st.lists(st.floats(0.4, 1.8), min_size=n_keys, max_size=n_keys)))
        keys = Keyframes(t=tuple(t), x=coords(width), y=coords(height), **extra)
        vertices = regular_polygon(draw(st.integers(3, 8)), draw(st.floats(3.0, 20.0)), draw(st.floats(0.0, 3.2)))
        polarity = draw(st.sampled_from(["motion", 0, 1]))
        shapes.append(ShapeSpec(shape_id=shape_id, vertices=vertices, keys=keys, polarity=polarity))
    return SceneSpec(
        width=width,
        height=height,
        duration=duration,
        shapes=tuple(shapes),
        spacing=draw(st.floats(0.37, 1.3).filter(_not_power_of_two)),
        noise_rate=draw(st.sampled_from([0.0, 400.0])),
        seed=draw(st.integers(0, 2**16)),
        dt=dt,
    )


@settings(max_examples=50, deadline=None)
@given(scene=scenes_with_keys(), factor=st.sampled_from([1.0, 2.0, 4.0]))
def test_generate_matches_full_plane_oracle(scene, factor):
    assert_same_bits(generate(scene, factor), oracle_generate(scene, factor))


# Keyframe coordinates where the rounding of tx + bx dwarfs the motion, keys
# that move by 1e-9 px, keys that stand still, and shapes with one keyframe.
EXTREME_BASES = [0.0, 41.5, 3.0e5, 1e9, 1e12]
EXTREME_STEPS = [0.0, 0.0, 1e-9, -1e-9, 3e-7, 0.25, -4.0, 30.0]


@st.composite
def extreme_translation_scenes(draw):
    dt = draw(st.sampled_from([1e-4, 7e-5, 2.3e-4]))
    duration = draw(st.integers(300, 2500)) * dt
    shapes = []
    base_x, base_y = draw(st.sampled_from(EXTREME_BASES)), draw(st.sampled_from(EXTREME_BASES))
    for shape_id in range(draw(st.integers(1, 3))):
        n_keys = draw(st.integers(1, 5))
        t = sorted(draw(st.lists(st.floats(0.0, duration), min_size=n_keys, max_size=n_keys, unique=True)))
        if any(b - a < 1e-6 for a, b in zip(t, t[1:])):
            t = [t[0]]

        def coords(base):
            steps = draw(st.lists(st.sampled_from(EXTREME_STEPS), min_size=len(t) - 1, max_size=len(t) - 1))
            return tuple(np.cumsum([base + draw(st.floats(20.0, 60.0))] + steps).tolist())

        keys = Keyframes(t=tuple(t), x=coords(base_x), y=coords(base_y))
        vertices = regular_polygon(draw(st.integers(3, 8)), draw(st.floats(3.0, 20.0)), draw(st.floats(0.0, 3.2)))
        shapes.append(ShapeSpec(shape_id=shape_id, vertices=vertices, keys=keys,
                                polarity=draw(st.sampled_from(["motion", 0, 1]))))
    return SceneSpec(  # a sensor of 2**41 px keeps the events of shapes 1e12 px out
        width=2**41, height=2**41, duration=duration, shapes=tuple(shapes),
        spacing=draw(st.floats(0.37, 1.3)), seed=draw(st.integers(0, 2**16)), dt=dt,
    )


@settings(max_examples=40, deadline=None)
@given(scene=extreme_translation_scenes())
def test_extreme_translations_match_full_plane_oracle(scene):
    assert_same_bits(generate(scene), oracle_generate(scene))


@settings(max_examples=300, deadline=None)
@given(
    dt=st.sampled_from([1e-4, 7e-5, 2.3e-4, 1e-300, 1e300]),
    # sums that cross a power of two round on two grids
    bases=st.lists(st.sampled_from(EXTREME_BASES + [2.0**40 - 4.0, -2.0**30, 1e300, -1.7e308]),
                   min_size=2, max_size=2),
    steps=st.lists(st.sampled_from(EXTREME_STEPS + [1e-300, 1e300]), min_size=4, max_size=4),
    phase=st.floats(0.0, 3.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_quiet_cells_equal_the_hypot_test(dt, bases, steps, phase, seed):
    """Every cell's quiet bit, as _quiet_cells gives it on the velocity
    planes of a translating shape and as the hypot per cell gives it, for
    gains drawn at and next to each cell's own threshold."""
    rng = np.random.default_rng(seed)
    x, y = (tuple(base + np.cumsum([0.0, *s])) for base, s in zip(bases, (steps[:2], steps[2:])))
    keys = Keyframes(t=(0.0, 1.0, 2.0), x=x, y=y)
    bx, by = np.asarray(regular_polygon(9, 9.0, phase)).T.copy()
    times = np.concatenate([rng.uniform(-0.5, 2.5, 40), [0.0, 1.0, 2.0, 3.0]])
    half = 0.5 * dt
    ahead, behind = keys.pose(times + half), keys.pose(times - half)
    with np.errstate(all="ignore"):
        vx, vy = _world_planes(bx, by, ahead, True)
        mx, my = _world_planes(bx, by, behind, True)
        vx, vy = (vx - mx) / dt, (vy - my) / dt
        threshold = np.hypot(vx, vy) * 0.1
        gain = np.choose(rng.integers(0, 4, threshold.shape), [
            np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, np.inf),
            np.abs(vx * np.cos(phase) + vy * np.sin(phase)),
        ])
        quiet = _quiet_cells(gain, vx, vy, *_quiet_bounds(ahead, behind, bx, by, dt))
    assert np.array_equal(quiet, gain < threshold)


def test_quiet_bounds_of_still_and_overflowing_steps():
    keys = Keyframes(t=(0.0, 1.0, 2.0), x=(5.0, 5.0, 1e308), y=(7.0, 7.0, -1e308))
    times = np.array([0.5, 1.5])
    lower, upper = _quiet_bounds(keys.pose(times + 0.01), keys.pose(times - 0.01), np.ones(3), np.ones(3), 0.02)
    # a step whose key stands still keeps every cell loud, as 0 < 0 does
    assert (lower[0], upper[0]) == (0.0, 0.0)
    # one whose bounds overflow takes the hypot in every cell
    assert (lower[1], upper[1]) == (-np.inf, np.inf)


@pytest.mark.parametrize("name", ["reference", "tracking", "stability"])
def test_builtin_scenes_match_full_plane_oracle(name):
    scene = build_scene(name)
    if name == "stability":
        scene = dataclasses.replace(scene, duration=0.5)
    assert_same_bits(generate(scene), oracle_generate(scene))


def test_oracle_tells_folded_rate_apart():
    # tracking has spacing 0.6: dividing by 0.36 first rounds differently
    scene = build_scene("tracking")
    got = rendered_bits(generate(scene))
    folded = rendered_bits(oracle_generate(scene, folded_rate=True))
    assert not np.array_equal(got["t"], folded["t"])

