"""Synthetic event streams from moving polygon outlines.

Shapes are closed polygons moving along piecewise-linear pose trajectories
(translation, rotation, uniform scale).  Outline sample points emit events
at a rate proportional to the velocity component along the outward normal,
via per-point accumulators, so event density matches the area the outline
sweeps.  Background noise is a uniform Poisson process.  Every event
carries the id of the shape that produced it (-1 for noise), and the true
center trajectory of each shape is reported on a fixed time grid.

Rendering works on blocks of time steps, one (step, outline point) plane
per quantity.  Events are sparse (about 0.3% of the cells of the
stability scene fire), so the full planes hold only what every cell
needs: the velocity, its normal component, the rate and the accumulator.
The position, rounded to a pixel, is evaluated only at the cells that
fire, with the same elementwise formula.  Every expression keeps the
operand order that fixes its rounding, so the streams stay bit for bit
the same whatever the layout of the work.  Shapes without angle and scale
keys skip the turn and the scaling, which change no bit that reaches an
output.

The quiet test, gain < 0.1 * hypot(vx, vy), needs no hypot per cell for
such a shape: every cell of a step moves with the step's key velocity,
but for the rounding of the position sums, a few units in the last place
of the step's largest coordinate over dt.  So each step gets a lower and
an upper bound on 0.1 * hypot; a gain below the lower one is quiet, one
at or above the upper one is not, and only the cells between them (none
in the built-in scenes) take the hypot.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ContractViolationError, ParseError, require_finite
from .events import EventStream, SensorGeometry
from .io import atomic_write_text, read_lines

NOISE_LABEL = -1

# Fraction of speed below which normal motion emits nothing: outlines moving
# almost parallel to themselves produce no contrast change.
_SUPPRESS_FRACTION = 0.1

# Time steps rendered per block of a shape's outline motion.  Each block's
# accumulator is its start value plus the cumulative sum of the block's
# increments, so the block length fixes where that sum restarts, and with
# it the rounding of every accumulator and every event time.  Likewise the
# rate is |vn| * ds / spacing**2 in that order: folding ds / spacing**2
# into one factor changes the streams of scenes whose spacing squared is
# not a power of two.
_CHUNK_STEPS = 2000

# The sizes of a scene that SceneSpec refuses beyond.  Rendering holds a few
# (step, outline point) planes of _CHUNK_STEPS steps per shape, about 120 kB
# per outline point; the noise events and the center samples take about 130
# bytes each; the steps set the run time, about 3 s per million steps of a
# small shape on a 2-core x86-64 host.
MAX_OUTLINE_POINTS = 4_000
MAX_STEPS = 10_000_000
MAX_NOISE_EVENTS = 4_000_000
MAX_CENTER_SAMPLES = 4_000_000


@dataclass(frozen=True)
class Keyframes:
    """Piecewise-linear pose trajectory sampled at key times."""

    t: Tuple[float, ...]
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    angle: Tuple[float, ...] = ()
    scale: Tuple[float, ...] = ()

    def __post_init__(self):
        require_finite(self)
        n = len(self.t)
        if n < 1:
            raise ContractViolationError("trajectory needs at least one keyframe")
        if len(self.x) != n or len(self.y) != n:
            raise ContractViolationError("keyframe arrays must have equal length")
        if self.angle and len(self.angle) != n:
            raise ContractViolationError("keyframe arrays must have equal length")
        if self.scale and len(self.scale) != n:
            raise ContractViolationError("keyframe arrays must have equal length")
        if any(b <= a for a, b in zip(self.t, self.t[1:])):
            raise ContractViolationError("keyframe times must increase")

    def pose(self, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated (tx, ty, angle, scale) at the given times."""
        t = np.asarray(self.t, dtype=float)
        tx = np.interp(times, t, np.asarray(self.x, dtype=float))
        ty = np.interp(times, t, np.asarray(self.y, dtype=float))
        if self.angle:
            ang = np.interp(times, t, np.asarray(self.angle, dtype=float))
        else:
            ang = np.zeros_like(tx)
        if self.scale:
            sc = np.interp(times, t, np.asarray(self.scale, dtype=float))
        else:
            sc = np.ones_like(tx)
        return tx, ty, ang, sc

    @property
    def translation_only(self) -> bool:
        """No angle and no scale keys: the pose keeps angle 0 and scale 1."""
        return not (self.angle or self.scale)


@dataclass(frozen=True)
class ShapeSpec:
    """One moving polygon: outline, trajectory, polarity behavior.

    polarity is "motion" (sign of the normal velocity component) or a fixed
    0/1 for stimuli with a constant contrast sign.
    """

    shape_id: int
    vertices: Tuple[Tuple[float, float], ...]
    keys: Keyframes
    polarity: object = "motion"

    def __post_init__(self):
        require_finite(self)
        if not 0 <= self.shape_id < 2**63:  # -1 is NOISE_LABEL; outputs hold ids as int64
            raise ContractViolationError(f"shape_id must be >= 0 and < 2**63, got {self.shape_id}")
        if len(self.vertices) < 3:
            raise ContractViolationError("polygon needs at least 3 vertices")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge vertex is for the caps to refuse
            area = _signed_area(self.vertices)
        if abs(area) < 1e-12:
            raise ContractViolationError("polygon has zero area")
        if self.polarity not in ("motion", 0, 1):
            raise ContractViolationError(f"polarity must be 'motion', 0 or 1, got {self.polarity!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one synthetic recording."""

    width: int
    height: int
    duration: float
    shapes: Tuple[ShapeSpec, ...]
    spacing: float = 0.5
    noise_rate: float = 0.0
    seed: int = 0
    dt: float = 1e-4
    centers_stride: float = 1e-3

    def __post_init__(self):
        require_finite(self)
        if self.width < 1 or self.height < 1:
            raise ContractViolationError("sensor must be at least 1x1")
        for name in ("width", "height"):
            if getattr(self, name) >= 2**63:  # pixels are int64
                raise ContractViolationError(f"{name} must be < 2**63, got {getattr(self, name)}")
        if not (self.duration > 0):
            raise ContractViolationError(f"duration must be > 0, got {self.duration}")
        if not (self.spacing > 0):
            raise ContractViolationError(f"spacing must be > 0, got {self.spacing}")
        if self.noise_rate < 0:
            raise ContractViolationError(f"noise rate must be >= 0, got {self.noise_rate}")
        if not (self.dt > 0) or not (self.centers_stride > 0):
            raise ContractViolationError("dt and centers_stride must be > 0")
        if self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")
        ids = [s.shape_id for s in self.shapes]
        if len(set(ids)) != len(ids):
            raise ContractViolationError(f"duplicate shape ids: {ids}")
        # What generate holds at once or loops over, each capped far above the
        # built-in scenes' 225, 100,000, 12,000 and 70,007, and checked before
        # any array is made.
        points = max((_outline_points(s.vertices, self.spacing) for s in self.shapes), default=0)
        for what, size, cap in (
            ("outline points of a shape", points, MAX_OUTLINE_POINTS),
            ("time steps, duration / dt,", self.duration / self.dt, MAX_STEPS),
            ("expected noise events, noise_rate * duration,", self.noise_rate * self.duration, MAX_NOISE_EVENTS),
            ("center samples", (self.duration / self.centers_stride + 1) * len(self.shapes), MAX_CENTER_SAMPLES),
        ):
            if size > cap:
                raise ContractViolationError(f"{what} must be at most {cap:,}, got {size:.6g}")

    @property
    def geometry(self) -> SensorGeometry:
        return SensorGeometry(self.width, self.height)


def regular_polygon(n: int, radius: float, phase: float = 0.0) -> Tuple[Tuple[float, float], ...]:
    """Vertices of a regular n-gon centered at the origin."""
    if n < 3 or radius <= 0:
        raise ContractViolationError("need n >= 3 and radius > 0")
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    return tuple((float(radius * np.cos(a)), float(radius * np.sin(a))) for a in ang)


def _signed_area(vertices: Sequence[Tuple[float, float]]) -> float:
    """Shoelace area of a polygon, positive when it runs counterclockwise."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def shoelace_centroid(vertices: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Area centroid of a simple polygon."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = _signed_area(v)
    if abs(a) < 1e-12:
        raise ContractViolationError("polygon has zero area")
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return float(cx), float(cy)


def _outline_points(vertices: Sequence[Tuple[float, float]], spacing: float) -> float:
    """How many points _sample_outline puts on an outline, counted from its
    edge lengths without sampling: max(1, round(length / spacing)) per edge."""
    ends = tuple(vertices[1:]) + tuple(vertices[:1])
    lengths = (math.hypot(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(vertices, ends))
    return sum(max(1.0, float(np.rint(length / spacing))) for length in lengths if length >= 1e-12)


def _ccw(vertices: Sequence[Tuple[float, float]]) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    return v if _signed_area(v) > 0 else v[::-1].copy()


def _sample_outline(vertices, spacing) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample points, outward normals and per-point arc lengths of an outline."""
    v = _ccw(vertices)
    pts, nrm, ds = [], [], []
    m = len(v)
    for e in range(m):
        a = v[e]
        b = v[(e + 1) % m]
        d = b - a
        length = float(np.hypot(d[0], d[1]))
        if length < 1e-12:
            continue
        n_pts = max(1, int(round(length / spacing)))
        step = length / n_pts
        frac = (np.arange(n_pts) + 0.5) / n_pts
        pts.append(a[None, :] + frac[:, None] * d[None, :])
        # Outward normal of a counterclockwise outline.
        normal = np.array([d[1], -d[0]]) / length
        nrm.append(np.tile(normal, (n_pts, 1)))
        ds.append(np.full(n_pts, step))
    return np.concatenate(pts), np.concatenate(nrm), np.concatenate(ds)


def _turned(bx, by, c, s) -> Tuple[np.ndarray, np.ndarray]:
    """(c*bx - s*by, s*bx + c*by): points (bx, by) turned by the angle whose
    cosine and sine are c and s, elementwise with broadcasting."""
    x = c * bx
    x -= s * by
    y = s * bx
    y += c * by
    return x, y


def _world(bx, by, tx, ty, c, s, sc) -> Tuple[np.ndarray, np.ndarray]:
    """World x and y of base points (bx, by) under poses (tx, ty, cosine and
    sine of the angle, scale), elementwise with broadcasting:
    tx + sc*(c*bx - s*by) and ty + sc*(s*bx + c*by)."""
    x, y = _turned(bx, by, c, s)
    x *= sc
    x += tx
    y *= sc
    y += ty
    return x, y


def _world_planes(bx, by, pose, translation_only: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Contiguous (k, n) x and y planes of n base points under k poses
    (tx, ty, angle, scale).  Without angle and scale keys the pose is angle 0
    and scale 1, so the planes are tx + bx and ty + by: turning by cos 0 = 1,
    sin 0 = 0 and scaling by 1 are exact up to the sign of a zero, which no
    output depends on."""
    tx, ty, ang, sc = pose
    if translation_only:
        return tx[:, None] + bx, ty[:, None] + by
    return _world(bx, by, tx[:, None], ty[:, None], np.cos(ang)[:, None], np.sin(ang)[:, None], sc[:, None])


def _quiet_bounds(ahead, behind, bx, by, dt) -> Tuple[np.ndarray, np.ndarray]:
    """Per step, a lower and an upper bound on _SUPPRESS_FRACTION *
    hypot(vx, vy) over the cells of a shape that only translates, its
    velocity planes built from the poses `ahead` and `behind` as generate
    builds them.  A cell's velocity ((tx+ + bx) - (tx- + bx)) / dt differs
    from the step's key velocity (tx+ - tx-) / dt only by rounding: by less
    than 6 units of 2**-53 of the step's largest |tx| + |bx|, over dt, in x
    and likewise in y.  The spread, 2**-48 of both sums together over dt,
    covers that and the rounding of the key velocity and its hypot; a
    relative 2**-46 and an absolute 2**-1000 cover the rounding of the
    bounds themselves and of subnormal speeds.  A step whose key does not
    move has every velocity 0, so bounds 0 keep every cell loud, as 0 < 0
    does; a step whose bounds overflow gets -inf and inf."""
    (txp, typ), (txm, tym) = ahead[:2], behind[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # such steps are wide
        key = np.hypot((txp - txm) / dt, (typ - tym) / dt)
        reach = np.maximum(abs(txp), abs(txm)) + abs(bx).max() + np.maximum(abs(typ), abs(tym)) + abs(by).max()
        spread = reach * 2.0**-48 / dt
        lower = (key - spread) * (_SUPPRESS_FRACTION * (1 - 2.0**-46)) - 2.0**-1000
        upper = (key + spread) * (_SUPPRESS_FRACTION * (1 + 2.0**-46)) + 2.0**-1000
        wide = ~(np.isfinite(4 * reach) & np.isfinite(4 * (key + spread)))
    lower[wide], upper[wide] = -np.inf, np.inf
    still = (txp == txm) & (typ == tym)
    lower[still], upper[still] = 0.0, 0.0
    return lower, upper


def _quiet_cells(gain, vx, vy, lower, upper) -> np.ndarray:
    """gain < _SUPPRESS_FRACTION * hypot(vx, vy), per cell of (k, n) planes,
    given per-row bounds on the right side (_quiet_bounds): a gain below
    the lower bound is quiet, one at or above the upper bound is not, and
    only the cells between take the hypot."""
    quiet = gain < lower[:, None]
    unsure = gain < upper[:, None]
    unsure ^= quiet
    if unsure.any():
        kk, ii = np.nonzero(unsure)
        quiet[kk, ii] = gain[kk, ii] < np.hypot(vx[kk, ii], vy[kk, ii]) * _SUPPRESS_FRACTION
    return quiet


@dataclass
class GeneratedScene:
    """Events with per-event source labels plus true center trajectories."""

    events: EventStream
    labels: np.ndarray
    geometry: SensorGeometry
    centers_t: np.ndarray
    centers_obj: np.ndarray
    centers_xy: np.ndarray
    duration: float

    def sped_up(self, factor: float) -> "GeneratedScene":
        """The same recording replayed `factor` times faster: event times,
        center times and duration divided by the factor, all else shared."""
        # The last event and center sample may fall a little after the duration.
        end = max(self.duration, float(self.events.t.max(initial=0.0)), float(self.centers_t.max(initial=0.0)))
        _check_speed_factor(factor, end)
        return dataclasses.replace(
            self,
            events=EventStream(self.events.t / factor, self.events.x, self.events.y, self.events.p),
            centers_t=self.centers_t / factor,
            duration=self.duration / factor,
        )


def _check_speed_factor(factor: float, duration: float) -> None:
    """Raise unless `factor` is > 0 and the times of a recording of
    `duration`, divided by it, stay finite."""
    if not (factor > 0):
        raise ContractViolationError(f"speed factor must be > 0, got {factor}")
    if not math.isfinite(duration / factor):
        raise ContractViolationError(f"speed factor must keep times finite, got {factor}: {duration} / {factor} overflows")


def generate(scene: SceneSpec, speed_factor: float = 1.0) -> GeneratedScene:
    """Render a scene to a time-sorted labeled event stream.

    speed_factor compresses the recording uniformly: the same events occur,
    timestamps are divided by the factor, so speeds and event rate scale up
    by exactly that factor: generate(scene).sped_up(factor).  Deterministic
    for a fixed scene and factor.
    """
    _check_speed_factor(speed_factor, scene.duration)
    rng = np.random.default_rng(scene.seed)
    # (t, x, y, p, label) column pieces; the empty first one sets the dtypes.
    pieces = [(np.zeros(0), *[np.zeros(0, dtype=int)] * 4)]
    dt = scene.dt
    n_steps = int(round(scene.duration / dt))
    for shape in scene.shapes:
        base, normals, ds = _sample_outline(shape.vertices, scene.spacing)
        bx, by = base.T.copy()
        nrm_x, nrm_y = normals.T.copy()
        # Accumulator phases staggered along the outline so neighboring
        # points never fire in the same instant; simultaneous bursts would
        # leave nothing for the correlation filter to support.
        acc = (0.1 * np.arange(len(base))) % 1.0
        for k0 in range(0, n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, n_steps)
            times = (np.arange(k0, k1) + 0.5) * dt
            half = 0.5 * dt
            ahead, behind = shape.keys.pose(times + half), shape.keys.pose(times - half)
            vx, vy = _world_planes(bx, by, ahead, shape.keys.translation_only)
            mx, my = _world_planes(bx, by, behind, shape.keys.translation_only)
            vx -= mx
            vx /= dt
            vy -= my
            vy /= dt
            tx, ty, ang, sc = shape.keys.pose(times)
            c, s = np.cos(ang), np.sin(ang)
            # Normal velocity vx*nx + vy*ny, (nx, ny) the outward normals
            # turned by the angle (left as they are without angle and scale
            # keys, exact as in _world_planes).
            if shape.keys.translation_only:
                nx, ny = nrm_x, nrm_y
            else:
                nx, ny = _turned(nrm_x, nrm_y, c[:, None], s[:, None])
            vn = vx * nx
            vn += vy * ny
            # Accumulator gain per step: rate * dt, the rate |vn| * ds / spacing**2
            # or 0 where the outline moves almost along itself.
            # mx and my are free again: mx takes the speed of a shape that turns
            # or scales, my the accumulators.
            gain = np.abs(vn)
            if shape.keys.translation_only:
                quiet = _quiet_cells(gain, vx, vy, *_quiet_bounds(ahead, behind, bx, by, dt))
            else:
                speed = np.hypot(vx, vy, out=mx)
                speed *= _SUPPRESS_FRACTION
                quiet = gain < speed
            gain *= ds
            gain /= scene.spacing * scene.spacing
            gain[quiet] = 0.0
            gain *= dt
            grown = np.cumsum(gain, axis=0, out=my)
            grown += acc
            # A point fires in each step where the floor of its accumulator rises.
            level = np.floor(grown)
            fired = np.empty(level.shape, dtype=bool)
            np.greater(level[0], np.floor(acc), out=fired[0])
            np.greater(level[1:], level[:-1], out=fired[1:])
            kk, ii = np.divmod(np.flatnonzero(fired), len(base))
            before = np.where(kk > 0, grown[kk - 1, ii], acc[ii])
            acc = grown[-1].copy()
            if not len(kk):
                continue
            frac = (np.floor(before) + 1.0 - before) / np.maximum(gain[kk, ii], 1e-300)
            t_emit = (kk + k0) * dt + np.clip(frac, 0.0, 1.0) * dt
            x, y = _world(bx[ii], by[ii], tx[kk], ty[kk], c[kk], s[kk], sc[kk])
            px = np.rint(x).astype(int)
            py = np.rint(y).astype(int)
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
    events = EventStream(t[order], x[order], y[order], p[order])
    ct = np.arange(0.0, scene.duration + 0.5 * scene.centers_stride, scene.centers_stride)
    ct = ct[ct <= scene.duration + 1e-12]
    centers = [(np.zeros(0), np.zeros(0, dtype=int), np.zeros((0, 2)))]  # (t, object, xy) pieces
    for shape in scene.shapes:
        cx0, cy0 = shoelace_centroid(shape.vertices)
        tx, ty, ang, sc = shape.keys.pose(ct)
        c, s = np.cos(ang), np.sin(ang)
        cx = tx + sc * (c * cx0 - s * cy0)
        cy = ty + sc * (s * cx0 + c * cy0)
        centers.append((ct, np.full(len(ct), shape.shape_id), np.stack([cx, cy], axis=1)))
    centers_t, centers_obj, centers_xy = map(np.concatenate, zip(*centers))
    return GeneratedScene(
        events=events,
        labels=lab[order].astype(int),
        geometry=scene.geometry,
        centers_t=centers_t,
        centers_obj=centers_obj,
        centers_xy=centers_xy,
        duration=scene.duration,
    ).sped_up(speed_factor)


def scene_to_dict(scene: SceneSpec) -> dict:
    """A scene as one key per field of SceneSpec, ShapeSpec and Keyframes, in
    declaration order, tuples nested as they are declared."""
    return dataclasses.asdict(scene)


def scene_from_dict(d: dict) -> SceneSpec:
    """The scene that a dict of scene_to_dict's form describes: a key with a
    default may be left out, an unknown key is ignored.  A value of the
    wrong form raises ContractViolationError."""
    try:
        return _decoded(SceneSpec, d)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ContractViolationError(f"bad scene description: {exc}") from exc


def _decoded(kind, value):
    """`value`, read from JSON, as the declared type `kind` of a scene field:
    a dataclass from a dict of its fields, a tuple from a list, an int or a
    float through int() or float(), and an `object` as it is."""
    if dataclasses.is_dataclass(kind):
        hints = get_type_hints(kind)
        fields = [f.name for f in dataclasses.fields(kind) if f.name in value or f.default is dataclasses.MISSING]
        return kind(**{name: _decoded(hints[name], value[name]) for name in fields})
    if get_origin(kind) is tuple:
        args = get_args(kind)
        if args[-1] is Ellipsis:
            return tuple(_decoded(args[0], v) for v in value)
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(value)}")
        return tuple(map(_decoded, args, value))
    return value if kind is object else kind(value)


def load_scene(path: str) -> SceneSpec:
    """Read a scene saved by save_scene, a UTF-8 JSON file.  A path that is
    not a file raises FileNotFoundError, anything else unreadable ParseError."""
    try:
        d = json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    try:
        return scene_from_dict(d)
    except ContractViolationError as exc:
        raise ParseError(path, None, str(exc)) from exc


def save_scene(scene: SceneSpec, path: str) -> None:
    atomic_write_text(path, [json.dumps(scene_to_dict(scene), indent=2) + "\n"])
