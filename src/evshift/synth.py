"""Synthetic event streams from moving polygon outlines.

Shapes are closed polygons moving along piecewise-linear pose trajectories
(translation, rotation, uniform scale).  Outline sample points emit events
at a rate proportional to the velocity component along the outward normal,
via per-point accumulators, so event density matches the area the outline
sweeps.  Background noise is a uniform Poisson process.  Every event
carries the id of the shape that produced it (-1 for noise), and the true
center trajectory of each shape is reported on a fixed time grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ContractViolationError, ParseError
from .events import EventStream, SensorGeometry

NOISE_LABEL = -1

# Fraction of speed below which normal motion emits nothing: outlines moving
# almost parallel to themselves produce no contrast change.
_SUPPRESS_FRACTION = 0.1

# Time steps rendered per block of a shape's outline motion.
_CHUNK_STEPS = 2000


@dataclass(frozen=True)
class Keyframes:
    """Piecewise-linear pose trajectory sampled at key times."""

    t: Tuple[float, ...]
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    angle: Tuple[float, ...] = ()
    scale: Tuple[float, ...] = ()

    def __post_init__(self):
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
        if len(self.vertices) < 3:
            raise ContractViolationError("polygon needs at least 3 vertices")
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
        if self.width < 1 or self.height < 1:
            raise ContractViolationError("sensor must be at least 1x1")
        if not (self.duration > 0):
            raise ContractViolationError(f"duration must be > 0, got {self.duration}")
        if not (self.spacing > 0):
            raise ContractViolationError(f"spacing must be > 0, got {self.spacing}")
        if self.noise_rate < 0:
            raise ContractViolationError(f"noise rate must be >= 0, got {self.noise_rate}")
        if not (self.dt > 0) or not (self.centers_stride > 0):
            raise ContractViolationError("dt and centers_stride must be > 0")
        ids = [s.shape_id for s in self.shapes]
        if len(set(ids)) != len(ids):
            raise ContractViolationError(f"duplicate shape ids: {ids}")

    @property
    def geometry(self) -> SensorGeometry:
        return SensorGeometry(self.width, self.height)


def regular_polygon(n: int, radius: float, phase: float = 0.0) -> Tuple[Tuple[float, float], ...]:
    """Vertices of a regular n-gon centered at the origin."""
    if n < 3 or radius <= 0:
        raise ContractViolationError("need n >= 3 and radius > 0")
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    return tuple((float(radius * np.cos(a)), float(radius * np.sin(a))) for a in ang)


def shoelace_centroid(vertices: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Area centroid of a simple polygon."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    if abs(a) < 1e-12:
        raise ContractViolationError("polygon has zero area")
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return float(cx), float(cy)


def _ccw(vertices: Sequence[Tuple[float, float]]) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    a = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return v if a > 0 else v[::-1].copy()


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


def _pose_points(base: np.ndarray, tx, ty, ang, sc) -> np.ndarray:
    """World positions (k, n, 2) of base points under the poses at k times."""
    c, s = np.cos(ang), np.sin(ang)
    rx = c[:, None] * base[None, :, 0] - s[:, None] * base[None, :, 1]
    ry = s[:, None] * base[None, :, 0] + c[:, None] * base[None, :, 1]
    out = np.empty((len(tx), len(base), 2))
    out[:, :, 0] = tx[:, None] + sc[:, None] * rx
    out[:, :, 1] = ty[:, None] + sc[:, None] * ry
    return out


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


def generate(scene: SceneSpec, speed_factor: float = 1.0) -> GeneratedScene:
    """Render a scene to a time-sorted labeled event stream.

    speed_factor compresses the recording uniformly: the same events occur,
    timestamps are divided by the factor, so speeds and event rate scale up
    by exactly that factor.  Deterministic for a fixed scene and factor.
    """
    if not (speed_factor > 0):
        raise ContractViolationError(f"speed factor must be > 0, got {speed_factor}")
    rng = np.random.default_rng(scene.seed)
    # (t, x, y, p, label) column pieces; the empty first one sets the dtypes.
    pieces = [(np.zeros(0), *[np.zeros(0, dtype=int)] * 4)]
    dt = scene.dt
    n_steps = int(round(scene.duration / dt))
    for shape in scene.shapes:
        base, normals, ds = _sample_outline(shape.vertices, scene.spacing)
        n_pts = len(base)
        # Accumulator phases staggered along the outline so neighboring
        # points never fire in the same instant; simultaneous bursts would
        # leave nothing for the correlation filter to support.
        acc = (0.1 * np.arange(n_pts)) % 1.0
        for k0 in range(0, n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, n_steps)
            times = (np.arange(k0, k1) + 0.5) * dt
            tx, ty, ang, sc = shape.keys.pose(times)
            pos = _pose_points(base, tx, ty, ang, sc)
            half = 0.5 * dt
            txp, typ, angp, scp = shape.keys.pose(times + half)
            txm, tym, angm, scm = shape.keys.pose(times - half)
            vel = (_pose_points(base, txp, typ, angp, scp) - _pose_points(base, txm, tym, angm, scm)) / dt
            c, s = np.cos(ang), np.sin(ang)
            nx = c[:, None] * normals[None, :, 0] - s[:, None] * normals[None, :, 1]
            ny = s[:, None] * normals[None, :, 0] + c[:, None] * normals[None, :, 1]
            vn = vel[:, :, 0] * nx + vel[:, :, 1] * ny
            speed = np.hypot(vel[:, :, 0], vel[:, :, 1])
            rate = np.abs(vn) * ds[None, :] / (scene.spacing * scene.spacing)
            rate[np.abs(vn) < _SUPPRESS_FRACTION * speed] = 0.0
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
    events = EventStream(t[order] / speed_factor, x[order], y[order], p[order])
    ct = np.arange(0.0, scene.duration + 0.5 * scene.centers_stride, scene.centers_stride)
    ct = ct[ct <= scene.duration + 1e-12]
    centers = [(np.zeros(0), np.zeros(0, dtype=int), np.zeros((0, 2)))]  # (t, object, xy) pieces
    for shape in scene.shapes:
        cx0, cy0 = shoelace_centroid(shape.vertices)
        tx, ty, ang, sc = shape.keys.pose(ct)
        c, s = np.cos(ang), np.sin(ang)
        cx = tx + sc * (c * cx0 - s * cy0)
        cy = ty + sc * (s * cx0 + c * cy0)
        centers.append((ct / speed_factor, np.full(len(ct), shape.shape_id), np.stack([cx, cy], axis=1)))
    centers_t, centers_obj, centers_xy = map(np.concatenate, zip(*centers))
    return GeneratedScene(
        events=events,
        labels=lab[order].astype(int),
        geometry=scene.geometry,
        centers_t=centers_t,
        centers_obj=centers_obj,
        centers_xy=centers_xy,
        duration=scene.duration / speed_factor,
    )


def scene_to_dict(scene: SceneSpec) -> dict:
    return {
        "width": scene.width,
        "height": scene.height,
        "duration": scene.duration,
        "spacing": scene.spacing,
        "noise_rate": scene.noise_rate,
        "seed": scene.seed,
        "dt": scene.dt,
        "centers_stride": scene.centers_stride,
        "shapes": [
            {
                "shape_id": s.shape_id,
                "vertices": [list(v) for v in s.vertices],
                "polarity": s.polarity,
                "keys": {
                    "t": list(s.keys.t),
                    "x": list(s.keys.x),
                    "y": list(s.keys.y),
                    "angle": list(s.keys.angle),
                    "scale": list(s.keys.scale),
                },
            }
            for s in scene.shapes
        ],
    }


def scene_from_dict(d: dict) -> SceneSpec:
    try:
        shapes = tuple(
            ShapeSpec(
                shape_id=int(s["shape_id"]),
                vertices=tuple((float(a), float(b)) for a, b in s["vertices"]),
                polarity=s.get("polarity", "motion"),
                keys=Keyframes(
                    t=tuple(float(v) for v in s["keys"]["t"]),
                    x=tuple(float(v) for v in s["keys"]["x"]),
                    y=tuple(float(v) for v in s["keys"]["y"]),
                    angle=tuple(float(v) for v in s["keys"].get("angle", ())),
                    scale=tuple(float(v) for v in s["keys"].get("scale", ())),
                ),
            )
            for s in d["shapes"]
        )
        return SceneSpec(
            width=int(d["width"]),
            height=int(d["height"]),
            duration=float(d["duration"]),
            shapes=shapes,
            spacing=float(d.get("spacing", 0.5)),
            noise_rate=float(d.get("noise_rate", 0.0)),
            seed=int(d.get("seed", 0)),
            dt=float(d.get("dt", 1e-4)),
            centers_stride=float(d.get("centers_stride", 1e-3)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractViolationError(f"bad scene description: {exc}") from exc


def load_scene(path: str) -> SceneSpec:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    try:
        return scene_from_dict(d)
    except ContractViolationError as exc:
        raise ParseError(path, 0, str(exc)) from exc


def save_scene(scene: SceneSpec, path: str) -> None:
    from .io import atomic_write_text

    atomic_write_text(path, [json.dumps(scene_to_dict(scene), indent=2) + "\n"])
