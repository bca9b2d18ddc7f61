"""Reference scene codec for the synth tests.

scene_to_dict and scene_from_dict list every field of SceneSpec, ShapeSpec
and Keyframes by hand, with the defaults of the optional ones: the codec
that evshift.synth's, driven by the dataclass declarations, replaced.  Both
must read a dict to the same scene, or both refuse it, and a file that this
scene_to_dict wrote must load to the scene it came from.
"""

from __future__ import annotations

from evshift.errors import ContractViolationError
from evshift.synth import Keyframes, SceneSpec, ShapeSpec


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ContractViolationError(f"bad scene description: {exc}") from exc
