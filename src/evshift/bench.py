"""Event-driven versus frame-driven processing cost comparison.

The cost unit is data points consumed per second of recording: events
entering the clustering stage, and centroids entering the tracking stage.
The frame-driven baseline processes every pixel of every frame, so its
rate is fps * width * height regardless of scene activity.  Kernel
evaluation counts are carried alongside as a separate diagnostic; they
are not the unit the reduction is computed in.

An optional capacity cap models a consumer that cannot keep up: packets
beyond the event budget of the recording's duration are dropped evenly,
so detections per second flatten once the input rate passes the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import ContractViolationError
from .events import SensorGeometry
from .io import _write_csv
from .pipeline import PipelineParams, cluster_packets, make_packets
from .synth import GeneratedScene, SceneSpec, _check_speed_factor, generate

DEFAULT_FPS = 30.0


def _check_inputs(
    factors: Sequence[float] = (), fps: float = DEFAULT_FPS, capacity: Optional[float] = None, duration: float = 0.0
) -> None:
    """Raise where a capacity, the fps or a speed factor for a scene of
    `duration` is out of range."""
    if capacity is not None and not (capacity > 0):
        raise ContractViolationError(f"capacity must be > 0, got {capacity}")
    if not (fps > 0):
        raise ContractViolationError(f"fps must be > 0, got {fps}")
    for factor in factors:
        _check_speed_factor(factor, duration)


def frame_baseline(geom: SensorGeometry, fps: float = DEFAULT_FPS) -> float:
    """Pixels per second a frame-driven consumer must process."""
    _check_inputs(fps=fps)
    return fps * geom.width * geom.height


@dataclass
class CostRow:
    """Cost accounting for one speed factor."""

    factor: float
    ms_ops_per_s: float
    track_ops_per_s: float
    frame_baseline: float
    reduction: float
    detections_per_s: float
    kernel_evals_per_s: float = 0.0
    n_events_raw: int = 0
    n_events_kept: int = 0
    n_packets: int = 0
    n_processed_packets: int = 0
    duration: float = 0.0

    @property
    def tracking_share(self) -> float:
        total = self.ms_ops_per_s + self.track_ops_per_s
        return self.track_ops_per_s / total if total > 0 else 0.0


@dataclass
class CostReport:
    rows: List[CostRow]
    geometry: SensorGeometry
    fps: float


def _shed_packets(n_packets: int, packet_size: int, duration: float, capacity: Optional[float]) -> np.ndarray:
    """Indices of the packets a rate-capped consumer gets through.

    The budget is capacity * duration events; packets are dropped evenly
    across the recording, which is what a steadily overloaded consumer
    does to a steady stream.
    """
    if capacity is None or n_packets == 0:
        return np.arange(n_packets)
    _check_inputs(capacity=capacity)
    budget = int(capacity * duration // packet_size)
    n_proc = min(n_packets, budget)
    if n_proc <= 0:
        return np.arange(0)
    i = np.arange(n_packets)
    keep = ((i + 1) * n_proc) // n_packets > (i * n_proc) // n_packets
    return np.flatnonzero(keep)


def measure_factor(
    scene: SceneSpec,
    factor: float,
    params: PipelineParams,
    fps: float = DEFAULT_FPS,
    capacity: Optional[float] = None,
) -> CostRow:
    """Generate the scene at one speed factor and account its cost."""
    _check_inputs([factor], fps, capacity, scene.duration)
    return _account(generate(scene, speed_factor=factor), factor, params, fps, capacity)


def _account(
    gen: GeneratedScene, factor: float, params: PipelineParams, fps: float, capacity: Optional[float]
) -> CostRow:
    """The cost row of one rendered recording, played at speed `factor`."""
    geom = gen.geometry
    packets, n_raw, n_kept = make_packets(gen.events, geom, params)
    duration = gen.duration
    if duration <= 0:
        raise ContractViolationError(f"scene duration must be > 0, got {duration}")
    idx = _shed_packets(len(packets), params.packet_size, duration, capacity)
    processed = [packets[i] for i in idx]
    labelings = cluster_packets(processed, params.ms_params)
    ms_points = sum(len(p) for p in processed)
    centroids = sum(lab.n_clusters for lab in labelings)
    kernel_evals = sum(lab.ops_count for lab in labelings)
    baseline = frame_baseline(geom, fps)
    ms_rate = ms_points / duration
    track_rate = centroids / duration
    return CostRow(
        factor=factor,
        ms_ops_per_s=ms_rate,
        track_ops_per_s=track_rate,
        frame_baseline=baseline,
        reduction=1.0 - (ms_rate + track_rate) / baseline,
        detections_per_s=centroids / duration,
        kernel_evals_per_s=kernel_evals / duration,
        n_events_raw=n_raw,
        n_events_kept=n_kept,
        n_packets=len(packets),
        n_processed_packets=len(processed),
        duration=duration,
    )


def run_sweep(
    scene: SceneSpec,
    factors: Sequence[float],
    params: Optional[PipelineParams] = None,
    fps: float = DEFAULT_FPS,
    capacity: Optional[float] = None,
) -> CostReport:
    """Cost rows for a scene replayed at several speed factors.  The scene
    is rendered once: a speed factor only divides the times."""
    if not factors:
        raise ContractViolationError("need at least one speed factor")
    _check_inputs(factors, fps, capacity, scene.duration)  # before the scene is rendered
    params = params or PipelineParams()
    gen = generate(scene)
    rows = [_account(gen.sped_up(f), f, params, fps, capacity) for f in factors]
    return CostReport(rows=rows, geometry=scene.geometry, fps=fps)


COST_COLUMNS = (
    ("factor", float), ("ms_ops_per_s", float), ("track_ops_per_s", float),
    ("frame_baseline", float), ("reduction", float), ("detections_per_s", float),
)
COST_HEADER = [name for name, _ in COST_COLUMNS]


def write_cost_csv(path: str, report: CostReport) -> None:
    _write_csv(path, COST_COLUMNS, [[getattr(r, name) for r in report.rows] for name in COST_HEADER])
