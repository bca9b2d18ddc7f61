"""Multi-target tracking of cluster centroids with per-target Kalman filters.

State per target is [x, y, vx, vy] under a constant-velocity model driven
by white acceleration noise.  Measurements are cluster centroids in pixel
coordinates.  Association is greedy nearest neighbor inside a gate; track
lifecycle is hit/miss counting with a confirmation threshold and a miss
limit.  Track ids are never reused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContractViolationError, NumericalError, require_finite


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DEAD = "dead"


@dataclass(frozen=True)
class TrackerParams:
    """Association gate, noise intensities and lifecycle thresholds."""

    gate: float = 15.0
    q_var: float = 100.0
    r_var: float = 4.0
    confirm_hits: int = 3
    max_misses: int = 10

    def __post_init__(self):
        require_finite(self)
        if not (self.gate > 0):
            raise ContractViolationError(f"gate must be > 0, got {self.gate}")
        if not (self.q_var >= 0 and self.r_var > 0):
            raise ContractViolationError(f"q_var must be >= 0 and r_var > 0: {self.q_var}, {self.r_var}")
        if self.confirm_hits < 1 or self.max_misses < 1:
            raise ContractViolationError("confirm_hits and max_misses must be >= 1")


@dataclass
class Measurement:
    """One cluster centroid presented to the tracker."""

    t: float
    position: np.ndarray
    cluster_id: int
    mass: int = 0


def transition_matrix(dt: float) -> np.ndarray:
    a = np.eye(4)
    a[0, 2] = dt
    a[1, 3] = dt
    return a


def process_noise(dt: float, q_var: float) -> np.ndarray:
    """Process covariance of integrated white acceleration over dt."""
    d3 = dt ** 3 / 3.0
    d2 = dt ** 2 / 2.0
    return q_var * np.array(
        [
            [d3, 0.0, d2, 0.0],
            [0.0, d3, 0.0, d2],
            [d2, 0.0, dt, 0.0],
            [0.0, d2, 0.0, dt],
        ]
    )


MEASUREMENT_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


@dataclass
class Track:
    """One tracked target: filter state plus lifecycle counters."""

    track_id: int
    state: np.ndarray
    covariance: np.ndarray
    t: float
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 1
    misses: int = 0
    last_cluster_id: int = -1
    measured_t: float = float("nan")
    last_measurement: Optional[np.ndarray] = None

    @property
    def position(self) -> np.ndarray:
        return self.state[:2].copy()

    @property
    def velocity(self) -> np.ndarray:
        return self.state[2:].copy()


def make_track(track_id: int, m: Measurement, params: TrackerParams) -> Track:
    """Start a track at a measurement with zero velocity.

    Position variance equals the measurement variance; velocity variance is
    large because velocity is unobserved until a second association.
    """
    state = np.array([m.position[0], m.position[1], 0.0, 0.0])
    cov = np.diag([params.r_var, params.r_var, 1e4, 1e4])
    return Track(
        track_id=track_id,
        state=state,
        covariance=cov,
        t=m.t,
        last_cluster_id=m.cluster_id,
        measured_t=m.t,
        last_measurement=np.asarray(m.position, dtype=float).copy(),
    )


def predict(track: Track, t: float, params: TrackerParams) -> None:
    """Advance the filter to time t in place."""
    dt = t - track.t
    if dt < 0:
        raise ContractViolationError(f"prediction time went backwards: {track.t} -> {t}")
    a = transition_matrix(dt)
    track.state = a @ track.state
    track.covariance = a @ track.covariance @ a.T + process_noise(dt, params.q_var)
    track.t = t


def update(track: Track, m: Measurement, params: TrackerParams) -> None:
    """Fuse one centroid measurement in place.

    Uses the Joseph form of the covariance update plus symmetrization so the
    covariance stays positive semidefinite under roundoff.
    """
    h = MEASUREMENT_MATRIX
    r = params.r_var * np.eye(2)
    s = h @ track.covariance @ h.T + r
    try:
        k = np.linalg.solve(s, h @ track.covariance).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular innovation covariance: {exc}") from exc
    innovation = m.position - h @ track.state
    track.state = track.state + k @ innovation
    ikh = np.eye(4) - k @ h
    track.covariance = ikh @ track.covariance @ ikh.T + k @ r @ k.T
    track.covariance = 0.5 * (track.covariance + track.covariance.T)
    track.last_cluster_id = m.cluster_id
    track.measured_t = m.t
    track.last_measurement = np.asarray(m.position, dtype=float).copy()


def associate(
    tracks: List[Track],
    measurements: List[Measurement],
    gate: float,
) -> List[Tuple[int, int]]:
    """Greedy nearest-neighbor assignment of measurements to live tracks.

    Candidate pairs inside the gate are sorted by (distance, track_id,
    cluster_id) and taken greedily, each track and each measurement at most
    once.  The tie-break keys make the result order independent.
    """
    cands = []
    for ti, tr in enumerate(tracks):
        if tr.status is TrackStatus.DEAD:
            continue
        for mi, m in enumerate(measurements):
            d = float(np.linalg.norm(tr.position - m.position))
            if d <= gate:
                cands.append((d, tr.track_id, m.cluster_id, ti, mi))
    cands.sort()
    used_t: set[int] = set()
    used_m: set[int] = set()
    pairs = []
    for _, _, _, ti, mi in cands:
        if ti in used_t or mi in used_m:
            continue
        used_t.add(ti)
        used_m.add(mi)
        pairs.append((ti, mi))
    return pairs


def step(
    tracks: List[Track],
    measurements: List[Measurement],
    t: float,
    params: TrackerParams,
    next_id: int,
) -> Tuple[List[Track], int]:
    """One tracker cycle: predict, associate, update, lifecycle, spawn.

    Mutates the given tracks; returns (tracks, next_id).  Dead tracks stay
    in the list so ids are never reissued.  Hits count the current run of
    consecutive associations; a miss resets the run.
    """
    for tr in tracks:
        if tr.status is not TrackStatus.DEAD:
            predict(tr, t, params)
    pairs = associate(tracks, measurements, params.gate)
    matched_t = {ti for ti, _ in pairs}
    matched_m = {mi for _, mi in pairs}
    for ti, mi in pairs:
        tr = tracks[ti]
        update(tr, measurements[mi], params)
        if tr.misses == 0:
            tr.hits += 1
        else:
            tr.hits = 1
        tr.misses = 0
        if tr.status is TrackStatus.TENTATIVE and tr.hits >= params.confirm_hits:
            tr.status = TrackStatus.CONFIRMED
    for ti, tr in enumerate(tracks):
        if tr.status is TrackStatus.DEAD or ti in matched_t:
            continue
        tr.misses += 1
        if tr.misses >= params.max_misses:
            tr.status = TrackStatus.DEAD
    for mi, m in enumerate(measurements):
        if mi in matched_m:
            continue
        tracks.append(make_track(next_id, m, params))
        next_id += 1
    return tracks, next_id


class Tracker:
    """Stateful wrapper around the functional tracking cycle."""

    def __init__(self, params: Optional[TrackerParams] = None):
        self.params = params or TrackerParams()
        self.tracks: List[Track] = []
        self._next_id = 0
        self._last_t: Optional[float] = None

    def observe(self, t: float, measurements: List[Measurement]) -> List[Track]:
        """Feed the centroids of one packet; returns live tracks."""
        if self._last_t is not None and t < self._last_t:
            raise ContractViolationError(f"tracker time went backwards: {self._last_t} -> {t}")
        self._last_t = t
        self.tracks, self._next_id = step(self.tracks, measurements, t, self.params, self._next_id)
        return self.live_tracks()

    def live_tracks(self) -> List[Track]:
        return [tr for tr in self.tracks if tr.status is not TrackStatus.DEAD]

    def confirmed_tracks(self) -> List[Track]:
        return [tr for tr in self.tracks if tr.status is TrackStatus.CONFIRMED]
