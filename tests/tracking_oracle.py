"""The list-based tracker that evshift.tracking.Tracker replaced, kept as
the reference that its tests compare against bit for bit.

Each track is one Track object with its own 4x4 matrices; dead tracks stay
in the list.  track_labelings is the labels-to-tracks loop over whole
packets with the per-packet centroids of cluster_centroids, the np.unique
centroids that evshift.clustering.cluster_packet once computed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from evshift.clustering import NOISE
from evshift.errors import ContractViolationError, NumericalError
from evshift.io import LabeledEvents, TrackRow
from evshift.tracking import (
    MEASUREMENT_MATRIX,
    Measurement,
    Track,
    TrackerParams,
    TrackStatus,
    process_noise,
    transition_matrix,
)


def cluster_centroids(labels, x, y) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean raw pixel position and event count of every labeled cluster.

    Returns (ids, centroids, masses) in ascending cluster id order; NOISE
    events are left out.  Each coordinate sum is exact for pixel indices,
    so a centroid does not depend on event order.
    """
    labels = np.asarray(labels)
    keep = labels != NOISE
    ids, inverse, masses = np.unique(labels[keep], return_inverse=True, return_counts=True)
    cx = np.bincount(inverse, weights=np.asarray(x)[keep], minlength=len(ids))
    cy = np.bincount(inverse, weights=np.asarray(y)[keep], minlength=len(ids))
    return ids, np.column_stack([cx, cy]) / masses[:, None], masses


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


def track_labelings(labeled: LabeledEvents, params: TrackerParams) -> Tuple[List[TrackRow], Tracker]:
    """Track rows of the packets of labeled rows in ascending packet id, one
    observe per packet at its newest timestamp."""
    tracker = Tracker(params)
    rows: List[TrackRow] = []
    for _, idx in labeled.packet_groups():
        packet = labeled[idx]
        t = float(packet.t.max())
        ids, centroids, masses = cluster_centroids(packet.cluster_id, packet.x, packet.y)
        tracker.observe(t, [
            Measurement(t=t, position=pos, cluster_id=int(cid), mass=int(mass))
            for cid, pos, mass in zip(ids, centroids, masses)
        ])
        for tr in tracker.live_tracks():
            fresh = tr.last_measurement is not None and tr.measured_t == t
            raw = tr.last_measurement if fresh else (math.nan, math.nan)
            rows.append(TrackRow(t, tr.track_id, *map(float, tr.state), tr.status.value, *map(float, raw)))
    return rows, tracker


def row_bits(rows: List[TrackRow]) -> list:
    """Track rows with every float as its bits."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)) for r in rows]
