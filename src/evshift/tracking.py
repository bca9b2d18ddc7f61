"""Multi-target tracking of cluster centroids with per-target Kalman filters.

State per target is [x, y, vx, vy] under a constant-velocity model driven
by white acceleration noise.  Measurements are cluster centroids in pixel
coordinates.  Association is greedy nearest neighbor inside a gate; track
lifecycle is hit/miss counting with a confirmation threshold and a miss
limit.  Track ids are never reused.

The tracker holds its live tracks as stacked arrays, one row per track, and
runs each stage of a cycle on all rows at once: one prediction per distinct
time step, one distance matrix, one Joseph update over the matched rows.
Every row gets the bits that the same stage on that track alone gives, and
make_track, predict and update are that one-track case.  A track leaves the
arrays in the cycle in which it dies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractViolationError, NumericalError, require_finite, require_integer


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
        require_integer(self.confirm_hits, "confirm_hits")
        require_integer(self.max_misses, "max_misses")
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


@dataclass(frozen=True)
class Measurements:
    """The centroids of one packet as columns: times (m,), positions (m, 2)
    and cluster ids (m,)."""

    t: np.ndarray
    position: np.ndarray
    cluster_id: np.ndarray

    def __len__(self) -> int:
        return len(self.cluster_id)

    def __getitem__(self, rows) -> "Measurements":
        return Measurements(self.t[rows], self.position[rows], self.cluster_id[rows])

    @staticmethod
    def of(ms: Sequence[Measurement]) -> "Measurements":
        return Measurements(
            np.array([m.t for m in ms], dtype=float),
            np.array([m.position for m in ms], dtype=float).reshape(len(ms), 2),
            np.array([m.cluster_id for m in ms], dtype=int),
        )


def transition_matrix(dt: float) -> np.ndarray:
    a = np.eye(4)
    a[0, 2] = dt
    a[1, 3] = dt
    return a


def process_noise(dt: float, q_var: float) -> np.ndarray:
    """Process covariance of integrated white acceleration over dt;
    NumericalError where a term is not finite."""
    try:
        d3 = dt ** 3 / 3.0
        d2 = dt ** 2 / 2.0
    except OverflowError:
        d3 = d2 = math.inf
    if not all(math.isfinite(q_var * d) for d in (d3, d2, dt)):
        raise NumericalError(f"process noise over a step of {dt} s is not finite")
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


@dataclass
class TrackTable:
    """Tracks as stacked arrays, one row per track: ids (k,), states (k, 4),
    covariances (k, 4, 4), and per row the time of its state, its current
    runs of hits and misses, whether it is confirmed, and the cluster id,
    time and position (k, 2) of its last measurement."""

    track_id: np.ndarray
    state: np.ndarray
    covariance: np.ndarray
    t: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    confirmed: np.ndarray
    last_cluster_id: np.ndarray
    measured_t: np.ndarray
    last_measurement: np.ndarray

    def __len__(self) -> int:
        return len(self.track_id)

    def __getitem__(self, rows) -> "TrackTable":
        return TrackTable(*(col[rows] for col in vars(self).values()))

    @staticmethod
    def concat(a: "TrackTable", b: "TrackTable") -> "TrackTable":
        return TrackTable(*map(np.concatenate, zip(vars(a).values(), vars(b).values())))

    def status(self, dead: bool = False) -> List[TrackStatus]:
        """The status of each row: DEAD if dead, else from its confirmed flag."""
        if dead:
            return [TrackStatus.DEAD] * len(self)
        return [TrackStatus.CONFIRMED if c else TrackStatus.TENTATIVE for c in self.confirmed.tolist()]

    def tracks(self, dead: bool = False) -> List[Track]:
        """The rows as Track objects whose arrays are views of the rows."""
        return [
            Track(tid, x, p, t, s, hits, misses, cid, mt, z)
            for tid, x, p, t, s, hits, misses, cid, mt, z in zip(
                self.track_id.tolist(), self.state, self.covariance, self.t.tolist(), self.status(dead),
                self.hits.tolist(), self.misses.tolist(), self.last_cluster_id.tolist(),
                self.measured_t.tolist(), self.last_measurement,
            )
        ]


def _swap(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def _spawned(ms: Measurements, first_id: int, r_var: float) -> TrackTable:
    """New tracks at measurements with zero velocity, ids from first_id.

    Position variance equals the measurement variance; velocity variance is
    large because velocity is unobserved until a second association.
    """
    n = len(ms)
    state = np.zeros((n, 4))
    state[:, :2] = ms.position
    cov = np.broadcast_to(np.diag([r_var, r_var, 1e4, 1e4]), (n, 4, 4)).copy()
    return TrackTable(
        np.arange(first_id, first_id + n), state, cov, ms.t.copy(), np.ones(n, dtype=int),
        np.zeros(n, dtype=int), np.zeros(n, dtype=bool), ms.cluster_id.copy(), ms.t.copy(),
        ms.position.copy(),
    )


def _predicted(x: np.ndarray, p: np.ndarray, dt: float, q_var: float) -> Tuple[np.ndarray, np.ndarray]:
    """States (n, 4) and covariances (n, 4, 4) advanced by one step of dt;
    NumericalError where a result is not finite."""
    a = transition_matrix(dt)
    q = process_noise(dt, q_var)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (a @ x[..., None])[..., 0]
        p = a @ p @ a.T + q
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise NumericalError(f"prediction over a step of {dt} s is not finite")
    return x, p


def _updated(x: np.ndarray, p: np.ndarray, z: np.ndarray, r_var: float) -> Tuple[np.ndarray, np.ndarray]:
    """States and covariances fused with positions z (n, 2).

    Uses the Joseph form of the covariance update plus symmetrization so the
    covariance stays positive semidefinite under roundoff.
    """
    h = MEASUREMENT_MATRIX
    r = r_var * np.eye(2)
    hp = h @ p
    try:
        k = _swap(np.linalg.solve(hp @ h.T + r, hp))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular innovation covariance: {exc}") from exc
    innovation = z[..., None] - h @ x[..., None]
    x = x + (k @ innovation)[..., 0]
    ikh = np.eye(4) - k @ h
    p = ikh @ p @ _swap(ikh) + k @ r @ _swap(k)
    return x, 0.5 * (p + _swap(p))


def norms(d: np.ndarray) -> np.ndarray:
    """Euclidean length of each vector along the last axis of `d` (..., 2),
    with the bits of np.linalg.norm of that one vector: both take the square
    root of one BLAS dot product, where an elementwise sum of squares rounds
    differently."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance (k, m) between positions a (k, 2) and b (m, 2),
    with the bits of np.linalg.norm(a[i] - b[j])."""
    return norms(a[:, None, :] - b[None, :, :])


def _pairs(positions: np.ndarray, track_ids: np.ndarray, ms: Measurements, gate: float) -> List[Tuple[int, int]]:
    """Greedy nearest-neighbor (row, measurement) pairs inside the gate.

    Candidate pairs are sorted by (distance, track_id, cluster_id, row,
    measurement) and taken greedily, each row and each measurement at most
    once.  The tie-break keys make the result order independent.
    """
    if len(track_ids) == 0 or len(ms) == 0:
        return []
    d = _distances(positions, ms.position)
    ti, mi = np.nonzero(d <= gate)
    keys = (d[ti, mi], track_ids[ti], ms.cluster_id[mi], ti, mi)
    cands = sorted(zip(*(key.tolist() for key in keys)))
    used_t: set[int] = set()
    used_m: set[int] = set()
    pairs = []
    for _, _, _, a, b in cands:
        if a in used_t or b in used_m:
            continue
        used_t.add(a)
        used_m.add(b)
        pairs.append((a, b))
    return pairs


def make_track(track_id: int, m: Measurement, params: TrackerParams) -> Track:
    """Start a track at a measurement with zero velocity."""
    return _spawned(Measurements.of([m]), track_id, params.r_var).tracks()[0]


def predict(track: Track, t: float, params: TrackerParams) -> None:
    """Advance the filter to time t in place."""
    dt = t - track.t
    if dt < 0:
        raise ContractViolationError(f"prediction time went backwards: {track.t} -> {t}")
    x, p = _predicted(track.state[None], track.covariance[None], float(dt), params.q_var)
    track.state, track.covariance, track.t = x[0], p[0], t


def update(track: Track, m: Measurement, params: TrackerParams) -> None:
    """Fuse one centroid measurement in place."""
    z = np.asarray(m.position, dtype=float).copy()
    x, p = _updated(track.state[None], track.covariance[None], z[None], params.r_var)
    track.state, track.covariance = x[0], p[0]
    track.last_cluster_id = m.cluster_id
    track.measured_t = m.t
    track.last_measurement = z


def associate(
    tracks: List[Track],
    measurements: List[Measurement],
    gate: float,
) -> List[Tuple[int, int]]:
    """Greedy nearest-neighbor assignment of measurements to live tracks,
    as (index in tracks, index in measurements) pairs; see _pairs."""
    live = [ti for ti, tr in enumerate(tracks) if tr.status is not TrackStatus.DEAD]
    positions = np.array([tracks[ti].state[:2] for ti in live], dtype=float).reshape(-1, 2)
    track_ids = np.array([tracks[ti].track_id for ti in live], dtype=int)
    return [(live[a], b) for a, b in _pairs(positions, track_ids, Measurements.of(measurements), gate)]


def _advanced(live: TrackTable, t: float, q_var: float) -> Tuple[np.ndarray, np.ndarray]:
    """States and covariances of tracks predicted to time t, one prediction
    per distinct time step."""
    dt = t - live.t
    if (dt < 0).any():
        i = int(np.argmax(dt < 0))
        raise ContractViolationError(f"prediction time went backwards: {live.t[i]} -> {t}")
    state, cov = live.state.copy(), live.covariance.copy()
    # with return_inverse, np.unique does not import numpy.ma (about 0.5 MB)
    steps, step_of = np.unique(dt, return_inverse=True)
    for i, d in enumerate(steps.tolist()):
        rows = step_of == i
        state[rows], cov[rows] = _predicted(state[rows], cov[rows], d, q_var)
    return state, cov


class Tracker:
    """Multi-target tracker whose live tracks are the rows of one TrackTable,
    `live`, in ascending id order.

    `_next_id` is the id the next new track takes.  `tracks` lists the live
    tracks and then those that died in the latest observe.  An observe
    writes only into arrays that it made, never into those of an earlier
    table, so Track objects built from one stay as they were.
    """

    def __init__(self, params: Optional[TrackerParams] = None):
        self.params = params or TrackerParams()
        self.live = self._died = self._none = _spawned(Measurements.of([]), 0, self.params.r_var)
        self._next_id = 0
        self._last_t: Optional[float] = None

    def observe(self, t: float, measurements: Union[Sequence[Measurement], Measurements]) -> None:
        """One cycle at time t over the centroids of one packet: predict,
        associate, update, lifecycle, spawn.

        Hits count the current run of consecutive associations; a miss
        resets the run.  A failed prediction or update raises before any
        state changes.
        """
        if self._last_t is not None and t < self._last_t:
            raise ContractViolationError(f"tracker time went backwards: {self._last_t} -> {t}")
        ms = measurements if isinstance(measurements, Measurements) else Measurements.of(measurements)
        params, live = self.params, self.live
        state, cov = _advanced(live, t, params.q_var)
        pairs = _pairs(state[:, :2], live.track_id, ms, params.gate)
        ti, mi = np.array(pairs, dtype=int).reshape(-1, 2).T
        if len(ti):
            state[ti], cov[ti] = _updated(state[ti], cov[ti], ms.position[mi], params.r_var)
        hit = np.zeros(len(live), dtype=bool)
        hit[ti] = True
        hits = np.where(hit, np.where(live.misses == 0, live.hits + 1, 1), live.hits)
        misses = np.where(hit, 0, live.misses + 1)
        now = TrackTable(
            live.track_id, state, cov, np.full(len(live), t, dtype=float), hits, misses,
            live.confirmed | (hit & (hits >= params.confirm_hits)),
            live.last_cluster_id.copy(), live.measured_t.copy(), live.last_measurement.copy(),
        )
        now.last_cluster_id[ti] = ms.cluster_id[mi]
        now.measured_t[ti] = ms.t[mi]
        now.last_measurement[ti] = ms.position[mi]
        dead = misses >= params.max_misses
        if dead.any():
            self._died, now = now[dead], now[~dead]
        else:
            self._died = self._none
        if len(mi) < len(ms):
            unmatched = np.ones(len(ms), dtype=bool)
            unmatched[mi] = False
            born = _spawned(ms[unmatched], self._next_id, params.r_var)
            now = TrackTable.concat(now, born)
            self._next_id += len(born)
        self.live = now
        self._last_t = t

    def live_tracks(self) -> List[Track]:
        return self.live.tracks()

    @property
    def tracks(self) -> List[Track]:
        return self.live.tracks() + self._died.tracks(dead=True)

    def confirmed_tracks(self) -> List[Track]:
        return [tr for tr in self.live_tracks() if tr.status is TrackStatus.CONFIRMED]
