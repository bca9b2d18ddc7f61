"""Kalman tracking checked against frozen hand-computed matrix arithmetic.

The one-step reference numbers were produced independently with plain dense
matrix operations (predict, gain, Joseph update) at full float64 precision
and are frozen here as literals.
"""

import math

import numpy as np
import pytest

from evshift.errors import ContractViolationError
from evshift.tracking import (
    MEASUREMENT_MATRIX,
    Measurement,
    Track,
    TrackStatus,
    Tracker,
    TrackerParams,
    associate,
    make_track,
    predict,
    process_noise,
    transition_matrix,
    update,
)

PARAMS = TrackerParams(gate=15.0, q_var=100.0, r_var=4.0, confirm_hits=3, max_misses=10)

# Frozen one-step reference: x=[10,20,0,0], P=diag(4,4,1e4,1e4), dt=0.1,
# q_var=100, r_var=4, measurement (12, 21).
ORACLE_STATE = [11.92594878124, 20.96297439062, 18.522061092255, 9.261030546128]
ORACLE_COV = [
    [3.851897562481, 0.0, 37.044122184511, 0.0],
    [0.0, 3.851897562481, 0.0, 37.044122184511],
    [37.044122184511, 0.0, 744.338938599198, 0.0],
    [0.0, 37.044122184511, 0.0, 744.338938599198],
]
ORACLE_TRACE = 1496.3816723233576


def meas(t, x, y, cid=0):
    return Measurement(t=t, position=np.array([float(x), float(y)]), cluster_id=cid)


def test_transition_matrix_structure():
    a = transition_matrix(0.25)
    expect = np.eye(4)
    expect[0, 2] = 0.25
    expect[1, 3] = 0.25
    assert np.array_equal(a, expect)


def test_process_noise_values_and_psd():
    q = process_noise(0.1, 100.0)
    assert q[0, 0] == pytest.approx(0.1 / 3, rel=1e-14)
    assert q[0, 2] == pytest.approx(0.5, rel=1e-14)
    assert q[2, 2] == pytest.approx(10.0, rel=1e-14)
    assert np.array_equal(q, q.T)
    assert np.linalg.eigvalsh(q).min() >= -1e-12
    assert np.all(process_noise(0.0, 100.0) == 0.0)


def test_one_step_matches_frozen_reference():
    track = Track(
        track_id=0,
        state=np.array([10.0, 20.0, 0.0, 0.0]),
        covariance=np.diag([4.0, 4.0, 1e4, 1e4]),
        t=0.0,
    )
    predict(track, 0.1, PARAMS)
    assert np.array_equal(track.state, [10.0, 20.0, 0.0, 0.0])
    assert track.covariance[0, 0] == pytest.approx(104 + 0.1 / 3, rel=1e-14)
    assert track.covariance[0, 2] == pytest.approx(1000.5, rel=1e-14)
    assert track.covariance[2, 2] == pytest.approx(10010.0, rel=1e-14)
    update(track, meas(0.1, 12, 21), PARAMS)
    assert np.allclose(track.state, ORACLE_STATE, atol=1e-9)
    assert np.allclose(track.covariance, ORACLE_COV, atol=1e-8)
    assert float(np.trace(track.covariance)) == pytest.approx(ORACLE_TRACE, rel=1e-12)


def test_predict_rejects_time_reversal():
    track = make_track(0, meas(1.0, 5, 5), PARAMS)
    with pytest.raises(ContractViolationError):
        predict(track, 0.5, PARAMS)


def test_covariance_stays_symmetric_psd_under_long_runs():
    rng = np.random.default_rng(12)
    for _ in range(5):
        track = make_track(0, meas(0.0, 50, 50), PARAMS)
        t = 0.0
        for _ in range(50):
            t += float(rng.uniform(1e-3, 0.1))
            predict(track, t, PARAMS)
            z = rng.uniform(0, 100, size=2)
            update(track, Measurement(t=t, position=z, cluster_id=0), PARAMS)
            c = track.covariance
            assert np.allclose(c, c.T, atol=1e-10)
            assert np.linalg.eigvalsh(c).min() >= -1e-9
            assert np.all(np.isfinite(track.state))


def test_converges_on_constant_velocity_target():
    tracker = Tracker(PARAMS)
    dt = 0.01
    for k in range(1, 41):
        t = k * dt
        x = 5.0 + 40.0 * t
        y = 10.0 - 25.0 * t
        tracker.observe(t, [meas(t, x, y)])
    tracks = tracker.confirmed_tracks()
    assert len(tracks) == 1
    tr = tracks[0]
    t = 40 * dt
    assert np.allclose(tr.position, [5.0 + 40.0 * t, 10.0 - 25.0 * t], atol=0.3)
    assert np.allclose(tr.velocity, [40.0, -25.0], atol=2.0)


def test_make_track_initial_state():
    tr = make_track(7, meas(0.5, 33, 44, cid=9), PARAMS)
    assert tr.track_id == 7
    assert np.array_equal(tr.state, [33.0, 44.0, 0.0, 0.0])
    assert np.array_equal(tr.covariance, np.diag([4.0, 4.0, 1e4, 1e4]))
    assert tr.status is TrackStatus.TENTATIVE
    assert tr.hits == 1
    assert tr.last_cluster_id == 9


def test_association_gate_is_inclusive():
    tracks = [make_track(0, meas(0.0, 0, 0), PARAMS)]
    assert associate(tracks, [meas(0.0, 15.0, 0)], 15.0) == [(0, 0)]
    assert associate(tracks, [meas(0.0, 15.001, 0)], 15.0) == []


def test_association_prefers_closer_pair():
    tracks = [make_track(0, meas(0.0, 0, 0), PARAMS), make_track(1, meas(0.0, 10, 0), PARAMS)]
    pairs = associate(tracks, [meas(0.0, 4, 0)], 15.0)
    assert pairs == [(0, 0)]


def test_association_distance_tie_goes_to_lower_track_id():
    tracks = [make_track(0, meas(0.0, 0, 0), PARAMS), make_track(1, meas(0.0, 8, 0), PARAMS)]
    pairs = associate(tracks, [meas(0.0, 4, 0)], 15.0)
    assert pairs == [(0, 0)]
    # same geometry with ids swapped so position cannot explain the pick
    tracks = [make_track(5, meas(0.0, 0, 0), PARAMS), make_track(2, meas(0.0, 8, 0), PARAMS)]
    pairs = associate(tracks, [meas(0.0, 4, 0)], 15.0)
    assert pairs == [(1, 0)]


def test_association_distance_tie_goes_to_lower_cluster_id():
    tracks = [make_track(0, meas(0.0, 0, 0), PARAMS)]
    ms = [meas(0.0, 3, 0, cid=5), meas(0.0, 3, 0, cid=2)]
    assert associate(tracks, ms, 15.0) == [(0, 1)]


def test_association_each_side_used_once():
    tracks = [make_track(0, meas(0.0, 0, 0), PARAMS), make_track(1, meas(0.0, 2, 0), PARAMS)]
    ms = [meas(0.0, 1, 0, cid=0)]
    assert len(associate(tracks, ms, 15.0)) == 1
    tracks = [make_track(0, meas(0.0, 0, 0), PARAMS)]
    ms = [meas(0.0, 1, 0, cid=0), meas(0.0, 2, 0, cid=1)]
    assert len(associate(tracks, ms, 15.0)) == 1


def test_association_skips_dead_tracks():
    tr = make_track(0, meas(0.0, 0, 0), PARAMS)
    tr.status = TrackStatus.DEAD
    assert associate([tr], [meas(0.0, 1, 0)], 15.0) == []


def test_confirmation_needs_consecutive_hits():
    tracker = Tracker(PARAMS)
    tracker.observe(0.0, [meas(0.0, 50, 50)])
    assert tracker.tracks[0].status is TrackStatus.TENTATIVE
    tracker.observe(0.01, [meas(0.01, 50, 50)])
    assert tracker.tracks[0].status is TrackStatus.TENTATIVE
    tracker.observe(0.02, [meas(0.02, 50, 50)])
    assert tracker.tracks[0].status is TrackStatus.CONFIRMED


def test_miss_resets_consecutive_run():
    tracker = Tracker(PARAMS)
    tracker.observe(0.00, [meas(0.00, 50, 50)])
    tracker.observe(0.01, [meas(0.01, 50, 50)])
    tracker.observe(0.02, [])  # miss with hits at 2
    tracker.observe(0.03, [meas(0.03, 50, 50)])
    tracker.observe(0.04, [meas(0.04, 50, 50)])
    assert tracker.tracks[0].status is TrackStatus.TENTATIVE
    tracker.observe(0.05, [meas(0.05, 50, 50)])
    assert tracker.tracks[0].status is TrackStatus.CONFIRMED


def test_death_after_miss_limit_and_id_not_reused():
    params = TrackerParams(gate=15.0, q_var=100.0, r_var=4.0, confirm_hits=3, max_misses=2)
    tracker = Tracker(params)
    tracker.observe(0.00, [meas(0.00, 50, 50)])
    tracker.observe(0.01, [])
    assert tracker.tracks[0].misses == 1
    tracker.observe(0.02, [])
    assert tracker.tracks[0].status is TrackStatus.DEAD
    assert tracker.live_tracks() == []
    assert len(tracker.tracks) == 1  # dead track kept
    tracker.observe(0.03, [meas(0.03, 120, 90)])
    assert [tr.track_id for tr in tracker.tracks] == [0, 1]


def test_two_spawns_get_increasing_ids():
    tracker = Tracker(PARAMS)
    tracker.observe(0.0, [meas(0.0, 10, 10, cid=0), meas(0.0, 100, 100, cid=1)])
    assert [tr.track_id for tr in tracker.tracks] == [0, 1]


def test_tracker_rejects_time_reversal():
    tracker = Tracker(PARAMS)
    tracker.observe(1.0, [meas(1.0, 10, 10)])
    with pytest.raises(ContractViolationError):
        tracker.observe(0.9, [])
    # equal time is allowed; the prediction interval is just zero
    tracker.observe(1.0, [])


def test_measurement_matrix_picks_position():
    assert np.array_equal(MEASUREMENT_MATRIX @ np.array([1.0, 2.0, 3.0, 4.0]), [1.0, 2.0])


def test_param_validation():
    with pytest.raises(ContractViolationError):
        TrackerParams(gate=0.0)
    with pytest.raises(ContractViolationError):
        TrackerParams(r_var=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractViolationError):
            TrackerParams(gate=bad)
        with pytest.raises(ContractViolationError):
            TrackerParams(q_var=bad)
        with pytest.raises(ContractViolationError):
            TrackerParams(r_var=bad)
    with pytest.raises(ContractViolationError):
        TrackerParams(confirm_hits=0)
