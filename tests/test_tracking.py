"""Kalman tracking checked against frozen hand-computed matrix arithmetic.

The one-step reference numbers were produced independently with plain dense
matrix operations (predict, gain, Joseph update) at full float64 precision
and are frozen here as literals.  The stacked tracker is also checked bit
for bit against the list-based one in tracking_oracle.py.
"""

import math

import numpy as np
import pytest
import tracking_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from evshift.clustering import NOISE
from evshift.errors import ContractViolationError, NumericalError
from evshift.tracking import (
    MEASUREMENT_MATRIX,
    Measurement,
    Measurements,
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
    _distances,
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
    assert len(tracker.tracks) == 1  # the track that died in the latest observe
    tracker.observe(0.03, [meas(0.03, 120, 90)])
    assert [tr.track_id for tr in tracker.tracks] == [1]


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


# --- the stacked tracker against the list-based one it replaced ------------

def track_fields(tr):
    """Every field of a track, floats as their bits."""
    bits = lambda a: np.asarray(a, dtype=float).tobytes()
    return (tr.track_id, tr.status, bits(tr.state), bits(tr.covariance), bits(tr.t), tr.hits, tr.misses,
            tr.last_cluster_id, bits(tr.measured_t), bits(tr.last_measurement))


@st.composite
def packet_runs(draw):
    """Tracker settings and a run of packets: (observe time, measurements).

    Positions sit on a coarse grid and many steps are zero, so gate
    distances tie; measurement times may lag the observe time, so tracks
    born in one packet can step by different dt in the next."""
    params = TrackerParams(
        gate=draw(st.sampled_from([2.0, 5.0, 15.0])),
        q_var=draw(st.sampled_from([0.0, 100.0])),
        r_var=draw(st.sampled_from([1.0, 4.0])),
        confirm_hits=draw(st.integers(1, 3)),
        max_misses=draw(st.integers(1, 3)),
    )
    t, packets = 0.0, []
    for _ in range(draw(st.integers(1, 25))):
        t += draw(st.sampled_from([0.0, 0.0, 1e-3, 2.5e-3, 0.02]))
        ms = [
            Measurement(t=t - draw(st.sampled_from([0.0, 0.0, 5e-4])),
                        position=np.array([draw(st.integers(0, 12)), draw(st.integers(0, 12))], dtype=float) * 1.5,
                        cluster_id=draw(st.integers(0, 4)))
            for _ in range(draw(st.integers(0, 5)))
        ]
        packets.append((t, ms))
    return params, packets


@settings(max_examples=300, deadline=None)
@given(run=packet_runs())
def test_stacked_tracker_equals_the_list_based_one(run):
    params, packets = run
    new, old = Tracker(params), oracle.Tracker(params)
    for t, ms in packets:
        was_dead = {tr.track_id for tr in old.tracks if tr.status is TrackStatus.DEAD}
        new.observe(t, ms)
        old.observe(t, ms)
        died = [tr for tr in old.tracks if tr.status is TrackStatus.DEAD and tr.track_id not in was_dead]
        assert [track_fields(tr) for tr in new.tracks] == [track_fields(tr) for tr in old.live_tracks() + died]
        assert new._next_id == old._next_id


def test_columns_and_measurement_objects_give_the_same_tracks():
    ms = [meas(0.0, 3, 4, cid=2), meas(0.0, 30, 40, cid=0)]
    a, b = Tracker(PARAMS), Tracker(PARAMS)
    for t in (0.0, 0.01, 0.02):
        a.observe(t, [Measurement(t, m.position + 100 * t, m.cluster_id) for m in ms])
        b.observe(t, Measurements(np.full(2, t), np.array([m.position + 100 * t for m in ms]), np.array([2, 0])))
    assert [track_fields(tr) for tr in a.tracks] == [track_fields(tr) for tr in b.tracks]


def test_stacked_distance_has_the_bits_of_norm():
    # a sum of squares or hypot rounds differently on about one pair in ten
    rng = np.random.default_rng(5)
    for scale in (1.0, 240.0, 1e6):
        a, b = rng.uniform(-scale, scale, (40, 2)), rng.uniform(-scale, scale, (30, 2))
        want = [[np.linalg.norm(p - q) for q in b] for p in a]
        assert _distances(a, b).tobytes() == np.array(want).tobytes()


def test_tracker_keeps_only_live_rows_after_many_deaths():
    params = TrackerParams(gate=5.0, confirm_hits=2, max_misses=2)
    tracker = Tracker(params)
    for k in range(200):
        # a new target far from every earlier one, each seen twice and then lost
        t = 0.01 * k
        tracker.observe(t, [meas(t, 20 * (k // 2), 0)])
    assert tracker._next_id == 100
    assert len(tracker.live) == len(tracker.live_tracks()) <= 3
    assert tracker.live.track_id.tolist() == sorted(tracker.live.track_id.tolist())
    assert {tr.track_id for tr in tracker.tracks} <= set(range(96, 100))


@pytest.mark.parametrize("gap", [1e103, math.inf])
def test_overflowing_prediction_raises_before_any_state_changes(gap):
    tracker = Tracker(PARAMS)
    tracker.observe(0.0, [meas(0.0, 5, 5)])
    tracker.observe(0.01, [meas(0.01, 6, 5)])
    before = [track_fields(tr) for tr in tracker.tracks]
    with pytest.raises(NumericalError):
        tracker.observe(gap, [meas(gap, 7, 5)])
    assert [track_fields(tr) for tr in tracker.tracks] == before
    tracker.observe(0.02, [])  # the failed observe did not move the tracker's clock
    track = make_track(0, meas(0.0, 5, 5), PARAMS)
    with pytest.raises(NumericalError):
        predict(track, gap, PARAMS)
    assert track.t == 0.0


def test_cluster_centroids_sparse_ids_and_noise():
    labels = np.array([4, NOISE, 1, 4, 1, 1, NOISE])
    x = np.array([10, 99, 0, 13, 2, 7, 50])
    y = np.array([5, 99, 1, 6, 1, 1, 50])
    ids, centroids, masses = oracle.cluster_centroids(labels, x, y)
    assert ids.tolist() == [1, 4]
    assert masses.tolist() == [3, 2]
    assert np.array_equal(centroids, [[3.0, 1.0], [11.5, 5.5]])
    ids, centroids, masses = oracle.cluster_centroids(np.full(3, NOISE), x[:3], y[:3])
    assert len(ids) == len(masses) == 0
    assert centroids.shape == (0, 2)
