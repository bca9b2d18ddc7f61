import dataclasses
import math

import numpy as np
import tracking_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from evshift.clustering import MeanShiftParams, cluster_packet
from evshift.events import DecayParams, Event, EventStream, SensorGeometry, make_packet
from evshift.pipeline import (
    PipelineParams,
    cluster_packets,
    labeled_from_packets,
    make_packets,
    process_packets,
    run_pipeline,
)
from evshift.synth import Keyframes, SceneSpec, ShapeSpec, generate
from evshift.tracking import Tracker, TrackerParams

GEOM = SensorGeometry(100, 60)
MS = MeanShiftParams(bandwidth_h=0.1, epsilon=1e-3, max_iters=100, merge_radius=0.05, min_cluster_size=5)


def blob_events(cx, cy, t0, n=8):
    out = []
    for i in range(n):
        out.append(Event(t=t0 + i * 1e-4, x=cx + (i % 3) - 1, y=cy + (i % 2), p=True))
    return out


def tiny_scene(noise_rate=200.0):
    shape = ShapeSpec(
        shape_id=0,
        vertices=((-7.0, -7.0), (7.0, -7.0), (7.0, 7.0), (-7.0, 7.0)),
        keys=Keyframes(t=(0.0, 0.4), x=(20.0, 70.0), y=(30.0, 30.0)),
    )
    return SceneSpec(width=100, height=60, duration=0.4, shapes=(shape,), noise_rate=noise_rate, seed=5)


def test_make_packets_applies_filter():
    gen = generate(tiny_scene())
    params = PipelineParams(packet_size=50)
    packets, n_raw, n_kept = make_packets(gen.events, gen.geometry, params)
    assert n_raw == len(gen.events)
    assert n_kept < n_raw  # isolated noise dropped
    assert sum(len(p) for p in packets) == n_kept
    assert all(len(p) == 50 for p in packets[:-1])
    no_filter = PipelineParams(packet_size=50, filter_params=None)
    _, _, kept_all = make_packets(gen.events, gen.geometry, no_filter)
    assert kept_all == n_raw


def test_labeled_rows_align_with_packets():
    pkt1 = make_packet(blob_events(20, 20, 0.0), GEOM, DecayParams())
    pkt2 = make_packet(blob_events(60, 40, 0.01), GEOM, DecayParams())
    labs = [cluster_packet(p, MS) for p in (pkt1, pkt2)]
    rows = labeled_from_packets([pkt1, pkt2], labs)
    assert len(rows) == 16
    assert rows.packet_id.tolist() == [0] * 8 + [1] * 8
    assert np.array_equal(rows.cluster_id[:8], labs[0].labels)
    assert np.array_equal(rows.t[:8], [e.t for e in pkt1.events])


def test_track_rows_mark_coasting_with_nan():
    pkt1 = make_packet(blob_events(20, 20, 0.0), GEOM, DecayParams())
    # second packet is activity elsewhere, so track 0 coasts
    pkt2 = make_packet(blob_events(60, 40, 0.01), GEOM, DecayParams())
    tracker = Tracker(TrackerParams())
    rows = [row for _, _, packet_rows in process_packets([pkt1, pkt2], MS, tracker) for row in packet_rows]
    first = [r for r in rows if r.t == pkt1.t_ref]
    assert len(first) == 1
    assert not math.isnan(first[0].raw_cx)
    second = {r.track_id: r for r in rows if r.t == pkt2.t_ref}
    assert math.isnan(second[0].raw_cx) and math.isnan(second[0].raw_cy)
    assert not math.isnan(second[1].raw_cx)
    assert len(tracker.tracks) == 2


def test_cluster_packets_keeps_packet_order():
    gen = generate(tiny_scene(noise_rate=0.0))
    params = PipelineParams(packet_size=60)
    packets, _, _ = make_packets(gen.events, gen.geometry, params)
    assert len(packets) >= 4
    labelings = cluster_packets(packets, MS)
    assert len(labelings) == len(packets)
    for packet, lab in zip(packets, labelings):
        assert np.array_equal(lab.labels, cluster_packet(packet, MS).labels)


def test_run_pipeline_end_to_end_counts():
    gen = generate(tiny_scene())
    params = PipelineParams(packet_size=50)
    res = run_pipeline(gen.events, gen.geometry, params)
    assert res.n_raw == len(gen.events)
    assert res.n_filtered == sum(len(p) for p in res.packets)
    assert len(res.labeled) == res.n_filtered
    assert len(res.labelings) == len(res.packets)
    assert res.kernel_ops == sum(lab.ops_count for lab in res.labelings)
    assert res.kernel_ops > 0
    assert len(res.track_rows) > 0
    assert len(res.tracker.confirmed_tracks()) >= 1


@st.composite
def packet_runs(draw):
    """Packets in time order, some of them one event, some too small or too
    spread for any cluster to keep, and some the packet before them again,
    later: the same events that differ only in time.  A gap of 0 lets two
    packets share a timestamp."""
    packets, t0 = [], 0.0
    for _ in range(draw(st.integers(1, 8))):
        if packets and draw(st.booleans()):
            last = packets[-1]
            t, x, y, p = last.t - last.t[0] + t0, last.x, last.y, last.p
        else:
            n = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 40))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            centers = rng.integers([5, 5], [95, 55], (draw(st.integers(1, 3)), 2))
            spread = draw(st.sampled_from([1, 3, 30]))
            xy = centers[rng.integers(0, len(centers), n)] + rng.integers(-spread, spread + 1, (n, 2))
            x, y = np.clip(xy[:, 0], 0, GEOM.width - 1), np.clip(xy[:, 1], 0, GEOM.height - 1)
            t, p = t0 + 1e-4 * np.sort(rng.integers(0, 10, n)), rng.integers(0, 2, n)
        packets.append(make_packet(EventStream(t, x, y, p), GEOM, DecayParams()))
        t0 = float(t[-1]) + 1e-3 * draw(st.integers(0, 20))
    return packets


@settings(max_examples=60, deadline=None)
@given(packets=packet_runs(), min_cluster_size=st.sampled_from([1, 3, 5]))
def test_core_gives_the_track_rows_of_the_labels_to_tracks_oracle(packets, min_cluster_size):
    ms = dataclasses.replace(MS, min_cluster_size=min_cluster_size)
    tracker = Tracker(TrackerParams())
    done = list(process_packets(packets, ms, tracker))
    assert all(got is packet for (got, _, _), packet in zip(done, packets)) and len(done) == len(packets)
    labelings = [lab for _, lab, _ in done]
    want, want_tracker = tracking_oracle.track_labelings(labeled_from_packets(packets, labelings), TrackerParams())
    rows = [row for _, _, packet_rows in done for row in packet_rows]
    assert tracking_oracle.row_bits(rows) == tracking_oracle.row_bits(want)
    assert tracker._next_id == want_tracker._next_id
    for packet, lab, _ in done:
        ids, centroids, masses = tracking_oracle.cluster_centroids(lab.labels, packet.x, packet.y)
        assert ids.tolist() == list(range(lab.n_clusters))
        assert lab.centroids.shape == centroids.shape == (lab.n_clusters, 2)
        assert lab.centroids.tobytes() == centroids.tobytes()
        assert lab.masses.dtype == masses.dtype and lab.masses.tolist() == masses.tolist()
