"""End-to-end wiring: noise filter, packetizer, clustering, tracking.

Packets are clustered one after another, in packet order; tracking is
stateful and follows the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .clustering import ClusterLabeling, MeanShiftParams, cluster_centroids, cluster_packet
from .errors import ContractViolationError
from .events import DecayParams, Event, Packet, SensorGeometry, as_stream, packetize
from .filtering import FilterParams, filter_stream
from .io import LabeledEvents, TrackRow
from .tracking import Measurement, Tracker, TrackerParams


@dataclass(frozen=True)
class PipelineParams:
    """Parameters of every stage in one place."""

    packet_size: int = 500
    decay: DecayParams = field(default_factory=DecayParams)
    filter_params: Optional[FilterParams] = field(default_factory=FilterParams)
    ms_params: MeanShiftParams = field(default_factory=MeanShiftParams)
    tracker_params: TrackerParams = field(default_factory=TrackerParams)


def cluster_packets(packets: Sequence[Packet], params: MeanShiftParams) -> List[ClusterLabeling]:
    """Cluster packets in packet order."""
    return [cluster_packet(p, params) for p in packets]


@dataclass
class PipelineResult:
    """Everything the batch run produced, in packet order."""

    packets: List[Packet]
    labelings: List[ClusterLabeling]
    labeled: LabeledEvents
    track_rows: List[TrackRow]
    tracker: Tracker
    n_raw: int
    n_filtered: int

    @property
    def kernel_ops(self) -> int:
        return sum(lab.ops_count for lab in self.labelings)


def make_packets(
    events: Iterable[Event],
    geom: SensorGeometry,
    params: PipelineParams,
) -> tuple[List[Packet], int, int]:
    """Filter and packetize a stream; returns (packets, n_raw, n_kept)."""
    kept = events = as_stream(events)
    if params.filter_params is not None:
        kept = filter_stream(events, params.filter_params, geom)
    packets = list(packetize(kept, params.packet_size, geom, params.decay))
    return packets, len(events), len(kept)


def labeled_from_packets(
    packets: Sequence[Packet], labelings: Sequence[ClusterLabeling], first_id: int = 0
) -> LabeledEvents:
    """Flatten per-packet labels into one row per event, packet ids counted
    from `first_id`."""
    if len(packets) != len(labelings):
        raise ContractViolationError(f"{len(packets)} packets but {len(labelings)} labelings")

    def cat(parts, dtype) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype=dtype), *parts])

    return LabeledEvents(
        t=cat([pkt.t for pkt in packets], float),
        x=cat([pkt.x for pkt in packets], int),
        y=cat([pkt.y for pkt in packets], int),
        p=cat([pkt.p for pkt in packets], int),
        packet_id=np.repeat(np.arange(first_id, first_id + len(packets)), [len(pkt) for pkt in packets]),
        cluster_id=cat([lab.labels for lab in labelings], int),
    )


def track_labelings(labeled: LabeledEvents, params: TrackerParams) -> tuple[List[TrackRow], Tracker]:
    """Feed per-packet cluster centroids through the tracker, packet by
    packet in ascending packet id, through track_packet."""
    tracker = Tracker(params)
    rows: List[TrackRow] = []
    for _, idx in labeled.packet_groups():
        rows += track_packet(tracker, labeled[idx])
    return rows, tracker


def track_packet(tracker: Tracker, packet: LabeledEvents) -> List[TrackRow]:
    """Observe the cluster centroids of one packet's rows at the packet's
    newest timestamp; one row per live track after it.

    Raw centroid columns are NaN for a track that coasted on prediction
    alone in this packet.
    """
    t = float(packet.t.max())
    ids, centroids, masses = cluster_centroids(packet.cluster_id, packet.x, packet.y)
    tracker.observe(t, [
        Measurement(t=t, position=pos, cluster_id=int(cid), mass=int(mass))
        for cid, pos, mass in zip(ids, centroids, masses)
    ])
    rows = []
    for tr in tracker.live_tracks():
        fresh = tr.last_measurement is not None and tr.measured_t == t
        raw = tr.last_measurement if fresh else (math.nan, math.nan)
        # state is x, y, vx, vy; raw is the centroid measured at t
        rows.append(TrackRow(t, tr.track_id, *map(float, tr.state), tr.status.value, *map(float, raw)))
    return rows


def run_pipeline(
    events: Iterable[Event],
    geom: SensorGeometry,
    params: Optional[PipelineParams] = None,
) -> PipelineResult:
    """Run the whole batch pipeline over an event stream."""
    params = params or PipelineParams()
    packets, n_raw, n_kept = make_packets(events, geom, params)
    labelings = cluster_packets(packets, params.ms_params)
    labeled = labeled_from_packets(packets, labelings)
    track_rows, tracker = track_labelings(labeled, params.tracker_params)
    return PipelineResult(
        packets=packets,
        labelings=labelings,
        labeled=labeled,
        track_rows=track_rows,
        tracker=tracker,
        n_raw=n_raw,
        n_filtered=n_kept,
    )
