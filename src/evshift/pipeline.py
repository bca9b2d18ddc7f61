"""End-to-end wiring: noise filter, packetizer, clustering, tracking.

process_packets is the one loop from packets to labels and tracks: it
clusters each packet and hands its centroids straight to the tracker.
run_pipeline, cluster_packets and `evshift cluster` all go through it, on
packets cut by events.packet_chunks.  `evshift track` tracks labeled rows
read back from a file with the same per-packet step, observed_rows, on the
centroids of packet_centroids, which sums labeled rows per (packet id,
cluster id), chunk by chunk and in any packet order, and holds no rows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .clustering import NOISE, ClusterLabeling, MeanShiftParams, cluster_packet
from .errors import ContractViolationError
from .events import DecayParams, Event, Packet, SensorGeometry, as_stream, packetize
from .filtering import FilterParams, filter_stream
from .io import LabeledEvents, TrackRow
from .tracking import Measurements, Tracker, TrackerParams


@dataclass(frozen=True)
class PipelineParams:
    """Parameters of every stage in one place."""

    packet_size: int = 500
    decay: DecayParams = field(default_factory=DecayParams)
    filter_params: Optional[FilterParams] = field(default_factory=FilterParams)
    ms_params: MeanShiftParams = field(default_factory=MeanShiftParams)
    tracker_params: TrackerParams = field(default_factory=TrackerParams)


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


def observed_rows(tracker: Tracker, t: float, measurements: Measurements) -> List[TrackRow]:
    """Observe one packet's cluster centroids at time t, then give one row
    per live track.  Raw centroid columns are NaN for a track that coasted
    on prediction alone in this packet."""
    tracker.observe(t, measurements)
    live = tracker.live
    raw = np.where((live.measured_t == t)[:, None], live.last_measurement, math.nan)
    status = [st.value for st in live.status()]
    # state is x, y, vx, vy; raw is the centroid measured at t
    return [
        TrackRow(t, *fields)
        for fields in zip(live.track_id.tolist(), *live.state.T.tolist(), status, *raw.T.tolist())
    ]


def process_packets(
    packets: Iterable[Packet], ms_params: MeanShiftParams, tracker: Optional[Tracker] = None
) -> Iterator[Tuple[Packet, ClusterLabeling, List[TrackRow]]]:
    """Cluster packets in packet order and yield (packet, labeling, track
    rows) for each.  With a tracker, it observes the labeling's centroids,
    cluster ids 0..k-1, at the packet's newest timestamp; without one the
    track rows are empty.  Holds nothing from one packet to the next."""
    for packet in packets:
        lab = cluster_packet(packet, ms_params)
        k, t = lab.n_clusters, packet.t_ref
        measurements = Measurements(np.full(k, t), lab.centroids, np.arange(k))
        yield packet, lab, [] if tracker is None else observed_rows(tracker, t, measurements)


def cluster_packets(packets: Iterable[Packet], params: MeanShiftParams) -> List[ClusterLabeling]:
    """Cluster packets in packet order."""
    return [lab for _, lab, _ in process_packets(packets, params)]


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


class PacketIdsGoBack(Exception):
    """A labeled file whose packet ids go back, which is tracked in packet
    id order."""


# Labeled rows grouped by (packet id, cluster id), as columns: the ids, the
# newest timestamp, the x and y coordinate sums and the row count.
_Groups = namedtuple("_Groups", "packet_id cluster_id t x y count")


def _grouped(parts: Sequence[_Groups]) -> _Groups:
    """The groups of all parts, not all empty, added up in packet id and then
    cluster id order; the parts of one group are added in the order given."""
    pid, cid, t, x, y, count = map(np.concatenate, zip(*parts))
    order = np.lexsort((cid, pid))
    sorted_pid, sorted_cid = pid[order], cid[order]
    new = np.r_[True, (sorted_pid[1:] != sorted_pid[:-1]) | (sorted_cid[1:] != sorted_cid[:-1])]
    starts = np.flatnonzero(new)
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1  # where each input group goes, in input order
    sums = (np.bincount(group, weights=column) for column in (x, y, count))
    return _Groups(sorted_pid[starts], sorted_cid[starts], np.maximum.reduceat(t[order], starts), *sums)


def _centroids(groups: _Groups) -> Iterator[Tuple[float, Measurements]]:
    """The newest timestamp and the cluster centroids of each packet of
    groups, in packet id order; NOISE groups count only for the timestamp."""
    _, starts = np.unique(groups.packet_id, return_index=True)
    cluster = groups.cluster_id != NOISE
    ids = groups.cluster_id[cluster]
    position = np.column_stack([groups.x, groups.y])[cluster] / groups.count[cluster, None]
    bounds = np.cumsum(np.r_[0, cluster])[np.append(starts, len(cluster))].tolist()
    for t, lo, hi in zip(np.maximum.reduceat(groups.t, starts).tolist(), bounds, bounds[1:]):
        yield t, Measurements(np.full(hi - lo, t), position[lo:hi], ids[lo:hi])


def packet_centroids(chunks: Iterable[LabeledEvents], in_order: bool = True) -> Iterator[Tuple[float, Measurements]]:
    """The newest timestamp and the cluster centroids, at that time, of each
    packet of labeled rows in chunks, none empty, in packet id order; NOISE
    rows count only for the timestamp.  In order, a packet is given once a
    chunk goes on past it, and only the last packet's groups are carried;
    PacketIdsGoBack where a packet id falls below the one before it.
    Otherwise each chunk's groups are kept and added up at the end.

    Coordinate sums are exact while they stay below 2**53 in magnitude, so
    a centroid has the bits that cluster_packet gives over the whole packet
    at once.  Past that they round, and a centroid's bits may depend on
    where the chunks split the packet.
    """
    held: List[_Groups] = []  # in order, the last packet's groups; otherwise each chunk's
    for chunk in chunks:
        pid = chunk.packet_id
        rows = _Groups(pid, chunk.cluster_id, chunk.t, chunk.x, chunk.y, np.ones(len(pid)))  # a group per row
        if not in_order:
            held.append(_grouped([rows]))
            continue
        if (held and pid[0] < held[0].packet_id[0]) or (pid[1:] < pid[:-1]).any():
            raise PacketIdsGoBack
        groups = _grouped([*held, rows])
        last = np.searchsorted(groups.packet_id, pid[-1])
        yield from _centroids(_Groups(*(column[:last] for column in groups)))
        held = [_Groups(*(column[last:] for column in groups))]
    if held:
        yield from _centroids(_grouped(held))


def run_pipeline(
    events: Iterable[Event],
    geom: SensorGeometry,
    params: Optional[PipelineParams] = None,
) -> PipelineResult:
    """Run the whole batch pipeline over an event stream."""
    params = params or PipelineParams()
    packets, n_raw, n_kept = make_packets(events, geom, params)
    tracker = Tracker(params.tracker_params)
    done = list(process_packets(packets, params.ms_params, tracker))
    labelings = [lab for _, lab, _ in done]
    return PipelineResult(
        packets=packets,
        labelings=labelings,
        labeled=labeled_from_packets(packets, labelings),
        track_rows=[row for _, _, rows in done for row in rows],
        tracker=tracker,
        n_raw=n_raw,
        n_filtered=n_kept,
    )
