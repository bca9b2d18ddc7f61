"""End-to-end wiring: noise filter, packetizer, clustering, tracking.

process_packets is the one loop from packets to labels and tracks: it
clusters each packet and hands its centroids straight to the tracker.
run_pipeline, cluster_packets and `evshift cluster` all go through it, on
packets cut by events.packet_chunks.  `evshift track` tracks labeled rows
read back from a file with the same per-packet step, observed_rows, on the
centroids of packet_centroids.
"""

from __future__ import annotations

import math
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


@dataclass
class _PacketSums:
    """Per-cluster coordinate sums (g, 2) and counts of the rows of one
    packet read so far, cluster ids ascending, and their newest timestamp."""

    packet_id: int
    t: float
    ids: np.ndarray
    sums: np.ndarray
    counts: np.ndarray

    def merged(self, more: "_PacketSums") -> "_PacketSums":
        ids, inverse = np.unique(np.concatenate([self.ids, more.ids]), return_inverse=True)
        sums, counts = np.zeros((len(ids), 2)), np.zeros(len(ids), dtype=int)
        np.add.at(sums, inverse, np.concatenate([self.sums, more.sums]))
        np.add.at(counts, inverse, np.concatenate([self.counts, more.counts]))
        return _PacketSums(self.packet_id, float(np.maximum(self.t, more.t)), ids, sums, counts)

    def measurements(self) -> Measurements:
        return Measurements(np.full(len(self.ids), self.t), self.sums / self.counts[:, None], self.ids)


def _run_sums(chunk: LabeledEvents) -> Iterator[_PacketSums]:
    """The sums of each run of rows with one packet id in a chunk, in order."""
    pid = chunk.packet_id
    starts = np.flatnonzero(np.r_[True, pid[1:] != pid[:-1]])
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(pid)))
    keep = chunk.cluster_id != NOISE
    ids, inverse = np.unique(chunk.cluster_id[keep], return_inverse=True)
    # one group per (run, cluster), ordered by run and then by cluster id
    keys, group, counts = np.unique(run[keep] * len(ids) + inverse, return_inverse=True, return_counts=True)
    sums = np.column_stack([np.bincount(group, weights=c[keep], minlength=len(keys)) for c in (chunk.x, chunk.y)])
    bounds = np.searchsorted(keys, np.arange(len(starts) + 1) * len(ids))
    newest = np.maximum.reduceat(chunk.t, starts)
    for r, start in enumerate(starts.tolist()):
        g = slice(bounds[r], bounds[r + 1])
        yield _PacketSums(int(pid[start]), float(newest[r]), ids[keys[g] - r * len(ids)], sums[g], counts[g])


def packet_centroids(chunks: Iterable[LabeledEvents]) -> Iterator[Tuple[float, Measurements]]:
    """The newest timestamp and the cluster centroids, at that time, of each
    packet of labeled rows in chunks, packet by packet in file order; a
    packet is a run of rows with one packet id, and NOISE rows count only
    for its timestamp.  PacketIdsGoBack where a packet id falls below the
    one before it.

    No rows are held: each chunk adds to per-(packet, cluster) coordinate
    sums and counts.  While a packet's coordinate sums stay below 2**53 in
    magnitude they are exact, so a centroid has the bits that cluster_packet
    gives over the whole packet at once.  Past that they round,
    and a centroid's bits may depend on where the chunks split the packet.
    """
    pending: Optional[_PacketSums] = None  # the packet that the next chunk may go on with
    for chunk in chunks:
        pid = chunk.packet_id
        if len(pid) == 0:
            continue
        if (pending is not None and pid[0] < pending.packet_id) or (pid[1:] < pid[:-1]).any():
            raise PacketIdsGoBack
        for part in _run_sums(chunk):
            if pending is not None and pending.packet_id == part.packet_id:
                part = pending.merged(part)
            elif pending is not None:
                yield pending.t, pending.measurements()
            pending = part
    if pending is not None:
        yield pending.t, pending.measurements()


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
