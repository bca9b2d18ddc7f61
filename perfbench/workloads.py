"""Inputs and drivers of the benchmark workloads.

Each workload is a closed loop: one driver in one process calls evshift
and waits for every result before it starts the next packet or command.
Set-up renders a built-in scene with the requested seed and writes the
input files; a pass then runs the workload over those files once.

Run as a script, this module performs one set-up:
    python3 workloads.py setup '<workload json>' SEED OUT_DIR
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as _stringio
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

PACKET_SIZE = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "cluster" runs filter -> packetize -> cluster_packet and
    Tracker.observe per packet -> CSV writes through the public functions;
    kind "ingest" runs the `filter` and `track` commands through
    evshift.cli.main on a stream whose labels come from the generator.
    duration_s, when set, shortens the scene: its shapes move as in the
    full built-in scene, and only the background noise is drawn anew.
    """

    name: str
    scene: str
    kind: str
    duration_s: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {
    # Merge costs more than seek: about 4 iterations per seed.
    "reference": Workload("reference", "reference", "cluster"),
    # Seek dominates: a long convergence tail (p99 about 48 iterations).
    # Rendered at 3.5 s, about 120 packets; the full 10 s take about a minute.
    "stability": Workload("stability", "stability", "cluster", duration_s=3.5),
    # No mean shift at all: io, events, filtering, tracking and the CLI on
    # the full 10 s stream.
    "ingest": Workload("ingest", "stability", "ingest"),
}


def scene_for(w: Workload, seed: Optional[int]):
    """The workload's scene; seed None keeps the built-in seed."""
    from evshift import scenes

    scene = scenes.build_scene(w.scene)
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if w.duration_s is not None:
        changes["duration"] = w.duration_s
    return dataclasses.replace(scene, **changes)


def write_inputs(w: Workload, seed: Optional[int], out: Path) -> None:
    """Render the scene and write events.txt, truth.csv, centers.csv and,
    for ingest, labeled.csv (generator labels, packet_id = index // 500)."""
    import numpy as np
    from evshift import io, synth

    gen = synth.generate(scene_for(w, seed))
    out.mkdir(parents=True, exist_ok=True)
    io.write_events(str(out / "events.txt"), gen.events, gen.geometry)
    io.write_truth(str(out / "truth.csv"), gen.events, gen.labels)
    io.write_centers(str(out / "centers.csv"), gen.centers_t, gen.centers_obj, gen.centers_xy)
    if w.kind == "ingest":
        n = len(gen.events)
        labeled = io.LabeledEvents(
            t=np.array([e.t for e in gen.events], dtype=float),
            x=np.array([e.x for e in gen.events], dtype=int),
            y=np.array([e.y for e in gen.events], dtype=int),
            p=np.array([int(e.p) for e in gen.events], dtype=int),
            packet_id=np.arange(n) // PACKET_SIZE,
            cluster_id=np.asarray(gen.labels, dtype=int),
        )
        io.write_labeled_events(str(out / "labeled.csv"), labeled)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PassResult:
    """What one pass did, how long it took, and what it wrote.

    segments_s splits the pass's wall time into consecutive pieces that
    every pass of the workload shares (read and filter, each packet, each
    command, the final writes), so passes can be compared piece by piece.
    latencies_s holds one latency per packet, or None for a batch pass,
    where every packet waits for the whole pass.
    """

    segments_s: List[float]
    latencies_s: Optional[List[float]]
    attempted: int
    failed: int
    counts: Dict[str, int]
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.segments_s)

    def fingerprint(self) -> dict:
        return {**self.counts, "digests": self.digests}


def _track_rows(tracker, t: float) -> list:
    """Track-CSV rows after one packet, as evshift.pipeline.track_labelings
    emits them."""
    import math
    from evshift.io import TrackRow

    rows = []
    for tr in tracker.live_tracks():
        fresh = tr.last_measurement is not None and tr.measured_t == t
        rows.append(TrackRow(
            t=t, track_id=tr.track_id,
            x=float(tr.state[0]), y=float(tr.state[1]),
            vx=float(tr.state[2]), vy=float(tr.state[3]),
            status=tr.status.value,
            raw_cx=float(tr.last_measurement[0]) if fresh else math.nan,
            raw_cy=float(tr.last_measurement[1]) if fresh else math.nan,
        ))
    return rows


def cluster_pass(inputs: Path, out: Path) -> PassResult:
    """Read, filter, then per packet: cluster and track; then write CSVs.

    A packet's latency runs from the moment packetize yields it to the
    moment the tracker has observed its centroids.  Functions are looked
    up on their modules at call time so that a traced run sees them.
    """
    from evshift import clustering, events, filtering, io, pipeline, tracking

    params = pipeline.PipelineParams()
    start = time.perf_counter()
    raw, geom = io.read_events(str(inputs / "events.txt"))
    kept = list(filtering.filter_stream(raw, params.filter_params, geom))
    tracker = tracking.Tracker(params.tracker_params)
    packets, labelings, rows, latencies = [], [], [], []
    mark = time.perf_counter()
    segments = [mark - start]
    attempted = failed = 0
    for packet in events.packetize(kept, params.packet_size, geom, params.decay):
        t0 = time.perf_counter()
        attempted += 1
        try:
            lab = clustering.cluster_packet(packet, params.ms_params)
            tracker.observe(packet.t_ref, [
                tracking.Measurement(t=packet.t_ref, position=lab.centroids[c],
                                     cluster_id=c, mass=int(lab.masses[c]))
                for c in range(lab.n_clusters)
            ])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        now = time.perf_counter()
        latencies.append(now - t0)
        segments.append(now - mark)
        mark = now
        packets.append(packet)
        labelings.append(lab)
        rows.extend(_track_rows(tracker, packet.t_ref))
    io.write_labeled_events(str(out / "labeled.csv"), pipeline.labeled_from_packets(packets, labelings))
    io.write_tracks(str(out / "tracks.csv"), rows)
    segments.append(time.perf_counter() - mark)
    counts = {
        "raw_events": len(raw),
        "kept_events": len(kept),
        "packets": len(packets),
        "kernel_evals": sum(lab.ops_count for lab in labelings),
    }
    return PassResult(segments, latencies, attempted, failed, counts,
                      {name: digest(out / name) for name in ("labeled.csv", "tracks.csv")})


def cli_run(argv: List[str]) -> Dict[str, str]:
    """Run one evshift command in this process; its `key = value` lines."""
    from evshift import cli

    buf = _stringio.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"evshift {argv[0]} exited {rc}")
    return dict(line.split(" = ", 1) for line in buf.getvalue().splitlines() if " = " in line)


def ingest_pass(inputs: Path, out: Path) -> PassResult:
    """`evshift filter` on the raw stream, then `evshift track` on the
    generator-labeled CSV.  This is a batch job: no packet's tracks exist
    before the pass ends, so every packet's latency is the pass wall time."""
    commands = [
        ["filter", "--in", str(inputs / "events.txt"), "--out", str(out / "kept.txt")],
        ["track", "--in", str(inputs / "labeled.csv"), "--out", str(out / "tracks.csv")],
    ]
    printed: Dict[str, str] = {}
    segments = []
    failed = 0
    for argv in commands:
        start = time.perf_counter()
        try:
            printed.update(cli_run(argv))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        segments.append(time.perf_counter() - start)
    counts = {
        "raw_events": int(printed.get("events_in", 0)),
        "kept_events": int(printed.get("events_out", 0)),
        "packets": int(printed.get("packets", 0)),
        "kernel_evals": 0,
    }
    digests = {name: digest(out / name) for name in ("kept.txt", "tracks.csv") if (out / name).exists()}
    return PassResult(segments, None, len(commands), failed, counts, digests)


PASSES: Dict[str, Callable[[Path, Path], PassResult]] = {"cluster": cluster_pass, "ingest": ingest_pass}


def output_checks(w: Workload, inputs: Path, out: Path, first: PassResult) -> Dict[str, bool]:
    """Read the outputs back and check them against an independent count."""
    from evshift import filtering, io, pipeline

    checks: Dict[str, bool] = {}
    tracks = io.read_tracks(str(out / "tracks.csv"))
    checks["tracks_read_back"] = len(tracks) > 0
    if w.kind == "cluster":
        labeled = io.read_labeled_events(str(out / "labeled.csv"))
        checks["labeled_rows_equal_kept"] = len(labeled) == first.counts["kept_events"]
    else:
        raw, geom = io.read_events(str(inputs / "events.txt"))
        kept = sum(1 for _ in filtering.filter_stream(raw, pipeline.PipelineParams().filter_params, geom))
        checks["events_out_equals_filter_stream"] = kept == first.counts["kept_events"]
    return checks


def scores(w: Workload, inputs: Path, out: Path) -> Dict[str, float]:
    """Quality against the generator truth, through the eval commands."""
    labeled = out / "labeled.csv" if w.kind == "cluster" else inputs / "labeled.csv"
    cluster = cli_run(["eval-cluster", "--pred", str(labeled), "--truth", str(inputs / "truth.csv")])
    track = cli_run(["eval-track", "--tracks", str(out / "tracks.csv"), "--centers", str(inputs / "centers.csv")])
    return {"pair_f": float(cluster["mean_f"]), "track_err_px": float(track["mean_error"])}


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "setup":
        sys.exit(__doc__)
    spec = Workload(**json.loads(sys.argv[2]))
    write_inputs(spec, int(sys.argv[3]), Path(sys.argv[4]))
