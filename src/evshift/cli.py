"""Command-line interface.

Subcommands compose through files: synth writes an event stream plus truth
sidecars, filter rewrites a stream, cluster turns a stream into per-event
labels, track turns labels into track states, the eval commands score
labels and tracks against truth, bench writes the cost comparison table.
All outputs are written atomically and identically for identical inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import defaultdict, deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bench import run_sweep, write_cost_csv
from .clustering import NOISE
from .config import _FIELD_TYPES, RunConfig, load_config_file, merge_config
from .errors import (
    ContractViolationError,
    EmptyAlignmentError,
    EvshiftError,
    NumericalError,
    ParseError,
    StreamOrderError,
)
from .events import DecayParams, SensorGeometry, feature_matrix, packetize
from .filtering import filter_stream
from .io import (
    LabeledEvents,
    _fmt,
    read_centers,
    read_events,
    read_labeled_events,
    read_tracks,
    read_truth,
    write_centers,
    write_events,
    write_labeled_events,
    write_tracks,
    write_truth,
)
from .metrics import (
    adjusted_rand_index,
    kmeans_baseline,
    normalized_mutual_information,
    precision_recall_f,
    tracking_error,
)
from .pipeline import cluster_packets, labeled_from_packets, track_labelings
from .scenes import SCENE_BUILDERS, build_scene
from .synth import generate, load_scene
from .tracking import TrackStatus


def _parse_geometry(text: str) -> SensorGeometry:
    parts = text.lower().replace("x", " ").split()
    if len(parts) != 2:
        raise ContractViolationError(f"geometry must look like 240x180, got {text!r}")
    try:
        return SensorGeometry(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ContractViolationError(f"bad geometry {text!r}: {exc}") from exc


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    cli_values = {
        k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None
    }
    return merge_config(file_values, cli_values)


def _resolve_scene(name_or_path: str) -> "SceneSpec":
    if name_or_path in SCENE_BUILDERS:
        return build_scene(name_or_path)
    return load_scene(name_or_path)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    scene = _resolve_scene(args.scene)
    if cfg.seed is not None:
        scene = dataclasses.replace(scene, seed=cfg.seed)
    gen = generate(scene, speed_factor=cfg.speed_factor)
    write_events(args.out, gen.events, gen.geometry)
    print(f"events = {len(gen.events)}")
    print(f"duration = {_fmt(gen.duration)}")
    if args.truth:
        write_truth(args.truth, gen.events, gen.labels)
    if args.centers:
        write_centers(args.centers, gen.centers_t, gen.centers_obj, gen.centers_xy)
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    events, geom = read_events(args.input)
    params = cfg.pipeline_params().filter_params
    if params is None:
        kept = list(events)
    else:
        kept = list(filter_stream(events, params, geom))
    write_events(args.out, kept, geom)
    print(f"events_in = {len(events)}")
    print(f"events_out = {len(kept)}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    # Filtering is its own stage; this consumes the stream as given.
    cfg = _build_config(args)
    events, geom = read_events(args.input)
    params = cfg.pipeline_params()
    packets = list(packetize(events, params.packet_size, geom, params.decay))
    labelings = cluster_packets(packets, params.ms_params, args.threads)
    labeled = labeled_from_packets(packets, labelings)
    write_labeled_events(args.out, labeled)
    n_clusters = sum(lab.n_clusters for lab in labelings)
    kernel_evals = sum(lab.ops_count for lab in labelings)
    print(f"packets = {len(packets)}")
    print(f"clusters = {n_clusters}")
    print(f"kernel_evals = {kernel_evals}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    rows = read_labeled_events(args.input)
    if len(rows) == 0:
        raise EmptyAlignmentError("labeled event file is empty")
    out_rows, _ = track_labelings(rows, cfg.pipeline_params().tracker_params)
    write_tracks(args.out, out_rows)
    confirmed = len({r.track_id for r in out_rows if r.status == TrackStatus.CONFIRMED.value})
    print(f"packets = {len(np.unique(rows.packet_id))}")
    print(f"tracks = {len({r.track_id for r in out_rows})}")
    print(f"confirmed_tracks = {confirmed}")
    return 0


def _truth_labels_for(rows: LabeledEvents, truth_path: str) -> np.ndarray:
    """Per-row true object ids, matched by exact (t, x, y, p) identity."""
    tt, tx, ty, tp, tobj = read_truth(truth_path)
    if len(tt) == 0 or len(rows) == 0:
        raise EmptyAlignmentError("no rows to align between predictions and truth")
    queues: Dict[Tuple[float, int, int, int], deque] = defaultdict(deque)
    for i in range(len(tt)):
        queues[(float(tt[i]), int(tx[i]), int(ty[i]), int(tp[i]))].append(int(tobj[i]))
    out = np.empty(len(rows), dtype=int)
    unmatched = 0
    for i in range(len(rows)):
        key = (float(rows.t[i]), int(rows.x[i]), int(rows.y[i]), int(rows.p[i]))
        q = queues.get(key)
        if not q:
            unmatched += 1
            out[i] = NOISE
            continue
        out[i] = q.popleft()
    if unmatched == len(rows):
        raise EmptyAlignmentError("no predicted event matches any truth event")
    if unmatched > 0:
        raise ContractViolationError(
            f"{unmatched} of {len(rows)} predicted events have no truth counterpart"
        )
    return out


def cmd_eval_cluster(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    rows = read_labeled_events(args.pred)
    truth = _truth_labels_for(rows, args.truth)
    f_scores, precisions, recalls, aris, nmis, km_scores = [], [], [], [], [], []
    pooled_pred: List[np.ndarray] = []
    pooled_truth: List[np.ndarray] = []
    geom = _parse_geometry(args.geometry) if args.geometry else None
    skipped = 0
    offset = 0
    for pid, idx in rows.packet_groups():
        pred_l = rows.cluster_id[idx]
        true_l = truth[idx]
        keep = (pred_l != NOISE) & (true_l != NOISE)
        if not keep.any():
            skipped += 1
            continue
        try:
            prf = precision_recall_f(pred_l, true_l, beta=cfg.beta)
            ari = adjusted_rand_index(pred_l, true_l)
            nmi = normalized_mutual_information(pred_l, true_l)
        except EmptyAlignmentError:
            skipped += 1
            continue
        f_scores.append(prf.f_score)
        precisions.append(prf.precision)
        recalls.append(prf.recall)
        aris.append(ari.value)
        nmis.append(nmi.value)
        # Pooled labels stay packet-local: ids are offset per packet on both
        # sides, so no pair spans packets in either labeling.
        shift_p = np.where(pred_l == NOISE, NOISE, pred_l + offset)
        shift_t = np.where(true_l == NOISE, NOISE, true_l + offset)
        pooled_pred.append(shift_p)
        pooled_truth.append(shift_t)
        offset += int(max(pred_l.max(), true_l.max()) + 1)
        if args.kmeans:
            if geom is None:
                raise ContractViolationError("--kmeans needs --geometry WxH to rebuild features")
            feats = feature_matrix(
                rows.t[idx], rows.x[idx], rows.y[idx], rows.p[idx], geom, DecayParams(tau=cfg.tau)
            )
            k = cfg.kmeans_k or len(np.unique(true_l[true_l != NOISE]))
            k = max(1, min(k, len(idx)))
            km_labels = kmeans_baseline(feats, k, seed=(cfg.seed or 0) + pid)
            km_prf = precision_recall_f(km_labels, true_l, beta=cfg.beta)
            km_scores.append(km_prf.f_score)
    if not f_scores:
        raise EmptyAlignmentError("no packet had scoreable events")
    print(f"packets = {len(f_scores)}")
    print(f"skipped_packets = {skipped}")
    print(f"events = {len(rows)}")
    print(f"mean_precision = {_fmt(np.mean(precisions))}")
    print(f"mean_recall = {_fmt(np.mean(recalls))}")
    print(f"mean_f = {_fmt(np.mean(f_scores))}")
    print(f"mean_ari = {_fmt(np.mean(aris))}")
    print(f"mean_nmi = {_fmt(np.mean(nmis))}")
    pp = np.concatenate(pooled_pred)
    pt = np.concatenate(pooled_truth)
    pooled_prf = precision_recall_f(pp, pt, beta=cfg.beta)
    pooled_ari = adjusted_rand_index(pp, pt)
    print(f"pooled_f = {_fmt(pooled_prf.f_score)}")
    print(f"pooled_ari = {_fmt(pooled_ari.value)}")
    if args.kmeans:
        print(f"kmeans_mean_f = {_fmt(np.mean(km_scores))}")
        print(f"f_gap = {_fmt(np.mean(f_scores) - np.mean(km_scores))}")
    return 0


def cmd_eval_track(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    rows = read_tracks(args.tracks)
    confirmed = [r for r in rows if r.status == TrackStatus.CONFIRMED.value]
    if not confirmed:
        raise EmptyAlignmentError("no confirmed track samples to score")
    ct, cobj, cxy = read_centers(args.centers)
    report = tracking_error(
        sample_t=np.array([r.t for r in confirmed]),
        sample_track=np.array([r.track_id for r in confirmed]),
        sample_xy=np.array([[r.x, r.y] for r in confirmed]),
        truth_t=ct,
        truth_obj=cobj,
        truth_xy=cxy,
        threshold=cfg.threshold,
        match_radius=cfg.gate,
    )
    print(f"samples = {report.n_samples}")
    print(f"mean_error = {_fmt(report.mean_error)}")
    print(f"valid_fraction = {_fmt(report.valid_fraction)}")
    print(f"threshold = {_fmt(report.threshold)}")
    for obj, (err, n) in report.per_object.items():
        print(f"object {obj} mean_error = {_fmt(err)} samples = {n}")
    print(f"unmatched_tracks = {report.unmatched_tracks}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    scene = _resolve_scene(args.scene)
    if cfg.seed is not None:
        scene = dataclasses.replace(scene, seed=cfg.seed)
    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip()]
    except ValueError as exc:
        raise ContractViolationError(f"bad factor list {args.factors!r}: {exc}") from exc
    report = run_sweep(
        scene,
        factors,
        params=cfg.pipeline_params(),
        fps=cfg.fps,
        capacity=cfg.capacity,
        threads=args.threads,
    )
    if args.out:
        write_cost_csv(args.out, report)
    for r in report.rows:
        print(
            f"factor = {_fmt(r.factor)} ms_ops_per_s = {_fmt(r.ms_ops_per_s)} "
            f"track_ops_per_s = {_fmt(r.track_ops_per_s)} reduction = {_fmt(r.reduction)} "
            f"detections_per_s = {_fmt(r.detections_per_s)}"
        )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--bandwidth", type=float, help="kernel bandwidth in normalized feature units")
    parser.add_argument("--epsilon", type=float, help="convergence step threshold")
    parser.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap per packet")
    parser.add_argument("--merge-radius", dest="merge_radius", type=float, help="mode coalescing radius")
    parser.add_argument("--min-cluster-size", dest="min_cluster_size", type=int, help="smaller clusters become noise")
    parser.add_argument("--tau", type=float, help="time decay constant in seconds")
    parser.add_argument("--packet-size", dest="packet_size", type=int, help="events per packet")
    parser.add_argument("--filter-radius", dest="filter_radius", type=int, help="support neighborhood radius in pixels")
    parser.add_argument("--filter-window", dest="filter_window", type=float, help="support window in seconds")
    parser.add_argument("--no-filter", dest="no_filter", action="store_const", const=True, help="skip the correlation filter")
    parser.add_argument("--gate", type=float, help="association gate in pixels")
    parser.add_argument("--q-var", dest="q_var", type=float, help="process noise intensity")
    parser.add_argument("--r-var", dest="r_var", type=float, help="measurement noise variance")
    parser.add_argument("--confirm-hits", dest="confirm_hits", type=int, help="consecutive hits to confirm a track")
    parser.add_argument("--max-misses", dest="max_misses", type=int, help="consecutive misses before a track dies")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--speed-factor", dest="speed_factor", type=float, help="time compression factor")
    parser.add_argument("--threshold", type=float, help="validity threshold for track error, pixels")
    parser.add_argument("--kmeans-k", dest="kmeans_k", type=int, help="fixed k for the k-means comparison")
    parser.add_argument("--beta", type=float, help="weight of recall in the F score")
    parser.add_argument("--fps", type=float, help="frame rate of the frame-driven baseline")
    parser.add_argument("--capacity", type=float, help="event throughput cap for the consumer model")
    parser.add_argument("--threads", type=int, help="worker threads for packet clustering")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evshift",
        description="Cluster and track moving objects in event-camera streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled event stream")
    p.add_argument("--scene", required=True, help="built-in scene name or scene JSON path")
    p.add_argument("--out", required=True, help="event stream output path")
    p.add_argument("--truth", help="per-event object id CSV output path")
    p.add_argument("--centers", help="true center trajectory CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("filter", help="drop uncorrelated events from a stream")
    p.add_argument("--in", dest="input", required=True, help="event stream input path")
    p.add_argument("--out", required=True, help="event stream output path")
    _add_common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("cluster", help="label a stream packet by packet")
    p.add_argument("--in", dest="input", required=True, help="event stream input path")
    p.add_argument("--out", required=True, help="labeled event CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("track", help="track cluster centroids over packets")
    p.add_argument("--in", dest="input", required=True, help="labeled event CSV input path")
    p.add_argument("--out", required=True, help="track state CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval-cluster", help="score labels against truth")
    p.add_argument("--pred", required=True, help="labeled event CSV path")
    p.add_argument("--truth", required=True, help="truth CSV path")
    p.add_argument("--kmeans", action="store_true", help="also run the k-means comparison")
    p.add_argument("--geometry", help="sensor size WxH, needed for --kmeans")
    _add_common(p)
    p.set_defaults(func=cmd_eval_cluster)

    p = sub.add_parser("eval-track", help="score tracks against true centers")
    p.add_argument("--tracks", required=True, help="track state CSV path")
    p.add_argument("--centers", required=True, help="true center CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_eval_track)

    p = sub.add_parser("bench", help="event-driven versus frame-driven cost table")
    p.add_argument("--scene", required=True, help="built-in scene name or scene JSON path")
    p.add_argument("--factors", default="1.0", help="comma-separated speed factors")
    p.add_argument("--out", help="cost CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except StreamOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 7
    except EmptyAlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 8
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except EvshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
