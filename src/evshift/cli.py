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
import itertools
import sys
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from . import io
from .bench import run_sweep, write_cost_csv
from .clustering import NOISE
from .config import SETTINGS, RunConfig, load_config_file, merge_config
from .errors import (
    ContractViolationError,
    EmptyAlignmentError,
    EvshiftError,
    NumericalError,
    ParseError,
    StreamOrderError,
)
from .events import DecayParams, EventStream, SensorGeometry, feature_matrix, packet_chunks
from .filtering import filter_chunks
from .io import (
    LABELED_COLUMNS,
    TRACKS_COLUMNS,
    LabeledEvents,
    _fmt,
    atomic_write_text,
    csv_header,
    event_chunks,
    event_header,
    event_lines,
    labeled_chunks,
    labeled_lines,
    read_centers,
    read_labeled_events,
    read_truth,
    track_lines,
    write_centers,
    write_events,
    write_truth,
)
from .metrics import cluster_scores, kmeans_baseline, pooled_pair_counts, precision_recall_f, tracking_error
from .pipeline import PacketIdsGoBack, labeled_from_packets, observed_rows, packet_centroids, process_packets
from .scenes import SCENE_BUILDERS, build_scene
from .synth import SceneSpec, generate, load_scene
from .tracking import Tracker, TrackStatus


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
        k: v for k, v in vars(args).items() if k in SETTINGS and v is not None
    }
    return merge_config(file_values, cli_values)


def _resolve_scene(name_or_path: str, seed: Optional[int]) -> SceneSpec:
    """A built-in scene or a scene file, with its seed replaced unless `seed` is None."""
    scene = build_scene(name_or_path) if name_or_path in SCENE_BUILDERS else load_scene(name_or_path)
    return scene if seed is None else dataclasses.replace(scene, seed=seed)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    scene = _resolve_scene(args.scene, cfg.seed)
    gen = generate(scene, speed_factor=cfg.speed_factor)
    write_events(args.out, gen.events, gen.geometry)
    print(f"events = {len(gen.events)}")
    print(f"duration = {_fmt(gen.duration)}")
    if args.truth:
        write_truth(args.truth, gen.events, gen.labels)
    if args.centers:
        write_centers(args.centers, gen.centers_t, gen.centers_obj, gen.centers_xy)
    return 0


def _run(body: Callable[[Iterator], List[str]], chunks: Iterator) -> int:
    """Run a command's body on the chunks of its input and print the `key =
    value` lines it returns, once it has written its output.  Where the body
    fails, the rest of the input is read before the error is raised, so
    that a fault there wins, as it does where the whole input is read
    first."""
    try:
        lines = body(chunks)
    except (EvshiftError, OSError):
        for _ in chunks:
            pass
        raise
    print("\n".join(lines))
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    geom, chunks = event_chunks(args.input)

    def body(chunks: Iterator[EventStream]) -> List[str]:
        params = cfg.pipeline_params().filter_params
        n_in = n_out = 0

        def counted(chunks):
            nonlocal n_in
            for chunk in chunks:
                n_in += len(chunk)
                yield chunk

        def pieces():
            nonlocal n_out
            yield event_header(geom)
            kept_chunks = counted(chunks)
            if params is not None:
                kept_chunks = filter_chunks(kept_chunks, params, geom)
            for kept in kept_chunks:
                n_out += len(kept)
                yield from event_lines(kept)

        atomic_write_text(args.out, pieces())
        return [f"events_in = {n_in}", f"events_out = {n_out}"]

    return _run(body, chunks)


def cmd_cluster(args: argparse.Namespace) -> int:
    # Filtering is its own stage; this consumes the stream as given.
    cfg = _build_config(args)
    geom, chunks = event_chunks(args.input)

    def body(chunks: Iterator[EventStream]) -> List[str]:
        params = cfg.pipeline_params()
        packets = packet_chunks(chunks, params.packet_size, geom, params.decay)  # checks the size now
        n_packets = n_clusters = kernel_evals = 0

        def pieces():
            nonlocal n_packets, n_clusters, kernel_evals
            yield csv_header(LABELED_COLUMNS)
            # flattened and written in batches of about one input chunk of rows
            done = process_packets(packets, params.ms_params)
            while batch := list(itertools.islice(done, max(1, io._CHUNK_ROWS // params.packet_size))):
                batch_packets, labs, _ = zip(*batch)
                yield from labeled_lines(labeled_from_packets(batch_packets, labs, first_id=n_packets))
                n_packets += len(labs)
                n_clusters += sum(lab.n_clusters for lab in labs)
                kernel_evals += sum(lab.ops_count for lab in labs)

        atomic_write_text(args.out, pieces())
        return [f"packets = {n_packets}", f"clusters = {n_clusters}", f"kernel_evals = {kernel_evals}"]

    return _run(body, chunks)


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _build_config(args)

    def body(chunks: Iterator[LabeledEvents], in_order: bool = True) -> List[str]:
        if (first := next(chunks, None)) is None:  # no chunk is empty
            raise EmptyAlignmentError("labeled event file is empty")
        tracker = Tracker(cfg.pipeline_params().tracker_params)
        packets = (observed_rows(tracker, t, ms) for t, ms in packet_centroids(itertools.chain([first], chunks), in_order))
        n_packets = 0
        track_ids, confirmed = set(), set()

        def pieces():
            nonlocal n_packets
            yield csv_header(TRACKS_COLUMNS)
            for rows in packets:
                n_packets += 1
                track_ids.update(r.track_id for r in rows)
                confirmed.update(r.track_id for r in rows if r.status == TrackStatus.CONFIRMED.value)
                yield from track_lines(rows)

        atomic_write_text(args.out, pieces())
        return [f"packets = {n_packets}", f"tracks = {len(track_ids)}", f"confirmed_tracks = {len(confirmed)}"]

    try:
        return _run(body, labeled_chunks(args.input))
    except PacketIdsGoBack:  # track in ascending packet id, each packet's rows in file order
        return _run(lambda chunks: body(chunks, in_order=False), labeled_chunks(args.input))


def _truth_labels_for(rows: LabeledEvents, truth: Sequence[np.ndarray]) -> np.ndarray:
    """Per-row true object ids from the truth columns (t, x, y, p, object_id): the k-th
    prediction of a (t, x, y, p) key takes the k-th truth row of that key, in file order."""
    tt, tx, ty, tp, tobj = truth
    if len(tt) == 0 or len(rows) == 0:
        raise EmptyAlignmentError("no rows to align between predictions and truth")
    n = len(tt)
    keys = [np.concatenate(pair) for pair in ((tt, rows.t), (tx, rows.x), (ty, rows.y), (tp, rows.p))]
    # lexsort is stable, so within a key the truth rows come first and
    # each side keeps its file order.
    order = np.lexsort(keys[::-1])
    new_key = np.r_[True, np.any([k[order][1:] != k[order][:-1] for k in keys], axis=0)]
    starts = np.flatnonzero(new_key)
    group = np.cumsum(new_key) - 1
    is_truth = order < n
    truth_count = np.add.reduceat(is_truth.astype(int), starts)[group]
    rank = np.arange(len(order)) - starts[group] - truth_count  # k of the k-th prediction of its key
    matched = ~is_truth & (rank < truth_count)
    out = np.full(len(rows), NOISE, dtype=int)
    out[order[matched] - n] = tobj[order[(starts[group] + rank)[matched]]]
    unmatched = len(rows) - int(matched.sum())
    if unmatched == len(rows):
        raise EmptyAlignmentError("no predicted event matches any truth event")
    if unmatched > 0:
        raise ContractViolationError(
            f"{unmatched} of {len(rows)} predicted events have no truth counterpart"
        )
    return out


def cmd_eval_cluster(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.kmeans and not args.geometry:
        raise ContractViolationError("--kmeans needs --geometry WxH to rebuild features")
    if args.kmeans and cfg.kmeans_k is not None and cfg.kmeans_k < 1:
        raise ContractViolationError(f"kmeans_k must be >= 1, got {cfg.kmeans_k}")
    geom = _parse_geometry(args.geometry) if args.geometry else None
    rows = read_labeled_events(args.pred)
    truth = _truth_labels_for(rows, read_truth(args.truth))
    f_scores, precisions, recalls, aris, nmis, km_scores = [], [], [], [], [], []
    counts = []  # per scored packet: scored events and pair counts
    skipped = 0
    for pid, idx in rows.packet_groups():
        pred_l = rows.cluster_id[idx]
        true_l = truth[idx]
        keep = (pred_l != NOISE) & (true_l != NOISE)
        if not keep.any():
            skipped += 1
            continue
        pc, prf, ari, nmi = cluster_scores(pred_l, true_l, beta=cfg.beta)
        counts.append((int(keep.sum()), pc))
        f_scores.append(prf.f_score)
        precisions.append(prf.precision)
        recalls.append(prf.recall)
        aris.append(ari.value)
        nmis.append(nmi.value)
        if args.kmeans:
            feats = feature_matrix(
                rows.t[idx], rows.x[idx], rows.y[idx], rows.p[idx], geom, DecayParams(tau=cfg.tau)
            )
            k = len(np.unique(true_l[true_l != NOISE])) if cfg.kmeans_k is None else cfg.kmeans_k
            k = min(k, len(idx))
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
    pooled = pooled_pair_counts(counts)  # labels are packet-local: no pair across packets is together
    print(f"pooled_f = {_fmt(pooled.prf(cfg.beta).f_score)}")
    print(f"pooled_ari = {_fmt(pooled.ari().value)}")
    if args.kmeans:
        print(f"kmeans_mean_f = {_fmt(np.mean(km_scores))}")
        print(f"f_gap = {_fmt(np.mean(f_scores) - np.mean(km_scores))}")
    return 0


def cmd_eval_track(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    kept = []  # per chunk: t, track_id, x and y of its confirmed rows
    for t, track_id, x, y, _, _, status, _, _ in io._csv_chunks(args.tracks, TRACKS_COLUMNS):
        confirmed = status == TrackStatus.CONFIRMED.value
        kept.append([col[confirmed] for col in (t, track_id, x, y)])
    if not any(len(t) for t, *_ in kept):
        raise EmptyAlignmentError("no confirmed track samples to score")
    t, track_id, x, y = map(np.concatenate, zip(*kept))
    ct, cobj, cxy = read_centers(args.centers)
    xy = np.stack([x, y], axis=1)
    report = tracking_error(t, track_id, xy, ct, cobj, cxy, threshold=cfg.threshold, match_radius=cfg.gate)
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
    scene = _resolve_scene(args.scene, cfg.seed)
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
    """--config, then one flag per RunConfig setting, in field order."""
    parser.add_argument("--config", help="flat key=value configuration file")
    for name, (kind, _, help) in SETTINGS.items():
        how = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
        parser.add_argument("--" + name.replace("_", "-"), help=help, **how)


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


# Exit code per error class; an error takes the first class it is an instance of.
EXIT_CODES = (
    (FileNotFoundError, 3), (ParseError, 4), (StreamOrderError, 5), (NumericalError, 7),
    (EmptyAlignmentError, 8), (ContractViolationError, 6), (EvshiftError, 1),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, EvshiftError) as exc:
        code = next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
        print(f"error: {'file not found: ' if code == 3 else ''}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
