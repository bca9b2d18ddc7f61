"""Reading and writing the on-disk formats.

Event streams are whitespace-separated text, one `t x y p` line per event,
preceded by a `# width height` header line.  Labeled events, tracks, truth
labels and center trajectories are plain CSV with a fixed header.  All
writers go through an atomic temp-file-and-rename step and format floats
with repr(), so identical data produces identical bytes.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolationError, ParseError, StreamOrderError
from .events import Event, SensorGeometry


def _fmt(v: float) -> str:
    return repr(float(v))


def atomic_write_text(path: str, text: str) -> None:
    """Write text so readers never observe a partially written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_events(path: str, events: Sequence[Event], geom: SensorGeometry) -> None:
    lines = [f"# {geom.width} {geom.height}"]
    for e in events:
        lines.append(f"{_fmt(e.t)} {e.x} {e.y} {int(e.p)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_events(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[List[Event], SensorGeometry]:
    """Parse an event stream file.

    The `# width height` header wins over the geom argument; without either
    the file is rejected.  Polarity must be 0 or 1 (ParseError otherwise) and
    timestamps must not decrease (StreamOrderError, naming file and line).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    events: List[Event] = []
    file_geom: Optional[SensorGeometry] = None
    prev_t = -math.inf
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if file_geom is None and len(parts) == 2:
                    try:
                        file_geom = SensorGeometry(int(parts[0]), int(parts[1]))
                    except (ValueError, ContractViolationError) as exc:
                        raise ParseError(path, line_no, f"bad geometry header: {exc}") from exc
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
            try:
                t, p = float(parts[0]), int(parts[3])
                e = Event(t=t, x=int(parts[1]), y=int(parts[2]), p=p)
            except (ValueError, ContractViolationError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if p != 0 and p != 1:
                raise ParseError(path, line_no, f"polarity must be 0 or 1, got {parts[3]}")
            if t < prev_t:
                raise StreamOrderError(
                    len(events), f"{path}:{line_no}: timestamp {parts[0]} is earlier than the previous event's"
                )
            prev_t = t
            events.append(e)
    use_geom = file_geom or geom
    if use_geom is None:
        raise ParseError(path, 0, "no geometry header and no fallback geometry given")
    for e in events:
        if not use_geom.contains(e.x, e.y):
            index = next(i for i, other in enumerate(events) if other is e)
            raise ParseError(
                path, _event_line_no(path, index), f"event at ({e.x}, {e.y}) outside {use_geom.width}x{use_geom.height}"
            )
    return events, use_geom


def _event_line_no(path: str, index: int) -> int:
    """1-based line number of the event at stream position `index`.

    Re-reads the file, so only error paths pay for it; blank and `#` lines
    are skipped exactly as read_events skips them.  0 if the file holds
    fewer events.
    """
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                if index == 0:
                    return line_no
                index -= 1
    return 0


LABELED_HEADER = ["t", "x", "y", "p", "packet_id", "cluster_id"]


@dataclass
class LabeledEvents:
    """Flat per-event clustering output, one row per event."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    packet_id: np.ndarray
    cluster_id: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def packet_groups(self) -> Iterator[Tuple[int, np.ndarray]]:
        """(packet_id, row indices) per packet in ascending packet id order;
        the indices of one packet keep file order."""
        order = np.argsort(self.packet_id, kind="stable")
        pids, starts = np.unique(self.packet_id[order], return_index=True)
        for pid, idx in zip(pids, np.split(order, starts[1:])):
            yield int(pid), idx


def write_labeled_events(path: str, rows: LabeledEvents) -> None:
    lines = [",".join(LABELED_HEADER)]
    for i in range(len(rows)):
        lines.append(
            f"{_fmt(rows.t[i])},{int(rows.x[i])},{int(rows.y[i])},{int(rows.p[i])},"
            f"{int(rows.packet_id[i])},{int(rows.cluster_id[i])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_labeled_events(path: str) -> LabeledEvents:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    cols = _read_csv(path, LABELED_HEADER)
    return LabeledEvents(
        t=cols[0].astype(float),
        x=cols[1].astype(int),
        y=cols[2].astype(int),
        p=cols[3].astype(int),
        packet_id=cols[4].astype(int),
        cluster_id=cols[5].astype(int),
    )


TRACKS_HEADER = ["t", "track_id", "x", "y", "vx", "vy", "status", "raw_cx", "raw_cy"]


@dataclass
class TrackRow:
    t: float
    track_id: int
    x: float
    y: float
    vx: float
    vy: float
    status: str
    raw_cx: float
    raw_cy: float


def write_tracks(path: str, rows: Sequence[TrackRow]) -> None:
    lines = [",".join(TRACKS_HEADER)]
    for r in rows:
        lines.append(
            f"{_fmt(r.t)},{r.track_id},{_fmt(r.x)},{_fmt(r.y)},{_fmt(r.vx)},{_fmt(r.vy)},"
            f"{r.status},{_fmt(r.raw_cx)},{_fmt(r.raw_cy)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_tracks(path: str) -> List[TrackRow]:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    rows: List[TrackRow] = []
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACKS_HEADER:
            raise ParseError(path, 1, f"expected header {TRACKS_HEADER}, got {header}")
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != len(TRACKS_HEADER):
                raise ParseError(path, line_no, f"expected {len(TRACKS_HEADER)} fields, got {len(parts)}")
            try:
                rows.append(
                    TrackRow(
                        t=float(parts[0]),
                        track_id=int(parts[1]),
                        x=float(parts[2]),
                        y=float(parts[3]),
                        vx=float(parts[4]),
                        vy=float(parts[5]),
                        status=parts[6],
                        raw_cx=float(parts[7]),
                        raw_cy=float(parts[8]),
                    )
                )
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    return rows


TRUTH_HEADER = ["t", "x", "y", "p", "object_id"]


def write_truth(path: str, events: Sequence[Event], labels: np.ndarray) -> None:
    if len(events) != len(labels):
        raise ValueError(f"{len(events)} events vs {len(labels)} labels")
    lines = [",".join(TRUTH_HEADER)]
    for e, lab in zip(events, labels):
        lines.append(f"{_fmt(e.t)},{e.x},{e.y},{int(e.p)},{int(lab)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_truth(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, x, y, p, object_id) of a truth file."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    cols = _read_csv(path, TRUTH_HEADER)
    return (
        cols[0].astype(float),
        cols[1].astype(int),
        cols[2].astype(int),
        cols[3].astype(int),
        cols[4].astype(int),
    )


CENTERS_HEADER = ["t", "object_id", "cx", "cy"]


def write_centers(path: str, t: np.ndarray, obj: np.ndarray, xy: np.ndarray) -> None:
    lines = [",".join(CENTERS_HEADER)]
    for i in range(len(t)):
        lines.append(f"{_fmt(t[i])},{int(obj[i])},{_fmt(xy[i, 0])},{_fmt(xy[i, 1])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_centers(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, object_id, xy) of a centers file."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    cols = _read_csv(path, CENTERS_HEADER)
    xy = np.stack([cols[2].astype(float), cols[3].astype(float)], axis=1)
    return cols[0].astype(float), cols[1].astype(int), xy


def _read_csv(path: str, expected_header: List[str]) -> List[np.ndarray]:
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ParseError(path, 1, f"expected header {expected_header}, got {header}")
        raw: List[List[str]] = []
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != len(expected_header):
                raise ParseError(path, line_no, f"expected {len(expected_header)} fields, got {len(parts)}")
            raw.append(parts)
    if not raw:
        return [np.zeros(0) for _ in expected_header]
    arr = np.array(raw)
    out = []
    for c in range(len(expected_header)):
        try:
            out.append(arr[:, c].astype(float))
        except ValueError as exc:
            raise ParseError(path, 0, f"non-numeric value in column {expected_header[c]}") from exc
    return out
