"""Reading and writing the on-disk formats.

Event streams are whitespace-separated text, one `t x y p` line per event,
preceded by a `# width height` header line.  Labeled events, tracks, truth
labels and center trajectories are CSV files whose columns are declared
once, as (name, kind) pairs, and that one reader and one writer serve.  All
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


# A CSV format: its (column name, kind) pairs in file order, kind being
# float, int or str.  The header is the names joined by commas.
Columns = Tuple[Tuple[str, type], ...]


def _names(columns: Columns) -> List[str]:
    return [name for name, _ in columns]


LABELED_COLUMNS: Columns = (("t", float), ("x", int), ("y", int), ("p", int), ("packet_id", int), ("cluster_id", int))
LABELED_HEADER = _names(LABELED_COLUMNS)


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
    _write_csv(path, LABELED_COLUMNS, [getattr(rows, name) for name in LABELED_HEADER])


def read_labeled_events(path: str) -> LabeledEvents:
    return LabeledEvents(*_read_csv(path, LABELED_COLUMNS))


TRACKS_COLUMNS: Columns = (
    ("t", float), ("track_id", int), ("x", float), ("y", float), ("vx", float), ("vy", float),
    ("status", str), ("raw_cx", float), ("raw_cy", float),
)
TRACKS_HEADER = _names(TRACKS_COLUMNS)


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
    _write_csv(path, TRACKS_COLUMNS, [[getattr(r, name) for r in rows] for name in TRACKS_HEADER])


def read_tracks(path: str) -> List[TrackRow]:
    cols = _read_csv(path, TRACKS_COLUMNS)
    return [TrackRow(*fields) for fields in zip(*(c.tolist() for c in cols))]


TRUTH_COLUMNS: Columns = (("t", float), ("x", int), ("y", int), ("p", int), ("object_id", int))
TRUTH_HEADER = _names(TRUTH_COLUMNS)


def write_truth(path: str, events: Sequence[Event], labels: np.ndarray) -> None:
    cols = [[e.t for e in events], [e.x for e in events], [e.y for e in events], [e.p for e in events], labels]
    _write_csv(path, TRUTH_COLUMNS, cols)


def read_truth(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, x, y, p, object_id) of a truth file."""
    return tuple(_read_csv(path, TRUTH_COLUMNS))


CENTERS_COLUMNS: Columns = (("t", float), ("object_id", int), ("cx", float), ("cy", float))
CENTERS_HEADER = _names(CENTERS_COLUMNS)


def write_centers(path: str, t: np.ndarray, obj: np.ndarray, xy: np.ndarray) -> None:
    _write_csv(path, CENTERS_COLUMNS, [t, obj, xy[:, 0], xy[:, 1]])


def read_centers(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, object_id, xy) of a centers file."""
    t, obj, cx, cy = _read_csv(path, CENTERS_COLUMNS)
    return t, obj, np.stack([cx, cy], axis=1)


_DTYPE = {float: np.float64, int: np.int64}
_TEXT = {float: repr, int: str}


def _parse(kind: type, values: List[str]) -> np.ndarray:
    """One column's text as an array; a value `kind` rejects, or an int
    outside int64, raises ValueError or OverflowError."""
    if kind is str:
        return np.array(values, dtype=str)
    return np.fromiter(map(kind, values), dtype=_DTYPE[kind], count=len(values))


def _read_csv(path: str, columns: Columns) -> List[np.ndarray]:
    """The columns of a CSV file with header `columns`, each parsed as its kind.

    Blank lines are skipped.  A wrong header, a wrong field count or a value
    its column's kind rejects (`3.7`, `nan` or `1e20` in an int column, say)
    raises ParseError naming the line.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    header = _names(columns)
    with open(path) as fh:
        reader = csv.reader(fh)
        try:
            if (found := next(reader, None)) != header:
                raise ParseError(path, 1, f"expected header {header}, got {found}")
            rows = list(reader)
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, str(exc)) from exc
    # rows[i] came from line i + 2 unless a quoted field spanned lines,
    # which no format allows: report the first such row.
    if reader.line_num != len(rows) + 1:
        i = next(i for i, r in enumerate(rows) if any("\n" in f for f in r))
        raise ParseError(path, i + 2, "field spans lines")
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero((sizes != len(columns)) & (sizes != 0))
    if bad.size:
        raise ParseError(path, int(bad[0]) + 2, f"expected {len(columns)} fields, got {sizes[bad[0]]}")
    line_nos = np.flatnonzero(sizes) + 2
    if len(line_nos) < len(rows):
        rows = [r for r in rows if r]
    out = []
    for c, (name, kind) in enumerate(columns):
        values = [r[c] for r in rows]
        try:
            out.append(_parse(kind, values))
        except (ValueError, OverflowError):
            for i, v in enumerate(values):
                try:
                    _parse(kind, [v])
                except (ValueError, OverflowError) as exc:
                    raise ParseError(path, int(line_nos[i]), f"{name} must be {kind.__name__}, got {v!r}") from exc
    return out


def _write_csv(path: str, columns: Columns, data: Sequence[Sequence]) -> None:
    """Write equal-length columns `data` as a CSV with header `columns`.

    Each column is converted to its kind and formatted once: floats with
    repr (so they read back exactly), ints with str, strings as they are.
    """
    lengths = {len(col) for col in data}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    # Lazy maps: a list per column would hold one Python object per value
    # and raise the peak memory of whoever writes a large table.
    text = [col if kind is str else map(_TEXT[kind], map(kind, col)) for (_, kind), col in zip(columns, data)]
    lines = [",".join(_names(columns)), *map(",".join, zip(*text))]
    atomic_write_text(path, "\n".join(lines) + "\n")
