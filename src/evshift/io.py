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
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolationError, ParseError, StreamOrderError
from .events import Event, EventStream, SensorGeometry, as_stream


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


def write_events(path: str, events: Iterable[Event], geom: SensorGeometry) -> None:
    s = as_stream(events)
    _write_csv(path, EVENT_COLUMNS, [s.t, s.x, s.y, s.p], header=f"# {geom.width} {geom.height}", sep=" ")


def read_events(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[EventStream, SensorGeometry]:
    """Parse an event stream file into columns.

    The first `#` line of two integers is the `# width height` header; any
    other `#` line is a comment.  The header wins over the geom argument;
    without either the file is rejected at line 1, where the header belongs.
    A malformed line, a timestamp not finite and >= 0 or a polarity not 0
    or 1 is a ParseError and a decreasing timestamp a StreamOrderError,
    naming file and line; the earliest line wins.  Only then are events
    outside the sensor rejected (ParseError).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    ts, xs, ys, ps, line_of = [], [], [], [], []  # the fields and the line of each event
    file_geom = malformed = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            if parts[0][0] == "#":
                parts = raw.strip()[1:].split()
                if file_geom is None and len(parts) == 2:
                    try:
                        size = int(parts[0]), int(parts[1])
                    except ValueError:
                        continue  # a two-word comment
                    try:
                        file_geom = SensorGeometry(*size)
                    except ContractViolationError as exc:
                        malformed = ParseError(path, line_no, f"bad geometry header: {exc}")
                        break
                continue
            try:
                if len(parts) != 4:
                    raise ValueError(f"expected 4 fields, got {len(parts)}")
                t, x, y, p = float(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError as exc:
                malformed = ParseError(path, line_no, str(exc))
                break
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(p)
            line_of.append(line_no)
    # The per-line rules on the rows before the malformed line, if any.  An int beyond
    # int64 stays exact or becomes a float, and fails the polarity or the sensor check.
    t, x, y, p = np.array(ts, dtype=np.float64), np.array(xs), np.array(ys), np.array(ps)
    bad_t = ~np.isfinite(t) | (t < 0)
    bad_p = (p != 0) & (p != 1)
    back = np.zeros(len(t), dtype=bool)
    back[1:] = t[1:] < t[:-1]
    if (failing := bad_t | bad_p | back).any():
        i = int(np.argmax(failing))
        if bad_t[i]:
            raise ParseError(path, line_of[i], f"event timestamp must be finite and >= 0, got {t[i]}")
        if bad_p[i]:
            raise ParseError(path, line_of[i], f"polarity must be 0 or 1, got {p[i]}")
        raise StreamOrderError(i, f"{path}:{line_of[i]}: timestamp {_fmt(t[i])} is earlier than the previous event's")
    if malformed:
        raise malformed
    use_geom = file_geom or geom
    if use_geom is None:
        raise ParseError(path, 1, "no '# WIDTH HEIGHT' geometry header and no fallback geometry given")
    outside = ~use_geom.contains(x, y)
    if outside.any():
        i = int(np.argmax(outside))
        raise ParseError(path, line_of[i], f"event at ({x[i]}, {y[i]}) outside {use_geom.width}x{use_geom.height}")
    return EventStream(t, x, y, p), use_geom


# A CSV format: its (column name, kind) pairs in file order, kind being
# float, int or str.  The header is the names joined by commas.
Columns = Tuple[Tuple[str, type], ...]


def _names(columns: Columns) -> List[str]:
    return [name for name, _ in columns]


EVENT_COLUMNS: Columns = (("t", float), ("x", int), ("y", int), ("p", int))

LABELED_COLUMNS: Columns = EVENT_COLUMNS + (("packet_id", int), ("cluster_id", int))
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


TRUTH_COLUMNS: Columns = EVENT_COLUMNS + (("object_id", int),)
TRUTH_HEADER = _names(TRUTH_COLUMNS)


def write_truth(path: str, events: Iterable[Event], labels: np.ndarray) -> None:
    s = as_stream(events)
    _write_csv(path, TRUTH_COLUMNS, [s.t, s.x, s.y, s.p, labels])


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


def _write_csv(path: str, columns: Columns, data: Sequence[Sequence], header: Optional[str] = None, sep=",") -> None:
    """Write equal-length columns `data` as a CSV with header `columns`, or
    as `sep`-separated text under the line `header`.

    Each column is converted to its kind and formatted once: floats with
    repr (so they read back exactly), ints with str, strings as they are.
    """
    lengths = {len(col) for col in data}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    # Lazy maps: a list per column would hold one Python object per value
    # and raise the peak memory of whoever writes a large table.
    text = [col if kind is str else map(_TEXT[kind], map(kind, col)) for (_, kind), col in zip(columns, data)]
    lines = [",".join(_names(columns)) if header is None else header, *map(sep.join, zip(*text))]
    atomic_write_text(path, "\n".join(lines) + "\n")
