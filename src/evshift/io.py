"""Reading and writing the on-disk formats.

Event streams are whitespace-separated text, one `t x y p` line per event,
preceded by a `# width height` header line.  Labeled events, tracks, truth
labels and center trajectories are CSV files whose columns are declared
once, as (name, kind) pairs, and that one reader and one writer serve.
Every file is UTF-8 text.

A file in the plain form the writers produce (line 1 the exact header,
every later line a row and, in an event file, every event passing the
stream rules) is read in chunks of _CHUNK_ROWS lines, each parsed by one
np.loadtxt call, which builds no Python object per line.  event_chunks and
labeled_chunks hand out those chunks one at a time, so that a command can
stream a file of any length; the whole-file readers concatenate them.  A
chunk reader meets anything else (comments, quoted fields, a value loadtxt
rejects, a broken rule, a byte that is not UTF-8) by raising Unstreamable,
and the whole-file readers then go to the per-line reader, which defines
the format and names the offending line.  loadtxt accepts a strict subset
of what the per-line reader accepts, with the same values (its float parse
is Python's), so both paths return the same columns.

Writers stream chunks of rows into a temp file that is then renamed over
the target, so readers never observe a partial file and no writer holds
the whole text.  Floats are written with repr(), so identical data
produces identical bytes and reads back exactly.
"""

from __future__ import annotations

import csv
import itertools
import os
import re
import tempfile
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractViolationError, ParseError, StreamOrderError
from .events import Event, EventStream, SensorGeometry, as_stream


# Rows per chunk that a reader parses and a writer formats at a time: large
# enough that the per-chunk cost vanishes, small enough that no chunk's
# Python objects weigh on the peak memory of a long stream.
_CHUNK_ROWS = 8192


def _fmt(v: float) -> str:
    return repr(float(v))


def atomic_write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the concatenated text pieces as UTF-8, so that readers never
    observe a partially written file: a failure, also one raised while the
    pieces are produced, leaves any old file as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _utf8_error(path: str, line_no: int, raw: str) -> Optional[ParseError]:
    """The ParseError for a line read with errors="surrogateescape" that held
    a byte that is not UTF-8, else None."""
    if not raw.isascii():
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:
            return ParseError(path, line_no, "not valid UTF-8 text")
    return None


def read_lines(path: str) -> List[str]:
    """The lines of a UTF-8 text file, newlines translated as in text mode.

    A path that is not a file raises FileNotFoundError, a byte that is not
    UTF-8 a ParseError naming its line.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for line_no, raw in enumerate(lines, start=1):
        if exc := _utf8_error(path, line_no, raw):
            raise exc
    return lines


class Unstreamable(Exception):
    """A file that the chunk readers cannot take as it stands; the
    whole-file readers decide what it holds or which error it raises."""


_BULK_DTYPE = {float: "f8", int: "i8", str: object}


def _bulk_columns(lines: List[str], columns: Columns, delimiter: Optional[str]) -> Optional[List[np.ndarray]]:
    """Text `lines` as one array per column of `columns`, parsed in one
    np.loadtxt call split on `delimiter` (None: runs of whitespace), or None
    where loadtxt raises or warns (lines that are all blank warn).
    loadtxt's comment and quote handling are off: a `#` or a quote makes a
    value it rejects, or, in a str column, part of the value.
    """
    # An unsized 'U' field reads every string as '' (numpy 2.4); object keeps each field.
    dtype = [(name, _BULK_DTYPE[kind]) for name, kind in columns]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    return [table[name].astype(str) if kind is str else table[name].copy() for name, kind in columns]


def _chunks(fh, columns: Columns, delimiter: Optional[str]) -> Iterator[List[np.ndarray]]:
    """The columns of each run of _CHUNK_ROWS lines left in the open text
    file `fh`, through _bulk_columns; Unstreamable where that fails."""
    while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
        if (cols := _bulk_columns(lines, columns, delimiter)) is None:
            raise Unstreamable("a chunk of lines that loadtxt does not take")
        yield cols


def write_events(path: str, events: Iterable[Event], geom: SensorGeometry) -> None:
    atomic_write_text(path, itertools.chain([event_header(geom)], event_lines(as_stream(events))))


def event_header(geom: SensorGeometry) -> str:
    return f"# {geom.width} {geom.height}\n"


def event_lines(s: EventStream) -> Iterator[str]:
    """The lines of events `s`, in pieces of up to _CHUNK_ROWS."""
    return _lines(EVENT_COLUMNS, [s.t, s.x, s.y, s.p], sep=" ")


# A line 1 that the per-line reader takes as the geometry header.
_GEOMETRY_HEADER = re.compile(r"#\s*([0-9]+)\s+([0-9]+)\s*", re.ASCII)


def _event_faults(t: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per event: timestamp not finite and >= 0, polarity not 0 or 1, and
    timestamp earlier than the previous event's."""
    bad_t = ~np.isfinite(t) | (t < 0)
    bad_p = (p != 0) & (p != 1)
    back = np.zeros(len(t), dtype=bool)
    back[1:] = t[1:] < t[:-1]
    return bad_t, bad_p, back


def read_events(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[EventStream, SensorGeometry]:
    """Parse an event stream file into columns.

    The first `#` line of two integers is the `# width height` header; any
    other `#` line is a comment.  The header wins over the geom argument;
    without either the file is rejected at line 1, where the header belongs.
    A malformed line, a byte that is not UTF-8, a timestamp not finite and
    >= 0 or a polarity not 0 or 1 is a ParseError and a decreasing timestamp
    a StreamOrderError, naming file and line; the earliest line wins.  Only
    then are events outside the sensor rejected (ParseError).  A path that
    is not a file raises FileNotFoundError.
    """
    try:
        file_geom, chunks = event_chunks(path)
        parts = list(chunks)
    except Unstreamable:
        parts = []
    if parts:
        return EventStream.concat(parts), file_geom
    return _read_events_per_line(path, geom)


def event_chunks(path: str) -> Tuple[SensorGeometry, Iterator[EventStream]]:
    """The geometry of a writer-form event file and an iterator over its
    events in chunks of up to _CHUNK_ROWS.

    The header is read at once, the chunks as they are iterated.  A file
    the per-line reader might read differently or reject, and a header-only
    file, raises Unstreamable, at once or from the iterator: no `# W H`
    header on line 1, a chunk loadtxt does not take or a byte that is not
    UTF-8, an event that breaks a stream rule or lies outside the sensor,
    or a chunk that starts before the previous one ends.  A path that is
    not a file raises FileNotFoundError.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    try:
        with open(path, encoding="utf-8") as fh:
            size = _GEOMETRY_HEADER.fullmatch(fh.readline())
    except UnicodeDecodeError:
        size = None
    if not size or int(size[1]) == 0 or int(size[2]) == 0:
        raise Unstreamable("no positive '# W H' header on line 1")
    geom = SensorGeometry(int(size[1]), int(size[2]))

    def chunks() -> Iterator[EventStream]:
        last = -np.inf
        try:
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                for t, x, y, p in _chunks(fh, EVENT_COLUMNS, None):
                    bad_t, bad_p, back = _event_faults(t, p)
                    if t[0] < last or (bad_t | bad_p | back).any() or not geom.contains(x, y).all():
                        raise Unstreamable("an event that breaks a stream rule")
                    last = t[-1]
                    yield EventStream(t, x, y, p)
        except UnicodeDecodeError:
            raise Unstreamable("a byte that is not UTF-8") from None
        if last == -np.inf:
            raise Unstreamable("no events")

    return geom, chunks()


def _read_events_per_line(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[EventStream, SensorGeometry]:
    """read_events one line at a time: the definition of the format, and the
    reader that names the line of each error."""
    ts, xs, ys, ps, line_of = [], [], [], [], []  # the fields and the line of each event
    file_geom = malformed = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if malformed := _utf8_error(path, line_no, raw):
                break
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
    bad_t, bad_p, back = _event_faults(t, p)
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

    def __getitem__(self, key: Union[slice, np.ndarray]) -> "LabeledEvents":
        return LabeledEvents(*(getattr(self, name)[key] for name in LABELED_HEADER))

    @staticmethod
    def concat(parts: Sequence["LabeledEvents"]) -> "LabeledEvents":
        return LabeledEvents(*(np.concatenate([getattr(p, name) for p in parts]) for name in LABELED_HEADER))

    def packet_groups(self) -> Iterator[Tuple[int, np.ndarray]]:
        """(packet_id, row indices) per packet in ascending packet id order;
        the indices of one packet keep file order."""
        order = np.argsort(self.packet_id, kind="stable")
        pids, starts = np.unique(self.packet_id[order], return_index=True)
        for pid, idx in zip(pids, np.split(order, starts[1:])):
            yield int(pid), idx


def write_labeled_events(path: str, rows: LabeledEvents) -> None:
    atomic_write_text(path, itertools.chain([csv_header(LABELED_COLUMNS)], labeled_lines(rows)))


def labeled_lines(rows: LabeledEvents) -> Iterator[str]:
    """The CSV lines of labeled rows, in pieces of up to _CHUNK_ROWS."""
    return _lines(LABELED_COLUMNS, [getattr(rows, name) for name in LABELED_HEADER])


def read_labeled_events(path: str) -> LabeledEvents:
    return LabeledEvents(*_read_csv(path, LABELED_COLUMNS))


def labeled_chunks(path: str) -> Iterator[LabeledEvents]:
    """The rows of a writer-form labeled file in chunks of up to
    _CHUNK_ROWS; see _csv_chunks for the files that raise Unstreamable."""
    return (LabeledEvents(*cols) for cols in _csv_chunks(path, LABELED_COLUMNS))


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
    atomic_write_text(path, itertools.chain([csv_header(TRACKS_COLUMNS)], track_lines(rows)))


def track_lines(rows: Sequence[TrackRow]) -> Iterator[str]:
    """The CSV lines of track rows, in pieces of up to _CHUNK_ROWS."""
    return _lines(TRACKS_COLUMNS, [[getattr(r, name) for r in rows] for name in TRACKS_HEADER])


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


def _parse(kind: type, values: List[str]) -> np.ndarray:
    """One column's text as an array; a value `kind` rejects, or an int
    outside int64, raises ValueError or OverflowError."""
    if kind is str:
        return np.array(values, dtype=str)
    return np.fromiter(map(kind, values), dtype=_DTYPE[kind], count=len(values))


# Bytes on which csv and loadtxt part ways: a quote, which csv reads as
# quoting, and the ASCII separators that loadtxt strips around a number as
# whitespace and float() and int() do not.
_CSV_ONLY_BYTES = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _has_csv_only_bytes(path: str) -> bool:
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if any(b in chunk for b in _CSV_ONLY_BYTES):
                return True
    return False


def _read_csv(path: str, columns: Columns) -> List[np.ndarray]:
    """The columns of a CSV file with header `columns`, each parsed as its kind.

    Blank lines are skipped.  A wrong header, a wrong field count, a byte
    that is not UTF-8 or a value its column's kind rejects (`3.7`, `nan` or
    `1e20` in an int column, say) raises ParseError naming the line.  A path
    that is not a file raises FileNotFoundError.
    """
    try:
        parts = list(_csv_chunks(path, columns))
    except Unstreamable:
        parts = []
    if parts:
        return list(map(np.concatenate, zip(*parts)))
    return _read_csv_per_line(path, columns)


def _csv_chunks(path: str, columns: Columns) -> Iterator[List[np.ndarray]]:
    """The columns of a writer-form CSV file with header `columns`, in
    chunks of up to _CHUNK_ROWS rows.  A file the per-line reader might
    read differently or reject raises Unstreamable: a header that is not
    exactly line 1, a byte of _CSV_ONLY_BYTES or one that is not UTF-8, or
    a chunk loadtxt does not take.  A path that is not a file raises
    FileNotFoundError.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    if _has_csv_only_bytes(path):
        raise Unstreamable("bytes that csv and loadtxt read differently")
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != csv_header(columns):
                raise Unstreamable("not the exact header on line 1")
            yield from _chunks(fh, columns, ",")
    except UnicodeDecodeError:
        raise Unstreamable("a byte that is not UTF-8") from None


def _read_csv_per_line(path: str, columns: Columns) -> List[np.ndarray]:
    """_read_csv through csv.reader and one conversion per value: the
    definition of the format, and the reader that names the line of each
    error."""
    header = _names(columns)

    def lines(fh):
        for line_no, raw in enumerate(fh, start=1):
            if exc := _utf8_error(path, line_no, raw):
                raise exc
            yield raw

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(lines(fh))
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

# printf-style, which formats a row of reprs faster than str.format's "{!r}"
_FORMAT = {float: "%r", int: "%d", str: "%s"}


def _values(kind: type, col) -> list:
    """A column slice as Python values of `kind`: kind(v) for each v, which
    for an array of the kind's own dtype is what tolist() gives."""
    if isinstance(col, np.ndarray):
        if kind in _DTYPE and col.dtype == _DTYPE[kind]:
            return col.tolist()
        col = col.tolist()
    return list(map(kind, col))


def csv_header(columns: Columns) -> str:
    return ",".join(_names(columns)) + "\n"


def _lines(columns: Columns, data: Sequence[Sequence], sep: str = ",") -> Iterator[str]:
    """The lines of equal-length columns `data`, `sep`-separated, in pieces
    of up to _CHUNK_ROWS lines.

    Each value is converted to its column's kind and formatted: floats with
    repr (so they read back exactly), ints and strings with str.
    """
    lengths = {len(col) for col in data}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    row = sep.join(_FORMAT[kind] for _, kind in columns) + "\n"

    def pieces() -> Iterator[str]:
        for start in range(0, n, _CHUNK_ROWS):
            chunk = [_values(kind, col[start : start + _CHUNK_ROWS]) for (_, kind), col in zip(columns, data)]
            yield "".join(map(row.__mod__, zip(*chunk)))

    return pieces()


def _write_csv(path: str, columns: Columns, data: Sequence[Sequence]) -> None:
    """Write equal-length columns `data` as a CSV with header `columns`."""
    atomic_write_text(path, itertools.chain([csv_header(columns)], _lines(columns, data)))
