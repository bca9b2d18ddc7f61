"""Reading and writing the on-disk formats.

Event streams are whitespace-separated text, one `t x y p` line per event,
preceded by a `# width height` header line.  Labeled events, tracks, truth
labels and center trajectories are CSV files whose columns are declared
once, as (name, kind) pairs, and that one reader and one writer serve.
Every file is UTF-8 text.

Every reader takes a file in chunks of _CHUNK_ROWS lines: event_chunks and
labeled_chunks hand them out one at a time, so that a command can stream a
file of any length, and the whole-file readers concatenate them.  A chunk
is parsed by one np.loadtxt call, which builds no Python object per line,
or, where loadtxt does not take it or csv and loadtxt would part ways, by
the per-line code that defines the format, from the chunk's first line on.
loadtxt accepts a strict subset of what the per-line code accepts, with the
same values (its float parse is Python's).  A file whose line 1 is not its
header is read whole by the per-line reader.  A fault in a chunk raises the
error that the per-line reader raises for the whole file, which it reads
again: the error and its line do not depend on where the chunks begin.

Writers stream chunks of rows into a temp file that is then renamed over
the target, so readers never observe a partial file and no writer holds
the whole text.  Floats are written with repr(), so identical data
produces identical bytes and reads back exactly.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple, Union

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


class _NotFinite(ValueError):
    """A value that a `finite` column refuses: NaN or an infinity."""


def finite(text: str) -> float:
    """The column kind of a float that must be finite: float(text), and
    _NotFinite for NaN and the infinities."""
    v = float(text)
    if not math.isfinite(v):
        raise _NotFinite(text)
    return v


_BULK_DTYPE = {float: "f8", finite: "f8", int: "i8", str: object}


def _bulk_columns(lines: List[str], columns: Columns, delimiter: Optional[str]) -> Optional[List[np.ndarray]]:
    """Text `lines` as one array per column of `columns`, parsed in one
    np.loadtxt call split on `delimiter` (None: runs of whitespace), or None
    where loadtxt raises or warns (lines that are all blank warn) or a
    `finite` column holds NaN or an infinity.
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
    if any(kind is finite and not np.isfinite(table[name]).all() for name, kind in columns):
        return None
    return [table[name].astype(str) if kind is str else table[name].copy() for name, kind in columns]


def _numbered_chunks(fh, first: int) -> Iterator[Tuple[int, List[str]]]:
    """(number of its first line, lines) of each run of _CHUNK_ROWS lines
    left in the open text file `fh`, whose next line is line `first`."""
    while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
        yield first, lines
        first += len(lines)


def _raise_per_line_error(read: Callable, path: str, *args) -> NoReturn:
    """Raise the error that the whole-file per-line reader `read` raises for
    `path`, a file in which a chunk showed a fault."""
    read(path, *args)
    raise AssertionError(f"{path}: a chunk fault that the per-line reader does not see")


def write_events(path: str, events: Iterable[Event], geom: SensorGeometry) -> None:
    atomic_write_text(path, itertools.chain([event_header(geom)], event_lines(as_stream(events))))


def event_header(geom: SensorGeometry) -> str:
    return f"# {geom.width} {geom.height}\n"


def event_lines(s: EventStream) -> Iterator[str]:
    """The lines of events `s`, in pieces of up to _CHUNK_ROWS."""
    return _lines(EVENT_COLUMNS, [s.t, s.x, s.y, s.p], sep=" ")


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
    file_geom, chunks = event_chunks(path, geom)
    return EventStream.concat([EventStream([], [], [], []), *chunks]), file_geom


def event_chunks(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[SensorGeometry, Iterator[EventStream]]:
    """The geometry of an event file and an iterator over its events in
    chunks of up to _CHUNK_ROWS lines, none of them empty; read_events(path,
    geom) is their concatenation, and raises the errors that they raise.

    A file with its `# W H` header on line 1 is read as the chunks are
    iterated, and a chunk's fault raises from the iterator.  Any other
    file is read at once.  A path that is not a file raises
    FileNotFoundError.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        _, _, file_geom, malformed = _parse_event_lines(path, [fh.readline()], 1)
    if file_geom is None or malformed:
        stream, file_geom = _read_events_per_line(path, geom)
        return file_geom, iter([stream] if len(stream) else [])

    def chunks() -> Iterator[EventStream]:
        last = -np.inf
        try:
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                for first, lines in _numbered_chunks(fh, 2):
                    if (cols := _bulk_columns(lines, EVENT_COLUMNS, None)) is None:
                        cols, _, _, malformed = _parse_event_lines(path, lines, first, file_geom)
                        if malformed:
                            _raise_per_line_error(_read_events_per_line, path)
                    t, x, y, p = cols
                    if len(t) == 0:
                        continue
                    bad_t, bad_p, back = _event_faults(t, p)
                    if t[0] < last or (bad_t | bad_p | back).any() or not file_geom.contains(x, y).all():
                        _raise_per_line_error(_read_events_per_line, path)
                    last = t[-1]
                    yield EventStream(t, x, y, p)
        except UnicodeDecodeError:
            _raise_per_line_error(_read_events_per_line, path)

    return file_geom, chunks()


def _parse_event_lines(path: str, lines: Iterable[str], first: int, file_geom: Optional[SensorGeometry] = None):
    """The events of text `lines`, the first of them line `first` of `path`,
    one line at a time: the definition of the format.  Blank lines and `#`
    lines are skipped, but for the first `#` line of two integers while
    file_geom is None: the geometry header.  Returns the columns (t, x, y,
    p), the line of each event, the header or file_geom, and the ParseError
    of the line at which the parse stopped, malformed or not UTF-8, or None.
    """
    ts, xs, ys, ps, line_of = [], [], [], [], []  # the fields and the line of each event
    malformed = None
    for line_no, raw in enumerate(lines, start=first):
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
    # An int beyond int64 stays exact or becomes a float, and fails the polarity or the sensor check.
    cols = np.array(ts, dtype=np.float64), np.array(xs), np.array(ys), np.array(ps)
    return cols, line_of, file_geom, malformed


def _read_events_per_line(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[EventStream, SensorGeometry]:
    """read_events one line at a time: the definition of the format, and the
    reader that names the line of each error."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        (t, x, y, p), line_of, file_geom, malformed = _parse_event_lines(path, fh, 1)
    # The per-line rules on the rows before the malformed line, if any.
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
# float, finite, int or str.  The header is the names joined by commas.
Columns = Tuple[Tuple[str, Callable[[str], object]], ...]


def _names(columns: Columns) -> List[str]:
    return [name for name, _ in columns]


EVENT_COLUMNS: Columns = (("t", float), ("x", int), ("y", int), ("p", int))

# A labeled row's t feeds the tracker's time steps, so NaN and the
# infinities are refused where the file is read.
LABELED_COLUMNS: Columns = (("t", finite), ("x", int), ("y", int), ("p", int), ("packet_id", int), ("cluster_id", int))
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
    """The rows of a labeled file in chunks of up to _CHUNK_ROWS lines, none
    of them empty; read_labeled_events is their concatenation, and raises
    the errors that they raise."""
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


def write_truth(path: str, events: Iterable[Event], labels: np.ndarray) -> None:
    s = as_stream(events)
    _write_csv(path, TRUTH_COLUMNS, [s.t, s.x, s.y, s.p, labels])


def read_truth(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, x, y, p, object_id) of a truth file."""
    return tuple(_read_csv(path, TRUTH_COLUMNS))


CENTERS_COLUMNS: Columns = (("t", float), ("object_id", int), ("cx", float), ("cy", float))


def write_centers(path: str, t: np.ndarray, obj: np.ndarray, xy: np.ndarray) -> None:
    _write_csv(path, CENTERS_COLUMNS, [t, obj, xy[:, 0], xy[:, 1]])


def read_centers(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, object_id, xy) of a centers file."""
    t, obj, cx, cy = _read_csv(path, CENTERS_COLUMNS)
    return t, obj, np.stack([cx, cy], axis=1)


_DTYPE = {float: np.float64, finite: np.float64, int: np.int64}


def _parse(kind: type, values: List[str]) -> np.ndarray:
    """One column's text as an array; a value `kind` rejects, or an int
    outside int64, raises ValueError or OverflowError."""
    if kind is str:
        return np.array(values, dtype=str)
    return np.fromiter(map(kind, values), dtype=_DTYPE[kind], count=len(values))


# Characters on which csv and loadtxt part ways: a quote, which csv reads
# as quoting, and the ASCII separators that loadtxt strips around a number
# as whitespace and float() and int() do not.
_CSV_ONLY_CHARS = '"\x1c\x1d\x1e\x1f'


def _read_csv(path: str, columns: Columns) -> List[np.ndarray]:
    """The columns of a CSV file with header `columns`, each parsed as its kind.

    Blank lines are skipped.  A wrong header, a wrong field count, a byte
    that is not UTF-8 or a value its column's kind rejects (`3.7`, `nan` or
    `1e20` in an int column, say) raises ParseError naming the line.  A path
    that is not a file raises FileNotFoundError.
    """
    no_rows = [_parse(kind, []) for _, kind in columns]
    return list(map(np.concatenate, zip(no_rows, *_csv_chunks(path, columns))))


def _csv_chunks(path: str, columns: Columns) -> Iterator[List[np.ndarray]]:
    """The columns of a CSV file with header `columns` in chunks of up to
    _CHUNK_ROWS lines, none of them empty; _read_csv concatenates them, and
    raises the errors that they raise.  A file whose line 1 is not exactly
    the header is read whole at the first chunk.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != csv_header(columns):
                cols = _read_csv_per_line(path, columns)
                if len(cols[0]):
                    yield cols
                return
            for first, lines in _numbered_chunks(fh, 2):
                text = "".join(lines)
                cols = None if any(c in text for c in _CSV_ONLY_CHARS) else _bulk_columns(lines, columns, ",")
                if cols is None:
                    try:
                        rows, line_nos = _csv_rows(path, lines, first, len(columns))
                        cols = _csv_columns(path, columns, rows, line_nos)
                    except ParseError:
                        _raise_per_line_error(_read_csv_per_line, path, columns)
                    # A quoted field still open at the end of the chunk spans lines, unless the file ends there.
                    if rows and rows[-1][-1].endswith("\n") and fh.readline():
                        _raise_per_line_error(_read_csv_per_line, path, columns)
                if len(cols[0]):
                    yield cols
    except UnicodeDecodeError:
        _raise_per_line_error(_read_csv_per_line, path, columns)


def _read_csv_per_line(path: str, columns: Columns) -> List[np.ndarray]:
    """_read_csv through csv.reader and one conversion per value: the
    definition of the format, and the reader that names the line of each
    error."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        rows, line_nos = _csv_rows(path, fh, 1, len(columns), _names(columns))
    return _csv_columns(path, columns, rows, line_nos)


def _csv_rows(path: str, lines: Iterable[str], first: int, width: int, header: Optional[List[str]] = None):
    """The rows of CSV text `lines`, the first of them line `first` of
    `path`, after `header` if one is given, without the blank ones, and the
    line of each.  A wrong header, a byte that is not UTF-8, a csv error, a
    field that spans lines or a row of other than `width` fields raises
    ParseError naming the line."""

    def checked():
        for line_no, raw in enumerate(lines, start=first):
            if exc := _utf8_error(path, line_no, raw):
                raise exc
            yield raw

    reader = csv.reader(checked())
    try:
        if header and (found := next(reader, None)) != header:
            raise ParseError(path, first, f"expected header {header}, got {found}")
        done = reader.line_num
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(path, first - 1 + reader.line_num, str(exc)) from exc
    # rows[i] came from line first + done + i unless a quoted field spanned
    # lines, which no format allows: report the first such row.
    first += done
    if reader.line_num != done + len(rows):
        i = next(i for i, r in enumerate(rows) if any("\n" in f for f in r))
        raise ParseError(path, first + i, "field spans lines")
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero((sizes != width) & (sizes != 0))
    if bad.size:
        raise ParseError(path, first + int(bad[0]), f"expected {width} fields, got {sizes[bad[0]]}")
    line_nos = np.flatnonzero(sizes) + first
    if len(line_nos) < len(rows):
        rows = [r for r in rows if r]
    return rows, line_nos


def _csv_columns(path: str, columns: Columns, rows: List[List[str]], line_nos: np.ndarray) -> List[np.ndarray]:
    """The values of `rows`, from lines `line_nos` of `path`, as one array
    per column of `columns`.  The first value its kind rejects, column by
    column, raises ParseError naming the line."""
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
                    rule = "finite" if isinstance(exc, _NotFinite) else "float" if kind is finite else kind.__name__
                    raise ParseError(path, int(line_nos[i]), f"{name} must be {rule}, got {v!r}") from exc
    return out


# printf-style, which formats a row of reprs faster than str.format's "{!r}"
_FORMAT = {float: "%r", finite: "%r", int: "%d", str: "%s"}


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
