"""Reading and writing the on-disk formats.

Event streams are whitespace-separated text, one `t x y p` line per event,
preceded by a `# width height` header line.  Labeled events, tracks, truth
labels and center trajectories are CSV files whose columns are declared
once, as (name, kind) pairs, and that one reader and one writer serve.
Every file is UTF-8 text.

Every reader reads each line of its file once, in chunks of _CHUNK_ROWS
lines: event_chunks and labeled_chunks hand them out one at a time, so that
a command can stream a file of any length, and the whole-file readers
concatenate them.  A chunk is parsed by one np.loadtxt call, which builds
no Python object per line, or, where loadtxt does not take it or csv and
loadtxt would part ways, by the per-line code that defines the format, from
the chunk's first line on.  loadtxt accepts a strict subset of what the
per-line code accepts, with the same values (its float parse is Python's).
A fault that no later line can outrank raises at once; any other stops the
chunks, and the gravest raises at the end of the file, so that the error
and its line do not depend on where the chunks begin.  Only an event file
with an event before its header is read whole at once.

Writers stream pieces of up to _WRITE_ROWS rows into a temp file that is
then renamed over the target, so readers never observe a partial file and
no writer holds more than one piece of text.  Floats are written with
repr(), so identical data produces identical bytes and reads back exactly.
"""

from __future__ import annotations

import csv
import itertools
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractViolationError, ParseError, StreamOrderError
from .events import Event, EventStream, SensorGeometry, as_stream
from .tracking import TrackStatus


# Lines per chunk that a reader parses at a time, and rows per batch of the
# cluster command: large enough that the per-chunk cost vanishes.  With
# 1,024-line chunks the filter and track commands ran 25% and 21% slower on
# the 10 s stability stream (325 -> 406 ms and 207 -> 250 ms, in-process
# best of 7 on a 2-core x86-64 host).
_CHUNK_ROWS = 8192

# Rows per piece that a writer formats at a time.  A piece of text is a
# transient at the peak memory of a whole pass: in 8,192-row pieces the
# 66,401-row labeled write of the reference scene took 1.63 MB beyond its
# input under tracemalloc, in 1,024-row pieces 0.22 MB.  A writer's time is
# set by repr, whatever the piece size: that write took 75.3 ms in 1,024-row
# pieces and 76.0 ms in 8,192-row ones (best of 30, same host).
_WRITE_ROWS = 1024


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


def _is_utf8(text: str) -> bool:
    """Whether text read with errors="surrogateescape" held only UTF-8 bytes."""
    try:
        return text.isascii() or bool(text.encode("utf-8"))
    except UnicodeEncodeError:
        return False


def _utf8_error(path: str, line_no: int, raw: str) -> Optional[ParseError]:
    """The ParseError for a line that held a byte that is not UTF-8, else None."""
    return None if _is_utf8(raw) else ParseError(path, line_no, "not valid UTF-8 text")


def read_lines(path: str) -> List[str]:
    """The lines of a UTF-8 text file, newlines translated as in text mode.  A
    path that is not a file raises FileNotFoundError, a byte that is not
    UTF-8 a ParseError naming its line."""
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return list(_checked(path, fh, 1))


def _checked(path: str, lines: Iterable[str], first: int) -> Iterator[str]:
    """Text `lines`, the first of them line `first` of `path`; a byte that is
    not UTF-8 raises ParseError at its line."""
    for line_no, raw in enumerate(lines, start=first):
        if exc := _utf8_error(path, line_no, raw):
            raise exc
        yield raw


class _Refused(ValueError):
    """A value of its column's base kind that the column's rule refuses."""


@dataclass(frozen=True)
class _Checked:
    """A column kind: the values of kind `base` that `keeps`, a test over an
    array of them, passes; `rule` names those values in a ParseError."""

    base: type
    keeps: Callable[[np.ndarray], np.ndarray]
    rule: str

    def __call__(self, text: str):
        """base(text), and _Refused for a value the rule refuses."""
        return _parse(self, [text]).tolist()[0]


def _base(kind) -> type:
    return kind.base if isinstance(kind, _Checked) else kind


def _ruled(kind, col: np.ndarray) -> np.ndarray:
    """The parsed column `col`, or _Refused where a rule of `kind` refuses one of its values."""
    if isinstance(kind, _Checked) and not kind.keeps(col).all():
        raise _Refused(kind.rule)
    return col


# The column kind of a float that must be finite: NaN and the infinities are refused.
finite = _Checked(float, np.isfinite, "finite")
# The column kind of an event polarity in a labeled or truth file.
polarity = _Checked(int, lambda col: np.isin(col, (0, 1)), "0 or 1")
# The column kind of a track's status.
track_status = _Checked(str, lambda col: np.isin(col, [s.value for s in TrackStatus]), "tentative, confirmed or dead")

# The array dtype of each base kind.  An unsized 'U' field reads every
# string as '' in np.loadtxt (numpy 2.4); object keeps each field.
_DTYPE = {float: "f8", int: "i8", str: object}

# Characters on which csv and loadtxt part ways: a quote, which csv reads
# as quoting, and the ASCII separators that loadtxt strips around a number
# as whitespace and float() and int() do not.
_CSV_ONLY_CHARS = '"\x1c\x1d\x1e\x1f'


def _bulk_columns(lines: List[str], columns: Columns, delimiter: Optional[str]) -> Optional[List[np.ndarray]]:
    """Text `lines` as one array per column of `columns`, parsed in one
    np.loadtxt call split on `delimiter` (None: runs of whitespace), or None
    where a line holds a byte that is not UTF-8 or one of _CSV_ONLY_CHARS,
    loadtxt raises or warns (lines that are all blank warn) or a column holds
    a value that the rule of its kind refuses.  loadtxt's comment handling
    is off: a `#` makes a value it rejects, or, in a str column, part of the
    value.
    """
    text = "".join(lines)
    if not _is_utf8(text) or any(c in text for c in _CSV_ONLY_CHARS):
        return None
    dtype = [(name, _DTYPE[_base(kind)]) for name, kind in columns]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, quotechar=None, ndmin=1)
        return [_ruled(kind, table[name].astype(str) if _base(kind) is str else table[name].copy()) for name, kind in columns]
    except (ValueError, Warning):  # UnicodeDecodeError and _Refused are ValueErrors
        return None


def _numbered_chunks(lines: Iterable[str], first: int) -> Iterator[Tuple[int, List[str]]]:
    """(number of its first line, lines) of each run of _CHUNK_ROWS text
    `lines`, the first of them line `first`."""
    while chunk := list(itertools.islice(lines, _CHUNK_ROWS)):
        yield first, chunk
        first += len(chunk)


def write_events(path: str, events: Iterable[Event], geom: SensorGeometry) -> None:
    atomic_write_text(path, itertools.chain([event_header(geom)], event_lines(as_stream(events))))


def event_header(geom: SensorGeometry) -> str:
    return f"# {geom.width} {geom.height}\n"


def event_lines(s: EventStream) -> Iterator[str]:
    """The lines of events `s`, in pieces of up to _WRITE_ROWS."""
    return _lines(EVENT_COLUMNS, [s.t, s.x, s.y, s.p], sep=" ")


def _rule_error(path: str, cols, line_of: Sequence[int], prev: float = -np.inf, n: int = 0):
    """The error of the first of events `cols` (t, x, y, p), on lines
    `line_of` of `path` after n events, with a timestamp not finite and >= 0
    or a polarity not 0 or 1 (ParseError), or a timestamp earlier than the
    one before it, `prev` before the first (StreamOrderError); or None."""
    t, _, _, p = cols
    bad_t = ~np.isfinite(t) | (t < 0)
    bad_p = (p != 0) & (p != 1)
    back = t < np.concatenate([[prev], t[:-1]])
    if not (failing := bad_t | bad_p | back).any():
        return None
    i = int(np.argmax(failing))
    if bad_t[i]:
        return ParseError(path, line_of[i], f"event timestamp must be finite and >= 0, got {t[i]}")
    if bad_p[i]:
        return ParseError(path, line_of[i], f"polarity must be 0 or 1, got {p[i]}")
    return StreamOrderError(n + i, f"{path}:{line_of[i]}: timestamp {_fmt(t[i])} is earlier than the previous event's")


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

    The lines up to the header are read at once, the rest as the chunks are
    iterated, and a fault there raises from the iterator; a file with an
    event before its header is read whole at once.  A path that is not a file
    raises FileNotFoundError.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    chunks = _event_chunks(path, geom)
    return next(chunks), chunks


def _event_chunks(path: str, geom: Optional[SensorGeometry]) -> Iterator:
    """event_chunks as one generator: the geometry, then the chunks.  A
    malformed line or a broken rule raises at once; an event outside the
    sensor stops the chunks and raises at the end of the file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        file_geom, n, last = None, 0, -np.inf  # n events so far, the newest at time last

        def parse(first: int, lines: List[str]):
            """The columns of a chunk and the line of each event."""
            nonlocal file_geom, n, last
            cols, malformed = file_geom and _bulk_columns(lines, EVENT_COLUMNS, None), None
            if cols and len(cols[0]) == len(lines):  # no blank line: event i is on line first + i
                line_of = range(first, first + len(lines))
            else:
                cols, line_of, file_geom, malformed = _parse_event_lines(path, lines, first, file_geom)
            if exc := _rule_error(path, cols, line_of, last, n) or malformed:
                raise exc
            n, last = n + len(cols[0]), cols[0][-1] if len(cols[0]) else last
            return cols, line_of

        held, first = [], 1  # the chunks up to the header, which gives the geometry of their events
        for raw in iter(fh.readline, ""):  # one line at a time up to the header or the first event
            cols, line_of = parse(first, [raw])
            first += 1
            if file_geom or len(cols[0]):
                held.append((cols, line_of))
                break
        chunks = itertools.starmap(parse, _numbered_chunks(fh, first))
        while file_geom is None and (chunk := next(chunks, None)):
            held.append(chunk)
        if (geom := file_geom or geom) is None:
            raise ParseError(path, 1, "no '# WIDTH HEIGHT' geometry header and no fallback geometry given")
        yield geom
        outside = None
        for (t, x, y, p), line_of in itertools.chain(held, chunks):
            if outside is None and not (inside := geom.contains(x, y)).all():
                i = int(np.argmin(inside))
                outside = ParseError(path, line_of[i], f"event at ({x[i]}, {y[i]}) outside {geom.width}x{geom.height}")
            if outside is None and len(t):
                yield EventStream(t, x, y, p)
        if outside:
            raise outside


def _int_column(values: List[int]) -> np.ndarray:
    """Ints as int64, or as an object array where one overflows int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


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
    cols = np.array(ts, dtype=np.float64), _int_column(xs), _int_column(ys), _int_column(ps)
    return cols, line_of, file_geom, malformed


# A CSV format: its (column name, kind) pairs in file order, kind being
# float, int or str, or finite, polarity or track_status, which refuse some
# values of their base kind.  The header is the names joined by commas.
Columns = Tuple[Tuple[str, Callable[[str], object]], ...]


def _names(columns: Columns) -> List[str]:
    return [name for name, _ in columns]


EVENT_COLUMNS: Columns = (("t", float), ("x", int), ("y", int), ("p", int))

# A labeled row's t feeds the tracker's time steps, so NaN and the
# infinities are refused where the file is read, and so is a p other than
# 0 or 1, as in an event file.
LABELED_COLUMNS: Columns = (("t", finite), ("x", int), ("y", int), ("p", polarity), ("packet_id", int), ("cluster_id", int))
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
    """The CSV lines of labeled rows, in pieces of up to _WRITE_ROWS."""
    return _lines(LABELED_COLUMNS, [getattr(rows, name) for name in LABELED_HEADER])


def read_labeled_events(path: str) -> LabeledEvents:
    return LabeledEvents(*_read_csv(path, LABELED_COLUMNS))


def labeled_chunks(path: str) -> Iterator[LabeledEvents]:
    """The rows of a labeled file in chunks of up to _CHUNK_ROWS lines, none
    of them empty; read_labeled_events is their concatenation, and raises
    the errors that they raise."""
    return (LabeledEvents(*cols) for cols in _csv_chunks(path, LABELED_COLUMNS))


# Tracks are scored by their confirmed rows' times, so a t that is NaN or
# infinite and a status that is none of the three are refused where the
# file is read.
TRACKS_COLUMNS: Columns = (
    ("t", finite), ("track_id", int), ("x", float), ("y", float), ("vx", float), ("vy", float),
    ("status", track_status), ("raw_cx", float), ("raw_cy", float),
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
    """The CSV lines of track rows, in pieces of up to _WRITE_ROWS."""
    return _lines(TRACKS_COLUMNS, [[getattr(r, name) for r in rows] for name in TRACKS_HEADER])


def read_tracks(path: str) -> List[TrackRow]:
    cols = _read_csv(path, TRACKS_COLUMNS)
    return [TrackRow(*fields) for fields in zip(*(c.tolist() for c in cols))]


TRUTH_COLUMNS: Columns = (("t", float), ("x", int), ("y", int), ("p", polarity), ("object_id", int))


def write_truth(path: str, events: Iterable[Event], labels: np.ndarray) -> None:
    s = as_stream(events)
    _write_csv(path, TRUTH_COLUMNS, [s.t, s.x, s.y, s.p, labels])


def read_truth(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, x, y, p, object_id) of a truth file."""
    return tuple(_read_csv(path, TRUTH_COLUMNS))


# Track positions are scored against centers interpolated in t.
CENTERS_COLUMNS: Columns = (("t", finite), ("object_id", int), ("cx", float), ("cy", float))


def write_centers(path: str, t: np.ndarray, obj: np.ndarray, xy: np.ndarray) -> None:
    _write_csv(path, CENTERS_COLUMNS, [t, obj, xy[:, 0], xy[:, 1]])


def read_centers(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (t, object_id, xy) of a centers file."""
    t, obj, cx, cy = _read_csv(path, CENTERS_COLUMNS)
    return t, obj, np.stack([cx, cy], axis=1)


def _parse(kind, values: List[str]) -> np.ndarray:
    """One column's text as an array; a value that `kind` rejects, or an int
    outside int64, raises ValueError or OverflowError, and one that its rule
    refuses _Refused."""
    base = _base(kind)
    if base is str:
        return _ruled(kind, np.array(values, dtype=str))
    return _ruled(kind, np.fromiter(map(base, values), dtype=_DTYPE[base], count=len(values)))


def _read_csv(path: str, columns: Columns) -> List[np.ndarray]:
    """The columns of a CSV file with header `columns`, each parsed as its
    kind.  Blank lines are skipped.  A wrong header, a wrong field count, a
    byte that is not UTF-8 or a value its column's kind rejects (`3.7`, `nan`
    or `1e20` in an int column, say) raises ParseError naming the line.  A
    path that is not a file raises FileNotFoundError."""
    no_rows = [_parse(kind, []) for _, kind in columns]
    return list(map(np.concatenate, zip(no_rows, *_csv_chunks(path, columns))))


# Ranks of the CSV faults that wait for the end of the file, gravest first;
# a rejected value ranks _VALUE plus the index of its column.
_SPANS, _COUNT, _VALUE = range(3)


def _csv_chunks(path: str, columns: Columns) -> Iterator[List[np.ndarray]]:
    """The columns of a CSV file with header `columns` in chunks of up to
    _CHUNK_ROWS lines, none of them empty; _read_csv concatenates them.  A
    wrong header, a byte that is not UTF-8 or a csv error raises at once.
    Any other fault stops the chunks and raises at the end of the file: the
    first field that spans lines, else the first row of a wrong field count,
    else the first value rejected in the lowest column."""
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if (head := fh.readline()) != csv_header(columns):  # csv takes as many lines as its quotes span
            found = next(_csv_records(path, itertools.chain([head], fh) if head else fh, 1), None)
            if found != _names(columns):
                raise ParseError(path, 1, f"expected header {_names(columns)}, got {found}")
        fault = None  # (rank, ParseError) of the gravest fault so far
        for first, lines in _numbered_chunks(fh, 2):
            if (cols := _bulk_columns(lines, columns, ",")) is None:
                rows, line_nos, found = _csv_rows(path, lines, first, len(columns))
                if rows and rows[-1][-1].endswith("\n") and (more := fh.readline()):
                    # A quote left open at the end of the chunk takes in the next line.  csv
                    # reads on from the first row that spans lines to the end of the file.
                    if found is None or found[0] != _SPANS:
                        found = _SPANS, ParseError(path, int(line_nos[-1]), "field spans lines")
                    start = found[1].line_no
                    for _ in _csv_records(path, itertools.chain(lines[start - first :], [more], fh), start):
                        pass
                elif found is None:
                    cols, exc = _csv_columns(path, columns, rows, line_nos)
                    found = exc and (_VALUE + len(cols), exc)
                if found and (fault is None or found[0] < fault[0]):
                    fault = found
            if fault is None and len(cols[0]):
                yield cols
        if fault:
            raise fault[1]


def _csv_records(path: str, lines: Iterable[str], first: int) -> Iterator[List[str]]:
    """csv.reader over text `lines`, the first of them line `first` of `path`;
    a byte that is not UTF-8 or a csv error raises ParseError at its line."""
    reader = csv.reader(_checked(path, lines, first))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(path, first - 1 + reader.line_num, str(exc)) from exc


def _csv_rows(path: str, lines: List[str], first: int, width: int):
    """The rows of CSV text `lines`, the first of them line `first` of `path`,
    without the blank ones, the line of each, and their gravest fault as
    (rank, ParseError) or None: the first field that spans lines, which no
    format allows, else the first row of other than `width` fields."""
    rows = list(_csv_records(path, lines, first))
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    found = None
    # rows[i] came from line first + i up to the first row that spans lines
    if len(rows) < len(lines):
        i = next(i for i, r in enumerate(rows) if any("\n" in f for f in r))
        found = _SPANS, ParseError(path, first + i, "field spans lines")
    elif (bad := np.flatnonzero((sizes != width) & (sizes != 0))).size:
        found = _COUNT, ParseError(path, first + int(bad[0]), f"expected {width} fields, got {sizes[bad[0]]}")
    line_nos = np.flatnonzero(sizes) + first
    if len(line_nos) < len(rows):
        rows = [r for r in rows if r]
    return rows, line_nos, found


def _csv_columns(path: str, columns: Columns, rows: List[List[str]], line_nos: np.ndarray):
    """The values of `rows`, from lines `line_nos` of `path`, as one array per
    column of `columns`, and None; or, where a kind rejects a value, the
    arrays before that column and the ParseError of its first such value."""
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
                    rule = kind.rule if isinstance(exc, _Refused) else _base(kind).__name__
                    return out, ParseError(path, int(line_nos[i]), f"{name} must be {rule}, got {v!r}")
    return out, None


# printf-style, which formats a row of reprs faster than str.format's "{!r}"
_FORMAT = {float: "%r", int: "%d", str: "%s"}


def _values(kind, col) -> list:
    """A column slice as Python values of the base kind of `kind`: base(v)
    for each v, which for an array of the base's own dtype is what tolist()
    gives.  The rule of a checked kind is the reader's, not the writer's."""
    base = _base(kind)
    if isinstance(col, np.ndarray):
        if col.dtype == _DTYPE[base]:
            return col.tolist()
        col = col.tolist()
    return list(map(base, col))


def csv_header(columns: Columns) -> str:
    return ",".join(_names(columns)) + "\n"


def _lines(columns: Columns, data: Sequence[Sequence], sep: str = ",") -> Iterator[str]:
    """The lines of equal-length columns `data`, `sep`-separated, in pieces
    of up to _WRITE_ROWS lines.

    Each value is converted to its column's kind and formatted: floats with
    repr (so they read back exactly), ints and strings with str.
    """
    lengths = {len(col) for col in data}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    row = sep.join(_FORMAT[_base(kind)] for _, kind in columns) + "\n"

    def pieces() -> Iterator[str]:
        for start in range(0, n, _WRITE_ROWS):
            chunk = [_values(kind, col[start : start + _WRITE_ROWS]) for (_, kind), col in zip(columns, data)]
            yield "".join(map(row.__mod__, zip(*chunk)))

    return pieces()


def _write_csv(path: str, columns: Columns, data: Sequence[Sequence]) -> None:
    """Write equal-length columns `data` as a CSV with header `columns`."""
    atomic_write_text(path, itertools.chain([csv_header(columns)], _lines(columns, data)))
