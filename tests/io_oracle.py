"""Reference readers of event and CSV files for the io tests.

Each reads the whole file at once, one line at a time through the per-line
code that defines its format, and finds every fault in one pass over the
rows: the oracles of the chunked readers in evshift.io, whose values,
errors and lines must not depend on where the chunks begin.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from evshift import io
from evshift.errors import ParseError
from evshift.events import EventStream, SensorGeometry


def read_events_per_line(path: str, geom: Optional[SensorGeometry] = None) -> Tuple[EventStream, SensorGeometry]:
    """read_events one line at a time."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        cols, line_of, file_geom, malformed = io._parse_event_lines(path, fh, 1)
    # The per-line rules on the events before the malformed line, if any.
    if exc := io._rule_error(path, cols, line_of) or malformed:
        raise exc
    use_geom = file_geom or geom
    if use_geom is None:
        raise ParseError(path, 1, "no '# WIDTH HEIGHT' geometry header and no fallback geometry given")
    _, x, y, _ = cols
    outside = ~use_geom.contains(x, y)
    if outside.any():
        i = int(np.argmax(outside))
        raise ParseError(path, line_of[i], f"event at ({x[i]}, {y[i]}) outside {use_geom.width}x{use_geom.height}")
    return EventStream(*cols), use_geom


def read_csv_per_line(path: str, columns: io.Columns) -> List[np.ndarray]:
    """io._read_csv through one csv.reader and one conversion per value."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    if (found := next(io._csv_records(path, lines, 1), None)) != io._names(columns):
        raise ParseError(path, 1, f"expected header {io._names(columns)}, got {found}")
    rows, line_nos, fault = io._csv_rows(path, lines[1:], 2, len(columns))
    if fault:
        raise fault[1]
    cols, exc = io._csv_columns(path, columns, rows, line_nos)
    if exc:
        raise exc
    return cols
