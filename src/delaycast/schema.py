"""On-time flight records as columns: hhmm clock handling, CSV ingest/emit.

Records mirror the public BTS on-time performance export (32 columns). A set
of flights is one `Flights` value holding one numpy array per field, after
the Apache Arrow columnar layout, with sentinel values in place of validity
bitmaps:

- numbers (delays, durations, distance) are finite float64, NaN where the
  cell was blank; the five delay components are also >= 0 and FL_NUMBER is
  a whole number;
- clock columns arrive as 3-4 digit hhmm strings and are stored as whole
  minutes past midnight from 0 to 1440 ("2400"), float64, NaN where blank;
- FL_DATE (required, ISO YYYY-MM-DD only) is an int64 day ordinal from 1
  to `datetime.date.max`, as `datetime.date.toordinal` counts;
- CANCELLED and DIVERTED (required) are int8, 0 or 1;
- text is a numpy `StringDType` array, "" where blank, and is not checked.

A cell is blank when it is empty or "NA" after stripping whitespace.
`Flights` refuses a non-text value outside its kind's domain and keeps its
arrays read-only, so every value it holds is one a CSV cell can carry.

Ingest is strict per cell: a bad cell skips the whole row and leaves a
diagnostic, never a silently-coerced value. The reader takes CHUNK_ROWS rows
at a time and decodes each column of a chunk in one vectorized step; only
the cells that step rejects go through the scalar decoders, which word every
diagnostic.

The writer encodes by dictionary, as Arrow and Parquet do: per CHUNK_ROWS
rows, each column's distinct values are formatted once and every cell is
looked up among them. A text value is quoted, its quotes doubled, when it
holds `,`, `"`, a line feed or a carriage return; no other cell is quoted.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.dtypes import StringDType

# Rows decoded per vectorized step; bounds the reader's and writer's
# transient memory independently of the file's length.
CHUNK_ROWS = 8192

_TEXT = StringDType()


class SchemaError(ValueError):
    """Malformed header or record-level invariant violation."""


def parse_hhmm(raw: str) -> int:
    """Convert a 3-4 digit clock string to minutes past midnight.

    The last two digits are minutes; "2400" maps to 1440. Anything else out
    of range (or non-digit) is an error naming the offending value.
    """
    if not (isinstance(raw, str) and raw.isascii() and raw.isdigit() and 3 <= len(raw) <= 4):
        raise ValueError(f"invalid hhmm value {raw!r}")
    hh = int(raw[:-2])
    mm = int(raw[-2:])
    if hh > 24 or mm > 59 or (hh == 24 and mm != 0):
        raise ValueError(f"hhmm out of range: {raw!r}")
    return hh * 60 + mm


COMPONENT_FIELDS = (
    "delay_due_carrier",
    "delay_due_weather",
    "delay_due_nas",
    "delay_due_security",
    "delay_due_late_aircraft",
)


@dataclass(frozen=True)
class CellDiagnostic:
    """One rejected cell; `row` is the 1-based data-row ordinal (header excluded)."""

    row: int
    column: str
    message: str

    def __str__(self) -> str:
        return f"row={self.row} col={self.column} err={self.message}"


# --- scalar cell decoding/encoding ---------------------------------------------------

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _decode_date(raw: str) -> dt.date:
    # fromisoformat alone also takes 20220103 and 2022-W01-1
    if _ISO_DATE.fullmatch(raw):
        try:
            return dt.date.fromisoformat(raw)
        except ValueError:
            pass
    raise ValueError(f"invalid ISO date {raw!r}")


def _decode_day(raw: str) -> int:
    return _decode_date(raw).toordinal()


def _decode_int(raw: str) -> int:
    try:
        f = float(raw)
    except ValueError:
        raise ValueError(f"invalid integer {raw!r}") from None
    if not math.isfinite(f) or f != int(f):
        raise ValueError(f"invalid integer {raw!r}")
    return int(f)


def _decode_flag(raw: str) -> int:
    v = _decode_int(raw)
    if v not in (0, 1):
        raise ValueError(f"flag must be 0 or 1, got {raw!r}")
    return v


def _decode_float(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"invalid number {raw!r}") from None
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number {raw!r}")
    return v


def _decode_component(raw: str) -> float:
    v = _decode_float(raw)
    if v < 0:
        raise ValueError(f"component delay must be >= 0, got {raw!r}")
    return v


def _encode_number(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


# Column kinds: how a cell decodes and how its column is stored.
_DECODERS = {"date": _decode_day, "text": str, "int": _decode_int,
             "flag": _decode_flag, "hhmm": parse_hhmm, "number": _decode_float,
             "component": _decode_component}
_DTYPES = {"date": np.int64, "text": _TEXT, "flag": np.int8, "int": np.float64,
           "hhmm": np.float64, "number": np.float64, "component": np.float64}

# (column, field, required, kind); order is the export column order.
_COLUMN_SPEC = (
    ("FL_DATE", "fl_date", True, "date"),
    ("AIRLINE", "airline", True, "text"),
    ("AIRLINE_DOT", "airline_dot", False, "text"),
    ("AIRLINE_CODE", "airline_code", False, "text"),
    ("DOT_CODE", "dot_code", False, "text"),
    ("FL_NUMBER", "fl_number", False, "int"),
    ("ORIGIN", "origin", True, "text"),
    ("ORIGIN_CITY", "origin_city", False, "text"),
    ("DEST", "dest", True, "text"),
    ("DEST_CITY", "dest_city", False, "text"),
    ("CRS_DEP_TIME", "crs_dep_time", False, "hhmm"),
    ("DEP_TIME", "dep_time", False, "hhmm"),
    ("DEP_DELAY", "dep_delay", False, "number"),
    ("TAXI_OUT", "taxi_out", False, "number"),
    ("WHEELS_OFF", "wheels_off", False, "hhmm"),
    ("WHEELS_ON", "wheels_on", False, "hhmm"),
    ("TAXI_IN", "taxi_in", False, "number"),
    ("CRS_ARR_TIME", "crs_arr_time", False, "hhmm"),
    ("ARR_TIME", "arr_time", False, "hhmm"),
    ("ARR_DELAY", "arr_delay", False, "number"),
    ("CANCELLED", "cancelled", True, "flag"),
    ("CANCELLATION_CODE", "cancellation_code", False, "text"),
    ("DIVERTED", "diverted", True, "flag"),
    ("CRS_ELAPSED_TIME", "crs_elapsed_time", False, "number"),
    ("ELAPSED_TIME", "elapsed_time", False, "number"),
    ("AIR_TIME", "air_time", False, "number"),
    ("DISTANCE", "distance", False, "number"),
    ("DELAY_DUE_CARRIER", "delay_due_carrier", False, "component"),
    ("DELAY_DUE_WEATHER", "delay_due_weather", False, "component"),
    ("DELAY_DUE_NAS", "delay_due_nas", False, "component"),
    ("DELAY_DUE_SECURITY", "delay_due_security", False, "component"),
    ("DELAY_DUE_LATE_AIRCRAFT", "delay_due_late_aircraft", False, "component"),
)

BTS_COLUMNS = tuple(col for col, *_ in _COLUMN_SPEC)
_HEADER_MAP = {col: field_name for col, field_name, *_ in _COLUMN_SPEC}

_FIELD_INFO = {field_name: (col, required, kind)
               for col, field_name, required, kind in _COLUMN_SPEC}
_REQUIRED_FIELDS = tuple(f for f, (_, req, _) in _FIELD_INFO.items() if req)


# --- columns --------------------------------------------------------------------------

_LAST_DAY = dt.date.max.toordinal()

# Each non-text kind's domain, the values its cells decode to. Flights refuses
# a column holding a value outside it. The reader hands a parsed number, int,
# component or flag cell failing its check to the scalar decoder, which words
# the diagnostic.
_NUMBER_OK = {
    "number": np.isfinite,
    "component": lambda v: np.isfinite(v) & (v >= 0),
    "int": lambda v: np.isfinite(v) & (v == np.trunc(v)),
    "flag": lambda v: (v == 0) | (v == 1),
    "hhmm": lambda v: (v >= 0) & (v <= 1440) & (v == np.trunc(v)),
    "date": lambda v: (v >= 1) & (v <= _LAST_DAY) & (v == np.trunc(v)),
}
_DOMAINS = {"number": "a finite number", "component": "a finite number >= 0",
            "int": "a finite whole number", "flag": "0 or 1",
            "hhmm": "whole minutes from 0 to 1440",
            "date": f"a day ordinal from 1 to {_LAST_DAY}"}


class Flights:
    """Flight rows as columns: attribute `<field>` is that field's array.

    Every column has one entry per row, of its kind's dtype, and holds only
    values a CSV cell of its kind can carry (module docstring); the arrays
    are read-only. `len()` counts rows and `select(index)` keeps the rows a
    boolean mask or an index array picks, in that order.
    """

    FIELDS = tuple(_FIELD_INFO)

    def __init__(self, columns):
        """`columns` maps every field name to a one-dimensional array.

        A non-text value outside its kind's domain, or NaN in a required
        column, is a SchemaError naming the field and the 0-based row. Each
        array is cast to its kind's dtype (not copied when it has it) and
        made read-only.
        """
        wrong = sorted(set(columns) ^ set(self.FIELDS))
        if wrong:
            raise SchemaError(f"missing or unknown flight fields: {', '.join(wrong)}")
        self._n = len(columns["fl_date"])
        for name, (_, required, kind) in _FIELD_INFO.items():
            values = columns[name]
            if values.shape != (self._n,):
                raise SchemaError(
                    f"column {name} has shape {values.shape}, expected ({self._n},)")
            if kind != "text":
                ok = _NUMBER_OK[kind](values)
                if not required:
                    ok |= np.isnan(values)
                if not ok.all():
                    i = int(np.argmin(ok))
                    raise SchemaError(
                        f"{name} row {i}: {values[i].item()!r} is not {_DOMAINS[kind]}")
            # astype copies a StringDType array even when the dtypes are equal
            if values.dtype != _DTYPES[kind]:
                values = values.astype(_DTYPES[kind])
            values.flags.writeable = False
            setattr(self, name, values)

    def __len__(self) -> int:
        return self._n

    def select(self, index) -> "Flights":
        return Flights({name: getattr(self, name)[index] for name in self.FIELDS})


# --- vectorized decoding/encoding --------------------------------------------------------


def _decode_column(kind: str, cells: np.ndarray, blank: np.ndarray):
    """Decode one column of a chunk: (values, failed).

    `cells` are stripped strings; `failed` marks the non-blank cells the
    vectorized step rejected, whose values are left blank.
    """
    present = ~blank
    failed = np.zeros(len(cells), dtype=bool)
    if kind == "text":
        values = cells.copy()
        values[blank] = ""
        return values, failed
    given = cells[present]
    if kind == "date":
        # few distinct dates per chunk: the scalar decoder runs once per value
        values = np.zeros(len(cells), dtype=np.int64)
        distinct, inverse = np.unique(given, return_inverse=True)
        days = np.zeros(len(distinct), dtype=np.int64)
        ok = np.ones(len(distinct), dtype=bool)
        for i, raw in enumerate(distinct.tolist()):
            try:
                days[i] = _decode_day(raw)
            except ValueError:
                ok[i] = False
        values[present] = days[inverse]
        failed[present] = ~ok[inverse]
        return values, failed
    values = np.full(len(cells), np.nan)
    if kind == "hhmm":
        width = np.strings.str_len(given)
        ok = (width >= 3) & (width <= 4) & (np.strings.strip(given, "0123456789") == "")
        hhmm = np.zeros(len(given), dtype=np.int64)
        hhmm[ok] = given[ok].astype(np.int64)
        hh, mm = np.divmod(hhmm, 100)
        ok &= ((hh <= 23) & (mm <= 59)) | (hhmm == 2400)
        parsed = (hh * 60 + mm).astype(np.float64)
    else:
        try:
            parsed = given.astype(np.float64)
        except ValueError:  # some cell does not parse: the scalar decoder takes them all
            failed[present] = True
            return values, failed
        ok = _NUMBER_OK[kind](parsed)
    values[present] = np.where(ok, parsed, np.nan)
    failed[present] = ~ok
    return values, failed


def _decode_chunk(block, first_row: int, width: int, fields, diagnostics) -> dict:
    """Decode csv rows numbered from `first_row`; returns the good rows' columns.

    Appends the chunk's diagnostics in (row, header column) order.
    """
    rows, row_nos, found = [], [], []
    for row_no, row in enumerate(block, start=first_row):
        if not row:
            continue
        if len(row) != width:
            found.append((row_no, -1, "*", f"expected {width} cells, got {len(row)}"))
        else:
            rows.append(row)
            row_nos.append(row_no)
    cells = np.strings.strip(np.array(rows, dtype=_TEXT).reshape(len(rows), width))
    blank = (cells == "") | (cells == "NA")
    bad = np.zeros(len(rows), dtype=bool)
    columns = {}
    for field_name, idx in fields:
        col, required, kind = _FIELD_INFO[field_name]
        values, failed = _decode_column(kind, cells[:, idx], blank[:, idx])
        if required:
            for i in np.flatnonzero(blank[:, idx]):
                found.append((row_nos[i], idx, col, "required cell is blank"))
            bad |= blank[:, idx]
        decode = _DECODERS[kind]
        for i in np.flatnonzero(failed):
            try:
                values[i] = decode(str(cells[i, idx]))
            except ValueError as exc:
                found.append((row_nos[i], idx, col, str(exc)))
                bad[i] = True
        columns[field_name] = values
    found.sort(key=lambda d: d[:2])
    diagnostics.extend(CellDiagnostic(row_no, col, msg) for row_no, _, col, msg in found)
    return {name: values[~bad] for name, values in columns.items()}


# datetime64[D] counts days from 1970-01-01
_UNIX_DAY = dt.date(1970, 1, 1).toordinal()
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_distinct(kind: str, distinct: np.ndarray) -> np.ndarray:
    """A non-text column's distinct values, sorted, as CSV cells; NaN is "".

    Numbers are written as _encode_number writes them, clocks as zero-filled
    hhmm, days as ISO dates and flags as integers.
    """
    if kind == "flag":
        return distinct.astype(str).astype(object)
    if kind == "date":
        return (distinct - _UNIX_DAY).astype("datetime64[D]").astype(str).astype(object)
    out = np.full(len(distinct), "", dtype=object)
    present = ~np.isnan(distinct)
    if kind == "hhmm":
        minutes = distinct[present].astype(np.int64)
        if len(minutes):  # zfill fails on an empty array
            out[present] = np.strings.zfill((minutes // 60 * 100 + minutes % 60).astype(str), 4)
        return out
    whole = present & (distinct == np.trunc(distinct)) & (np.abs(distinct) < 2.0 ** 53)
    out[whole] = distinct[whole].astype(np.int64).astype(str)
    rest = np.flatnonzero(present & ~whole)
    out[rest] = [_encode_number(v) for v in distinct[rest].tolist()]
    return out


# --- CSV ---------------------------------------------------------------------------------


@contextlib.contextmanager
def _text_stream(source, mode: str):
    """`source` (a path, or a text or byte stream) as a text stream.

    Closes only the file it opens: a caller's stream is flushed after
    writing and left open, a byte stream's wrapper detached from it.
    """
    if isinstance(source, (str, Path)):
        with open(source, mode + "t", encoding="utf-8", newline="") as stream:
            yield stream
        return
    if isinstance(source, io.TextIOBase):
        stream = source
    else:
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
    try:
        yield stream
    finally:
        if stream is not source:
            stream.detach()  # flushes; collecting the wrapper would close source
        elif mode == "w":
            stream.flush()


def _csv_rows(stream):
    """csv.reader's rows; a malformed CSV is a SchemaError naming its line."""
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"malformed CSV at line {reader.line_num}: {exc}") from None


def read_csv(source):
    """Parse a BTS-style CSV into columns.

    `source` is a path or an open byte/text stream; content must be UTF-8
    with the standard export header row, columns in any order; unknown
    columns are ignored. Missing required columns, or text the csv module
    cannot split into rows, raise SchemaError; a row with more or fewer
    cells than the header, or any bad cell, skips its row and records a
    CellDiagnostic. Rows are read and decoded CHUNK_ROWS at a time. Returns
    (flights, diagnostics), the diagnostics ordered by row, then by header
    column.
    """
    with _text_stream(source, "r") as stream:
        reader = _csv_rows(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: header row required") from None
        col_to_idx: dict[str, int] = {}
        for idx, col in enumerate(header):
            field_name = _HEADER_MAP.get(col)
            if field_name is not None and field_name not in col_to_idx:
                col_to_idx[field_name] = idx
        missing = [f for f in _REQUIRED_FIELDS if f not in col_to_idx]
        if missing:
            cols = ", ".join(_FIELD_INFO[f][0] for f in missing)
            raise SchemaError(f"missing required columns: {cols}")

        fields = tuple(col_to_idx.items())
        parts = {name: [np.empty(0, _DTYPES[_FIELD_INFO[name][2]])] for name in col_to_idx}
        diagnostics: list[CellDiagnostic] = []
        first_row = 1
        while block := list(itertools.islice(reader, CHUNK_ROWS)):
            chunk = _decode_chunk(block, first_row, len(header), fields, diagnostics)
            for name, values in chunk.items():
                parts[name].append(values)
            first_row += len(block)
        columns = {name: np.concatenate(parts.pop(name)) for name in col_to_idx}
        n = len(columns["fl_date"])
        for name, (_, _, kind) in _FIELD_INFO.items():
            if name not in columns:  # optional column absent from the header
                columns[name] = np.full(n, "" if kind == "text" else np.nan, _DTYPES[kind])
        return Flights(columns), diagnostics


def write_csv(flights: Flights, sink) -> int:
    """Write flights in the standard column order; returns the row count.

    Cells are formatted and quoted as the module docstring says. Values
    round-trip: read_csv(write_csv(flights)) reproduces the columns, except
    that text reads back stripped of surrounding whitespace and "NA" blank.
    """
    with _text_stream(sink, "w") as stream:
        stream.write(",".join(BTS_COLUMNS) + "\n")
        for start in range(0, len(flights), CHUNK_ROWS):
            cells = []
            for _, name, _, kind in _COLUMN_SPEC:
                values = getattr(flights, name)[start:start + CHUNK_ROWS]
                if kind == "text":  # hashing str beats sorting StringDType
                    text = values.tolist()
                    quoted = {v: '"' + v.replace('"', '""') + '"'
                              for v in set(text) if _NEEDS_QUOTES.search(v)}
                    cells.append(map(quoted.get, text, text) if quoted else text)
                else:
                    distinct, codes = np.unique(values, return_inverse=True)
                    cells.append(_format_distinct(kind, distinct)[codes].tolist())
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return len(flights)
