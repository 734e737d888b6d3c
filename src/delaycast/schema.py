r"""On-time flight records as columns: hhmm clock handling, CSV ingest/emit.

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
- text is a `TextColumn`, after Arrow's dictionary arrays: int32 codes into
  a vocabulary of distinct str sorted by code point, "" where blank.

A cell is blank when it is empty or "NA" after stripping whitespace.
`Flights` refuses a non-text value outside its kind's domain and a text
column whose vocabulary is not sorted distinct str or whose codes fall
outside it, and keeps its arrays read-only, so every value it holds is one
a CSV cell can carry.

The reader takes RFC 4180 CSV in UTF-8. A record ends in "\n" or "\r\n"
(the last one may lack it). A field is either unquoted, holding no '"',
",", "\r" or "\n", or quoted: '"' at its first byte opens it, a '"'
directly before "," or the record end closes it, and a '"' inside it is
doubled. A blank line is a record with no cells: it counts in the row
numbers of diagnostics and is skipped. Any other shape is a
`SchemaError("malformed CSV at line N: ...")`, N counting line feeds from
1 (header included) up to the offending byte of the first fault, however
the read blocks split the input:

- a '"' not at a field's first byte: "quote inside an unquoted field";
- a closing '"' followed by anything but ",", a record end or a second
  '"': "quoted field not followed by a comma or a line end";
- a quote still open at the end of the input: "quoted field not closed at
  end of data";
- "\r" outside quotes not directly before "\n": "new-line character
  '\r' not followed by '\n'";
- a field over 131072 bytes (csv's default limit), quotes included:
  "field larger than field limit (131072)";
- bytes that are not UTF-8: "invalid UTF-8 (<reason>)".

The reader tokenizes the bytes, not Python strings: it reads BLOCK_BYTES at
a time, finds every '"', ",", "\r" and "\n" in one array operation, keeps
the separators outside quotes by the parity of the quote count before them
(the structural masks of Langdale & Lemire, "Parsing Gigabytes of JSON per
Second", VLDB J. 2019), and cuts the block after its last record end, the
rest carried into the next block. Cells then decode CHUNK_ROWS records at a
time, one column at a time:

- plain numbers (-?digits, -?digits.digits) and hhmm clocks straight from
  the bytes, as an exact mantissa over an exact power of ten, which IEEE
  division rounds correctly (Clinger's fast path, PLDI 1990), so a value is
  bit-equal to `float(cell)`;
- dates once per distinct value, text once per distinct value: unquoted,
  decoded and stripped; each chunk's text values join their column's
  vocabulary, which is sorted once at the end;
- every other cell (padded, signed with "+", with an exponent, "NA", bad)
  stripped, then through the scalar decoder of its kind, which words every
  diagnostic.

Ingest is strict per cell: a bad cell skips the whole row and leaves a
diagnostic, never a silently-coerced value.

The writer encodes by dictionary, as Arrow and Parquet do: a column's
distinct cells are formatted once per write, each ending in its separator,
and CHUNK_ROWS rows at a time every cell is looked up among them and the
rows joined. A text column's dictionary is its vocabulary. A non-text
column whose present values are whole numbers below 2**53 in absolute
value, spanning at most _CODE_SPAN values (clocks, minutes, miles, flags,
days), is coded as value - min with no sort, a blank as the span, and only
the values that occur are formatted. Any other column is sorted and
formatted per chunk instead, so that a column of mostly distinct values
holds no more than a chunk of cells at once. A text value is quoted, its
quotes doubled, when it holds `,`, `"`, a line feed or a carriage return;
no other cell is quoted.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.dtypes import StringDType
from numpy.lib.stride_tricks import sliding_window_view

# Rows decoded per vectorized step; bounds the reader's and writer's
# transient memory independently of the file's length.
CHUNK_ROWS = 8192
# Bytes the reader takes from its source at a time.
BLOCK_BYTES = 1 << 20
# A whole-number column whose present values span at most this many is
# written with codes value - min, so no sort.
_CODE_SPAN = 1 << 16
# csv's default field_size_limit, counted in bytes; it also bounds the part
# of a block carried into the next.
FIELD_LIMIT = 131072

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


# Column kinds: how a cell decodes and how its column is stored (text: its codes).
_DECODERS = {"date": _decode_day, "int": _decode_int,
             "flag": _decode_flag, "hhmm": parse_hhmm, "number": _decode_float,
             "component": _decode_component}
_DTYPES = {"date": np.int64, "text": np.int32, "flag": np.int8, "int": np.float64,
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


# the bits of the one NaN the reader gives a blank cell
_NAN_BITS = np.float64(np.nan).view(np.int64)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class TextColumn:
    """A text column as integer codes into its vocabulary, after Arrow's dictionary arrays.

    `vocabulary` is an object array of distinct str sorted by code point, so
    the codes are canonical and order as their values do; row i holds
    `vocabulary[codes[i]]`. Both arrays are read-only. `Flights` keeps the
    codes as int32. The vocabulary may hold values no row uses: indexing
    takes rows by their codes and shares the vocabulary.
    """

    __slots__ = ("codes", "vocabulary")

    def __init__(self, codes, vocabulary):
        self.codes = _read_only(np.asarray(codes))
        self.vocabulary = _read_only(np.asarray(vocabulary, dtype=object))

    @classmethod
    def encode(cls, values) -> "TextColumn":
        """Dictionary-encode an array or sequence of str."""
        vocabulary, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
        return cls(codes, vocabulary)

    def __getitem__(self, index) -> "TextColumn":
        return TextColumn(self.codes[index], self.vocabulary)


def _checked_text(name: str, column: TextColumn, n: int) -> TextColumn:
    """The column with int32 codes; a SchemaError naming the field if Flights cannot keep it."""
    if column.codes.shape != (n,):
        raise SchemaError(f"column {name} has shape {column.codes.shape}, expected ({n},)")
    if column.codes.dtype.kind not in "iu":
        raise SchemaError(f"{name} codes are {column.codes.dtype}, not integers")
    words = column.vocabulary.tolist()
    for i, word in enumerate(words):
        if not isinstance(word, str):
            raise SchemaError(f"{name} vocabulary entry {i}: {word!r} is not str")
        if i and not words[i - 1] < word:
            raise SchemaError(f"{name} vocabulary is not sorted and distinct: "
                              f"{words[i - 1]!r} before {word!r}")
    outside = (column.codes < 0) | (column.codes >= len(words))
    if outside.any():
        i = int(np.argmax(outside))
        raise SchemaError(f"{name} row {i}: code {column.codes[i]} is outside its "
                          f"vocabulary of {len(words)} values")
    if column.codes.dtype != np.int32:  # cast once checked, so no code wraps into range
        column = TextColumn(column.codes.astype(np.int32), column.vocabulary)
    return column


class Flights:
    """Flight rows as columns: attribute `<field>` is that field's column.

    A non-text column is one array of its kind's dtype; a text column is a
    `TextColumn`. Every column has one entry per row and holds only values a
    CSV cell of its kind can carry (module docstring); the arrays are
    read-only. `len()` counts rows, `select(index)` keeps the rows a
    boolean mask or an index array picks, in that order, and `canonical()`
    gives the rows as a CSV of them reads back.
    """

    FIELDS = tuple(_FIELD_INFO)

    def __init__(self, columns):
        """`columns` maps every field name to a one-dimensional array.

        A text field may instead map to a `TextColumn`; an array of str is
        dictionary-encoded into one. A non-text value outside its kind's
        domain, NaN in a required column, or a text column that is not
        str values (a vocabulary unsorted, holding a duplicate or a non-str,
        or a code outside it) is a SchemaError naming the field. Each
        non-text array is cast to its kind's dtype (not copied when it has
        it) and made read-only.
        """
        wrong = sorted(set(columns) ^ set(self.FIELDS))
        if wrong:
            raise SchemaError(f"missing or unknown flight fields: {', '.join(wrong)}")
        self._n = len(columns["fl_date"])
        for name, (_, required, kind) in _FIELD_INFO.items():
            values = columns[name]
            if kind == "text":
                if not isinstance(values, TextColumn):
                    try:
                        values = TextColumn.encode(values)
                    except TypeError:  # the sort met values it cannot order
                        raise SchemaError(f"{name} holds values that are not str") from None
                setattr(self, name, _checked_text(name, values, self._n))
                continue
            if values.shape != (self._n,):
                raise SchemaError(
                    f"column {name} has shape {values.shape}, expected ({self._n},)")
            ok = _NUMBER_OK[kind](values)
            if not required:
                ok |= np.isnan(values)
            if not ok.all():
                i = int(np.argmin(ok))
                raise SchemaError(
                    f"{name} row {i}: {values[i].item()!r} is not {_DOMAINS[kind]}")
            if values.dtype != _DTYPES[kind]:
                values = values.astype(_DTYPES[kind])
            setattr(self, name, _read_only(values))

    def __len__(self) -> int:
        return self._n

    def select(self, index) -> "Flights":
        # every value comes from this checked Flights, so the domains still hold
        subset = object.__new__(Flights)
        for name in self.FIELDS:
            values = getattr(self, name)[index]
            setattr(subset, name, values if isinstance(values, TextColumn) else _read_only(values))
        subset._n = len(subset.fl_date)
        return subset

    def canonical(self) -> "Flights":
        """These rows as `read_csv` reads them back once `write_csv` wrote them.

        Each text vocabulary shrinks to the values some row uses, its codes
        renumbered, and each float column holds 0.0 where it held -0.0 (both
        are written "0") and numpy's one NaN for any NaN (written blank).
        A column already in that form is shared, not copied.
        """
        out = object.__new__(Flights)
        for name in self.FIELDS:
            values = getattr(self, name)
            if isinstance(values, TextColumn):
                used = np.bincount(values.codes, minlength=len(values.vocabulary)) > 0
                if not used.all():
                    renumber = np.cumsum(used, dtype=np.int32) - 1
                    values = TextColumn(renumber[values.codes], values.vocabulary[used])
            elif values.dtype.kind == "f":  # masks, not copies, until a value differs
                nan = np.isnan(values)
                if (((values == 0) & np.signbit(values)).any()
                        or (values[nan].view(np.int64) != _NAN_BITS).any()):
                    values = _read_only(np.where(nan, np.nan, values + 0.0))
            setattr(out, name, values)
        out._n = self._n
        return out


# --- vectorized decoding/encoding --------------------------------------------------------


_POW10 = 10.0 ** np.arange(23)  # every power of ten up to 1e22 is an exact double
_NUMBER_BYTES = 24  # longer number cells take the string path
_TEXT_BYTES = 64    # longer text cells are decoded one by one
_PADDING = b"\n" + bytes(_TEXT_BYTES)  # after the data: a line end, then room to gather
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # low k bytes
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it loses no bits


def _cell_text(data: np.ndarray, start: int, end: int) -> str:
    """The cell data[start:end] as text: unquoted, its doubled quotes undone."""
    raw = data[start:end].tobytes()
    if raw[:1] == b'"':
        raw = raw[1:-1].replace(b'""', b'"')
    return raw.decode("utf-8")


def _plain_numbers(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Cells of the form -?digits or -?digits.digits, parsed from their bytes.

    Returns (values, plain, integral). `plain` marks the cells of that form
    of at most _NUMBER_BYTES bytes whose digits, read as one integer, stay
    below 2**53, with at most 22 after the point. That integer and the power
    of ten are then exact doubles and their quotient is correctly rounded,
    so each plain value is bit-equal to float(cell); "-0" is -0.0.
    `integral` marks the plain cells made of digits alone.
    """
    length = ends - starts
    width = max(1, min(int(length.max(initial=0)), _NUMBER_BYTES))
    at = np.arange(width)[:, None]
    raw = data.take(starts + at)  # raw[j]: byte j of every cell
    inside = at < length
    digit = raw - ord("0")  # uint8: bytes below "0" wrap past 9
    is_digit = (digit <= 9) & inside
    is_dot = (raw == ord(".")) & inside
    neg = (raw[0] == ord("-")) & (length > 0)
    n_digits = is_digit.sum(axis=0)
    n_dots = frac = 0  # digits after the point
    if is_dot.any():
        n_dots = is_dot.sum(axis=0)
        frac = np.where(n_dots > 0, length - 1 - (is_dot * at).sum(axis=0), 0)
    mantissa = np.zeros(len(starts), dtype=np.int64)
    for j in range(width):
        mantissa = np.where(is_digit[j], mantissa * 10 + digit[j], mantissa)
    plain = ((n_digits + n_dots + neg == length) & (n_dots <= 1) & (n_digits > frac)
             & (frac >= n_dots) & (frac <= 22) & (n_digits <= 18) & (mantissa < 2 ** 53))
    values = mantissa / _POW10[np.minimum(frac, 22)]
    np.negative(values, out=values, where=neg)
    return values, plain, plain & (n_dots == 0) & ~neg


def _number_cells(kind: str, data, starts, ends):
    """A number, int, component, flag or hhmm column: (values, blank, rest).

    Plain cells in the kind's domain are decoded here; `rest` lists the
    other non-empty cells, left to the string path with their values NaN.
    """
    length = ends - starts
    values, plain, integral = _plain_numbers(data, starts, ends)
    if kind == "hhmm":
        hh, mm = np.divmod(values, 100)
        ok = (integral & (length >= 3) & (length <= 4)
              & (((hh <= 23) & (mm <= 59)) | (values == 2400)))
        values = hh * 60 + mm
    else:
        ok = plain & _NUMBER_OK[kind](values)
    blank = length == 0
    return np.where(ok, values, np.nan), blank, np.flatnonzero(~ok & ~blank)


def _day_or_zero(raw: str) -> int:
    try:
        return _decode_day(raw)
    except ValueError:
        return 0


def _date_cells(data, starts, ends):
    """A date column: (values, blank, rest); each distinct value is decoded once.

    `rest` lists the non-blank cells `_decode_day` refuses, their values 0.
    """
    dictionary, codes, blank = _text_cells(data, starts, ends)
    values = np.array([_day_or_zero(raw) for raw in dictionary], dtype=np.int64)[codes]
    return values, blank, np.flatnonzero((values == 0) & ~blank)


def _text_cells(data, starts, ends):
    """A text column as (dictionary, codes, blank): cell i is dictionary[codes[i]].

    The dictionary is a list of str in no particular order, and two of its
    entries may be equal, as " AA" and "AA" or "NA" and "" are once stripped.

    Cells of up to _TEXT_BYTES bytes are grouped by a hash of their bytes
    and length, and each checked against its group's first. Each group, and
    each cell left alone (a longer one or, should two values share a hash,
    one unlike its group's first), is unquoted, decoded and stripped once.
    """
    length = ends - starts
    n_words = max(1, -(-min(int(length.max(initial=0)), _TEXT_BYTES) // 8))
    short = np.flatnonzero(length <= 8 * n_words)
    words = sliding_window_view(data, 8 * n_words)[starts[short]].view("<u8")
    words &= _KEEP[np.clip(length[short, None] - 8 * np.arange(n_words), 0, 8)]
    key = length[short].astype(np.uint64)
    for j in range(n_words):
        key = (key ^ words[:, j]) * _MIX
    distinct, inverse = np.unique(key, return_inverse=True)
    first = np.empty(len(distinct), dtype=np.intp)  # one cell of each group
    first[inverse] = np.arange(len(key))
    grouped = np.zeros(len(starts), dtype=bool)
    grouped[short] = ((words == words[first][inverse]).all(axis=1)
                      & (length[short] == length[short][first][inverse]))
    alone = np.flatnonzero(~grouped)
    codes = np.empty(len(starts), dtype=np.intp)
    codes[short] = inverse
    codes[alone] = len(first) + np.arange(len(alone))
    at = np.concatenate((short[first], alone)).tolist()
    dictionary = np.strings.strip(np.array(
        [_cell_text(data, starts[i], ends[i]) for i in at], dtype=_TEXT))
    blank = (dictionary == "") | (dictionary == "NA")
    dictionary[blank] = ""
    return dictionary.tolist(), codes, blank[codes]


def _decode_chunk(data, starts, ends, counts, first_row: int, width: int, fields,
                  diagnostics) -> dict:
    """Decode records numbered from `first_row`; returns the good rows' columns.

    `counts` holds each record's field count, `starts` and `ends` each
    field's span in `data`. A text column comes back as (dictionary, codes)
    as `_text_cells` gives them. Appends the chunk's diagnostics in (row,
    header column) order.
    """
    firsts = np.cumsum(counts) - counts
    empty = (counts == 1) & (starts[firsts] == ends[firsts])  # a blank line
    found = [(first_row + r, -1, "*", f"expected {width} cells, got {counts[r]}")
             for r in np.flatnonzero((counts != width) & ~empty).tolist()]
    whole = (counts == width) & ~empty
    rows = np.flatnonzero(whole)
    row_nos = (first_row + rows).tolist()
    # the whole records' spans as a grid with one row per column
    field = np.repeat(whole, counts)
    starts = starts[field].reshape(-1, width).T.copy()
    ends = ends[field].reshape(-1, width).T.copy()
    bad = np.zeros(len(rows), dtype=bool)
    columns, dictionaries = {}, {}
    for field_name, idx in fields:
        col, required, kind = _FIELD_INFO[field_name]
        s, e = starts[idx], ends[idx]
        rest = ()
        if kind == "text":  # values are codes into the dictionary
            dictionaries[field_name], values, blank = _text_cells(data, s, e)
        elif kind == "date":
            values, blank, rest = _date_cells(data, s, e)
        else:
            values, blank, rest = _number_cells(kind, data, s, e)
        if len(rest):  # padded, "+", exponent, "NA" or bad: the scalar decoder words it
            cells = np.strings.strip(np.array(
                [_cell_text(data, *span) for span in zip(s[rest].tolist(), e[rest].tolist())],
                dtype=_TEXT)).tolist()
            decode = _DECODERS[kind]
            for i, cell in zip(rest.tolist(), cells):
                if cell in ("", "NA"):
                    blank[i] = True
                    continue
                try:
                    values[i] = decode(cell)
                except ValueError as exc:
                    found.append((row_nos[i], idx, col, str(exc)))
                    bad[i] = True
        if required:
            for i in np.flatnonzero(blank).tolist():
                found.append((row_nos[i], idx, col, "required cell is blank"))
            bad |= blank
        columns[field_name] = values
    found.sort(key=lambda d: d[:2])
    diagnostics.extend(CellDiagnostic(row_no, col, msg) for row_no, _, col, msg in found)
    return {name: (dictionaries[name], values[~bad]) if name in dictionaries
            else values[~bad] for name, values in columns.items()}


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
def _text_sink(sink):
    """`sink` (a path, or a text or byte stream) as a text stream.

    Closes only the file it opens: a caller's stream is flushed and left
    open, a byte stream's wrapper detached from it.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "wt", encoding="utf-8", newline="") as stream:
            yield stream
        return
    stream = sink if isinstance(sink, io.TextIOBase) else \
        io.TextIOWrapper(sink, encoding="utf-8", newline="")
    try:
        yield stream
    finally:
        if stream is sink:
            stream.flush()
        else:
            stream.detach()  # flushes; collecting the wrapper would close sink


_QUOTE, _COMMA, _CR, _LF = b'",\r\n'


def _tokenize(buf: np.ndarray, size: int, line: int, final: bool):
    """Split the whole records at the front of buf[:size] into fields.

    buf[:size] starts at a record start on line `line`, and `_PADDING`
    follows it. `final` says no more data follows; a last record without a
    line end is then taken whole. Returns (used, starts, ends, counts,
    lines): the byte count of the whole records, each of their fields'
    [start, end) span (quotes kept, the "\\r" of a "\\r\\n" left out), each
    record's field count and the line feeds they hold. A malformed shape
    among them, an unfinished field over FIELD_LIMIT bytes or bytes that
    are not UTF-8 are a SchemaError naming the line of the first fault.
    """
    end = size + 1 if final and size and buf[size - 1] != _LF else size
    data = buf[:end]
    special = np.flatnonzero((data == _QUOTE) | (data == _COMMA) | (data == _LF) | (data == _CR))
    kind = buf[special]
    quote = kind == _QUOTE
    quotes_to = np.cumsum(quote, dtype=np.uint8)  # wraps at 256, which keeps the parity
    outside = (quotes_to - quote) % 2 == 0  # an even count of quotes before it
    sep = outside & ((kind == _COMMA) | (kind == _LF))
    seps, is_lf = special[sep], kind[sep] == _LF
    record_ends = np.flatnonzero(is_lf)
    n = record_ends[-1] + 1 if len(record_ends) else 0
    used = int(seps[n - 1]) + 1 if n else 0
    # (byte offset, what): the first in the data is raised, a UTF-8 fault
    # before any other at the same byte. A quote, a "\r" or a UTF-8 sequence
    # is judged once the bytes after it are in.
    errors = []
    try:
        str(memoryview(buf)[:size], "utf-8")  # only to check the bytes
    except UnicodeDecodeError as exc:
        if final or exc.end < size:
            errors.append((exc.start, f"invalid UTF-8 ({exc.reason})"))
    crs = special[outside & (kind == _CR)]
    too_long = f"field larger than field limit ({FIELD_LIMIT})"
    open_at = int(seps[-1]) + 1 if len(seps) else 0
    # a "\r" ending the block may be the start of a record end
    if end - open_at - int(len(crs) > 0 and crs[-1] == end - 1) > FIELD_LIMIT:
        errors.append((open_at, too_long))
    quotes = special[quote]
    opens, closes = quotes[0::2], quotes[1::2]
    if final and len(quotes) % 2:  # one past the quote: a misplaced one is named first
        errors.append((quotes[-1] + 1, "quoted field not closed at end of data"))
    before = buf[opens - 1]
    errors += [(at, "quote inside an unquoted field") for at in opens[
        (opens > 0) & (before != _COMMA) & (before != _LF) & (before != _QUOTE)][:1]]
    after = buf[closes + 1]
    errors += [(at, "quoted field not followed by a comma or a line end") for at in closes[
        (after != _COMMA) & (after != _LF) & (after != _QUOTE)
        & ((after != _CR) | (buf[closes + 2] != _LF)) & (final | (closes + 2 < size))][:1]]
    crlf = (buf[crs + 1] == _LF) & (crs + 1 < size)
    errors += [(at, "new-line character '\\r' not followed by '\\n'")
               for at in crs[~crlf & (final | (crs + 1 < size))][:1]]
    seps, is_lf = seps[:n], is_lf[:n]
    starts = np.empty_like(seps)
    starts[:1] = 0
    np.add(seps[:-1], 1, out=starts[1:])
    ends = seps.copy()
    ends[np.searchsorted(seps, crs[crlf & (crs < used)] + 1)] -= 1
    errors += [(at, too_long) for at in starts[ends - starts > FIELD_LIMIT][:1]]
    if errors:
        at, what = min(errors, key=lambda error: error[0])
        raise SchemaError(f"malformed CSV at line {line + np.count_nonzero(data[:at] == _LF)}: "
                          f"{what}")
    lines = int(np.count_nonzero(kind[:np.searchsorted(special, used)] == _LF))
    counts = np.diff(record_ends, prepend=-1)
    # at the end, the last line end may be the padding's
    return min(used, size), starts, ends, counts, lines


def _record_chunks(stream):
    """Tokenized records of a byte or text stream, at most CHUNK_ROWS at a time.

    Reads BLOCK_BYTES at a time (text is encoded to UTF-8). Yields (data,
    starts, ends, counts) as `_tokenize` gives them, `data` holding the
    block's bytes.
    """
    rest, line, final = b"", 1, False
    while not final:
        block = stream.read(BLOCK_BYTES)
        if isinstance(block, str):
            block = block.encode("utf-8", "surrogatepass")  # lone surrogates fail the check
        final = not block
        data = rest + block
        buf = np.frombuffer(data + _PADDING, dtype=np.uint8)
        used, starts, ends, counts, lines = _tokenize(buf, len(data), line, final)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for i in range(0, len(counts), CHUNK_ROWS):
            j = min(i + CHUNK_ROWS, len(counts))
            yield buf, starts[bounds[i]:bounds[j]], ends[bounds[i]:bounds[j]], counts[i:j]
        rest, line = data[used:], line + lines


def read_csv(source):
    """Parse a BTS-style CSV into columns.

    `source` is a path or an open byte/text stream, whose text must be
    RFC 4180 CSV in UTF-8, records ending in "\\n" or "\\r\\n", with the
    standard export header row first; columns come in any order and
    unknown ones are ignored. A malformed CSV (each shape and its message
    are listed in the module docstring) or a missing required column raises
    SchemaError. A row with more or fewer cells than the header, or any bad
    cell, skips its row and records a CellDiagnostic; a blank line is
    skipped but counts in the row numbers. Records are decoded CHUNK_ROWS at
    a time. Returns (flights, diagnostics), the diagnostics ordered by row,
    then by header column.
    """
    with open(source, "rb") if isinstance(source, (str, Path)) else \
            contextlib.nullcontext(source) as stream:
        chunks = _record_chunks(stream)
        data, starts, ends, counts = next(chunks, (None,) * 4)
        if data is None:
            raise SchemaError("empty input: header row required")
        width = int(counts[0])
        header = [_cell_text(data, *span) for span in zip(starts[:width].tolist(),
                                                          ends[:width].tolist())]
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
        # per text column: each distinct value -> its code, in order of arrival
        vocabularies = {name: {} for name in col_to_idx if _FIELD_INFO[name][2] == "text"}
        diagnostics: list[CellDiagnostic] = []
        first_row = 1
        rest = (data, starts[width:], ends[width:], counts[1:])
        for data, starts, ends, counts in itertools.chain([rest], chunks):
            chunk = _decode_chunk(data, starts, ends, counts, first_row, width, fields,
                                  diagnostics)
            for name, values in chunk.items():
                if name in vocabularies:
                    dictionary, codes = values
                    index = vocabularies[name]
                    values = np.array([index.setdefault(word, len(index)) for word in dictionary],
                                      dtype=np.int32)[codes]
                parts[name].append(values)
            first_row += len(counts)
        columns = {name: np.concatenate(parts.pop(name)) for name in col_to_idx}
        for name, index in vocabularies.items():  # codes by arrival -> codes by value
            vocabulary, rank = np.unique(np.array(list(index), dtype=object), return_inverse=True)
            columns[name] = TextColumn(rank.astype(np.int32)[columns[name]], vocabulary)
        n = len(columns["fl_date"])
        for name, (_, _, kind) in _FIELD_INFO.items():
            if name not in columns:  # optional column absent from the header
                columns[name] = TextColumn(np.zeros(n, np.int32), [""]) if kind == "text" \
                    else np.full(n, np.nan, _DTYPES[kind])
        return Flights(columns), diagnostics


def _non_text_cells(kind: str, values: np.ndarray, end: str):
    """A function giving the cells of any slice of a non-text column, each ending in `end`.

    A column coded as value - min (module docstring) has its cells
    formatted once, here; any other is sorted and formatted per slice.
    """
    floating = values.dtype.kind == "f"
    present = values[~np.isnan(values)] if floating else values
    lo, hi = (present.min().item(), present.max().item()) if len(present) else (0, -1)
    if (hi - lo >= _CODE_SPAN or max(-lo, hi) >= 2.0 ** 53
            or floating and not (present == np.trunc(present)).all()):
        def sorted_cells(chunk):
            distinct, codes = np.unique(chunk, return_inverse=True)
            return (_format_distinct(kind, distinct) + end)[codes]
        return sorted_cells
    span = int(hi - lo) + 1

    def codes(chunk):  # fmin takes span over NaN
        return np.fmin(chunk - lo, span).astype(np.intp)

    occurs = np.flatnonzero(np.bincount(codes(values), minlength=span + 1)[:span])
    cells = np.full(span + 1, end, dtype=object)  # the last is a blank's
    cells[occurs] = _format_distinct(kind, lo + occurs) + end
    return lambda chunk: cells[codes(chunk)]


def write_csv(flights: Flights, sink) -> int:
    """Write flights in the standard column order; returns the row count.

    Cells are formatted and quoted as the module docstring says. Values
    round-trip as `Flights.canonical` gives them: read_csv(write_csv(flights))
    equals flights.canonical() bit for bit, so -0.0 reads back as 0.0 and
    each vocabulary holds only the values some row uses. That holds for
    rows `read_csv` gave (or any selection of them), whose text is already
    as it reads back; other text reads back stripped of surrounding
    whitespace, "NA" blank, and a row blank in a required column is skipped.
    """
    # per column: the array sliced per chunk, and slice -> its cells, each
    # ending in the column's separator
    columns = []
    for j, (_, name, _, kind) in enumerate(_COLUMN_SPEC):
        end = "\n" if j == len(_COLUMN_SPEC) - 1 else ","
        column = getattr(flights, name)
        if kind == "text":
            cells = np.array([('"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v)
                               else v) + end for v in column.vocabulary.tolist()], dtype=object)
            columns.append((column.codes, cells.__getitem__))
        else:
            columns.append((column, _non_text_cells(kind, column, end)))
    with _text_sink(sink) as stream:
        stream.write(",".join(BTS_COLUMNS) + "\n")
        for start in range(0, len(flights), CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, len(flights))
            rows = np.empty((stop - start, len(columns)), dtype=object)
            for j, (column, cells) in enumerate(columns):
                rows[:, j] = cells(column[start:stop])
            stream.write("".join(rows.ravel().tolist()))
        return len(flights)
