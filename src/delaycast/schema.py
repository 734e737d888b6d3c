"""On-time flight records: typed rows, hhmm clock handling, CSV ingest/emit.

Records mirror the public BTS on-time performance export (32 columns). Clock
columns arrive as 3-4 digit hhmm strings and are stored as minutes past
midnight; dates are ISO YYYY-MM-DD. Ingest is strict per cell: a bad cell
skips the whole row and leaves a diagnostic, never a silently-coerced value.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

# Minutes past midnight produced by hhmm conversion; 0..1440 ("2400" is valid).
ClockMinutes = int


class SchemaError(ValueError):
    """Malformed header or record-level invariant violation."""


def parse_hhmm(raw: str) -> ClockMinutes:
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


def format_hhmm(minutes: ClockMinutes) -> str:
    """Inverse of parse_hhmm for minutes in [0, 1440]; 1440 renders as '2400'."""
    if not (0 <= minutes <= 1440):
        raise ValueError(f"minutes out of range for hhmm: {minutes}")
    return f"{minutes // 60:02d}{minutes % 60:02d}"


COMPONENT_FIELDS = (
    "delay_due_carrier",
    "delay_due_weather",
    "delay_due_nas",
    "delay_due_security",
    "delay_due_late_aircraft",
)

_HHMM_FIELDS = ("crs_dep_time", "dep_time", "wheels_off", "wheels_on",
                "crs_arr_time", "arr_time")
_MINUTE_FIELDS = ("dep_delay", "arr_delay", "taxi_out", "taxi_in",
                  "crs_elapsed_time", "elapsed_time", "air_time")


@dataclass(frozen=True)
class DelayVector:
    """The five additive arrival-delay components, in minutes."""

    carrier: float
    weather: float
    nas: float
    security: float
    late_aircraft: float

    def total(self) -> float:
        return self.carrier + self.weather + self.nas + self.security + self.late_aircraft

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.carrier, self.weather, self.nas, self.security, self.late_aircraft)


@dataclass(frozen=True)
class FlightRecord:
    """One flight row. Optional fields are None when the source cell is blank."""

    fl_date: dt.date
    airline: str
    origin: str
    dest: str
    cancelled: int
    diverted: int
    airline_dot: str = ""
    airline_code: str = ""
    dot_code: str = ""
    fl_number: int = 0
    origin_city: str = ""
    dest_city: str = ""
    crs_dep_time: Optional[ClockMinutes] = None
    dep_time: Optional[ClockMinutes] = None
    wheels_off: Optional[ClockMinutes] = None
    wheels_on: Optional[ClockMinutes] = None
    crs_arr_time: Optional[ClockMinutes] = None
    arr_time: Optional[ClockMinutes] = None
    dep_delay: Optional[float] = None
    arr_delay: Optional[float] = None
    taxi_out: Optional[float] = None
    taxi_in: Optional[float] = None
    crs_elapsed_time: Optional[float] = None
    elapsed_time: Optional[float] = None
    air_time: Optional[float] = None
    distance: Optional[float] = None
    cancellation_code: Optional[str] = None
    delay_due_carrier: Optional[float] = None
    delay_due_weather: Optional[float] = None
    delay_due_nas: Optional[float] = None
    delay_due_security: Optional[float] = None
    delay_due_late_aircraft: Optional[float] = None

    def __post_init__(self):
        if self.cancelled not in (0, 1):
            raise SchemaError(f"cancelled flag must be 0 or 1, got {self.cancelled!r}")
        if self.diverted not in (0, 1):
            raise SchemaError(f"diverted flag must be 0 or 1, got {self.diverted!r}")
        for name in _HHMM_FIELDS:
            v = getattr(self, name)
            if v is not None and not (0 <= v <= 1440):
                raise SchemaError(f"{name} out of clock range: {v}")
        for name in COMPONENT_FIELDS:
            v = getattr(self, name)
            if v is not None and v < 0:
                raise SchemaError(f"{name} must be >= 0, got {v}")

    def delay_components(self) -> Optional[DelayVector]:
        """The component group, or None unless all five are present."""
        vals = [getattr(self, name) for name in COMPONENT_FIELDS]
        if any(v is None for v in vals):
            return None
        return DelayVector(*vals)


@dataclass(frozen=True)
class CellDiagnostic:
    """One rejected cell; `row` is the 1-based data-row ordinal (header excluded)."""

    row: int
    column: str
    message: str

    def __str__(self) -> str:
        return f"row={self.row} col={self.column} err={self.message}"


# --- cell decoding/encoding ---------------------------------------------------


def _decode_date(raw: str) -> dt.date:
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"invalid ISO date {raw!r}") from None


def _decode_int(raw: str) -> int:
    try:
        f = float(raw)
    except ValueError:
        raise ValueError(f"invalid integer {raw!r}") from None
    if f != int(f):
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


def _encode_date(v: dt.date) -> str:
    return v.isoformat()


def _encode_number(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


def _encode_str(v) -> str:
    return v


# (column, field, required, decoder, encoder); order is the export column order.
_COLUMN_SPEC = (
    ("FL_DATE", "fl_date", True, _decode_date, _encode_date),
    ("AIRLINE", "airline", True, str, _encode_str),
    ("AIRLINE_DOT", "airline_dot", False, str, _encode_str),
    ("AIRLINE_CODE", "airline_code", False, str, _encode_str),
    ("DOT_CODE", "dot_code", False, str, _encode_str),
    ("FL_NUMBER", "fl_number", False, _decode_int, _encode_number),
    ("ORIGIN", "origin", True, str, _encode_str),
    ("ORIGIN_CITY", "origin_city", False, str, _encode_str),
    ("DEST", "dest", True, str, _encode_str),
    ("DEST_CITY", "dest_city", False, str, _encode_str),
    ("CRS_DEP_TIME", "crs_dep_time", False, parse_hhmm, format_hhmm),
    ("DEP_TIME", "dep_time", False, parse_hhmm, format_hhmm),
    ("DEP_DELAY", "dep_delay", False, _decode_float, _encode_number),
    ("TAXI_OUT", "taxi_out", False, _decode_float, _encode_number),
    ("WHEELS_OFF", "wheels_off", False, parse_hhmm, format_hhmm),
    ("WHEELS_ON", "wheels_on", False, parse_hhmm, format_hhmm),
    ("TAXI_IN", "taxi_in", False, _decode_float, _encode_number),
    ("CRS_ARR_TIME", "crs_arr_time", False, parse_hhmm, format_hhmm),
    ("ARR_TIME", "arr_time", False, parse_hhmm, format_hhmm),
    ("ARR_DELAY", "arr_delay", False, _decode_float, _encode_number),
    ("CANCELLED", "cancelled", True, _decode_flag, _encode_number),
    ("CANCELLATION_CODE", "cancellation_code", False, str, _encode_str),
    ("DIVERTED", "diverted", True, _decode_flag, _encode_number),
    ("CRS_ELAPSED_TIME", "crs_elapsed_time", False, _decode_float, _encode_number),
    ("ELAPSED_TIME", "elapsed_time", False, _decode_float, _encode_number),
    ("AIR_TIME", "air_time", False, _decode_float, _encode_number),
    ("DISTANCE", "distance", False, _decode_float, _encode_number),
    ("DELAY_DUE_CARRIER", "delay_due_carrier", False, _decode_component, _encode_number),
    ("DELAY_DUE_WEATHER", "delay_due_weather", False, _decode_component, _encode_number),
    ("DELAY_DUE_NAS", "delay_due_nas", False, _decode_component, _encode_number),
    ("DELAY_DUE_SECURITY", "delay_due_security", False, _decode_component, _encode_number),
    ("DELAY_DUE_LATE_AIRCRAFT", "delay_due_late_aircraft", False, _decode_component, _encode_number),
)

BTS_COLUMNS = tuple(col for col, *_ in _COLUMN_SPEC)
DEFAULT_HEADER_MAP = {col: field_name for col, field_name, *_ in _COLUMN_SPEC}

_FIELD_INFO = {field_name: (col, required, dec, enc)
               for col, field_name, required, dec, enc in _COLUMN_SPEC}
_STRING_FIELDS = {"airline", "airline_dot", "airline_code", "dot_code",
                  "origin", "origin_city", "dest", "dest_city"}
_REQUIRED_FIELDS = tuple(f for f, (_, req, _, _) in _FIELD_INFO.items() if req)


def _open_text(source, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode + "t", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary stream
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def read_csv(source, header_map: dict | None = None):
    """Parse a BTS-style CSV into records.

    `source` is a path or an open byte/text stream; content must be UTF-8
    with a header row. `header_map` maps column names to FlightRecord field
    names (default: the standard export header). Missing required columns
    raise SchemaError; a row with more or fewer cells than the header, or
    any bad cell, skips its row and records a CellDiagnostic. Returns
    (records, diagnostics).
    """
    header_map = DEFAULT_HEADER_MAP if header_map is None else header_map
    stream, owned = _open_text(source, "r")
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: header row required") from None
        col_to_idx: dict[str, int] = {}
        for idx, col in enumerate(header):
            field_name = header_map.get(col)
            if field_name is not None and field_name not in col_to_idx:
                col_to_idx[field_name] = idx
        missing = [f for f in _REQUIRED_FIELDS if f not in col_to_idx]
        if missing:
            cols = ", ".join(_FIELD_INFO[f][0] for f in missing)
            raise SchemaError(f"missing required columns: {cols}")

        records: list[FlightRecord] = []
        diagnostics: list[CellDiagnostic] = []
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                diagnostics.append(CellDiagnostic(
                    row_no, "*", f"expected {len(header)} cells, got {len(row)}"))
                continue
            kwargs = {}
            bad = False
            for field_name, idx in col_to_idx.items():
                col, required, decode, _ = _FIELD_INFO[field_name]
                raw = row[idx].strip()
                if raw == "" or raw == "NA":
                    if required:
                        diagnostics.append(CellDiagnostic(row_no, col, "required cell is blank"))
                        bad = True
                    elif field_name in _STRING_FIELDS:
                        kwargs[field_name] = ""
                    # optional non-string fields default to None
                    continue
                try:
                    kwargs[field_name] = decode(raw)
                except ValueError as exc:
                    diagnostics.append(CellDiagnostic(row_no, col, str(exc)))
                    bad = True
            if bad:
                continue
            try:
                records.append(FlightRecord(**kwargs))
            except SchemaError as exc:
                diagnostics.append(CellDiagnostic(row_no, "*", str(exc)))
        return records, diagnostics
    finally:
        if owned:
            stream.close()


def write_csv(records, sink) -> int:
    """Write records in the standard column order; returns the row count.

    Values round-trip: read_csv(write_csv(records)) reproduces the records
    (field values, not byte-level cell formatting).
    """
    stream, owned = _open_text(sink, "w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(BTS_COLUMNS)
        n = 0
        for rec in records:
            row = []
            for col, field_name, _, _, encode in _COLUMN_SPEC:
                v = getattr(rec, field_name)
                if v is None:
                    row.append("")
                else:
                    row.append(encode(v))
            writer.writerow(row)
            n += 1
        return n
    finally:
        if owned:
            stream.close()
        else:
            stream.flush()
