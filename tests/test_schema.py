import csv
import datetime as dt
import gc
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycast import schema
from delaycast.schema import (
    BTS_COLUMNS, CellDiagnostic, FlightRecord, Flights, SchemaError,
    parse_hhmm, read_csv, write_csv,
)


def make_record(**overrides):
    base = dict(
        fl_date=dt.date(2021, 3, 14),
        airline="United Air Lines Inc.",
        airline_dot="United Air Lines Inc.: UA",
        airline_code="UA",
        dot_code="19977",
        fl_number=1437,
        origin="ORD",
        origin_city="Chicago, IL",
        dest="SFO",
        dest_city="San Francisco, CA",
        cancelled=0,
        diverted=0,
        crs_dep_time=parse_hhmm("0810"),
        dep_time=parse_hhmm("0830"),
        wheels_off=parse_hhmm("0845"),
        wheels_on=parse_hhmm("1102"),
        crs_arr_time=parse_hhmm("1055"),
        arr_time=parse_hhmm("1110"),
        dep_delay=20.0,
        arr_delay=15.0,
        taxi_out=15.0,
        taxi_in=8.0,
        crs_elapsed_time=285.0,
        elapsed_time=280.0,
        air_time=257.0,
        distance=1846.0,
        delay_due_carrier=10.0,
        delay_due_weather=0.0,
        delay_due_nas=5.0,
        delay_due_security=0.0,
        delay_due_late_aircraft=0.0,
    )
    base.update(overrides)
    return FlightRecord(**base)


def flights(records):
    return Flights.from_records(records)


def rows(table):
    return [table.row(i) for i in range(len(table))]


# --- hhmm -------------------------------------------------------------------


@pytest.mark.parametrize("raw,minutes", [
    ("1330", 810),
    ("0000", 0),
    ("000", 0),
    ("130", 90),
    ("2400", 1440),
    ("2359", 1439),
])
def test_parse_hhmm_values(raw, minutes):
    assert parse_hhmm(raw) == minutes


@pytest.mark.parametrize("raw", ["2460", "1370", "13305", "13", "", "12a0", "2401", "-130"])
def test_parse_hhmm_rejects(raw):
    with pytest.raises(ValueError, match="hhmm"):
        parse_hhmm(raw)


@given(st.integers(0, 1440))
@settings(max_examples=200, deadline=None)
def test_hhmm_round_trip(minutes):
    assert parse_hhmm(f"{minutes // 60:02d}{minutes % 60:02d}") == minutes


# --- record invariants --------------------------------------------------------


def test_record_flag_validation():
    with pytest.raises(SchemaError, match="cancelled"):
        make_record(cancelled=2)
    with pytest.raises(SchemaError, match="diverted"):
        make_record(diverted=-1)


def test_record_component_nonnegative():
    with pytest.raises(SchemaError, match="delay_due_weather"):
        make_record(delay_due_weather=-1.0)


def test_record_clock_range():
    with pytest.raises(SchemaError, match="crs_dep_time"):
        make_record(crs_dep_time=1441)


# --- csv --------------------------------------------------------------------


def test_write_read_round_trip():
    records = [
        make_record(),
        make_record(fl_number=2, arr_delay=None, delay_due_carrier=None,
                    delay_due_weather=None, delay_due_nas=None,
                    delay_due_security=None, delay_due_late_aircraft=None),
        make_record(fl_number=3, cancelled=1, cancellation_code="B",
                    dep_time=None, arr_time=None),
    ]
    buf = io.StringIO()
    assert write_csv(flights(records), buf) == 3
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(BTS_COLUMNS)
    back, diags = read_csv(io.BytesIO(text.encode()))
    assert diags == []
    assert rows(back) == records


def test_read_csv_missing_required_header():
    text = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED\n2021-01-01,X,A,B,0\n"
    with pytest.raises(SchemaError, match="DIVERTED"):
        read_csv(io.BytesIO(text.encode()))


def test_read_csv_empty_input():
    with pytest.raises(SchemaError, match="header"):
        read_csv(io.BytesIO(b""))


def _csv_with_rows(rows):
    header = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED,ARR_DELAY,DELAY_DUE_WEATHER"
    return io.BytesIO(("\n".join([header] + rows) + "\n").encode())


def test_read_csv_bad_flag_skips_row_with_diagnostic():
    good = "2021-01-01,UA,ORD,SFO,0,0,12,0"
    bad = "2021-01-02,UA,ORD,SFO,2,0,9,0"
    records, diags = read_csv(_csv_with_rows([good, bad, good]))
    assert len(records) == 2
    assert len(diags) == 1
    assert diags[0].row == 2
    assert diags[0].column == "CANCELLED"
    assert str(diags[0]).startswith("row=2 col=CANCELLED err=")


def test_read_csv_negative_component_rejected():
    bad = "2021-01-01,UA,ORD,SFO,0,0,5,-3"
    records, diags = read_csv(_csv_with_rows([bad]))
    assert len(records) == 0
    assert diags[0].column == "DELAY_DUE_WEATHER"


def test_read_csv_blank_component_group_retained():
    row = "2021-01-03,UA,ORD,SFO,0,0,7,"
    records, diags = read_csv(_csv_with_rows([row]))
    assert diags == []
    assert len(records) == 1
    assert records.row(0).delay_due_weather is None
    assert records.row(0).arr_delay == 7.0


def test_read_csv_short_row_skipped_with_diagnostic():
    good = "2021-01-01,UA,ORD,SFO,0,0,12,0"
    short = "2021-01-02,UA,ORD,SFO,0,0,9"
    records, diags = read_csv(_csv_with_rows([good, short]))
    assert len(records) == 1
    assert diags == [CellDiagnostic(2, "*", "expected 8 cells, got 7")]


def test_read_csv_long_row_skipped_with_diagnostic():
    long = "2021-01-02,UA,ORD,SFO,0,0,9,0,0"
    good = "2021-01-01,UA,ORD,SFO,0,0,12,0"
    records, diags = read_csv(_csv_with_rows([long, good]))
    assert len(records) == 1
    assert records.row(0).arr_delay == 12.0
    assert diags == [CellDiagnostic(1, "*", "expected 8 cells, got 9")]


def test_read_csv_multiple_bad_cells_one_row_all_reported():
    bad = "2021-01-01,UA,ORD,SFO,7,0,abc,0"
    records, diags = read_csv(_csv_with_rows([bad]))
    assert len(records) == 0
    assert {d.column for d in diags} == {"CANCELLED", "ARR_DELAY"}


def test_read_csv_accepts_float_formatted_flags_and_quotes():
    header = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED,DISTANCE"
    row = '2021-01-01,"Delta, Inc.",ATL,LAX,0.0,1.0,1946.0'
    records, diags = read_csv(io.BytesIO(f"{header}\n{row}\n".encode()))
    assert diags == []
    rec = records.row(0)
    assert rec.airline == "Delta, Inc."
    assert rec.diverted == 1
    assert rec.distance == 1946.0


def test_read_csv_hhmm_2400_accepted():
    header = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED,CRS_DEP_TIME"
    row = "2021-01-01,UA,ORD,SFO,0,0,2400"
    records, diags = read_csv(io.BytesIO(f"{header}\n{row}\n".encode()))
    assert diags == []
    assert records.row(0).crs_dep_time == 1440


def test_write_csv_path_round_trip(tmp_path):
    path = tmp_path / "flights.csv"
    records = [make_record()]
    write_csv(flights(records), path)
    back, diags = read_csv(path)
    assert diags == [] and rows(back) == records


@given(
    st.integers(0, 1439),
    st.floats(0, 500),
    st.integers(0, 200),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(dep_minutes, distance, carrier_delay, drop_components):
    overrides = dict(crs_dep_time=dep_minutes, distance=float(distance),
                     delay_due_carrier=float(carrier_delay))
    if drop_components:
        overrides.update({f: None for f in schema.COMPONENT_FIELDS})
    rec = make_record(**overrides)
    buf = io.StringIO()
    write_csv(flights([rec]), buf)
    back, diags = read_csv(io.BytesIO(buf.getvalue().encode()))
    assert diags == [] and rows(back) == [rec]


def test_blank_fl_number_stays_blank(tmp_path):
    rec = make_record(fl_number=None)
    path = tmp_path / "flights.csv"
    write_csv(flights([rec]), path)
    assert path.read_text().splitlines()[1].split(",")[5] == ""
    back, diags = read_csv(path)
    assert diags == [] and rows(back) == [rec]
    assert back.row(0).fl_number is None


@pytest.mark.parametrize("column", ["FL_NUMBER", "CANCELLED", "DIVERTED"])
@pytest.mark.parametrize("raw", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_integer_is_a_diagnostic(column, raw):
    header = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED,FL_NUMBER"
    cells = dict(zip(header.split(","), "2021-01-01,UA,ORD,SFO,0,0,12".split(",")))
    cells[column] = raw
    text = f"{header}\n{','.join(cells.values())}\n"
    records, diags = read_csv(io.BytesIO(text.encode()))
    assert len(records) == 0
    assert diags == [CellDiagnostic(1, column, f"invalid integer {raw!r}")]


@pytest.mark.parametrize("raw", ["20220103", "2022-W01-1", "2022-003", "２０２２-01-03",
                                 "2022-1-03", "2022-02-30"])
def test_dates_must_be_yyyy_mm_dd(raw):
    text = f"FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED\n{raw},UA,ORD,SFO,0,0\n"
    records, diags = read_csv(io.BytesIO(text.encode()))
    assert len(records) == 0
    assert diags == [CellDiagnostic(1, "FL_DATE", f"invalid ISO date {raw!r}")]


# --- vectorized decoding against the scalar decoders --------------------------------

_EDGE_CELLS = [" 0547 ", "NA", " NA ", "2400", "2401", "１２３", "1e3", "+5", "-0", "1_0",
               "nan", "inf", "0x10", "", "1,5", "12", "12.5", "-3", "1e400", "0547",
               "2022-01-03", " 2022-01-03 ", "20220103", "2022-W01-1"]
_BASE = {"FL_DATE": "2021-01-01", "AIRLINE": "UA", "ORIGIN": "ORD", "DEST": "SFO",
         "CANCELLED": "0", "DIVERTED": "0"}
# one column of each kind: (column, field, scalar decoder, required)
_KIND_COLUMNS = [
    ("FL_DATE", "fl_date", schema._decode_date, True),
    ("FL_NUMBER", "fl_number", schema._decode_int, False),
    ("CANCELLED", "cancelled", schema._decode_flag, True),
    ("CRS_DEP_TIME", "crs_dep_time", parse_hhmm, False),
    ("DEP_DELAY", "dep_delay", schema._decode_float, False),
    ("DELAY_DUE_NAS", "delay_due_nas", schema._decode_component, False),
    ("AIRLINE_DOT", "airline_dot", str, False),
]


def _scalar_outcome(decode, required, raw):
    """What the per-cell path makes of one cell: a value or a diagnostic text."""
    raw = raw.strip()
    if raw in ("", "NA"):
        return ("diag", "required cell is blank") if required else ("value", None)
    try:
        return ("value", decode(raw))
    except ValueError as exc:
        return ("diag", str(exc))


def _read_column(column, cells):
    """read_csv over one row per cell, the cell in `column`; outcome per row."""
    header = list(_BASE) + ([] if column in _BASE else [column])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for raw in cells:
        writer.writerow([raw if col == column else _BASE.get(col) for col in header])
    table, diags = read_csv(io.BytesIO(buf.getvalue().encode()))
    by_row = {d.row: d for d in diags}
    kept = iter(rows(table))
    outcomes = []
    for row_no in range(1, len(cells) + 1):
        if row_no in by_row:
            assert by_row[row_no].column == column
            outcomes.append(("diag", by_row[row_no].message))
        else:
            outcomes.append(("value", next(kept)))
    return outcomes


@pytest.mark.parametrize("column,field,decode,required", _KIND_COLUMNS)
def test_vectorized_decode_matches_scalar_decoders(column, field, decode, required):
    want = [_scalar_outcome(decode, required, raw) for raw in _EDGE_CELLS]
    # each cell alone, so valid ones take the vectorized path, then all
    # together, so one unparsable cell sends its whole column to the scalar path
    got_alone = [_read_column(column, [raw])[0] for raw in _EDGE_CELLS]
    got_together = _read_column(column, _EDGE_CELLS)
    for got in (got_alone, got_together):
        values = [(kind, getattr(rec, field) if kind == "value" else rec)
                  for kind, rec in got]
        if field == "fl_date":
            want = [(k, v.toordinal() if isinstance(v, dt.date) else v) for k, v in want]
            values = [(k, v.toordinal() if isinstance(v, dt.date) else v) for k, v in values]
        if field == "airline_dot":
            want = [(k, "" if v is None else v) for k, v in want]
        assert values == want


def _messy_csv(n_rows: int) -> bytes:
    """Synthetic rows with a malformed cell or row every few rows."""
    header = list(BTS_COLUMNS)
    buf = io.StringIO()
    write_csv(flights([make_record()]), buf)
    good = dict(zip(header, list(csv.reader(io.StringIO(buf.getvalue())))[1]))
    faults = [("CANCELLED", "2"), ("FL_DATE", "20220103"), ("ARR_TIME", "2401"),
              ("DELAY_DUE_NAS", "-1"), ("FL_NUMBER", "inf"), ("AIRLINE", " NA "),
              ("TAXI_IN", "x"), ("DEP_DELAY", " 7 ")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i in range(n_rows):
        cells = dict(good, FL_NUMBER=str(i), ARR_DELAY=str(i % 97))
        if i % 5 == 0:
            col, raw = faults[(i // 5) % len(faults)]
            cells[col] = raw
        if i % 11 == 0:
            cells["TAXI_OUT"] = "bad"
        row = [cells[col] for col in header]
        if i % 37 == 0:
            row = row[:-1]
        writer.writerow(row)
        if i % 53 == 0:
            buf.write("\n")
    return buf.getvalue().encode()


def test_chunked_read_matches_one_chunk(monkeypatch):
    data = _messy_csv(300)
    whole, whole_diags = read_csv(io.BytesIO(data))
    monkeypatch.setattr(schema, "CHUNK_ROWS", 7)
    chunked, chunked_diags = read_csv(io.BytesIO(data))
    assert 0 < len(whole) < 300 and len(whole_diags) > 60
    assert chunked_diags == whole_diags
    assert rows(chunked) == rows(whole)
    # diagnostics come by row, then by header column
    order = [(d.row, -1 if d.column == "*" else BTS_COLUMNS.index(d.column))
             for d in whole_diags]
    assert order == sorted(order)


# --- writer against the csv.writer encoder it replaced --------------------------------


def _reference_csv(table) -> str:
    """What the per-cell csv.writer encoder wrote, kept here to pin the bytes."""
    def number(v):
        f = float(v)
        return str(int(f)) if f == int(f) else repr(f)

    def column(kind, values):
        if kind == "text":
            return values.tolist()
        if kind == "flag":
            return values.astype(str).tolist()
        if kind == "date":
            return [dt.date.fromordinal(d).isoformat() for d in values.tolist()]
        out = np.full(len(values), "", dtype=object)
        present = ~np.isnan(values)
        if kind == "hhmm":
            minutes = values[present].astype(np.int64)
            out[present] = np.strings.zfill((minutes // 60 * 100 + minutes % 60).astype(str), 4)
            return out.tolist()
        out[present] = [number(v) for v in values[present].tolist()]
        return out.tolist()

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BTS_COLUMNS)
    writer.writerows(zip(*(column(kind, getattr(table, name))
                           for _, name, _, kind in schema._COLUMN_SPEC)))
    return buf.getvalue()


_NAN = float("nan")
# per kind, the values each column of that kind cycles through
_EDGE_VALUES = {
    "text": ["plain", "", "Chicago, IL", 'say "hi"', "two\nlines", " padded ", "NA",
             '"', ",", "caf\u00e9", "tab\there"],
    "number": [0.0, -0.0, 12.0, -3.0, 1.5, -2.25, 1 / 3, 1e-7, 5e-324, 2.0 ** 53,
               2.0 ** 53 + 2, 2.0 ** 63, 1e20, -1e300, 1.7976931348623157e308,
               123456789.125, _NAN],
    "hhmm": [0.0, -0.0, 90.0, 1440.0, 1441.0, 2000.7, 59.9, 0.5, -0.5, -5.5, -61.0,
             -1440.0, 100000.0, _NAN],
    "flag": [0, 1, -1, 2, 127, -128],
    "date": [1, 737791, 738000, dt.date.max.toordinal(), 693596],
}
_EDGE_VALUES["int"] = _EDGE_VALUES["component"] = _EDGE_VALUES["number"]


def _edge_flights(n_rows: int) -> Flights:
    """Each column cycles through its kind's edge values from its own offset."""
    columns = {}
    for j, (_, name, _, kind) in enumerate(schema._COLUMN_SPEC):
        values = _EDGE_VALUES[kind]
        cells = [values[(i + j) % len(values)] for i in range(n_rows)]
        columns[name] = np.array(cells, dtype=schema._DTYPES.get(kind, np.float64))
    return Flights(columns)


@pytest.mark.parametrize("chunk_rows", [schema.CHUNK_ROWS, 1, 7])
def test_write_csv_bytes_match_csv_writer_encoder(monkeypatch, chunk_rows):
    table = _edge_flights(300)
    monkeypatch.setattr(schema, "CHUNK_ROWS", chunk_rows)
    buf = io.StringIO()
    assert write_csv(table, buf) == 300
    assert buf.getvalue() == _reference_csv(table)


def test_write_csv_empty_table_is_header_only():
    buf = io.StringIO()
    assert write_csv(_edge_flights(0), buf) == 0
    assert buf.getvalue() == ",".join(BTS_COLUMNS) + "\n"


def test_write_csv_all_blank_clock_column_round_trips():
    rec = make_record(cancelled=1, cancellation_code="B", **{f: None for f in schema._HHMM_FIELDS})
    buf = io.StringIO()
    write_csv(flights([rec]), buf)
    buf.seek(0)
    back, diags = read_csv(buf)
    assert diags == [] and rows(back) == [rec]


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_write_csv_infinite_number_raises(value):
    table = _edge_flights(20)
    table.distance[5] = value
    with pytest.raises(OverflowError):
        _reference_csv(table)
    with pytest.raises(OverflowError):
        write_csv(table, io.StringIO())


def test_write_csv_day_outside_calendar_raises():
    table = _edge_flights(5)
    table.fl_date[2] = 0
    with pytest.raises(ValueError):
        write_csv(table, io.StringIO())


def test_carriage_return_is_quoted_and_read_back(tmp_path):
    rec = make_record(origin_city="Dallas\rFort", dest_city="a\r\nb")
    buf = io.StringIO()
    write_csv(flights([rec]), buf)
    assert '"Dallas\rFort"' in buf.getvalue()
    buf.seek(0)
    back, diags = read_csv(buf)
    assert diags == [] and rows(back) == [rec]
    path = tmp_path / "flights.csv"
    write_csv(flights([rec]), path)
    back, diags = read_csv(path)
    assert diags == [] and rows(back) == [rec]


# --- malformed input and caller-owned streams -------------------------------------------


def test_unclosed_quote_is_a_schema_error_naming_the_line():
    # no quoted cell: the quote opened on line 2 runs to the end of the file
    rec = make_record(origin_city="Chicago", dest_city="San Francisco")
    buf = io.StringIO()
    write_csv(flights([rec] * 6000), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert '"' not in buf.getvalue()
    lines[1] = '"' + lines[1]
    with pytest.raises(SchemaError, match=r"malformed CSV at line \d+: field larger than"):
        read_csv(io.BytesIO("".join(lines).encode()))


def test_bare_carriage_return_is_a_schema_error():
    text = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED\n2021-01-01,U\rA,ORD,SFO,0,0\n"
    with pytest.raises(SchemaError, match="malformed CSV at line 2: new-line character"):
        read_csv(io.StringIO(text))


def test_caller_streams_stay_open():
    rec = make_record()
    buf = io.BytesIO()
    assert write_csv(flights([rec]), buf) == 1
    gc.collect()
    assert not buf.closed
    buf.seek(0)
    back, diags = read_csv(buf)
    gc.collect()
    assert not buf.closed
    assert diags == [] and rows(back) == [rec]
    text = io.StringIO()
    write_csv(flights([rec]), text)
    text.seek(0)
    read_csv(text)
    assert not text.closed


# --- round trip over many rows ------------------------------------------------------------

# blank, "NA" and whitespace-padded text read back blank or stripped by design,
# so text here starts and ends with a non-space and never spells NA
_OUTER = st.sampled_from('abZ,"\u00e9')
_TEXT = _OUTER | st.builds(lambda a, mid, b: a + mid + b,
                           _OUTER, st.text('ab Z,"\n\r\u00e9', max_size=6), _OUTER)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_STRATEGY = {
    "date": st.dates(),
    "text": _TEXT,
    "int": st.none() | st.integers(-2 ** 70, 2 ** 70).map(float),
    "flag": st.integers(0, 1),
    "hhmm": st.none() | st.integers(0, 1440),
    "number": st.none() | _FINITE,
    "component": st.none() | st.floats(min_value=0, allow_infinity=False),
}
_ROW = st.fixed_dictionaries({name: _STRATEGY[kind]
                              for _, name, _, kind in schema._COLUMN_SPEC})


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "flights.csv"


@given(st.lists(_ROW, min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_many_row_round_trip(round_trip_path, table_rows):
    records = [FlightRecord(**row) for row in table_rows]
    table = flights(records)
    write_csv(table, round_trip_path)
    back, diags = read_csv(round_trip_path)
    assert diags == [] and rows(back) == records
    buf = io.StringIO()
    write_csv(table, buf)
    buf.seek(0)
    back, diags = read_csv(buf)
    assert diags == [] and rows(back) == records
