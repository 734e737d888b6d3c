import csv
import datetime as dt
import gc
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycast import schema
from delaycast.schema import (
    BTS_COLUMNS, CellDiagnostic, Flights, SchemaError, TextColumn,
    parse_hhmm, read_csv, write_csv,
)


def make_record(**overrides):
    """One row as a dict of column values: the date an ordinal, NaN for a blank number."""
    base = dict(
        fl_date=dt.date(2021, 3, 14).toordinal(),
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
        cancellation_code="",
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
    return base


def column_array(kind, values):
    """A column of `kind` as Flights takes it: text as an object array of str."""
    return np.array(values, dtype=object if kind == "text" else schema._DTYPES[kind])


def flights(records):
    """A Flights value of rows as make_record builds them."""
    return Flights({name: column_array(kind, [r[name] for r in records])
                    for _, name, _, kind in schema._COLUMN_SPEC})


def decoded(column):
    """A column's values as one array: a text column's codes looked up in its vocabulary."""
    return column.vocabulary[column.codes] if isinstance(column, TextColumn) else column


def assert_same_rows(table, other):
    """Both tables hold the same rows, compared field by field; NaN equals NaN."""
    assert len(table) == len(other)
    for name in Flights.FIELDS:
        np.testing.assert_array_equal(decoded(getattr(table, name)),
                                      decoded(getattr(other, name)), err_msg=name)


def assert_identical(table, other):
    """Both tables hold the same arrays bit for bit: dtypes, signs of zero, vocabularies."""
    assert len(table) == len(other)
    for name in Flights.FIELDS:
        a, b = getattr(table, name), getattr(other, name)
        if isinstance(a, TextColumn):
            assert a.vocabulary.tolist() == b.vocabulary.tolist(), name
            a, b = a.codes, b.codes
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


_OPTIONAL_NUMBERS = [name for _, name, required, kind in schema._COLUMN_SPEC
                     if not required and kind != "text"]


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


# --- column domains -------------------------------------------------------------


def test_record_flag_validation():
    with pytest.raises(SchemaError, match="^cancelled row 0: 2 is not 0 or 1$"):
        flights([make_record(cancelled=2)])
    with pytest.raises(SchemaError, match="^diverted row 1: -1 is not 0 or 1$"):
        flights([make_record(), make_record(diverted=-1)])


def test_record_component_nonnegative():
    with pytest.raises(SchemaError,
                       match=r"^delay_due_weather row 0: -1\.0 is not a finite number >= 0$"):
        flights([make_record(delay_due_weather=-1.0)])


def test_record_clock_range():
    with pytest.raises(SchemaError, match=r"^crs_dep_time row 0: 1441\.0 is not whole minutes"):
        flights([make_record(crs_dep_time=1441)])


def test_blank_is_nan_only_where_a_cell_may_be_blank():
    table = flights([make_record(**{name: math.nan for name in _OPTIONAL_NUMBERS})])
    assert all(np.isnan(getattr(table, name)[0]) for name in _OPTIONAL_NUMBERS)
    columns = {name: getattr(table, name) for name in Flights.FIELDS}
    for name, value in (("cancelled", math.nan), ("cancelled", 0.5), ("diverted", 256.0),
                        ("fl_date", math.nan), ("fl_date", 737791.5)):
        # a float column is checked before it is cast to int8 or int64
        with pytest.raises(SchemaError, match=f"^{name} row 0: "):
            Flights(dict(columns, **{name: np.array([value])}))


def test_stored_columns_are_read_only():
    columns = _edge_columns(5)
    table = Flights(columns)
    stored = [getattr(table, name) for name in Flights.FIELDS]
    stored = [a for column in stored for a in (
        (column.codes, column.vocabulary) if isinstance(column, TextColumn) else (column,))]
    assert not any(a.flags.writeable for a in stored)
    assert table.distance is columns["distance"]  # made read-only, not copied
    with pytest.raises(ValueError, match="read-only"):
        table.dep_time[0] = math.inf
    with pytest.raises(ValueError, match="read-only"):
        columns["distance"][0] = math.inf
    kept = table.select(np.array([True, False, True, False, True]))
    with pytest.raises(ValueError, match="read-only"):
        kept.cancelled[0] = 2


@pytest.mark.parametrize("index", [
    np.arange(40) % 3 == 0,                  # a mask
    np.array([39, 0, 5, 5, 17], np.intp),    # picks out of order, one twice
    np.array([], np.intp),
])
def test_select_is_fancy_indexing_without_a_recheck(monkeypatch, index):
    table = Flights(_edge_columns(40))
    monkeypatch.setattr(schema, "_NUMBER_OK", {})  # any domain check would fail
    kept = table.select(index)
    assert len(kept) == len(table.fl_date[index])
    for name in Flights.FIELDS:
        values, parent = getattr(kept, name), getattr(table, name)
        if isinstance(values, TextColumn):  # codes taken, the vocabulary shared
            assert values.vocabulary is parent.vocabulary
            values, parent = values.codes, parent.codes
        np.testing.assert_array_equal(values, parent[index])
        assert values.dtype == parent.dtype
        assert not values.flags.writeable
    monkeypatch.undo()
    # every other construction still checks: a selected column made bad is refused
    columns = {name: getattr(kept, name) for name in Flights.FIELDS}
    if len(kept):
        with pytest.raises(SchemaError, match="^diverted row 0: 2.0 is not 0 or 1"):
            Flights(dict(columns, diverted=np.full(len(kept), 2.0)))
    assert len(Flights(columns)) == len(kept)


# --- csv --------------------------------------------------------------------


def test_write_read_round_trip():
    records = [
        make_record(),
        make_record(fl_number=2, arr_delay=math.nan,
                    **{f: math.nan for f in schema.COMPONENT_FIELDS}),
        make_record(fl_number=3, cancelled=1, cancellation_code="B",
                    dep_time=math.nan, arr_time=math.nan),
    ]
    buf = io.StringIO()
    assert write_csv(flights(records), buf) == 3
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(BTS_COLUMNS)
    back, diags = read_csv(io.BytesIO(text.encode()))
    assert diags == []
    assert_same_rows(back, flights(records))


def test_read_back_is_the_canonical_form():
    """read_csv(write_csv(rows)) is rows.canonical(): -0 reads as 0, vocabularies as used."""
    records = [make_record(), make_record(fl_number=2, origin_city="Nowhere, XX"),
               make_record(fl_number=3, dep_delay=7.5)]
    buf = io.StringIO()
    write_csv(flights(records), buf)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    for row in rows:
        row[header.index("DEP_DELAY")] = row[header.index("DELAY_DUE_WEATHER")] = "-0"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    read, _ = read_csv(io.BytesIO(buf.getvalue().encode()))
    kept = read.select(np.array([0, 2]))
    assert np.signbit(kept.dep_delay).all() and np.signbit(kept.delay_due_weather).all()
    assert "Nowhere, XX" in kept.origin_city.vocabulary.tolist()

    canonical = kept.canonical()
    buf = io.StringIO()
    write_csv(kept, buf)
    back, diags = read_csv(io.BytesIO(buf.getvalue().encode()))
    assert diags == []
    assert_identical(back, canonical)
    assert not np.signbit(canonical.dep_delay).any()
    assert canonical.origin_city.vocabulary.tolist() == ["Chicago, IL"]
    assert canonical.distance is kept.distance  # already canonical: shared
    assert_same_rows(canonical, kept)


def test_read_back_has_the_readers_nan_and_no_negative_zero():
    odd = np.array([np.nan, -0.0, 1.5])
    odd.view(np.int64)[0] |= 1  # a NaN with another payload
    table = flights([make_record(fl_number=i) for i in range(3)])
    columns = {name: getattr(table, name) for name in Flights.FIELDS}
    table = Flights({**columns, "dep_delay": odd, "taxi_in": -odd})
    canonical = table.canonical()
    buf = io.StringIO()
    write_csv(table, buf)
    back, _ = read_csv(io.BytesIO(buf.getvalue().encode()))
    assert_identical(back, canonical)
    assert canonical.dep_delay.view(np.int64)[0] == np.float64(np.nan).view(np.int64)
    assert not np.signbit(canonical.dep_delay[1:]).any()


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
    assert np.isnan(records.delay_due_weather[0])
    assert records.arr_delay[0] == 7.0


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
    assert records.arr_delay[0] == 12.0
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
    assert decoded(records.airline)[0] == "Delta, Inc."
    assert records.diverted[0] == 1
    assert records.distance[0] == 1946.0


def test_read_csv_hhmm_2400_accepted():
    header = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED,CRS_DEP_TIME"
    row = "2021-01-01,UA,ORD,SFO,0,0,2400"
    records, diags = read_csv(io.BytesIO(f"{header}\n{row}\n".encode()))
    assert diags == []
    assert records.crs_dep_time[0] == 1440


def test_write_csv_path_round_trip(tmp_path):
    path = tmp_path / "flights.csv"
    table = flights([make_record()])
    write_csv(table, path)
    back, diags = read_csv(path)
    assert diags == []
    assert_same_rows(back, table)


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
        overrides.update({f: math.nan for f in schema.COMPONENT_FIELDS})
    table = flights([make_record(**overrides)])
    buf = io.StringIO()
    write_csv(table, buf)
    back, diags = read_csv(io.BytesIO(buf.getvalue().encode()))
    assert diags == []
    assert_same_rows(back, table)


def test_blank_fl_number_stays_blank(tmp_path):
    table = flights([make_record(fl_number=math.nan)])
    path = tmp_path / "flights.csv"
    write_csv(table, path)
    assert path.read_text().splitlines()[1].split(",")[5] == ""
    back, diags = read_csv(path)
    assert diags == []
    assert_same_rows(back, table)
    assert np.isnan(back.fl_number[0])


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


def _read_column(column, field, cells):
    """read_csv over one row per cell, the cell in `column`; outcome per row."""
    header = list(_BASE) + ([] if column in _BASE else [column])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for raw in cells:
        writer.writerow([raw if col == column else _BASE.get(col) for col in header])
    table, diags = read_csv(io.BytesIO(buf.getvalue().encode()))
    by_row = {d.row: d for d in diags}
    # a blank number reads back NaN, which the scalar path calls None
    kept = iter(None if v != v else v for v in decoded(getattr(table, field)).tolist())
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
    if field == "fl_date":
        want = [(k, v.toordinal() if isinstance(v, dt.date) else v) for k, v in want]
    if field == "airline_dot":
        want = [(k, "" if v is None else v) for k, v in want]
    # each cell alone, so valid ones take the vectorized path, then all
    # together, so one unparsable cell sends its whole column to the scalar path
    got_alone = [_read_column(column, field, [raw])[0] for raw in _EDGE_CELLS]
    assert got_alone == want
    assert _read_column(column, field, _EDGE_CELLS) == want


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
    assert_same_rows(chunked, whole)
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
            return decoded(values).tolist()
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
_NUMBERS = [0.0, -0.0, 12.0, -3.0, 1.5, -2.25, 1 / 3, 1e-7, 5e-324, 2.0 ** 53,
            2.0 ** 53 + 2, 2.0 ** 63, 1e20, -1e300, 1.7976931348623157e308,
            123456789.125, _NAN]
# per kind, the values each column of that kind cycles through: every
# value in the kind's domain that the writer formats in its own way
_EDGE_VALUES = {
    "text": ["plain", "", "Chicago, IL", 'say "hi"', "two\nlines", " padded ", "NA",
             '"', ",", "caf\u00e9", "tab\there"],
    "number": _NUMBERS,
    "int": [v for v in _NUMBERS if v != v or v == int(v)],
    "component": [v for v in _NUMBERS if not v < 0],
    "hhmm": [0.0, -0.0, 90.0, 599.0, 1439.0, 1440.0, _NAN],
    "flag": [0, 1],
    "date": [1, 737791, 738000, dt.date.max.toordinal(), 693596],
}


def _edge_columns(n_rows: int) -> dict:
    """Each column cycles through its kind's edge values from its own offset."""
    columns = {}
    for j, (_, name, _, kind) in enumerate(schema._COLUMN_SPEC):
        values = _EDGE_VALUES[kind]
        cells = [values[(i + j) % len(values)] for i in range(n_rows)]
        columns[name] = column_array(kind, cells)
    return columns


@pytest.mark.parametrize("chunk_rows", [schema.CHUNK_ROWS, 1, 7])
def test_write_csv_bytes_match_csv_writer_encoder(monkeypatch, chunk_rows):
    table = Flights(_edge_columns(300))
    monkeypatch.setattr(schema, "CHUNK_ROWS", chunk_rows)
    buf = io.StringIO()
    assert write_csv(table, buf) == 300
    assert buf.getvalue() == _reference_csv(table)


_SPAN = schema._CODE_SPAN
# per field, the values its column cycles through: whole numbers of narrow
# span, which the writer codes as value - min, except where a comment says
_NARROW_VALUES = {
    "fl_date": [738000, 738031, 738001],
    "fl_number": [-5.0, 0.0, -0.0, 7.0, _NAN],
    "crs_dep_time": [0.0, -0.0, 90.0, 1440.0, _NAN, 1439.0],
    "dep_time": [1440.0],
    "dep_delay": [-43.0, 0.0, -0.0, 12.0, _NAN, 7719.0],
    "taxi_in": [_NAN],  # all blank
    "cancelled": [0, 1],
    "diverted": [1, 0, 0],
    "crs_elapsed_time": [5.0, 5.0 + _SPAN, _NAN],  # one value too wide: sorted per chunk
    "elapsed_time": [5.0, 4.0 + _SPAN, 17.0],  # exactly _CODE_SPAN values
    "air_time": [2.0 ** 53 - 1, 2.0 ** 53 - 3],
    "delay_due_carrier": [0.0, -0.0, 57.0, _NAN],
}


def _narrow_columns(n_rows: int) -> dict:
    columns = {}
    for j, (_, name, _, kind) in enumerate(schema._COLUMN_SPEC):
        values = _NARROW_VALUES.get(name, _EDGE_VALUES[kind][:4] if kind == "text"
                                    else [3.0, _NAN, 1.0])
        columns[name] = column_array(kind, [values[(i + j) % len(values)]
                                            for i in range(n_rows)])
    return columns


@pytest.mark.parametrize("chunk_rows", [schema.CHUNK_ROWS, 1, 7])
def test_write_csv_codes_narrow_whole_columns_without_sorting(monkeypatch, chunk_rows):
    table = Flights(_narrow_columns(60))
    monkeypatch.setattr(schema, "CHUNK_ROWS", chunk_rows)
    sorted_chunks = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda values, **kw: (
        sorted_chunks.append(len(values)), unique(values, **kw))[1])
    buf = io.StringIO()
    assert write_csv(table, buf) == 60
    monkeypatch.undo()
    assert buf.getvalue() == _reference_csv(table)
    # only the column one value too wide is sorted, once per chunk
    assert sorted_chunks == [min(chunk_rows, 60 - start)
                             for start in range(0, 60, chunk_rows)]


def test_write_csv_empty_table_is_header_only():
    buf = io.StringIO()
    assert write_csv(Flights(_edge_columns(0)), buf) == 0
    assert buf.getvalue() == ",".join(BTS_COLUMNS) + "\n"


def test_write_csv_all_blank_clock_column_round_trips():
    clocks = {name: math.nan for _, name, _, kind in schema._COLUMN_SPEC if kind == "hhmm"}
    table = flights([make_record(cancelled=1, cancellation_code="B", **clocks)])
    buf = io.StringIO()
    write_csv(table, buf)
    buf.seek(0)
    back, diags = read_csv(buf)
    assert diags == []
    assert_same_rows(back, table)


# values a CSV cell cannot carry, one column of each kind: what the writer
# once wrote without complaint, and what it could not write at all
_INF = math.inf
_OUT_OF_DOMAIN = (
    [("crs_dep_time", v) for v in (1441.0, 2000.7, 59.9, 0.5, -0.5, -5.5, -61.0, -1440.0,
                                   100000.0, _INF, -_INF)]
    + [("cancelled", v) for v in (-1, 2, 127, -128)]
    + [("delay_due_nas", v) for v in (-3.0, -2.25, -1e300, -5e-324, _INF, -_INF)]
    + [("distance", v) for v in (_INF, -_INF)]
    + [("fl_number", v) for v in (1.5, 1e-7, _INF, -_INF)]
    + [("fl_date", v) for v in (0, -1, dt.date.max.toordinal() + 1)]
)


@pytest.mark.parametrize("field,value", _OUT_OF_DOMAIN)
def test_value_outside_its_domain_is_refused(field, value):
    columns = _edge_columns(5)
    columns[field][3] = value
    with pytest.raises(SchemaError, match=f"^{field} row 3: {re.escape(repr(value))} is not "):
        Flights(columns)


_BAD_TEXT = [
    (TextColumn([0, 1, 1, 0, 1], ["b", "a"]),
     r"^airline vocabulary is not sorted and distinct: 'b' before 'a'$"),
    (TextColumn([0, 1, 1, 0, 1], ["a", "a"]),
     r"^airline vocabulary is not sorted and distinct: 'a' before 'a'$"),
    (TextColumn([0, 1, 1, 0, 1], ["a", 7]), r"^airline vocabulary entry 1: 7 is not str$"),
    (TextColumn([0, 1, 2, 0, 1], ["a", "b"]),
     r"^airline row 2: code 2 is outside its vocabulary of 2 values$"),
    (TextColumn([0, 0, 0, -1, 0], ["a"]),
     r"^airline row 3: code -1 is outside its vocabulary of 1 values$"),
    (TextColumn([0, 0], ["a"]), r"^column airline has shape \(2,\), expected \(5,\)$"),
    (TextColumn([0, 0, 2 ** 32, 0, 0], ["a"]),  # as int32 it would wrap to 0
     r"^airline row 2: code 4294967296 is outside its vocabulary of 1 values$"),
    (TextColumn([0.0, 0.0, 0.0, 0.0, 0.0], ["a"]), r"^airline codes are float64, not integers$"),
    (np.array(["a", None, "b", "a", "b"], dtype=object), r"^airline holds values that are not str$"),
    (np.arange(5), r"^airline vocabulary entry 0: 0 is not str$"),
]


@pytest.mark.parametrize("column,message", _BAD_TEXT)
def test_text_column_that_is_not_str_values_is_refused(column, message):
    with pytest.raises(SchemaError, match=message):
        Flights(dict(_edge_columns(5), airline=column))


def test_plain_text_is_encoded_once_at_the_boundary():
    cells = ["é", "Z", "a", "", "Z", "é"]
    table = flights([make_record(origin=cell) for cell in cells])
    assert table.origin.vocabulary.tolist() == ["", "Z", "a", "é"]  # by code point
    assert table.origin.codes.tolist() == [3, 1, 2, 0, 1, 3]
    assert table.origin.codes.dtype == np.int32
    assert Flights(dict(_edge_columns(2), origin=TextColumn([1, 0], ["a", "b"]))
                   ).origin.codes.dtype == np.int32


def test_read_vocabulary_is_sorted_and_distinct_across_chunks(monkeypatch):
    # padding, quoting and the two spellings of blank read as one value each;
    # "AA", "a" and "é" first appear in later chunks and blocks
    airlines = ["UA", " UA", '" UA "', "UA ", "DL", "UA", "AA", "DL ", '"AA"', "é", "a", "UA"]
    codes = ["", "NA", " NA ", "B", " B", '""', "A", "NA", "", "C ", '"B"', " "]
    header = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED,CANCELLATION_CODE"
    data = "".join([header + "\n"] + [f"2021-01-01,{airline},ORD,SFO,0,0,{code}\n"
                                       for airline, code in zip(airlines, codes)]).encode()
    monkeypatch.setattr(schema, "CHUNK_ROWS", 3)
    monkeypatch.setattr(schema, "BLOCK_BYTES", 64)
    chunked, diags = read_csv(io.BytesIO(data))
    monkeypatch.undo()
    whole, _ = read_csv(io.BytesIO(data))
    assert diags == [] and len(chunked) == len(airlines)
    for column, cells, vocabulary in (
            (chunked.airline, airlines, ["AA", "DL", "UA", "a", "é"]),
            (chunked.cancellation_code, codes, ["", "A", "B", "C"])):
        assert column.vocabulary.tolist() == vocabulary
        want = [cell.strip().strip('"').strip().replace("NA", "") for cell in cells]
        assert decoded(column).tolist() == want
    for name in ("airline", "cancellation_code"):  # the codes do not depend on the chunking
        assert getattr(chunked, name).vocabulary.tolist() == getattr(whole, name).vocabulary.tolist()
        assert getattr(chunked, name).codes.tolist() == getattr(whole, name).codes.tolist()


def test_carriage_return_is_quoted_and_read_back(tmp_path):
    table = flights([make_record(origin_city="Dallas\rFort", dest_city="a\r\nb")])
    buf = io.StringIO()
    write_csv(table, buf)
    assert '"Dallas\rFort"' in buf.getvalue()
    buf.seek(0)
    back, diags = read_csv(buf)
    assert diags == []
    assert_same_rows(back, table)
    path = tmp_path / "flights.csv"
    write_csv(table, path)
    back, diags = read_csv(path)
    assert diags == []
    assert_same_rows(back, table)


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
    table = flights([make_record()])
    buf = io.BytesIO()
    assert write_csv(table, buf) == 1
    gc.collect()
    assert not buf.closed
    buf.seek(0)
    back, diags = read_csv(buf)
    gc.collect()
    assert not buf.closed
    assert diags == []
    assert_same_rows(back, table)
    text = io.StringIO()
    write_csv(table, text)
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
_BLANK = st.just(math.nan)
_STRATEGY = {
    "date": st.dates().map(dt.date.toordinal),
    "text": _TEXT,
    "int": _BLANK | st.integers(-2 ** 70, 2 ** 70).map(float),
    "flag": st.integers(0, 1),
    "hhmm": _BLANK | st.integers(0, 1440),
    "number": _BLANK | _FINITE,
    "component": _BLANK | st.floats(min_value=0, allow_nan=False, allow_infinity=False),
}
_ROW = st.fixed_dictionaries({name: _STRATEGY[kind]
                              for _, name, _, kind in schema._COLUMN_SPEC})


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "flights.csv"


@given(st.lists(_ROW, min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_many_row_round_trip(round_trip_path, table_rows):
    table = flights(table_rows)
    write_csv(table, round_trip_path)
    back, diags = read_csv(round_trip_path)
    assert diags == []
    assert_same_rows(back, table)
    assert_identical(back, table.canonical())
    buf = io.StringIO()
    write_csv(table, buf)
    buf.seek(0)
    back, diags = read_csv(buf)
    assert diags == []
    assert_same_rows(back, table)


# --- the byte tokenizer against csv.reader ------------------------------------------------

# RFC 4180 with "\n" or "\r\n" record ends; the last record may lack one
_RFC_FIELD = r'(?:[^",\r\n]*|"(?:[^"]|"")*")'
_RFC_RECORD = f"{_RFC_FIELD}(?:,{_RFC_FIELD})*"
_RFC_4180 = re.compile(f"(?:{_RFC_RECORD}\r?\n)*{_RFC_RECORD}")
_PIECES = ["a", " ", ",", '"', "é", "\n", "\r\n", "\r"]
_SMALL_HEADER = "FL_DATE,AIRLINE,ORIGIN,DEST,CANCELLED,DIVERTED\n"


def _tokenized_rows(data: bytes) -> list:
    """The records the tokenizer finds in `data`, listed as csv.reader lists them."""
    rows = []
    for buf, starts, ends, counts in schema._record_chunks(io.BytesIO(data)):
        spans = iter(zip(starts.tolist(), ends.tolist()))
        for count in counts.tolist():
            cells = [next(spans) for _ in range(count)]
            blank = count == 1 and cells[0][0] == cells[0][1]
            rows.append([] if blank else [schema._cell_text(buf, *span) for span in cells])
    return rows


_UNQUOTED = st.text("a é", max_size=3)
_QUOTED = st.text("a é,\"\n\r", max_size=4).map(lambda v: '"' + v.replace('"', '""') + '"')
_RFC_TEXT = st.builds(
    lambda records, ends, last: "".join(map("".join, zip(records, ends))) + last,
    st.lists(st.lists(_UNQUOTED | _QUOTED, min_size=1, max_size=3).map(",".join), max_size=4),
    st.lists(st.sampled_from(["\n", "\r\n"]), min_size=4, max_size=4),
    st.sampled_from(["", "a", '""']))
_ANY_TEXT = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)


@given(_RFC_TEXT | _ANY_TEXT)
@settings(max_examples=400, deadline=None)
def test_tokenizer_matches_csv_reader_or_names_a_line(text):
    if _RFC_4180.fullmatch(text):
        want = list(csv.reader(io.StringIO(text, newline="")))
        assert _tokenized_rows(text.encode()) == want
    else:
        with pytest.raises(SchemaError, match=r"^malformed CSV at line \d+: ") as caught:
            read_csv(io.BytesIO((_SMALL_HEADER + text).encode()))
        line = int(re.match(r"malformed CSV at line (\d+)", str(caught.value))[1])
        assert 2 <= line <= 2 + text.count("\n")


_MALFORMED = [
    ('2021-01-01,"U"A,ORD,SFO,0,0\n', 2, "quoted field not followed by a comma or a line end"),
    ('2021-01-01,U"A,ORD,SFO,0,0\n', 2, "quote inside an unquoted field"),
    ('2021-01-01, "UA",ORD,SFO,0,0\n', 2, "quote inside an unquoted field"),
    ('2021-01-01,UA,ORD,SFO,0,0\n2021-01-01,"UA,ORD,SFO,0,0\n', 3,
     "quoted field not closed at end of data"),
    ('2021-01-01,U\rA,ORD,SFO,0,0\n', 2, "new-line character '\\r' not followed by '\\n'"),
    ("2021-01-01,UA,ORD,SFO,0,0\r", 2, "new-line character '\\r' not followed by '\\n'"),
    ("2021-01-01,UA,ORD,SFO,0,0\r2021-01-02,UA,ORD,SFO,0,0\n", 2,
     "new-line character '\\r' not followed by '\\n'"),
    ('2021-01-01,"U\nA",ORD,SFO,0,0\n\n2021-01-01,UA",ORD,SFO,0,0\n', 5,
     "quote inside an unquoted field"),
    ("2021-01-01,UA,ORD,SFO,0,0\n2021-01-01,U\xff", 3, "invalid UTF-8 (invalid start byte)"),
    # the first fault is named, whichever kind comes later
    ('2021-01-01,U\xff,ORD,SFO,0,0\n' + "2021-01-01,UA,ORD,SFO,0,0\n" * 3
     + '2021-01-01,U"A,ORD,SFO,0,0\n', 2, "invalid UTF-8 (invalid start byte)"),
    ('2021-01-01,U"A,ORD,SFO,0,0\n' + "2021-01-01,UA,ORD,SFO,0,0\n" * 3
     + "2021-01-01,U\xff,ORD,SFO,0,0\n", 2, "quote inside an unquoted field"),
]


def _sources(text, tmp_path):
    """The same content as a byte stream, a text stream and a path."""
    data = text.encode("utf-8", "surrogateescape")
    path = tmp_path / "malformed.csv"
    path.write_bytes(data)
    sources = [io.BytesIO(data), path]
    if data.decode("utf-8", "replace") == text:
        sources.append(io.StringIO(text, newline=""))
    return sources


@pytest.mark.parametrize("block", [schema.BLOCK_BYTES, 5])
@pytest.mark.parametrize("body,line,what", _MALFORMED)
def test_malformed_shape_names_its_line_from_any_source(monkeypatch, tmp_path, block,
                                                        body, line, what):
    monkeypatch.setattr(schema, "BLOCK_BYTES", block)
    body = body.replace("\xff", "\udcff")  # one raw 0xff byte
    for source in _sources(_SMALL_HEADER + body, tmp_path):
        with pytest.raises(SchemaError, match=f"^malformed CSV at line {line}: {re.escape(what)}$"):
            read_csv(source)


@pytest.mark.parametrize("block", [schema.BLOCK_BYTES, 4096])
@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_field_limit_is_csvs(monkeypatch, block, quoted, line_end):
    monkeypatch.setattr(schema, "BLOCK_BYTES", block)
    limit = schema.FIELD_LIMIT
    header = _SMALL_HEADER.replace("\n", ",NOTE" + line_end)  # an ignored column
    for size, ok in ((limit, True), (limit + 1, False)):
        cell = '"' + "x" * (size - 2) + '"' if quoted else "x" * size
        # the long field ends its record; a 4096-byte block ends right after its line end's
        # first byte, so with "\r\n" a seam falls between "\r" and "\n"
        first = f"{header}2021-01-01,UA,ORD,SFO,0,0,"
        last = f"{line_end}2021-01-01,UA,ORD,SFO,0,0,{cell}{line_end}"
        pad = "y" * ((4095 - len(first) - len(last) + len(line_end)) % 4096)
        text = first + pad + last
        assert (len(text) - len(line_end)) % 4096 == 4095
        if ok:
            table, diags = read_csv(io.BytesIO(text.encode()))
            assert diags == [] and len(table) == 2
        else:
            with pytest.raises(SchemaError, match=r"^malformed CSV at line 3: field larger "
                                                  r"than field limit \(131072\)$"):
                read_csv(io.BytesIO(text.encode()))


def _seam_csv() -> bytes:
    """CRLF records with quoted line feeds, multi-byte text, blank lines and faults."""
    records = [make_record(fl_number=i, airline="Société " * (i % 3) + "Air",
                           origin_city=["a\nb", "café, FR", "plain", 'say "hi"'][i % 4],
                           dest_city="é\r\né" if i % 5 == 0 else "Zürich")
               for i in range(40)]
    buf = io.StringIO()
    write_csv(flights(records), buf)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    for i, row in enumerate(csv.reader(io.StringIO(buf.getvalue(), newline=""))):
        if i % 7 == 3:
            row[20] = "2"  # CANCELLED
        writer.writerow(row[:-1] if i % 11 == 5 else row)
        if i % 3 == 1:
            out.write("\r\n" if i % 2 else "\n")
    return out.getvalue().encode()


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_seams_do_not_move_records(monkeypatch, block):
    data = _seam_csv()
    whole, whole_diags = read_csv(io.BytesIO(data))
    assert len(whole) > 20 and len(whole_diags) > 4
    assert "a\nb" in decoded(whole.origin_city).tolist()
    assert "é\r\né" in decoded(whole.dest_city).tolist()
    monkeypatch.setattr(schema, "BLOCK_BYTES", block)
    for source in (io.BytesIO(data), io.StringIO(data.decode(), newline="")):
        table, diags = read_csv(source)
        assert diags == whole_diags
        assert_same_rows(table, whole)


def test_crlf_copy_reads_as_the_lf_original():
    data = _messy_csv(300)
    assert b"\r" not in data
    table, diags = read_csv(io.BytesIO(data))
    crlf, crlf_diags = read_csv(io.BytesIO(data.replace(b"\n", b"\r\n")))
    assert crlf_diags == diags
    assert_same_rows(crlf, table)


@pytest.mark.parametrize("block", [1, 7, schema.BLOCK_BYTES])
def test_invalid_utf8_names_its_line_across_seams(monkeypatch, block):
    data = _messy_csv(40)
    at = data.index("Chicago".encode())
    data = data[:at] + "é".encode()[:1] + data[at:]  # a lead byte without its tail
    line = data[:at].count(b"\n") + 1
    monkeypatch.setattr(schema, "BLOCK_BYTES", block)
    with pytest.raises(SchemaError, match=f"^malformed CSV at line {line}: invalid UTF-8 "):
        read_csv(io.BytesIO(data))


def test_lone_surrogate_in_a_text_stream_names_its_line():
    text = f"{_SMALL_HEADER}2021-01-01,UA,ORD,SFO,0,0\n2021-01-01,U\udcff,ORD,SFO,0,0\n"
    with pytest.raises(SchemaError, match=r"^malformed CSV at line 3: invalid UTF-8 "):
        read_csv(io.StringIO(text, newline=""))


def test_hash_collisions_fall_back_to_cell_by_cell(monkeypatch):
    data = _messy_csv(300) + _seam_csv().split(b"\r\n", 1)[1].replace(b"\r\n", b"\n")
    table, diags = read_csv(io.BytesIO(data))
    monkeypatch.setattr(schema, "_MIX", np.uint64(0))  # every text cell hashes alike
    collided, collided_diags = read_csv(io.BytesIO(data))
    assert collided_diags == diags
    assert_same_rows(collided, table)


@given(st.from_regex(r"-?[0-9]{1,19}(\.[0-9]{1,24})?", fullmatch=True))
@settings(max_examples=400, deadline=None)
def test_plain_numbers_are_bit_equal_to_float(cell):
    buf = np.frombuffer(cell.encode() + schema._PADDING, dtype=np.uint8)
    values, plain, integral = schema._plain_numbers(buf, np.array([0]), np.array([len(cell)]))
    digits = sum(c.isdigit() for c in cell)
    fraction = len(cell.partition(".")[2])
    if digits <= 15 and fraction <= 22:
        assert plain[0]
    if plain[0]:
        assert values[0].tobytes() == np.float64(float(cell)).tobytes()
        assert integral[0] == ("." not in cell and "-" not in cell)
