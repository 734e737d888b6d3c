import datetime as dt

import numpy as np
import pytest

from delaycast.features import (
    CONTINUOUS_FEATURES, FEATURE_NAMES, FeatureTable,
    build_table, chronological_split, expand_date, fit_codebook,
    fit_standardizer, positive_variance_columns,
)
from delaycast.schema import Flights, TextColumn

from test_schema import flights, make_record


def feature_record(date, dep_minutes, airline="UA", origin="ORD", dest="SFO", **over):
    return make_record(fl_date=date.toordinal(), crs_dep_time=dep_minutes,
                       airline=airline, origin=origin, dest=dest, **over)


def small_records():
    d = dt.date
    return flights([
        feature_record(d(2021, 3, 2), 610, airline="AA", origin="ATL", dest="LAX"),
        feature_record(d(2021, 3, 1), 500, airline="UA", origin="ORD", dest="SFO"),
        feature_record(d(2021, 3, 1), 930, airline="DL", origin="ATL", dest="SFO"),
        feature_record(d(2021, 3, 3), 200, airline="AA", origin="ORD", dest="LAX"),
    ])


def test_expand_date():
    days = [dt.date(1999, 12, 25) + dt.timedelta(days=k) for k in range(500)]
    year, month, day = expand_date(np.array([d.toordinal() for d in days]))
    assert list(zip(year.tolist(), month.tolist(), day.tolist())) == [
        (d.year, d.month, d.day) for d in days]


def test_codebook_lexicographic_and_errors():
    cb = fit_codebook(small_records())
    assert cb.columns["AIRLINE"] == ("AA", "DL", "UA")
    assert cb.encode("AIRLINE", TextColumn.encode(["DL"])).tolist() == [1]
    with pytest.raises(ValueError, match="unknown AIRLINE"):
        cb.encode("AIRLINE", TextColumn.encode(["WN"]))
    with pytest.raises(ValueError, match="no column"):
        cb.encode("NOPE", TextColumn.encode(["x"]))


def test_codebook_names_the_smallest_unknown_value():
    cb = fit_codebook(small_records())
    values = TextColumn.encode(["UA", "WN", "AA", "B6", "WN"])
    with pytest.raises(ValueError, match="^unknown AIRLINE category 'B6'$"):
        cb.encode("AIRLINE", values)
    assert cb.encode("AIRLINE", values[[0, 2, 0]]).tolist() == [2, 0, 2]


def test_codebook_takes_only_the_values_rows_use():
    recs = small_records()
    kept = recs.select(np.array([0, 3]))  # both AA; the vocabulary still holds DL and UA
    assert kept.airline.vocabulary is recs.airline.vocabulary
    cb = fit_codebook(kept)
    assert cb.columns == {"AIRLINE": ("AA",), "ORIGIN": ("ATL", "ORD"), "DEST": ("LAX",)}
    assert build_table(kept, cb).x[:, FEATURE_NAMES.index("AIRLINE")].tolist() == [0, 0]


def test_build_table_order_and_values():
    recs = small_records()
    cb = fit_codebook(recs)
    table = build_table(recs, cb)
    # sorted by (date, dep time): rows 1, 2, 0, 3 of the input
    assert table.timestamps.tolist() == [
        [dt.date(2021, 3, 1).toordinal(), 500],
        [dt.date(2021, 3, 1).toordinal(), 930],
        [dt.date(2021, 3, 2).toordinal(), 610],
        [dt.date(2021, 3, 3).toordinal(), 200],
    ]
    assert table.feature_names == FEATURE_NAMES
    assert table.x.shape == (4, 11)
    assert table.y.shape == (4, 5)
    row0 = table.x[0]
    assert row0[FEATURE_NAMES.index("CRS_DEP_TIME")] == 500
    assert row0[FEATURE_NAMES.index("YEAR")] == 2021
    assert row0[FEATURE_NAMES.index("MONTH")] == 3
    assert row0[FEATURE_NAMES.index("DAY")] == 1
    assert row0[FEATURE_NAMES.index("AIRLINE")] == cb.encode("AIRLINE", TextColumn.encode(["UA"]))[0]
    # component order: carrier, weather, nas, security, late aircraft
    assert np.array_equal(table.y[0], np.array([10.0, 0.0, 5.0, 0.0, 0.0]))


def test_build_table_total_mode():
    recs = small_records()
    table = build_table(recs, fit_codebook(recs), target_mode="total")
    assert table.y.shape == (4, 1)
    assert np.all(table.y[:, 0] == 15.0)


def test_build_table_missing_field_errors():
    recs = small_records()
    taxi_in = recs.taxi_in.copy()  # stored columns are read-only
    taxi_in[2] = np.nan
    recs = Flights({**{name: getattr(recs, name) for name in Flights.FIELDS}, "taxi_in": taxi_in})
    with pytest.raises(ValueError, match="record 2 missing taxi_in"):
        build_table(recs, fit_codebook(recs))
    with pytest.raises(ValueError, match="unknown target mode"):
        build_table(small_records(), fit_codebook(small_records()), target_mode="both")


def test_chronological_split_floor():
    recs = small_records()
    recs = recs.select(np.tile(np.arange(len(recs)), 2))
    cb = fit_codebook(recs)
    table = build_table(recs, cb)
    train, test = chronological_split(table)  # n=8 -> 6/2
    assert len(train) == 6 and len(test) == 2
    assert max(train.timestamps.tolist()) <= min(test.timestamps.tolist())
    # concatenation restores the original order
    assert np.array_equal(np.vstack([train.x, test.x]), table.x)
    assert np.array_equal(np.vstack([train.y, test.y]), table.y)


def test_chronological_split_validation():
    recs = small_records()
    table = build_table(recs, fit_codebook(recs))
    train, test = chronological_split(table)  # n=4 -> 3/1
    assert len(train) == 3 and len(test) == 1
    with pytest.raises(ValueError, match="train_fraction"):
        chronological_split(table, 1.0)
    with pytest.raises(ValueError, match="empty side"):
        chronological_split(table, 0.1)  # floor(0.4) == 0


def test_standardizer_round_trip_and_population_std():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 11)) * 10 + 3
    std = fit_standardizer(x, FEATURE_NAMES)
    scaled = std.apply(x)
    idx = [FEATURE_NAMES.index(c) for c in CONTINUOUS_FEATURES]
    assert np.allclose(scaled[:, idx].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaled[:, idx].std(axis=0), 1.0, atol=1e-12)  # ddof=0
    # unlisted columns untouched
    other = [i for i in range(11) if i not in idx]
    assert np.array_equal(scaled[:, other], x[:, other])


def test_standardizer_zero_variance_error_names_column():
    x = np.ones((10, 11))
    with pytest.raises(ValueError, match="TAXI_OUT"):
        fit_standardizer(x, FEATURE_NAMES)


def test_standardizer_unknown_column():
    x = np.ones((4, 11))
    with pytest.raises(ValueError, match="unknown feature"):
        fit_standardizer(x, FEATURE_NAMES, columns=("NOPE",))


def test_positive_variance_columns():
    x = np.ones((10, 11))
    x[:, 0] = np.arange(10)
    cols = positive_variance_columns(x, FEATURE_NAMES)
    assert cols == ("CRS_DEP_TIME",)


def test_table_invariant_checks():
    recs = small_records()
    table = build_table(recs, fit_codebook(recs))
    with pytest.raises(ValueError, match="nondecreasing"):
        FeatureTable(feature_names=table.feature_names, x=table.x, y=table.y,
                     timestamps=table.timestamps[::-1],
                     target_mode=table.target_mode, codebook=table.codebook)
    with pytest.raises(ValueError, match="row count"):
        FeatureTable(feature_names=table.feature_names, x=table.x[:2], y=table.y,
                     timestamps=table.timestamps, target_mode=table.target_mode,
                     codebook=table.codebook)
