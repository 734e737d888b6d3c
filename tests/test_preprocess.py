import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycast.preprocess import (
    _delay_stats, drop_cancelled_diverted, drop_missing_components, filter_outliers,
    iqr_bounds, run_pipeline, verify_component_sum,
)

from test_schema import assert_same_rows, flights, make_record


def delayed_record(arr_delay, components=None, **overrides):
    comps = components if components is not None else (arr_delay, 0.0, 0.0, 0.0, 0.0)
    return make_record(
        arr_delay=float(arr_delay),
        delay_due_carrier=comps[0], delay_due_weather=comps[1],
        delay_due_nas=comps[2], delay_due_security=comps[3],
        delay_due_late_aircraft=comps[4],
        **overrides,
    )


def test_drop_cancelled_diverted():
    recs = [make_record(), make_record(cancelled=1), make_record(diverted=1)]
    kept, removed = drop_cancelled_diverted(flights(recs))
    assert removed == 2 and len(kept) == 1
    assert (kept.cancelled == 0).all() and (kept.diverted == 0).all()


def test_drop_missing_components_partial_group_removed():
    full = make_record()
    partial = make_record(delay_due_weather=math.nan)
    zeroes = delayed_record(0.0, (0.0, 0.0, 0.0, 0.0, 0.0))
    kept, removed = drop_missing_components(flights([full, partial, zeroes]))
    assert removed == 1
    assert_same_rows(kept, flights([full, zeroes]))


def test_verify_component_sum_tolerance_edges():
    exact = delayed_record(15.0, (10.0, 0.0, 5.0, 0.0, 0.0))
    at_tol = delayed_record(15.5, (10.0, 0.0, 5.0, 0.0, 0.0))     # residual 0.5, kept
    beyond = delayed_record(16.0, (10.0, 0.0, 5.0, 0.0, 0.0))     # residual 1.0, dropped
    no_arr = make_record(arr_delay=math.nan, delay_due_carrier=10.0, delay_due_weather=0.0,
                         delay_due_nas=5.0, delay_due_security=0.0,
                         delay_due_late_aircraft=0.0)
    kept, removed, worst = verify_component_sum(flights([exact, at_tol, beyond, no_arr]))
    assert_same_rows(kept, flights([exact, at_tol]))
    assert removed == 2
    assert worst == pytest.approx(1.0)


def test_verify_component_sum_requires_group():
    with pytest.raises(ValueError, match="component group"):
        verify_component_sum(flights([make_record(delay_due_nas=math.nan)]))


def test_verify_component_sum_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        verify_component_sum(flights([]), tolerance=-0.1)


# --- iqr --------------------------------------------------------------------


def _naive_iqr_oracle(values, multiplier=1.5):
    xs = sorted(float(v) for v in values)
    n = len(xs)

    def quantile(q):
        p = q * (n - 1)
        lo = math.floor(p)
        hi = min(lo + 1, n - 1)
        frac = p - lo
        return xs[lo] + frac * (xs[hi] - xs[lo])

    q1, q3 = quantile(0.25), quantile(0.75)
    return q1 - multiplier * (q3 - q1), q3 + multiplier * (q3 - q1)


def test_iqr_bounds_hand_example():
    # 1..8: q1 = 2.75, q3 = 6.25, iqr = 3.5 -> fences (-2.5, 11.5)
    lo, hi = iqr_bounds(range(1, 9))
    assert lo == pytest.approx(-2.5)
    assert hi == pytest.approx(11.5)


def test_iqr_bounds_single_value_degenerate():
    lo, hi = iqr_bounds([7.0])
    assert lo == pytest.approx(7.0) and hi == pytest.approx(7.0)


def test_iqr_bounds_empty_raises():
    with pytest.raises(ValueError):
        iqr_bounds([])


def test_iqr_bounds_matches_numpy_quantiles():
    rng = np.random.default_rng(0)
    for n in (2, 3, 10, 101):
        xs = rng.normal(size=n) * 40
        lo, hi = iqr_bounds(xs)
        q1, q3 = np.quantile(xs, [0.25, 0.75])
        assert lo == pytest.approx(q1 - 1.5 * (q3 - q1), abs=1e-12)
        assert hi == pytest.approx(q3 + 1.5 * (q3 - q1), abs=1e-12)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_iqr_bounds_property_vs_oracle(values):
    lo, hi = iqr_bounds(values)
    olo, ohi = _naive_iqr_oracle(values)
    assert lo == pytest.approx(olo, abs=1e-9, rel=1e-9)
    assert hi == pytest.approx(ohi, abs=1e-9, rel=1e-9)


def test_filter_outliers_inclusive_bounds():
    # values 1..8 plus 100: fences computed over all nine values
    recs = flights([delayed_record(v) for v in list(range(1, 9)) + [100]])
    kept, removed, (lo, hi) = filter_outliers(recs)
    assert removed == 1
    assert ((lo <= kept.arr_delay) & (kept.arr_delay <= hi)).all()
    assert kept.arr_delay.max() == 8.0
    # boundary rows stay: plant one exactly at the upper fence
    recs2 = [delayed_record(v) for v in range(1, 9)]
    _, _, (lo2, hi2) = filter_outliers(flights(recs2))
    recs2.append(delayed_record(hi2))
    kept2, removed2, _ = filter_outliers(flights(recs2))
    # the appended row shifts the fence; recompute to confirm inclusivity logic
    assert (kept2.arr_delay <= filter_outliers(flights(recs2))[2][1]).all()


def test_filter_outliers_idempotent_on_clean_data():
    recs = flights([delayed_record(v) for v in (10, 12, 13, 15, 18, 20, 21, 22)])
    kept, removed, _ = filter_outliers(recs)
    assert removed == 0
    kept2, removed2, _ = filter_outliers(kept)
    assert removed2 == 0
    assert_same_rows(kept2, kept)


# --- pipeline ---------------------------------------------------------------


def test_run_pipeline_accounting_and_stats():
    clean = [delayed_record(v, fl_number=i) for i, v in enumerate((10, 12, 13, 15, 18, 20, 21, 22))]
    flagged = [make_record(cancelled=1), make_record(diverted=1)]
    missing = [make_record(delay_due_carrier=math.nan, fl_number=90)]
    mismatch = [delayed_record(50.0, (10.0, 0.0, 5.0, 0.0, 0.0), fl_number=91)]
    outlier = [delayed_record(500.0, (500.0, 0.0, 0.0, 0.0, 0.0), fl_number=92)]
    recs = clean + flagged + missing + mismatch + outlier
    kept, report = run_pipeline(flights(recs))
    assert report.input_count == len(recs)
    assert report.removed == {
        "cancelled_or_diverted": 2,
        "missing_components": 1,
        "sum_mismatch": 1,
        "outlier": 1,
    }
    assert report.retained_count == len(clean) == len(kept)
    assert report.input_count == report.retained_count + sum(report.removed.values())
    assert report.stats_before_outliers.count == len(clean) + 1
    assert report.stats_after_outliers.count == len(clean)
    assert report.stats_after_outliers.minimum == 10.0
    assert report.stats_after_outliers.maximum == 22.0
    mean = sum((10, 12, 13, 15, 18, 20, 21, 22)) / 8
    assert report.stats_after_outliers.mean == pytest.approx(mean)


def test_run_pipeline_no_removals():
    recs = [delayed_record(v) for v in (10, 12, 13, 15, 18, 20, 21, 22)]
    kept, report = run_pipeline(flights(recs))
    assert_same_rows(kept, flights(recs))
    assert sum(report.removed.values()) == 0


def test_run_pipeline_empty_survivors_raises():
    with pytest.raises(ValueError, match="cancelled/diverted"):
        run_pipeline(flights([make_record(cancelled=1)]))
    with pytest.raises(ValueError, match="component-presence"):
        run_pipeline(flights([make_record(delay_due_nas=math.nan)]))


def test_report_serialization():
    recs = [delayed_record(v) for v in (10, 12, 13, 15, 18, 20, 21, 22)]
    recs.append(make_record(cancelled=1))
    _, report = run_pipeline(flights(recs))
    text = report.to_text()
    assert "input_count=9" in text
    assert "removed_cancelled_or_diverted=1" in text
    assert "retained_count=8" in text
    assert "iqr_lower=" in text and "arr_delay_post_outlier_mean=" in text


def test_report_pct_of_entering_differs_from_pct_of_input():
    # one flagged row, then one missing-group row among two survivors
    recs = [make_record(cancelled=1),
            make_record(delay_due_carrier=math.nan),
            delayed_record(10.0), delayed_record(12.0)]
    _, report = run_pipeline(flights(recs))
    rows = {r[0]: r for r in report.stage_rows()}
    _, n, pct_in, pct_step = rows["missing_components"]
    assert n == 1
    assert pct_in == pytest.approx(25.0)
    assert pct_step == pytest.approx(100.0 / 3.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_delay_stats_sum_left_to_right(values):
    # bit-identical to Python's left-to-right sum over the rows, not np.sum's
    # pairwise sum, so the report's floats stay the same
    stats = _delay_stats(flights([make_record(arr_delay=v) for v in values]))
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1) if len(values) > 1 else 0.0
    assert (stats.count, stats.mean, stats.std) == (len(values), mean, math.sqrt(var))
    assert (stats.minimum, stats.maximum) == (min(values), max(values))
