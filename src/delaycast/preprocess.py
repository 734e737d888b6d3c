"""Record pruning: flagged rows, incomplete component groups, sum checks, IQR outliers.

Each stage takes a `Flights` value, computes one boolean mask over its
columns and returns the rows the mask keeps. The four stages run in a fixed
order; counts are tracked per stage so input_count == retained +
sum(removed) always holds. Arrival-delay summary stats are captured before
and after the outlier stage. A blank number is NaN in its column, so "has a
value" is "is not NaN" throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schema import COMPONENT_FIELDS, Flights

DEFAULT_SUM_TOLERANCE = 0.5  # minutes; absorbs float ingestion noise
IQR_MULTIPLIER = 1.5

STAGE_NAMES = ("cancelled_or_diverted", "missing_components", "sum_mismatch", "outlier")


def _keep(flights: Flights, mask):
    return flights.select(mask), len(flights) - int(np.count_nonzero(mask))


def drop_cancelled_diverted(flights: Flights):
    """Remove rows with either flag set. Returns (retained, removed_count)."""
    return _keep(flights, (flights.cancelled == 0) & (flights.diverted == 0))


def drop_missing_components(flights: Flights):
    """Keep only rows where all five delay components are present."""
    present = np.ones(len(flights), dtype=bool)
    for name in COMPONENT_FIELDS:
        present &= ~np.isnan(getattr(flights, name))
    return _keep(flights, present)


def verify_component_sum(flights: Flights, tolerance: float = DEFAULT_SUM_TOLERANCE):
    """Drop rows whose component sum disagrees with ARR_DELAY beyond tolerance.

    Inputs must already have the full component group. A missing ARR_DELAY
    also counts as removed (there is nothing to verify against). Returns
    (retained, removed_count, worst_residual) where worst_residual is the
    largest |sum - arr_delay| seen across all rows that had ARR_DELAY.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    # summed left to right in COMPONENT_FIELDS order: carrier, weather, nas,
    # security, late aircraft
    total = getattr(flights, COMPONENT_FIELDS[0])
    for name in COMPONENT_FIELDS[1:]:
        total = total + getattr(flights, name)
    if np.isnan(total).any():
        raise ValueError("verify_component_sum requires the full component group")
    has_arr = ~np.isnan(flights.arr_delay)
    residual = np.abs(total - flights.arr_delay)
    worst = max(0.0, float(residual[has_arr].max())) if has_arr.any() else 0.0
    retained, removed = _keep(flights, has_arr & (residual <= tolerance))
    return retained, removed, worst


def _quantile(sorted_values, q: float) -> float:
    # linear interpolation on order statistics: position q*(n-1)
    n = len(sorted_values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if lo + 1 < n:
        return sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo])
    return float(sorted_values[lo])


def iqr_bounds(values, multiplier: float = IQR_MULTIPLIER):
    """Tukey fences (Q1 - k*IQR, Q3 + k*IQR) with linear-interpolation quartiles.

    Quartile rule: sorted x(0..n-1), position p = q*(n-1), value
    x(floor(p)) + frac(p) * (x(floor(p)+1) - x(floor(p))). Single-element
    input yields a degenerate zero-width fence around that value.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if not len(vals):
        raise ValueError("iqr_bounds of empty input")
    q1 = float(_quantile(vals, 0.25))
    q3 = float(_quantile(vals, 0.75))
    iqr = q3 - q1
    return q1 - multiplier * iqr, q3 + multiplier * iqr


def filter_outliers(flights: Flights, multiplier: float = IQR_MULTIPLIER):
    """Drop rows whose ARR_DELAY falls outside the IQR fence (bounds inclusive).

    Bounds are computed from the input rows themselves. Returns
    (retained, removed_count, (lower, upper)).
    """
    delays = flights.arr_delay
    if np.isnan(delays).any():
        raise ValueError("filter_outliers requires ARR_DELAY on every row")
    lower, upper = iqr_bounds(delays, multiplier)
    retained, removed = _keep(flights, (lower <= delays) & (delays <= upper))
    return retained, removed, (lower, upper)


@dataclass(frozen=True)
class DelayStats:
    count: int
    mean: float
    std: float  # sample std (ddof=1); 0.0 when count < 2
    minimum: float
    maximum: float


def _delay_stats(flights: Flights) -> DelayStats:
    vals = flights.arr_delay
    n = len(vals)
    # running sums (np.cumsum), not np.sum's pairwise ones: the report's
    # floats keep the left-to-right summation order
    mean = float(np.cumsum(vals)[-1]) / n
    if n > 1:
        var = float(np.cumsum((vals - mean) ** 2)[-1]) / (n - 1)
    else:
        var = 0.0
    return DelayStats(n, mean, math.sqrt(var), float(vals.min()), float(vals.max()))


@dataclass(frozen=True)
class PruneReport:
    """Per-stage removal accounting plus arrival-delay summaries."""

    input_count: int
    removed: dict  # stage name -> count
    retained_count: int
    sum_tolerance: float
    worst_sum_residual: float
    iqr_lower: float
    iqr_upper: float
    stats_before_outliers: DelayStats
    stats_after_outliers: DelayStats

    def __post_init__(self):
        total = self.retained_count + sum(self.removed.values())
        if total != self.input_count:
            raise ValueError(
                f"prune accounting broken: input {self.input_count} != "
                f"retained {self.retained_count} + removed {sum(self.removed.values())}")

    def stage_rows(self):
        """(stage, removed, pct_of_input, pct_of_entering) per stage, in order."""
        rows = []
        entering = self.input_count
        for stage in STAGE_NAMES:
            n = self.removed[stage]
            pct_input = 100.0 * n / self.input_count if self.input_count else 0.0
            pct_entering = 100.0 * n / entering if entering else 0.0
            rows.append((stage, n, pct_input, pct_entering))
            entering -= n
        return rows

    def to_text(self) -> str:
        lines = [f"input_count={self.input_count}"]
        for stage, n, pct_in, pct_step in self.stage_rows():
            lines.append(f"removed_{stage}={n}")
            lines.append(f"removed_{stage}_pct_of_input={pct_in:.3f}")
            lines.append(f"removed_{stage}_pct_of_entering={pct_step:.3f}")
        lines.append(f"retained_count={self.retained_count}")
        lines.append(f"sum_tolerance={self.sum_tolerance}")
        lines.append(f"worst_sum_residual={self.worst_sum_residual}")
        lines.append(f"iqr_lower={self.iqr_lower}")
        lines.append(f"iqr_upper={self.iqr_upper}")
        for tag, s in (("pre_outlier", self.stats_before_outliers),
                       ("post_outlier", self.stats_after_outliers)):
            lines.append(f"arr_delay_{tag}_count={s.count}")
            lines.append(f"arr_delay_{tag}_mean={s.mean:.3f}")
            lines.append(f"arr_delay_{tag}_std={s.std:.3f}")
            lines.append(f"arr_delay_{tag}_min={s.minimum}")
            lines.append(f"arr_delay_{tag}_max={s.maximum}")
        return "\n".join(lines) + "\n"


def run_pipeline(flights: Flights, sum_tolerance: float = DEFAULT_SUM_TOLERANCE,
                 iqr_multiplier: float = IQR_MULTIPLIER):
    """All four stages in order. Returns (retained_flights, PruneReport).

    Raises if any stage empties the survivor set: downstream stages and the
    report stats are meaningless without survivors.
    """
    input_count = len(flights)
    stage1, n_flagged = drop_cancelled_diverted(flights)
    if not stage1:
        raise ValueError("no records survive the cancelled/diverted stage")
    stage2, n_missing = drop_missing_components(stage1)
    if not stage2:
        raise ValueError("no records survive the component-presence stage")
    stage3, n_mismatch, worst = verify_component_sum(stage2, sum_tolerance)
    if not stage3:
        raise ValueError("no records survive the component-sum stage")
    stats_before = _delay_stats(stage3)
    stage4, n_outlier, (lower, upper) = filter_outliers(stage3, iqr_multiplier)
    if not stage4:
        raise ValueError("no records survive the outlier stage")
    report = PruneReport(
        input_count=input_count,
        removed={
            "cancelled_or_diverted": n_flagged,
            "missing_components": n_missing,
            "sum_mismatch": n_mismatch,
            "outlier": n_outlier,
        },
        retained_count=len(stage4),
        sum_tolerance=sum_tolerance,
        worst_sum_residual=worst,
        iqr_lower=lower,
        iqr_upper=upper,
        stats_before_outliers=stats_before,
        stats_after_outliers=_delay_stats(stage4),
    )
    return stage4, report
