"""Deterministic synthetic flight generator with ground-truth row labels.

Every row carries exactly one label: clean, cancelled, missing, mismatch, or
outlier. The generator arranges values so the pruning pipeline removes
exactly the non-clean rows, stage by stage:

- cancelled rows are the only ones with a cancelled/diverted flag set;
- missing rows lack the whole component group and nothing else does;
- mismatch rows disagree with the component sum by >= 2 minutes (tolerance
  is 0.5), every other row sums exactly;
- clean totals are zero-inflated and capped, so the realized upper IQR fence
  sits above the cap, and outlier totals are planted strictly above that
  fence (their presence cannot move the quartiles out of the clean block as
  long as the outlier share stays below ~20%).

Component structure is learnable: carrier couples to airline, NAS to the
scheduled departure hour, weather to month, security is nearly always zero,
and late-aircraft follows the systematic delay level of the previous flight
of the same day, which rewards models that can see a window of prior rows.

Draw layout. Substream k is `Rng(seed).spawn(k)`; each is drawn as one block
and cut into rows, so the bytes are fixed by this layout alone. An integer
in [lo, hi) is `lo + trunc(u * (hi - lo))`; an exponential with mean m is
`-m * log1p(-u)`, with libm's log1p applied to each value (numpy's can
differ in the last bit).

- 0 `setup`: one uniform per airline (carrier base 2 + 10u), then one
  integer in [250, 2600) per (origin, dest) pair, row-major: route miles.
- 1 `label`: 1 draw per row, compared with the cumulative rates in the
  order cancelled, missing, mismatch, outlier; the rest is clean.
- 2 `sched`: 6 draws per row: departure jitter in [0, slot width),
  airline, origin, dest (an index among the other airports), taxi_out in
  [8, 26), taxi_in in [3, 13).
- 3 `delay`: 1, 6 or 7 draws per row. u0 < `zero_delay_rate` gives a row of
  zero components (1 draw). Otherwise: carrier, weather and NAS
  exponentials, the security uniform, a security exponential only when that
  uniform is >= 0.97, and the late-aircraft exponential.
- 4 `tamper`, in row order: an outlier row draws its target jitter in
  [0, 30), a mismatch row its offset exponential and its sign uniform, and
  then every row that flew draws its departure-delay jitter in [0, 4):
  2 draws for an outlier, 3 for a mismatch, 1 for a clean or missing row.
  A cancelled-label row draws cancelled (u < 2/3) or diverted, and a
  cancelled one its code in "ABCD": 1 or 2 draws.

Rows of `delay` and `tamper` differ in length with their own draws, so each
block is drawn at its longest and the row starts are walked through it.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.dtypes import StringDType

from .numerics import Rng
from .preprocess import iqr_bounds
from .schema import COMPONENT_FIELDS, Flights

LABELS = ("clean", "cancelled", "missing", "mismatch", "outlier")

_AIRLINES = (
    ("American Airlines Inc.", "AA"), ("Alaska Airlines Inc.", "AS"),
    ("JetBlue Airways", "B6"), ("Delta Air Lines Inc.", "DL"),
    ("Frontier Airlines Inc.", "F9"), ("Allegiant Air", "G4"),
    ("Hawaiian Airlines Inc.", "HA"), ("Spirit Air Lines", "NK"),
    ("United Air Lines Inc.", "UA"), ("Southwest Airlines Co.", "WN"),
)
_AIRPORTS = ("ATL", "BOS", "CLT", "DEN", "DFW", "EWR", "IAH", "JFK", "LAS",
             "LAX", "MCO", "MIA", "ORD", "PHX", "SEA", "SFO")


@dataclass
class SynthConfig:
    count: int = 1000
    seed: int = 0
    start_date: dt.date = dt.date(2022, 1, 3)
    flights_per_day: int = 8
    airlines: int = 6
    airports: int = 10
    cancelled_rate: float = 0.0
    missing_rate: float = 0.0
    mismatch_rate: float = 0.0
    outlier_rate: float = 0.0
    zero_delay_rate: float = 0.35
    delay_cap: int = 60
    outlier_margin: int = 200
    late_coupling: float = 0.8

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.flights_per_day < 1:
            raise ValueError("flights_per_day must be >= 1")
        if not (1 <= self.airlines <= len(_AIRLINES)):
            raise ValueError(f"airlines must be in 1..{len(_AIRLINES)}")
        if not (2 <= self.airports <= len(_AIRPORTS)):
            raise ValueError(f"airports must be in 2..{len(_AIRPORTS)}")
        rates = (self.cancelled_rate, self.missing_rate,
                 self.mismatch_rate, self.outlier_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ValueError("label rates must be >= 0 and sum to <= 1")
        if not (0.0 <= self.zero_delay_rate < 1.0):
            raise ValueError("zero_delay_rate must be in [0, 1)")
        if self.delay_cap < 1 or self.outlier_margin < 1:
            raise ValueError("delay_cap and outlier_margin must be >= 1")


def _nas_mean(dep_minutes: int) -> float:
    # congestion builds through the day, peaking late afternoon
    h = dep_minutes / 60.0
    if h < 5.0:
        return 2.0
    return 2.0 + 10.0 * math.sin(math.pi * (h - 5.0) / 19.0)


# means by departure minute and by month - 1; math.sin keeps libm's values
_NAS_MEAN = np.array([_nas_mean(m) for m in range(1440)])
_WEATHER_MEAN = 1.5 * np.array((4.0, 3.5, 2.0, 1.0, 0.8, 2.0, 3.0, 3.0, 1.2, 0.8, 1.5, 4.0))

# label draw order: a row's label index counts the cumulative rates <= its u
_DRAW_LABELS = ("cancelled", "missing", "mismatch", "outlier", "clean")
# tamper draws per row by label; a cancelled row may take one more
_TAMPER_DRAWS = np.array([1, 1, 3, 2, 1])
_EPOCH = dt.date(1970, 1, 1).toordinal()


@dataclass(frozen=True)
class SynthResult:
    flights: Flights
    labels: tuple
    iqr_lower: float
    iqr_upper: float


def _exponential(mean, u: np.ndarray) -> np.ndarray:
    """-mean * log1p(-u), with libm's log1p on each value."""
    return -mean * np.fromiter(map(math.log1p, (-u).tolist()), np.float64, len(u))


def _round(x: np.ndarray) -> np.ndarray:
    return np.rint(x).astype(np.int64)  # half to even, as Python's round


def _row_starts(fixed: np.ndarray, flex: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Start of each row in a draw block whose rows differ in length.

    Row i takes fixed[i] draws, plus extra[p] more where flex[i] is set, p
    being the row's start.
    """
    extra = extra.tolist()
    starts = []
    p = 0
    for f, x in zip(fixed.tolist(), flex.tolist()):
        starts.append(p)
        p += f + extra[p] if x else f
    return np.array(starts, dtype=np.int64)


def generate(config: SynthConfig) -> SynthResult:
    """Build `count` chronologically ordered flights plus per-row labels."""
    n, per_day = config.count, config.flights_per_day
    rng_setup, rng_label, rng_sched, rng_delay, rng_tamper = (
        Rng(config.seed).spawn(k) for k in range(5))
    airlines = _AIRLINES[:config.airlines]
    airports = _AIRPORTS[:config.airports]
    carrier_base = 2.0 + 10.0 * rng_setup.uniforms(len(airlines))
    route_dist = rng_setup.integers(250, 2600, len(airports) ** 2).astype(np.float64)
    route_dist = route_dist.reshape(len(airports), len(airports))

    # label assignment first; value streams stay aligned regardless of rates
    cuts = list(itertools.accumulate((config.cancelled_rate, config.missing_rate,
                                      config.mismatch_rate, config.outlier_rate)))
    kind = np.searchsorted(cuts, rng_label.uniforms(n), side="right")
    cancelled, missing, mismatch, outlier, clean = (kind == k for k in range(5))

    day, slot = np.divmod(np.arange(n), per_day)
    slot_width = max(1, 1080 // per_day)
    sched = rng_sched.uniforms(6 * n).reshape(n, 6)
    sched *= (slot_width, len(airlines), len(airports), len(airports) - 1, 18, 10)
    jitter, a, o, d, taxi_out, taxi_in = sched.astype(np.int64).T
    d = d + (d >= o)  # skip self-loops
    dep = np.minimum(300 + slot * slot_width + jitter, 1439)
    dist = route_dist[o, d]
    crs_elapsed = np.rint(40 + dist / 7.5)
    taxi_out = (8 + taxi_out).astype(np.float64)
    taxi_in = (3 + taxi_in).astype(np.float64)
    fl_date = config.start_date.toordinal() + day
    month = (fl_date - _EPOCH).astype("datetime64[D]").astype("datetime64[M]")
    weather_mean = _WEATHER_MEAN[month.astype(np.int64) % 12]

    # component draws: zero-inflated, structured means, capped total
    sys_level = carrier_base[a] + _NAS_MEAN[dep] + weather_mean
    prev_sys = np.zeros(n)
    prev_sys[1:] = sys_level[:-1]
    prev_sys[slot == 0] = 0.0
    # a row starting at draw p is delayed when u[p] >= zero_delay_rate and
    # then has a security delay when u[p + 4] >= 0.97
    u = rng_delay.uniforms(7 * n)
    delayed_at = u >= config.zero_delay_rate
    secured_at = np.zeros(7 * n, dtype=bool)
    secured_at[:-4] = u[4:] >= 0.97
    starts = _row_starts(np.ones(n, np.int64), np.ones(n, bool),
                         delayed_at * (5 + secured_at))
    delayed = delayed_at[starts]
    p = starts[delayed]
    secure = secured_at[p]
    comps = np.zeros((n, 5), dtype=np.int64)
    comps[delayed, 0] = _round(_exponential(carrier_base[a[delayed]], u[p + 1]))
    comps[delayed, 1] = _round(_exponential(weather_mean[delayed], u[p + 2]))
    comps[delayed, 2] = _round(_exponential(_NAS_MEAN[dep[delayed]], u[p + 3]))
    comps[np.flatnonzero(delayed)[secure], 3] = _round(_exponential(3.0, u[p[secure] + 5]))
    comps[delayed, 4] = _round(config.late_coupling * prev_sys[delayed]
                               + _exponential(1.5, u[p + 5 + secure]))
    totals = comps.sum(axis=1)
    over = totals > config.delay_cap
    comps[over] = np.floor(comps[over] * config.delay_cap / totals[over, None])
    totals[over] = comps[over].sum(axis=1)

    # fence placement: outliers sit above every clean total, so the quartiles
    # of the survivor population (clean + outlier) fall inside the clean block
    clean_totals = totals[clean]
    n_outliers = int(outlier.sum())
    lower = upper = 0.0
    if len(clean_totals):
        m, q = len(clean_totals), n_outliers
        if q and 0.75 * (m + q - 1) > m - 2:
            raise ValueError(
                f"outlier_rate too high for fence placement: {q} planted among {m} clean rows")
        top = int(clean_totals.max())
        lower, upper = iqr_bounds(np.concatenate([clean_totals, np.full(q, top + 1.0)]))
    elif n_outliers:
        raise ValueError("outliers need at least one clean row to define the fence")

    draws = _TAMPER_DRAWS[kind]
    u = rng_tamper.uniforms(int(draws.sum() + cancelled.sum()))
    starts = _row_starts(draws, cancelled, u < 2.0 / 3.0)
    if n_outliers:
        p = starts[outlier]
        target = math.ceil(max(upper, float(top))) + config.outlier_margin
        target += 3 * np.arange(n_outliers) + (u[p] * 30).astype(np.int64)
        comps[outlier, 4] += target - totals[outlier]
        totals[outlier] = target
    arr_delay = totals.astype(np.float64)
    p = starts[mismatch]
    offset = 2 + _round(_exponential(6.0, u[p]))
    arr_delay[mismatch] += np.where(u[p + 1] < 0.5, -offset, offset)

    # self-check: the pipeline must see exactly the planted structure
    if len(clean_totals):
        check_lower, check_upper = iqr_bounds(
            np.concatenate([clean_totals, arr_delay[outlier]]))
        if not (math.isclose(check_lower, lower, abs_tol=1e-9)
                and math.isclose(check_upper, upper, abs_tol=1e-9)):
            raise RuntimeError("fence moved after outlier placement")
        if ((clean_totals < lower) | (clean_totals > upper)).any():
            raise RuntimeError("a clean total landed outside the planted fence")

    # flown rows: every row but the cancelled and diverted ones
    flown = ~cancelled
    crs_arr = (dep + crs_elapsed).astype(np.int64) % 1440
    dep_delay = (comps[:, 0] + comps[:, 3] + comps[:, 4]).astype(np.float64)
    # a flown row's last tamper draw is its departure-delay jitter
    dep_delay[flown] += (u[(starts + draws - 1)[flown]] * 4).astype(np.int64)
    dep_delay[cancelled] = np.nan
    dep_actual = (dep[flown] + dep_delay[flown]).astype(np.int64) % 1440
    arr_actual = (crs_arr[flown] + arr_delay[flown]).astype(np.int64) % 1440
    arr_delay[cancelled] = np.nan

    def flown_column(values):
        column = np.full(n, np.nan)
        column[flown] = values
        return column

    rows = np.flatnonzero(cancelled)
    grounded = u[starts[rows]] < 2.0 / 3.0
    cancelled_flag = np.zeros(n, dtype=np.int8)
    cancelled_flag[rows[grounded]] = 1
    diverted_flag = cancelled.astype(np.int8) - cancelled_flag
    cancellation_code = np.full(n, "", dtype=StringDType())
    cancellation_code[rows[grounded]] = np.array(list("ABCD"), dtype=StringDType())[
        (u[starts[rows[grounded]] + 1] * 4).astype(np.int64)]

    # text columns index per-airline and per-airport vocabularies
    names = np.array([name for name, _ in airlines], dtype=StringDType())
    codes = np.array([code for _, code in airlines], dtype=StringDType())
    ports = np.array(airports, dtype=StringDType())
    components = np.where((clean | mismatch | outlier)[:, None], comps, np.nan)
    columns = dict(
        fl_date=fl_date,
        airline=names[a],
        airline_dot=(names + ": " + codes)[a],
        airline_code=codes[a],
        dot_code=np.array([str(19000 + k) for k in range(len(airlines))], dtype=StringDType())[a],
        fl_number=1000.0 + np.arange(n),
        origin=ports[o],
        origin_city=(ports + " Metro, US")[o],
        dest=ports[d],
        dest_city=(ports + " Metro, US")[d],
        crs_dep_time=dep.astype(np.float64),
        dep_time=flown_column(dep_actual),
        dep_delay=dep_delay,
        taxi_out=flown_column(taxi_out[flown]),
        wheels_off=flown_column((dep_actual + taxi_out[flown]).astype(np.int64) % 1440),
        wheels_on=flown_column((arr_actual - taxi_in[flown]).astype(np.int64) % 1440),
        taxi_in=flown_column(taxi_in[flown]),
        crs_arr_time=crs_arr.astype(np.float64),
        arr_time=flown_column(arr_actual),
        arr_delay=arr_delay,
        cancelled=cancelled_flag,
        cancellation_code=cancellation_code,
        diverted=diverted_flag,
        crs_elapsed_time=crs_elapsed,
        elapsed_time=crs_elapsed + arr_delay - dep_delay,
        air_time=flown_column(np.maximum(20.0, crs_elapsed - taxi_out - taxi_in)[flown]),
        distance=dist,
        **{name: components[:, k] for k, name in enumerate(COMPONENT_FIELDS)},
    )
    labels = tuple(_DRAW_LABELS[k] for k in kind.tolist())
    return SynthResult(flights=Flights(columns), labels=labels,
                       iqr_lower=lower, iqr_upper=upper)


def write_labels(labels, path) -> None:
    """Label sidecar: header `row,label`, row = 0-based generated order."""
    lines = ["row,label"]
    lines += [f"{i},{label}" for i, label in enumerate(labels)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path) -> tuple:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0] != "row,label":
        raise ValueError("label file must start with 'row,label'")
    labels = []
    for line in text[1:]:
        idx, label = line.split(",")
        if int(idx) != len(labels):
            raise ValueError(f"label rows out of order at {line!r}")
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}")
        labels.append(label)
    return tuple(labels)
