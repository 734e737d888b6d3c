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
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

from .numerics import Rng
from .preprocess import iqr_bounds
from .schema import Flights

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


def _carrier_base(rng: Rng, n: int):
    return [2.0 + 10.0 * rng.uniform() for _ in range(n)]


def _nas_mean(dep_minutes: int) -> float:
    # congestion builds through the day, peaking late afternoon
    h = dep_minutes / 60.0
    if h < 5.0:
        return 2.0
    return 2.0 + 10.0 * math.sin(math.pi * (h - 5.0) / 19.0)


_MONTH_WEATHER = (4.0, 3.5, 2.0, 1.0, 0.8, 2.0, 3.0, 3.0, 1.2, 0.8, 1.5, 4.0)


def _weather_mean(month: int) -> float:
    return 1.5 * _MONTH_WEATHER[month - 1]


@dataclass(frozen=True)
class SynthResult:
    flights: Flights
    labels: tuple
    iqr_lower: float
    iqr_upper: float


def generate(config: SynthConfig) -> SynthResult:
    """Build `count` chronologically ordered flights plus per-row labels."""
    rng_setup = Rng(config.seed).spawn(0)
    rng_label = Rng(config.seed).spawn(1)
    rng_sched = Rng(config.seed).spawn(2)
    rng_delay = Rng(config.seed).spawn(3)
    rng_tamper = Rng(config.seed).spawn(4)

    airlines = _AIRLINES[:config.airlines]
    airports = _AIRPORTS[:config.airports]
    carrier_base = _carrier_base(rng_setup, len(airlines))
    route_dist = [[float(rng_setup.integer(250, 2600)) for _ in airports]
                  for _ in airports]

    # label assignment first; value streams stay aligned regardless of rates
    labels = []
    cum_cancel = config.cancelled_rate
    cum_missing = cum_cancel + config.missing_rate
    cum_mismatch = cum_missing + config.mismatch_rate
    cum_outlier = cum_mismatch + config.outlier_rate
    for _ in range(config.count):
        u = rng_label.uniform()
        if u < cum_cancel:
            labels.append("cancelled")
        elif u < cum_missing:
            labels.append("missing")
        elif u < cum_mismatch:
            labels.append("mismatch")
        elif u < cum_outlier:
            labels.append("outlier")
        else:
            labels.append("clean")

    slot_width = max(1, 1080 // config.flights_per_day)
    rows = []
    prev_sys_by_day: dict[int, float] = {}
    for i in range(config.count):
        day_idx = i // config.flights_per_day
        slot = i % config.flights_per_day
        date = config.start_date + dt.timedelta(days=day_idx)
        dep = min(300 + slot * slot_width + rng_sched.integer(0, slot_width), 1439)
        a = rng_sched.integer(0, len(airlines))
        o = rng_sched.integer(0, len(airports))
        d = rng_sched.integer(0, len(airports) - 1)
        if d >= o:
            d += 1  # skip self-loops
        dist = route_dist[o][d]
        crs_elapsed = float(round(40 + dist / 7.5))
        taxi_out = float(rng_sched.integer(8, 26))
        taxi_in = float(rng_sched.integer(3, 13))

        # component draws: zero-inflated, structured means, capped total
        sys_level = carrier_base[a] + _nas_mean(dep) + _weather_mean(date.month)
        prev_sys = prev_sys_by_day.get(day_idx, 0.0)
        if rng_delay.uniform() < config.zero_delay_rate:
            comps = [0, 0, 0, 0, 0]
        else:
            carrier = round(rng_delay.exponential(carrier_base[a]))
            weather = round(rng_delay.exponential(_weather_mean(date.month)))
            nas = round(rng_delay.exponential(_nas_mean(dep)))
            security = 0 if rng_delay.uniform() < 0.97 else round(rng_delay.exponential(3.0))
            late = round(config.late_coupling * prev_sys + rng_delay.exponential(1.5))
            comps = [carrier, weather, nas, security, late]
            total = sum(comps)
            if total > config.delay_cap:
                comps = [math.floor(c * config.delay_cap / total) for c in comps]
        prev_sys_by_day[day_idx] = sys_level
        rows.append({
            "i": i, "date": date, "dep": dep, "airline": a, "origin": o,
            "dest": d, "dist": dist, "crs_elapsed": crs_elapsed,
            "taxi_out": taxi_out, "taxi_in": taxi_in, "comps": comps,
        })

    # fence placement: outliers sit above every clean total, so the quartiles
    # of the survivor population (clean + outlier) fall inside the clean block
    clean_totals = [sum(r["comps"]) for r, lab in zip(rows, labels) if lab == "clean"]
    n_outliers = sum(1 for lab in labels if lab == "outlier")
    lower = upper = 0.0
    if clean_totals:
        m, q = len(clean_totals), n_outliers
        if q and 0.75 * (m + q - 1) > m - 2:
            raise ValueError(
                f"outlier_rate too high for fence placement: {q} planted among {m} clean rows")
        placeholder = max(clean_totals) + 1.0
        lower, upper = iqr_bounds(clean_totals + [placeholder] * q)
    elif n_outliers:
        raise ValueError("outliers need at least one clean row to define the fence")

    outlier_seen = 0
    records = []  # one field -> value dict per row
    for row, label in zip(rows, labels):
        comps = row["comps"]
        if label == "outlier":
            target = math.ceil(max(upper, float(max(clean_totals)))) + config.outlier_margin
            target += 3 * outlier_seen + rng_tamper.integer(0, 30)
            outlier_seen += 1
            comps = list(comps)
            comps[4] += target - sum(comps)
        arr_delay = float(sum(comps))
        if label == "mismatch":
            offset = 2 + round(rng_tamper.exponential(6.0))
            if rng_tamper.uniform() < 0.5:
                offset = -offset
            arr_delay = float(sum(comps) + offset)
        records.append(_make_record(row, label, comps, arr_delay,
                                    airlines, airports, rng_tamper))

    # self-check: the pipeline must see exactly the planted structure
    if clean_totals:
        survivor_totals = [sum(r["comps"]) for r, lab in zip(rows, labels) if lab == "clean"]
        survivor_totals += [float(r["arr_delay"]) for r, lab in zip(records, labels)
                            if lab == "outlier"]
        check_lower, check_upper = iqr_bounds(survivor_totals)
        if not (math.isclose(check_lower, lower, abs_tol=1e-9)
                and math.isclose(check_upper, upper, abs_tol=1e-9)):
            raise RuntimeError("fence moved after outlier placement")
        if any(not (lower <= t <= upper) for t in clean_totals):
            raise RuntimeError("a clean total landed outside the planted fence")

    flights = Flights({name: [r.get(name) for r in records] for name in Flights.FIELDS})
    return SynthResult(flights=flights, labels=tuple(labels),
                       iqr_lower=lower, iqr_upper=upper)


def _make_record(row, label, comps, arr_delay, airlines, airports, rng: Rng):
    name, code = airlines[row["airline"]]
    origin = airports[row["origin"]]
    dest = airports[row["dest"]]
    date = row["date"]
    dep_sched = row["dep"]
    crs_arr = int(dep_sched + row["crs_elapsed"]) % 1440
    common = dict(
        fl_date=date,
        airline=name,
        airline_dot=f"{name}: {code}",
        airline_code=code,
        dot_code=str(19000 + row["airline"]),
        fl_number=1000 + row["i"],
        origin=origin,
        origin_city=f"{origin} Metro, US",
        dest=dest,
        dest_city=f"{dest} Metro, US",
        crs_dep_time=dep_sched,
        crs_arr_time=crs_arr,
        crs_elapsed_time=row["crs_elapsed"],
        distance=row["dist"],
    )
    if label == "cancelled":
        if rng.uniform() < 2.0 / 3.0:
            return dict(cancelled=1, diverted=0,
                        cancellation_code="ABCD"[rng.integer(0, 4)], **common)
        return dict(cancelled=0, diverted=1, **common)

    dep_delay = float(comps[0] + comps[3] + comps[4] + rng.integer(0, 4))
    dep_actual = int(dep_sched + dep_delay) % 1440
    arr_actual = int(crs_arr + arr_delay) % 1440
    air_time = max(20.0, row["crs_elapsed"] - row["taxi_out"] - row["taxi_in"])
    flown = dict(
        cancelled=0, diverted=0,
        dep_time=dep_actual,
        dep_delay=dep_delay,
        taxi_out=row["taxi_out"],
        wheels_off=int(dep_actual + row["taxi_out"]) % 1440,
        wheels_on=int(arr_actual - row["taxi_in"]) % 1440,
        taxi_in=row["taxi_in"],
        arr_time=arr_actual,
        arr_delay=arr_delay,
        elapsed_time=row["crs_elapsed"] + arr_delay - dep_delay,
        air_time=air_time,
    )
    if label == "missing":
        return dict(**common, **flown)
    return dict(
        **common, **flown,
        delay_due_carrier=float(comps[0]),
        delay_due_weather=float(comps[1]),
        delay_due_nas=float(comps[2]),
        delay_due_security=float(comps[3]),
        delay_due_late_aircraft=float(comps[4]),
    )


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
