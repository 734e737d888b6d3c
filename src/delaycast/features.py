"""Feature table construction: fixed column order, label codes, splits, scaling.

The model-facing matrix uses a fixed 11-column layout, built column by
column from a `Flights` value. Clock features are minutes past midnight, the
date (a day ordinal) expands to YEAR/MONTH/DAY, and the three categorical
columns carry integer codes from a lexicographic codebook. Rows are ordered
chronologically (date, scheduled departure) so the 75/25 split and sequence
windows respect time; `FeatureTable.timestamps` keeps that sort key as an
(n, 2) int64 array of (day ordinal, scheduled departure minutes).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .schema import COMPONENT_FIELDS, Flights, TextColumn

FEATURE_NAMES = ("CRS_DEP_TIME", "TAXI_OUT", "CRS_ARR_TIME", "TAXI_IN",
                 "DISTANCE", "YEAR", "MONTH", "DAY", "AIRLINE", "ORIGIN", "DEST")
CONTINUOUS_FEATURES = ("CRS_DEP_TIME", "TAXI_OUT", "CRS_ARR_TIME", "TAXI_IN", "DISTANCE")
CATEGORICAL_FEATURES = ("AIRLINE", "ORIGIN", "DEST")
COMPONENT_NAMES = ("carrier", "weather", "nas", "security", "late_aircraft")

TARGET_COMPONENTS = "components"
TARGET_TOTAL = "total"
DEFAULT_TRAIN_FRACTION = 0.75


_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def expand_date(ordinals: np.ndarray):
    """(year, month, day) int64 arrays of day ordinals."""
    days = (np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    months = days.astype("datetime64[M]")
    years = days.astype("datetime64[Y]")
    return (years.astype(np.int64) + 1970,
            (months - years.astype("datetime64[M]")).astype(np.int64) + 1,
            (days - months.astype("datetime64[D]")).astype(np.int64) + 1)


@dataclass(frozen=True)
class LabelCodebook:
    """Per-column category -> integer code, lexicographic over the fit data."""

    columns: dict  # column name -> tuple of categories, sorted

    def encode(self, column: str, values: TextColumn) -> np.ndarray:
        """Codes of a text column's rows: each vocabulary entry is looked up once.

        An unknown value some row holds is an error naming the smallest one.
        """
        cats = self.columns.get(column)
        if cats is None:
            raise ValueError(f"codebook has no column {column!r}")
        lookup = {c: i for i, c in enumerate(cats)}
        table = np.array([lookup.get(v, -1) for v in values.vocabulary.tolist()], dtype=np.intp)
        codes = table[values.codes]
        if (codes < 0).any():  # the vocabulary is sorted: the smallest code is the smallest value
            unknown = values.vocabulary[values.codes[codes < 0].min()]
            raise ValueError(f"unknown {column} category {unknown!r}")
        return codes


_FIELD_OF = {"AIRLINE": "airline", "ORIGIN": "origin", "DEST": "dest"}


def fit_codebook(flights: Flights) -> LabelCodebook:
    """Collect sorted vocabularies for the categorical feature columns.

    Fit over the full pruned dataset so both split halves share one code
    space; pass the train slice instead to scope codes to train.
    """
    out = {}
    for col in CATEGORICAL_FEATURES:
        values = getattr(flights, _FIELD_OF[col])
        used = np.bincount(values.codes, minlength=len(values.vocabulary)) > 0
        vocab = values.vocabulary[used].tolist()
        if not vocab:
            raise ValueError(f"no categories for column {col}")
        out[col] = tuple(vocab)
    return LabelCodebook(columns=out)


@dataclass(frozen=True)
class FeatureTable:
    """Chronologically ordered X/Y matrices plus the metadata to rebuild them."""

    feature_names: tuple
    x: np.ndarray            # (n, 11) float64
    y: np.ndarray            # (n, 5) components or (n, 1) total
    timestamps: np.ndarray   # (n, 2) int64 sort keys: day ordinal, minutes
    target_mode: str
    codebook: LabelCodebook

    def __post_init__(self):
        n = self.x.shape[0]
        if self.y.shape[0] != n or np.shape(self.timestamps) != (n, 2):
            raise ValueError(
                f"row count mismatch: x {self.x.shape}, y {self.y.shape}, "
                f"timestamps {np.shape(self.timestamps)}")
        step = np.diff(self.timestamps, axis=0)
        if ((step[:, 0] < 0) | ((step[:, 0] == 0) & (step[:, 1] < 0))).any():
            raise ValueError("timestamps must be nondecreasing")

    def __len__(self) -> int:
        return self.x.shape[0]


_NEEDED_FIELDS = ("crs_dep_time", "taxi_out", "crs_arr_time", "taxi_in", "distance")


def build_table(flights: Flights, codebook: LabelCodebook,
                target_mode: str = TARGET_COMPONENTS) -> FeatureTable:
    """Assemble the fixed-order feature matrix and targets from pruned flights.

    Rows are sorted by (date, scheduled departure), stable on ties. Any
    missing needed value is an error naming the offending row, the first
    one in that order.
    """
    if target_mode not in (TARGET_COMPONENTS, TARGET_TOTAL):
        raise ValueError(f"unknown target mode {target_mode!r}")
    if not len(flights):
        raise ValueError("build_table needs at least one record")

    dep = flights.crs_dep_time
    order = np.lexsort((np.where(np.isnan(dep), -1.0, dep), flights.fl_date))
    if target_mode == TARGET_COMPONENTS:
        targets = [("delay components", getattr(flights, f)) for f in COMPONENT_FIELDS]
    else:
        targets = [("arr_delay", flights.arr_delay)]
    checked = [(name, getattr(flights, name)) for name in _NEEDED_FIELDS] + targets
    missing = np.isnan(np.column_stack([values[order] for _, values in checked]))
    if missing.any():
        row, col = divmod(int(np.argmax(missing)), missing.shape[1])
        raise ValueError(f"record {order[row]} missing {checked[col][0]}")

    def column(name):
        return getattr(flights, name)[order]

    dates = column("fl_date")
    year, month, day = expand_date(dates)
    x = np.column_stack([
        column("crs_dep_time"), column("taxi_out"), column("crs_arr_time"),
        column("taxi_in"), column("distance"), year, month, day,
        *(codebook.encode(col, column(_FIELD_OF[col]))
          for col in CATEGORICAL_FEATURES),
    ])
    y = np.column_stack([values[order] for _, values in targets])
    timestamps = np.column_stack([dates, column("crs_dep_time").astype(np.int64)])
    return FeatureTable(feature_names=FEATURE_NAMES, x=x, y=y,
                        timestamps=timestamps, target_mode=target_mode,
                        codebook=codebook)


def chronological_split(table: FeatureTable,
                        train_fraction: float = DEFAULT_TRAIN_FRACTION):
    """First floor(f*n) rows train, the rest test. Both halves must be non-empty."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(table)
    n_train = math.floor(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise ValueError(f"split leaves an empty side: n={n}, train={n_train}")
    def slice_table(lo, hi):
        return FeatureTable(feature_names=table.feature_names,
                            x=table.x[lo:hi].copy(), y=table.y[lo:hi].copy(),
                            timestamps=table.timestamps[lo:hi],
                            target_mode=table.target_mode, codebook=table.codebook)
    return slice_table(0, n_train), slice_table(n_train, n)


# --- standardization ------------------------------------------------------------


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine scaling (x - mean) / std; unlisted columns pass through."""

    feature_names: tuple
    columns: tuple           # scaled column names
    means: np.ndarray
    stds: np.ndarray         # population std, > 0

    def _indices(self):
        return [self.feature_names.index(c) for c in self.columns]

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=np.float64, copy=True)
        for c, mean, std in zip(self._indices(), self.means, self.stds):
            out[:, c] = (out[:, c] - mean) / std
        return out


def fit_standardizer(x: np.ndarray, feature_names,
                     columns=CONTINUOUS_FEATURES) -> Standardizer:
    """Fit population-std scaling for the listed columns on train X only.

    Date and categorical code columns are not in the default list and pass
    through unscaled. A zero-variance listed column is an error naming it.
    """
    names = tuple(feature_names)
    cols = tuple(columns)
    unknown = [c for c in cols if c not in names]
    if unknown:
        raise ValueError(f"unknown feature columns: {', '.join(unknown)}")
    idx = [names.index(c) for c in cols]
    means = x[:, idx].mean(axis=0)
    stds = x[:, idx].std(axis=0)  # population (ddof=0)
    flat = [c for c, s in zip(cols, stds) if s == 0.0]
    if flat:
        raise ValueError(f"zero-variance columns cannot be scaled: {', '.join(flat)}")
    return Standardizer(feature_names=names, columns=cols,
                        means=means.astype(np.float64), stds=stds.astype(np.float64))


def positive_variance_columns(x: np.ndarray, feature_names) -> tuple:
    """Feature names whose column variance is > 0 (candidates for scaling)."""
    stds = x.std(axis=0)
    return tuple(c for c, s in zip(feature_names, stds) if s > 0.0)
