"""Feature table construction: fixed column order, label codes, splits, scaling.

The model-facing matrix uses a fixed 11-column layout. Clock features are
minutes past midnight, the date expands to YEAR/MONTH/DAY, and the three
categorical columns carry integer codes from a lexicographic codebook. Rows
are ordered chronologically (date, scheduled departure) so the 75/25 split
and sequence windows respect time.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .schema import COMPONENT_FIELDS, FlightRecord

FEATURE_NAMES = ("CRS_DEP_TIME", "TAXI_OUT", "CRS_ARR_TIME", "TAXI_IN",
                 "DISTANCE", "YEAR", "MONTH", "DAY", "AIRLINE", "ORIGIN", "DEST")
CONTINUOUS_FEATURES = ("CRS_DEP_TIME", "TAXI_OUT", "CRS_ARR_TIME", "TAXI_IN", "DISTANCE")
CATEGORICAL_FEATURES = ("AIRLINE", "ORIGIN", "DEST")
COMPONENT_NAMES = ("carrier", "weather", "nas", "security", "late_aircraft")

TARGET_COMPONENTS = "components"
TARGET_TOTAL = "total"
DEFAULT_TRAIN_FRACTION = 0.75


def expand_date(d: dt.date) -> tuple[int, int, int]:
    return d.year, d.month, d.day


@dataclass(frozen=True)
class LabelCodebook:
    """Per-column category -> integer code, lexicographic over the fit data."""

    columns: dict  # column name -> tuple of categories, sorted

    def encode(self, column: str, value: str) -> int:
        cats = self.columns.get(column)
        if cats is None:
            raise ValueError(f"codebook has no column {column!r}")
        # cats is sorted, but the vocabularies are tiny; linear scan keeps it simple
        try:
            return self._index(column, value)
        except KeyError:
            raise ValueError(f"unknown {column} category {value!r}") from None

    def _index(self, column: str, value: str) -> int:
        idx = self.__dict__.setdefault("_lookup", {})
        table = idx.get(column)
        if table is None:
            table = {c: i for i, c in enumerate(self.columns[column])}
            idx[column] = table
        return table[value]


def fit_codebook(records, columns=CATEGORICAL_FEATURES) -> LabelCodebook:
    """Collect sorted vocabularies for the categorical feature columns.

    Fit over the full pruned dataset by default so both split halves share
    one code space; pass the train slice instead to scope codes to train.
    """
    field_of = {"AIRLINE": "airline", "ORIGIN": "origin", "DEST": "dest"}
    out = {}
    for col in columns:
        field_name = field_of[col]
        vocab = sorted({getattr(r, field_name) for r in records})
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
    timestamps: tuple        # per-row (date, minutes) sort keys
    target_mode: str
    codebook: LabelCodebook

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[0] != len(self.timestamps):
            raise ValueError(
                f"row count mismatch: x {self.x.shape}, y {self.y.shape}, "
                f"{len(self.timestamps)} timestamps")
        if any(self.timestamps[i] > self.timestamps[i + 1]
               for i in range(len(self.timestamps) - 1)):
            raise ValueError("timestamps must be nondecreasing")

    def __len__(self) -> int:
        return self.x.shape[0]


_NEEDED_FIELDS = ("crs_dep_time", "taxi_out", "crs_arr_time", "taxi_in",
                  "distance", "fl_date", "airline", "origin", "dest")


def build_table(records, codebook: LabelCodebook,
                target_mode: str = TARGET_COMPONENTS) -> FeatureTable:
    """Assemble the fixed-order feature matrix and targets from pruned records.

    Rows are sorted by (date, scheduled departure), stable on ties. Any
    missing needed field is an error naming the offending row.
    """
    if target_mode not in (TARGET_COMPONENTS, TARGET_TOTAL):
        raise ValueError(f"unknown target mode {target_mode!r}")
    if not records:
        raise ValueError("build_table needs at least one record")

    indexed = sorted(range(len(records)),
                     key=lambda i: (records[i].fl_date, records[i].crs_dep_time
                                    if records[i].crs_dep_time is not None else -1))
    n = len(records)
    x = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    k = len(COMPONENT_NAMES) if target_mode == TARGET_COMPONENTS else 1
    y = np.empty((n, k), dtype=np.float64)
    timestamps = []
    for out_row, idx in enumerate(indexed):
        rec = records[idx]
        for name in _NEEDED_FIELDS:
            if getattr(rec, name) is None:
                raise ValueError(f"record {idx} missing {name}")
        if target_mode == TARGET_COMPONENTS:
            vec = rec.delay_components()
            if vec is None:
                raise ValueError(f"record {idx} missing delay components")
            y[out_row] = vec.as_tuple()
        else:
            if rec.arr_delay is None:
                raise ValueError(f"record {idx} missing arr_delay")
            y[out_row, 0] = rec.arr_delay
        year, month, day = expand_date(rec.fl_date)
        x[out_row] = (
            rec.crs_dep_time,
            rec.taxi_out,
            rec.crs_arr_time,
            rec.taxi_in,
            rec.distance,
            year,
            month,
            day,
            codebook.encode("AIRLINE", rec.airline),
            codebook.encode("ORIGIN", rec.origin),
            codebook.encode("DEST", rec.dest),
        )
        timestamps.append((rec.fl_date, int(rec.crs_dep_time)))
    return FeatureTable(feature_names=FEATURE_NAMES, x=x, y=y,
                        timestamps=tuple(timestamps), target_mode=target_mode,
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

    def to_dict(self) -> dict:
        return {"columns": list(self.columns),
                "means": [float(v) for v in self.means],
                "stds": [float(v) for v in self.stds]}

    @classmethod
    def from_dict(cls, d: dict, feature_names) -> "Standardizer":
        return cls(feature_names=tuple(feature_names), columns=tuple(d["columns"]),
                   means=np.asarray(d["means"], dtype=np.float64),
                   stds=np.asarray(d["stds"], dtype=np.float64))


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


# --- persistence ------------------------------------------------------------------


def _target_header(table: FeatureTable):
    if table.target_mode == TARGET_COMPONENTS:
        return COMPONENT_NAMES
    return ("ARR_DELAY",)


def _table_paths(base: Path) -> dict:
    return {"x": base.parent / (base.name + ".x.csv"),
            "y": base.parent / (base.name + ".y.csv"),
            "meta": base.parent / (base.name + ".meta.json")}


def save_table(table: FeatureTable, base_path) -> dict:
    """Write X/Y CSVs plus a JSON sidecar; returns the path map."""
    paths = _table_paths(Path(base_path))
    np.savetxt(paths["x"], table.x, delimiter=",", fmt="%.17g",
               header=",".join(table.feature_names), comments="")
    np.savetxt(paths["y"], table.y, delimiter=",", fmt="%.17g",
               header=",".join(_target_header(table)), comments="")
    meta = {
        "target_mode": table.target_mode,
        "feature_names": list(table.feature_names),
        "codebook": {c: list(v) for c, v in table.codebook.columns.items()},
    }
    paths["meta"].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def load_table(base_path) -> FeatureTable:
    """Rebuild a table persisted by save_table (timestamps come from X columns)."""
    paths = _table_paths(Path(base_path))
    meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
    x = np.loadtxt(paths["x"], delimiter=",", skiprows=1, ndmin=2)
    y = np.loadtxt(paths["y"], delimiter=",", skiprows=1, ndmin=2)
    names = tuple(meta["feature_names"])
    year_i, month_i, day_i = names.index("YEAR"), names.index("MONTH"), names.index("DAY")
    dep_i = names.index("CRS_DEP_TIME")
    timestamps = tuple(
        (dt.date(int(row[year_i]), int(row[month_i]), int(row[day_i])), int(row[dep_i]))
        for row in x)
    codebook = LabelCodebook(columns={c: tuple(v) for c, v in meta["codebook"].items()})
    return FeatureTable(feature_names=names, x=x, y=y, timestamps=timestamps,
                        target_mode=meta["target_mode"], codebook=codebook)
