"""Association tests used for attribute screening.

Pearson r ranks the continuous attributes against arrival delay; the
Kruskal-Wallis H test (mid-ranks, tie correction) backs the categorical
redundancy calls. The chi-square upper tail is computed here via the
regularized incomplete gamma function so results don't depend on an external
stats stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Continuous attributes screened against arrival delay, in the order they
# appear in the source export, each with the `Flights` column it is read from.
CONTINUOUS_ATTRIBUTES = {"CRS_DEP_TIME": "crs_dep_time", "TAXI_OUT": "taxi_out",
                         "CRS_ARR_TIME": "crs_arr_time", "TAXI_IN": "taxi_in",
                         "CRS_ELAPSED_TIME": "crs_elapsed_time",
                         "DISTANCE": "distance"}

DEFAULT_REDUNDANCY_THRESHOLD = 0.05


def pearson(x, y) -> float:
    """Pearson correlation; raises on mismatched length, n < 2, or zero variance."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError(f"pearson needs equal-length 1-D inputs, got {xa.shape} vs {ya.shape}")
    n = xa.size
    if n < 2:
        raise ValueError(f"pearson needs n >= 2, got n={n}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson undefined for zero-variance input")
    return float(np.sum(xc * yc) / (sx * sy))


@dataclass(frozen=True)
class CorrelationRow:
    attribute: str
    r: float


def correlation_table(columns, target, attributes=None) -> list[CorrelationRow]:
    """Pearson r of each attribute column against the target.

    `columns` maps attribute name -> values. Rows come back sorted by r
    descending, name ascending on ties. Unknown attribute names are an error.
    """
    names = tuple(CONTINUOUS_ATTRIBUTES if attributes is None else attributes)
    missing = [a for a in names if a not in columns]
    if missing:
        raise ValueError(f"unknown attribute columns: {', '.join(missing)}")
    rows = [CorrelationRow(a, pearson(columns[a], target)) for a in names]
    rows.sort(key=lambda row: (-row.r, row.attribute))
    return rows


def screening_columns(flights):
    """(usable, columns, target) for screening a `Flights` value.

    `usable` masks the rows that carry ARR_DELAY and every continuous
    attribute; `columns` maps each attribute to its values on those rows and
    `target` is their ARR_DELAY.
    """
    usable = ~np.isnan(flights.arr_delay)
    for field in CONTINUOUS_ATTRIBUTES.values():
        usable &= ~np.isnan(getattr(flights, field))
    columns = {name: getattr(flights, field)[usable]
               for name, field in CONTINUOUS_ATTRIBUTES.items()}
    return usable, columns, flights.arr_delay[usable]


# --- ranks and Kruskal-Wallis -------------------------------------------------


def _midranks(values: np.ndarray) -> tuple[np.ndarray, float]:
    """1-based mid-ranks and the tie term sum(t^3 - t) over tie groups."""
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True, equal_nan=False)
    end = np.cumsum(counts) - 1
    start = end - (counts - 1)
    # average of ranks start+1 .. end+1
    ranks = (0.5 * (start + end) + 1.0)[group]
    tie_term = 0.0
    for t in counts[counts > 1].tolist():
        tie_term += t**3 - t
    return ranks, tie_term


@dataclass(frozen=True)
class KruskalResult:
    h: float
    dof: int
    p_value: float


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X >= x) for a chi-square with `dof` degrees of freedom."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _gammainc_upper(dof / 2.0, x / 2.0)


def _gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x).

    Series for the lower function when x < a + 1, Lentz continued fraction
    otherwise (the standard split for fast convergence in both regimes).
    """
    if x == 0.0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # P(a,x) series: x^a e^-x / Gamma(a) * sum x^n / (a (a+1) ... (a+n))
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(500):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return 1.0 - p
    # Q(a,x) continued fraction (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - lg)


def kruskal_h(groups) -> KruskalResult:
    """Kruskal-Wallis H over >= 2 groups with mid-rank ties and tie correction.

    H = [12 / (N(N+1)) * sum R_j^2 / n_j - 3(N+1)] / (1 - sum(t^3 - t)/(N^3 - N)).
    Raises when any group is empty or holds NaN, or all pooled values are
    identical (the tie correction degenerates to zero).
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValueError(f"kruskal_h needs >= 2 groups, got {len(arrays)}")
    if any(a.ndim != 1 or a.size == 0 for a in arrays):
        raise ValueError("kruskal_h groups must be non-empty 1-D")
    pooled = np.concatenate(arrays)
    if np.isnan(pooled).any():
        raise ValueError("kruskal_h groups must not hold NaN")
    n_total = pooled.size
    ranks, tie_term = _midranks(pooled)
    correction = 1.0 - tie_term / (n_total**3 - n_total)
    if correction == 0.0:
        raise ValueError("kruskal_h undefined: all pooled values identical")
    h_raw = 0.0
    start = 0
    for a in arrays:
        r_sum = float(ranks[start:start + a.size].sum())
        h_raw += r_sum * r_sum / a.size
        start += a.size
    h_raw = 12.0 / (n_total * (n_total + 1)) * h_raw - 3.0 * (n_total + 1)
    h = h_raw / correction
    dof = len(arrays) - 1
    return KruskalResult(h=h, dof=dof, p_value=chi2_sf(max(h, 0.0), dof))


# --- categorical redundancy -----------------------------------------------------


@dataclass(frozen=True)
class RedundancyResult:
    kept: str
    candidate: str
    h: float
    dof: int
    p_value: float
    redundant: bool


def redundancy_test(target, kept_codes, candidate_codes,
                    kept_name: str = "kept", candidate_name: str = "candidate",
                    threshold: float = DEFAULT_REDUNDANCY_THRESHOLD) -> RedundancyResult:
    """Does `candidate` split the target beyond what `kept` already does?

    Stratified H: within each level of `kept`, the target is grouped by
    `candidate` levels and H/dof are accumulated across strata. dof == 0
    means the candidate never refines a stratum (an exact functional
    duplicate), giving p = 1. Redundant iff p > threshold: no evidence the
    candidate adds discrimination.
    """
    t = np.asarray(target, dtype=np.float64)
    kept_arr = np.asarray(kept_codes)
    cand_arr = np.asarray(candidate_codes)
    if not (t.size == kept_arr.size == cand_arr.size) or t.size == 0:
        raise ValueError("redundancy_test needs equal-length non-empty inputs")
    h_sum = 0.0
    dof_sum = 0
    for level in np.unique(kept_arr):
        mask = kept_arr == level
        sub_t = t[mask]
        sub_c = cand_arr[mask]
        levels = np.unique(sub_c)
        if levels.size < 2:
            continue
        groups = [sub_t[sub_c == lv] for lv in levels]
        if np.all(sub_t == sub_t[0]):
            # constant target in this stratum: no discrimination either way
            h_sum += 0.0
            dof_sum += levels.size - 1
            continue
        res = kruskal_h(groups)
        h_sum += res.h
        dof_sum += res.dof
    p = 1.0 if dof_sum == 0 else chi2_sf(max(h_sum, 0.0), dof_sum)
    return RedundancyResult(kept=kept_name, candidate=candidate_name,
                            h=h_sum, dof=dof_sum, p_value=p,
                            redundant=p > threshold)
