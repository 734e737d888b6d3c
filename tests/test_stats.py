import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycast.stats import (
    KruskalResult, _midranks, chi2_sf, correlation_table,
    kruskal_h, pearson, redundancy_test,
)


def _pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def _kruskal_oracle(groups):
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    tie = 0.0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        t = j - i + 1
        if t > 1:
            tie += t**3 - t
        i = j + 1
    h = 0.0
    start = 0
    for g in groups:
        r = sum(ranks[start:start + len(g)])
        h += r * r / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3 * (n + 1)
    return h / (1 - tie / (n**3 - n))


# --- pearson ------------------------------------------------------------------


def test_pearson_perfect_and_sign():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, [-3 * v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    r = pearson(x, y)
    assert pearson(y, x) == pytest.approx(r, abs=1e-14)
    assert pearson(5 * x + 2, y) == pytest.approx(r, abs=1e-12)
    assert pearson(-2 * x, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValueError, match="zero-variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="n >= 2"):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError, match="equal-length"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=30)
        y = x * rng.uniform(-1, 1) + rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)


def test_correlation_table_planted_signal():
    rng = np.random.default_rng(3)
    n = 10_000
    x = rng.normal(size=n)
    noise = rng.normal(size=n)
    target = 0.5 * x + math.sqrt(1 - 0.25) * noise
    cols = {"A": x, "B": rng.normal(size=n)}
    rows = correlation_table(cols, target, attributes=("A", "B"))
    assert rows[0].attribute == "A"
    assert rows[0].r == pytest.approx(0.5, abs=0.05)


def test_correlation_table_sorting_and_unknown_column():
    cols = {"A": [1.0, 2.0, 3.0, 4.0], "B": [4.0, 3.0, 2.0, 1.0]}
    target = [1.0, 2.0, 3.0, 4.0]
    rows = correlation_table(cols, target, attributes=("A", "B"))
    assert [r.attribute for r in rows] == ["A", "B"]
    assert rows[0].r == pytest.approx(1.0)
    assert rows[1].r == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="unknown attribute"):
        correlation_table(cols, target, attributes=("A", "MISSING"))


def test_correlation_table_tie_sorts_by_name():
    cols = {"Z": [1.0, 2.0, 3.0], "A": [2.0, 4.0, 6.0]}
    rows = correlation_table(cols, [1.0, 2.0, 3.0], attributes=("Z", "A"))
    assert [r.attribute for r in rows] == ["A", "Z"]


# --- chi-square tail ------------------------------------------------------------


def test_chi2_sf_against_scipy_grid():
    for dof in range(1, 21):
        for x in (0.0, 0.3, 1.0, 2.5, 5.0, 9.7, 14.2, 25.0, 37.5, 50.0):
            ours = chi2_sf(x, dof)
            ref = float(scipy.special.gammaincc(dof / 2, x / 2))
            assert ours == pytest.approx(ref, abs=1e-8), (dof, x)


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(1e6, 2) < 1e-300 or chi2_sf(1e6, 2) == 0.0
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 2)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


# --- kruskal ------------------------------------------------------------------


def test_kruskal_identical_groups_h_zero():
    res = kruskal_h([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert res.h == pytest.approx(0.0, abs=1e-12)
    assert res.dof == 1
    assert res.p_value == pytest.approx(1.0, abs=1e-9)


def test_kruskal_disjoint_groups_pinned_value():
    res = kruskal_h([[1, 2, 3], [4, 5, 6]])
    assert res.h == pytest.approx(3.857142857, abs=1e-9)
    assert res.dof == 1


def test_kruskal_three_singletons():
    res = kruskal_h([[1.0], [2.0], [3.0]])
    assert res.h == pytest.approx(2.0, abs=1e-12)
    assert res.dof == 2


def test_kruskal_monotone_transform_invariance():
    groups = [[0.5, 1.2, 3.1], [2.2, 0.1, 4.0], [1.1, 1.9]]
    base = kruskal_h(groups)
    exp = kruskal_h([[math.exp(v) for v in g] for g in groups])
    aff = kruskal_h([[3 * v + 7 for v in g] for g in groups])
    assert exp.h == pytest.approx(base.h, abs=1e-12)
    assert aff.h == pytest.approx(base.h, abs=1e-12)


def test_kruskal_errors():
    with pytest.raises(ValueError, match=">= 2 groups"):
        kruskal_h([[1.0, 2.0]])
    with pytest.raises(ValueError, match="non-empty"):
        kruskal_h([[1.0], []])
    with pytest.raises(ValueError, match="identical"):
        kruskal_h([[5.0, 5.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match="NaN"):
        kruskal_h([[1.0, float("nan")], [2.0, 3.0]])


def _midranks_loop(values):
    """Group-by-group mid-ranks over a stable sort, the reference for _midranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    tie_term = 0.0
    i = 0
    sorted_vals = values[order]
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        t = j - i + 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        if t > 1:
            tie_term += t**3 - t
        i = j + 1
    return ranks, tie_term


def test_midranks_equal_the_loop_on_tie_heavy_values():
    rng = np.random.default_rng(11)
    cases = [np.array([0.0, -0.0, 0.0, 1.0, -0.0]), np.array([3.0]),
             np.full(7, -0.0), np.array([2.0, 1.0, 2.0, 1.0, 2.0])]
    for n, levels in ((50, 2), (400, 5), (3000, 40), (2000, 2000)):
        values = rng.integers(-levels, levels, n).astype(float)
        values[rng.random(n) < 0.25] = -0.0
        cases.append(values)
    for values in cases:
        ranks, tie_term = _midranks(values)
        want_ranks, want_tie = _midranks_loop(values)
        assert np.array_equal(ranks, want_ranks)
        assert tie_term == want_tie and type(tie_term) is float


def test_kruskal_against_scipy_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = rng.integers(2, 5)
        groups = [rng.integers(0, 8, size=rng.integers(2, 12)).astype(float) for _ in range(k)]
        if all(np.all(g == groups[0][0]) for g in groups):
            continue
        pooled = np.concatenate(groups)
        if np.all(pooled == pooled[0]):
            continue
        ours = kruskal_h(groups)
        ref = scipy.stats.kruskal(*groups)
        assert ours.h == pytest.approx(ref.statistic, abs=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)


@given(st.lists(st.lists(st.floats(-100, 100), min_size=2, max_size=10),
                min_size=2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_kruskal_matches_oracle_property(groups):
    pooled = [v for g in groups for v in g]
    if all(v == pooled[0] for v in pooled):
        return
    ours = kruskal_h(groups)
    assert ours.h == pytest.approx(_kruskal_oracle(groups), abs=1e-9, rel=1e-9)


# --- redundancy -----------------------------------------------------------------


def test_redundancy_exact_duplicate():
    rng = np.random.default_rng(11)
    kept = rng.integers(0, 4, size=200)
    candidate = kept * 10 + 3  # bijective relabeling
    target = rng.normal(size=200) + kept
    res = redundancy_test(target, kept, candidate, "AIRLINE", "AIRLINE_DOT")
    assert res.redundant is True
    assert res.dof == 0
    assert res.p_value == 1.0


def test_redundancy_informative_candidate_not_redundant():
    rng = np.random.default_rng(13)
    n = 400
    kept = rng.integers(0, 2, size=n)
    candidate = rng.integers(0, 2, size=n)  # independent of kept
    target = rng.normal(size=n) + 5.0 * candidate  # candidate drives the target
    res = redundancy_test(target, kept, candidate)
    assert res.redundant is False
    assert res.p_value < 0.001


def test_redundancy_threshold_configurable():
    rng = np.random.default_rng(17)
    n = 300
    kept = rng.integers(0, 3, size=n)
    candidate = rng.integers(0, 3, size=n)
    target = rng.normal(size=n)  # candidate carries nothing
    res = redundancy_test(target, kept, candidate, threshold=0.05)
    strict = redundancy_test(target, kept, candidate, threshold=1.0)
    assert res.p_value == strict.p_value
    assert strict.redundant is False  # p can never exceed 1


def test_redundancy_input_validation():
    with pytest.raises(ValueError):
        redundancy_test([1.0], [0, 1], [0, 1])
