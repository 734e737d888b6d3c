"""Regression trees, bagged ensembles, and gradient-boosted chains.

Every model here is one `TreeArrays`: one or more trees back to back in four
flat arrays, all in node order: each node's feature (-1 at leaves), the
thresholds of split nodes only, the values of leaves only, and the offset of
each tree's root. A single tree, a forest and a boosting model differ only
in how many trees the arrays hold and how their leaves are combined.
Children are not stored: trees are numbered level by level, so a tree's
k-th split node has its children at 2k+1 and 2k+2 from its root.

Two level-wise exact split searches grow them. A single tree and each
forest member grow through `_grow`: each feature is rank-coded once; the
(row, feature) cells stay sorted by (node, feature, rank) and are stably
partitioned into the children at each level, and one cumulative sum per
level yields every node's left-side sums. A boosting round grows its k
target trees together through `_grow_chains`, with no partition: each
(tree, row) pair is an entry, each (feature, entry) cell is keyed by its
entry's node and its value, two `np.bincount`s per level give every present
(node, value) its row count and gradient sum, and running sums over those
bins yield the left-side sums. Both keep the frozen split rules, and pick
through one helper (`_first_best`): candidates are the midpoints between a
node's adjacent *present* feature values, boundary ties route left
(`x[f] <= threshold`), and equal-gain ties resolve to the lowest feature
index, then the lowest threshold. Gains that tie in real arithmetic can
differ by a rounding step once sums are taken in another order, so gains
within a relative `_TIE_REL` = 1e-12 of a node's best count as tied.
Categorical codes are treated as ordinal numerics; that is a documented
consequence of the integer label encoding.

The split gain of the boosted trees is XGBoost's (Chen & Guestrin, KDD
2016); grouping cells by rank, and the boosting histograms, follow
LightGBM's histograms (Ke et al., NeurIPS 2017) and XGBoost's "hist"
method, kept exact by one bin per distinct value. LightGBM's model format
likewise keeps split thresholds and leaf values as separate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, matrix

# relative floor: a split must beat float noise on the parent's SSE scale
_GAIN_EPS = 1e-10
# gains this close (relative) to a node's best tie; the lowest (feature, rank) wins
_TIE_REL = 1e-12
# (row, tree) pairs routed per block at prediction: bounds its index arrays
_ROUTE_ENTRIES = 1 << 20
# (node, value) bins of one dense boosting histogram: a level of more runs in
# blocks of whole nodes
_HIST_BINS = 1 << 22


def _index_array(name: str, data) -> np.ndarray:
    a = np.asarray(data)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.round(a))).all():
        raise ValueError(f"{name} must hold integers")
    return a if a.dtype.kind == "i" else a.astype(np.int64)


@dataclass(frozen=True, eq=False)
class TreeArrays:
    """One or more regression trees in four flat arrays, all in node order.

    Tree t owns nodes roots[t] up to the next root (the last tree runs to the
    end). With S(i) the number of split nodes before node i, node i either
    splits rows with `x[feature[i]] <= threshold[S(i)]` to its left child,
    the rest to its right, or is a leaf (feature -1) predicting
    value[i - S(i)]. Trees are numbered level by level: a tree's k-th split
    node has its children at 2k+1 and 2k+2 from its root, so a tree of m
    nodes holds (m - 1) / 2 splits, its k-th split sits at local index 2k or
    lower, and split i of tree t has its left child at node 2 S(i) + t + 1.
    """

    feature: np.ndarray    # (m,) the smallest signed integer type holding it
    threshold: np.ndarray  # (splits,) float64
    value: np.ndarray      # (leaves, k) float64
    roots: np.ndarray      # (t,) int64

    def __post_init__(self):
        feature = _index_array("feature", self.feature)
        roots = _index_array("roots", self.roots).astype(np.int64, copy=False)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        value = np.asarray(self.value, dtype=np.float64)
        m = feature.size
        if (roots.size == 0) != (m == 0) or (m and (
                roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= m)):
            raise ValueError("roots must be increasing node offsets starting at 0")
        if (feature < -1).any():
            raise ValueError("features must be -1 at leaves, else column indices")
        feature = feature.astype(np.min_scalar_type(-1 - int(feature.max(initial=0))),
                                 copy=False)
        split_at = np.flatnonzero(feature >= 0)
        splits = split_at.size
        if threshold.shape != (splits,) or value.ndim != 2 \
                or value.shape[0] != m - splits:
            raise ValueError(f"threshold {threshold.shape} and value {value.shape} "
                             f"disagree with {splits} splits and {m - splits} leaves")
        if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
            raise ValueError("node thresholds and values must be finite")
        # each tree holds (m - 1) / 2 splits, its k-th at local index 2k or
        # lower; then trees before t hold (roots[t] - t) / 2 splits, so the
        # g-th split overall, at node i of tree t, needs i - 2g <= t
        tree_splits = np.diff(np.searchsorted(split_at, roots), append=splits)
        k = np.arange(splits)
        k *= 2
        split_at -= k
        if (2 * tree_splits != np.diff(roots, append=m) - 1).any() or (
                split_at > np.repeat(np.arange(roots.size), tree_splits)).any():
            raise ValueError("nodes are not numbered level by level: a tree of m "
                             "nodes needs (m - 1) / 2 splits, its k-th at local "
                             "index 2k or lower")
        for name, a in zip(("feature", "threshold", "value", "roots"),
                           (feature, threshold, value, roots)):
            object.__setattr__(self, name, a)

    @property
    def n_trees(self) -> int:
        return self.roots.size

    def member(self, t: int) -> "TreeArrays":
        """Tree t on its own."""
        lo = int(self.roots[t])
        hi = int(self.roots[t + 1]) if t + 1 < self.n_trees else self.feature.size
        # the trees before t hold (lo - t) / 2 splits and (lo + t) / 2 leaves
        return TreeArrays(self.feature[lo:hi],
                          self.threshold[(lo - t) // 2:(hi - t - 1) // 2],
                          self.value[(lo + t) // 2:(hi + t + 1) // 2],
                          roots=np.zeros(1, dtype=np.int64))


def _concat(parts) -> TreeArrays:
    """Trees of every part, in order, as one TreeArrays."""
    offsets = np.cumsum([0] + [p.feature.size for p in parts])
    fields = [np.concatenate([getattr(p, name) for p in parts])
              for name in ("feature", "threshold", "value")]
    roots = np.concatenate([p.roots + o for p, o in zip(parts, offsets)])
    return TreeArrays(*fields, roots=roots)


# --- the shared split search ---------------------------------------------------


def _rank_code(x: np.ndarray):
    """Rank-code every feature once.

    Returns (values, codes): `values` concatenates the features' sorted
    distinct values, and codes[f, i] is the index in `values` of row i's
    value of feature f.
    """
    p = x.shape[1]
    uniques, codes = [], np.empty((p, x.shape[0]), dtype=np.int64)
    offset = 0
    for f in range(p):
        u, inverse = np.unique(x[:, f], return_inverse=True)
        codes[f] = inverse + offset
        uniques.append(u)
        offset += u.size
    return np.concatenate(uniques), codes


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from the one before; the first does."""
    starts = np.empty(a.size, dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _first_best(node: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Index of each node's first candidate within _TIE_REL of its best gain.

    Candidates come in (node, feature, threshold) order, so the first tied
    one has the lowest feature, then the lowest threshold.
    """
    head = np.flatnonzero(_run_starts(node))
    top = np.repeat(np.maximum.reduceat(gain, head), np.diff(head, append=node.size))
    tied = np.flatnonzero(gain >= top - _TIE_REL * np.abs(top))
    return tied[_run_starts(node[tied])]


def _best_splits(cell_code, centered, sizes, p, min_leaf):
    """Each node's best candidate as (node, feature, low code, high code, gain).

    Nodes without a candidate are left out. Cells come in (node, feature,
    rank) order, so each node's feature block is one segment; `centered`
    holds each cell's targets minus its node's means. A candidate is a
    segment's last cell of one value, followed by a cell of the next; its
    gain is the summed per-target SSE reduction.
    """
    seg_len = np.repeat(sizes, p)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    # centered sums return to about zero at every segment end, so one running
    # sum gives each segment's prefix sums at the precision of its own
    prefix = np.zeros((cell_code.size + 1, centered.shape[1]))
    np.cumsum(centered, axis=0, out=prefix[1:])
    step = cell_code[1:] != cell_code[:-1]
    step[seg_end[:-1] - 1] = False
    cand = np.flatnonzero(step)
    seg = np.searchsorted(seg_end, cand, side="right")
    nl = cand + 1 - seg_start[seg]
    nr = seg_len[seg] - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    cand, seg, nl, nr = cand[ok], seg[ok], nl[ok], nr[ok]
    node = seg // p
    base = np.take(prefix, seg_start[seg], axis=0)
    # sums of (target - node mean), so the gain carries no cancellation
    # against the targets' own scale
    lc = np.take(prefix, cand + 1, axis=0) - base
    rc = np.take(prefix, seg_end[seg], axis=0) - base - lc
    tc = lc + rc
    gain = (lc * lc / nl[:, None] + rc * rc / nr[:, None]
            - tc * tc / (nl + nr)[:, None]).sum(axis=1)
    pick = _first_best(node, gain)
    at = cand[pick]
    return node[pick], seg[pick] % p, cell_code[at], cell_code[at + 1], gain[pick]


def _grow(x: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int) -> TreeArrays:
    """Grow one variance-reduction tree level by level; leaves hold target means."""
    values, codes = _rank_code(x)
    order = np.argsort(codes, axis=1, kind="stable")
    cell_row = order.ravel()
    cell_code = np.take_along_axis(codes, order, axis=1).ravel()
    n, p = x.shape
    rows = np.arange(n)                     # rows of this level's nodes
    row_pos = np.zeros(n, dtype=np.int64)   # row -> its node's place in the level
    centered = np.zeros_like(y)             # row -> y minus its node's mean
    sizes = np.array([n])
    levels = []
    for depth in range(max_depth + 1):
        count = sizes.size
        pos = row_pos[rows]
        y_rows = np.take(y, rows, axis=0)
        sums = np.stack([np.bincount(pos, y_rows[:, j], minlength=count)
                         for j in range(y.shape[1])], axis=1)
        mean = sums / sizes[:, None]
        level_centered = y_rows - np.take(mean, pos, axis=0)
        centered[rows] = level_centered
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count)
        if depth < max_depth:
            sse = np.bincount(pos, (level_centered ** 2).sum(axis=1), minlength=count)
            floor = np.where(sse > 0.0, _GAIN_EPS * (1.0 + sse), np.inf)
            node, f, lo, hi, gain = _best_splits(
                cell_code, np.take(centered, cell_row, axis=0), sizes, p, min_leaf)
            take = gain > floor[node]
            feature[node[take]] = f[take]
            threshold[node[take]] = (values[lo[take]] + values[hi[take]]) / 2.0
        split = feature >= 0
        n_split = int(split.sum())
        levels.append((feature, threshold[split], mean[~split]))
        if n_split == 0:
            break
        # route the rows of split nodes; children keep their parents' order
        keep = split[pos]
        rows, pos = rows[keep], pos[keep]
        child = 2 * (np.cumsum(split) - 1)[pos] + (x[rows, feature[pos]] > threshold[pos])
        row_pos[rows] = child
        sizes = np.bincount(child, minlength=2 * n_split)
        if depth + 1 < max_depth:
            # cells follow their rows, stably, so they come in (child,
            # feature, rank) order; cells of leaves sort last and drop off
            cell_child = np.full(n, 2 * n_split,
                                 dtype=np.min_scalar_type(2 * n_split))
            cell_child[rows] = child
            order = np.argsort(cell_child[cell_row], kind="stable")[:rows.size * p]
            cell_row, cell_code = cell_row[order], cell_code[order]
    feature, threshold, value = (np.concatenate(parts) for parts in zip(*levels))
    return TreeArrays(feature, threshold, value, np.zeros(1, dtype=np.int64))


def _check_xy(x, y):
    x = matrix(x)
    y = matrix(y)
    if x.shape[0] == 0:
        raise ValueError("empty input")
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"X has {x.shape[0]} rows but Y has {y.shape[0]}")
    return x, y


def tree_fit(x, y, max_depth: int = 10, min_samples_leaf: int = 5) -> TreeArrays:
    """Greedy variance-reduction tree; leaves hold per-target means."""
    x, y = _check_xy(x, y)
    if max_depth < 0 or min_samples_leaf < 1:
        raise ValueError("max_depth must be >= 0 and min_samples_leaf >= 1")
    if x.shape[0] < 2 * min_samples_leaf:
        raise ValueError(
            f"need at least {2 * min_samples_leaf} rows, got {x.shape[0]}")
    return _grow(x, y, max_depth, min_samples_leaf)


def _leaves(trees: TreeArrays, before: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(n, t) row of `value` of the leaf each row reaches in each tree.

    Every row walks every tree at once, one vectorized step per level;
    before[i] counts the split nodes before node i.
    """
    t = trees.n_trees
    node = np.tile(trees.roots, x.shape[0])  # entry e: row e // t, tree e % t
    live = np.flatnonzero(trees.feature[node] >= 0)
    while live.size:
        at = node[live]
        s = before[at].astype(np.intp)  # one cast, not one per use
        go_left = x[live // t, trees.feature[at]] <= trees.threshold[s]
        # split i of tree t: left child 2 S(i) + t + 1, right child next to it
        node[live] = 2 * s + live % t + 2 - go_left
        live = live[trees.feature[node[live]] >= 0]
    node -= before[node]
    return node.reshape(x.shape[0], t)


def _splits_before(trees: TreeArrays) -> np.ndarray:
    """S(i) for every node: the split nodes before it, in int32 below 2**31 nodes.

    Counted in place, so a call holds the count and the split mask only.
    """
    split = trees.feature >= 0
    before = split.astype(np.int32 if split.size < 2**31 else np.int64)
    np.cumsum(before, out=before)
    before -= split
    return before


def _leaf_blocks(trees: TreeArrays, x: np.ndarray):
    """Yield (row slice, its rows' leaves) over blocks of rows.

    A block holds about _ROUTE_ENTRIES (row, tree) pairs, so routing a large
    table through many trees stays within a few index arrays of that size.
    """
    if trees.feature.size and trees.feature.max() >= x.shape[1]:
        raise ValueError(f"tree splits on feature {trees.feature.max()} "
                         f"but input has {x.shape[1]} columns")
    before = _splits_before(trees)
    step = max(1, _ROUTE_ENTRIES // max(trees.n_trees, 1))
    for lo in range(0, x.shape[0], step):
        yield slice(lo, lo + step), _leaves(trees, before, x[lo:lo + step])


def tree_shapes(trees: TreeArrays) -> dict:
    """Each tree's node count, leaf count and depth reached, in tree order."""
    before = _splits_before(trees)
    nodes = np.diff(trees.roots, append=trees.feature.size)
    depth = np.zeros(trees.n_trees, dtype=np.int64)
    node, tree = trees.roots, np.arange(trees.n_trees)  # one level's nodes
    level = 0
    while node.size:
        depth[tree] = level
        split = trees.feature[node] >= 0
        node, tree = node[split], tree[split]
        left = 2 * before[node] + tree + 1  # split i of tree t: 2 S(i) + t + 1
        node, tree = np.concatenate([left, left + 1]), np.concatenate([tree, tree])
        level += 1
    return {"nodes": nodes.tolist(), "leaves": ((nodes + 1) // 2).tolist(),
            "depth": depth.tolist()}


def tree_predict(trees: TreeArrays, x) -> np.ndarray:
    """Leaf values per row, averaged over the trees (one tree: its own)."""
    x = matrix(x)
    out = np.empty((x.shape[0], trees.value.shape[1]))
    for rows, leaves in _leaf_blocks(trees, x):
        total = trees.value[leaves[:, 0]]
        for column in leaves.T[1:]:
            total += trees.value[column]
        out[rows] = total / trees.n_trees
    return out


# --- bagged ensemble ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Bagged trees. Member t was fit on rows Rng(seed).spawn(t).integers(0, n, n)
    of the n training rows, so the seed alone reproduces every member.
    """

    trees: TreeArrays
    seed: int

    def __post_init__(self):
        if self.trees.n_trees == 0:
            raise ValueError("forest needs at least one tree")


def forest_fit(x, y, n_estimators: int = 100, max_depth: int = 20,
               min_samples_leaf: int = 1, seed: int = 0) -> ForestModel:
    """Bagged trees on seeded bootstrap resamples (n draws with replacement).

    Each tree owns an independent substream, so the forest is reproducible
    from `seed` alone and trees could be grown in any order or in parallel.
    """
    x, y = _check_xy(x, y)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    n = x.shape[0]
    root = Rng(seed)
    trees = []
    for t in range(n_estimators):
        idx = root.spawn(t).integers(0, n, n)
        trees.append(tree_fit(x[idx], y[idx], max_depth=max_depth,
                              min_samples_leaf=min_samples_leaf))
    return ForestModel(trees=_concat(trees), seed=seed)


def forest_predict(model: ForestModel, x) -> np.ndarray:
    return tree_predict(model.trees, x)


# --- gradient-boosted trees --------------------------------------------------


def gbt_leaf_weight(grad_sum, hess_sum, reg_lambda: float):
    """Optimal leaf output for the regularized quadratic objective: -G/(H+lambda).

    Scalars or arrays of node sums.
    """
    denom = hess_sum + reg_lambda
    if np.any(denom <= 0.0):
        raise ValueError(f"hessian sum plus lambda must be positive, got {np.min(denom)}")
    return -grad_sum / denom


def gbt_split_gain(grad_left, hess_left, grad_right, hess_right,
                   reg_lambda: float, gamma: float):
    """Half the regularized score improvement of a split, minus the gamma toll.

    Scalars or arrays of candidate sums.
    """
    dl = hess_left + reg_lambda
    dr = hess_right + reg_lambda
    dp = hess_left + hess_right + reg_lambda
    if np.any(dl <= 0.0) or np.any(dr <= 0.0) or np.any(dp <= 0.0):
        raise ValueError("all regularized hessian sums must be positive")
    score = grad_left ** 2 / dl + grad_right ** 2 / dr
    score -= (grad_left + grad_right) ** 2 / dp
    return 0.5 * score - gamma


@dataclass(frozen=True, eq=False)
class GbtModel:
    """One boosting chain per target over a shared base score.

    `trees` holds the chains back to back: target j's round r is tree
    j * rounds + r, each with one-wide leaf values.
    """

    base_score: np.ndarray  # (k,) train target means
    learning_rate: float
    reg_lambda: float
    gamma: float
    trees: TreeArrays

    def __post_init__(self):
        base = np.asarray(self.base_score, dtype=np.float64)
        if base.ndim != 1 or base.size == 0 or not np.isfinite(base).all():
            raise ValueError("base_score must be a finite, non-empty 1-D vector")
        object.__setattr__(self, "base_score", base)
        if self.trees.n_trees % base.shape[0] or self.trees.value.shape[1] != 1:
            raise ValueError("one chain of one-wide trees per target required")
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in [0, 1]")

    @property
    def rounds(self) -> int:
        return self.trees.n_trees // self.base_score.shape[0]


def _chain_splits(coded, owner, place, centered, tree, sizes, mean,
                  reg_lambda: float, gamma: float):
    """The level's splits as (node, feature, threshold), for each node whose
    best gain is positive.

    Every (feature, entry) cell is keyed node * v + value, so one dense
    histogram per block of whole nodes (at most about _HIST_BINS bins) gives
    each present (node, value) its row count and sum of `centered`; entries
    outside the block get its sentinel place, so their keys fall past its
    bins. The nonzero bins come in (node, feature, rank) order. A candidate
    is a bin followed by another of its (node, feature), and running sums
    over the bins give its left side; they restart at each tree, so no
    tree's splits depend on another's sums.
    """
    values, codes = coded
    (k, n), p, v = place.shape, codes.shape[0], values.size
    weights = np.broadcast_to(centered, (p, k, n)).ravel()
    step = max(1, _HIST_BINS // v)
    keys, counts, sums = [], [], []
    for lo in range(0, tree.size, step):
        width = min(step, tree.size - lo)
        local = place - lo
        local[(local < 0) | (local > width)] = width
        local *= v
        key = (codes[:, None, :] + local).ravel()
        bins = np.bincount(key, minlength=width * v)[:width * v]
        nz = np.flatnonzero(bins != 0)  # a bool mask scans several times faster
        keys.append(nz + lo * v)
        counts.append(bins[nz])
        sums.append(np.bincount(key, weights, minlength=width * v)[nz])
    key, cnt, wsum = (np.concatenate(parts) for parts in (keys, counts, sums))
    node = key // v
    val = key - node * v
    starts = _run_starts(node * p + owner[val])
    first = np.flatnonzero(starts)
    span = np.diff(first, append=key.size)
    cand = np.flatnonzero(~starts[1:])
    start = np.repeat(first, span)[cand]
    last = np.repeat(first + span - 1, span)[cand]
    # centered sums return to about zero at every segment end, so a running
    # sum gives each segment's sums at the precision of its own
    through = np.empty(key.size)
    tree_first = np.flatnonzero(_run_starts(tree[node]))
    for lo, hi in zip(tree_first, np.append(tree_first[1:], key.size)):
        np.cumsum(wsum[lo:hi], out=through[lo:hi])
    before = np.append(0.0, through[:-1])
    before[tree_first] = 0.0
    rows = np.cumsum(cnt)
    node = node[cand]
    nl = rows[cand] - rows[start] + cnt[start]
    nr = sizes[node] - nl
    lc = through[cand] - before[start]
    rc = through[last] - before[start] - lc
    gain = gbt_split_gain(lc + nl * mean[node], nl, rc + nr * mean[node], nr,
                          reg_lambda, gamma)
    pick = _first_best(node, gain)
    pick = pick[gain[pick] > 0.0]
    at = cand[pick]
    return node[pick], owner[val[at]], (values[val[at]] + values[val[at + 1]]) / 2.0


def _grow_chains(coded, x: np.ndarray, g: np.ndarray, max_depth: int,
                 reg_lambda: float, gamma: float):
    """Grow one boosted tree per column of the gradients g (n, k), together.

    Each (tree, row) pair is an entry, and each level searches the splits of
    all k trees' nodes at once on exact (node, value) histograms
    (`_chain_splits`). Each candidate leaves at least one row on either side,
    and a node splits when its best gain is positive. Leaves hold
    -G/(H+lambda) with h = 1 per row, G summed in row order.

    Returns the k trees and, as (n, k), the value of the leaf each row
    reaches in each.
    """
    values, codes = coded
    n, k = g.shape
    owner = np.searchsorted(codes.min(axis=1), np.arange(values.size),
                            side="right") - 1  # value -> its feature
    g = np.ascontiguousarray(g.T)           # entry (j, i): tree j, row i
    xt = np.ascontiguousarray(x.T)
    place = np.repeat(np.arange(k), n).reshape(k, n)  # entry -> node in level
    tree = np.arange(k)                     # node in level -> its tree
    reached = np.empty((k, n))
    levels = []
    for depth in range(max_depth + 1):
        # place `count` marks entries that ended in a leaf at an earlier level
        count = tree.size
        sizes = np.bincount(place.ravel(), minlength=count + 1)[:count]
        sums = np.bincount(place.ravel(), g.ravel(), minlength=count + 1)[:count]
        mean = np.append(sums / sizes, 0.0)
        value = gbt_leaf_weight(sums, sizes, reg_lambda)
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count)
        if depth < max_depth:
            node, f, cut = _chain_splits(coded, owner, place, g - mean[place], tree,
                                         sizes, mean, reg_lambda, gamma)
            feature[node] = f
            threshold[node] = cut
        split = feature >= 0
        levels.append((tree, feature, threshold[split], value[~split]))
        ends = np.append(~split, False)[place]
        np.copyto(reached, np.append(value, 0.0)[place], where=ends)
        if not split.any():
            break
        # route the entries of split nodes; children keep their parents' order,
        # and entries of leaves (and the sentinel) go to the next sentinel
        rank = np.cumsum(split)
        child = np.append(np.where(split, 2 * rank - 2, 2 * rank[-1]), 2 * rank[-1])
        column = np.append(np.maximum(feature, 0), 0)
        cut = np.append(np.where(split, threshold, np.inf), np.inf)
        right = np.take_along_axis(xt, column[place], axis=0) > cut[place]
        place = child[place] + right
        tree = np.repeat(tree[split], 2)
    tree, feature, threshold, value = (np.concatenate(parts) for parts in zip(*levels))
    split = feature >= 0
    grown = [TreeArrays(feature[tree == j], threshold[tree[split] == j],
                        value[tree[~split] == j, None], np.zeros(1, dtype=np.int64))
             for j in range(k)]
    return grown, reached.T


def gbt_fit(x, y, rounds: int = 100, learning_rate: float = 0.3,
            max_depth: int = 6, reg_lambda: float = 1.0,
            gamma: float = 0.0) -> GbtModel:
    """Boosted squared-error chains: g = prediction - y, h = 1, per target.

    Each round grows every target's tree in one pass (`_grow_chains`); the
    chain of target j depends on column j of y alone.
    """
    x, y = _check_xy(x, y)
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {x.shape[0]}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if reg_lambda < 0.0 or gamma < 0.0:
        raise ValueError("reg_lambda and gamma must be >= 0")
    if not (0.0 <= learning_rate <= 1.0):
        raise ValueError("learning_rate must be in [0, 1]")
    coded = _rank_code(x)
    # each column summed on its own (pairwise), as a one-target fit sums it
    base = np.ascontiguousarray(y.T).mean(axis=1)
    pred = np.tile(base, (x.shape[0], 1))
    grown = []
    for _ in range(rounds):
        trees, reached = _grow_chains(coded, x, pred - y, max_depth, reg_lambda, gamma)
        pred += learning_rate * reached
        grown.append(trees)
    return GbtModel(base_score=base, learning_rate=learning_rate,
                    reg_lambda=reg_lambda, gamma=gamma,
                    trees=_concat([r[j] for j in range(y.shape[1]) for r in grown]))


def gbt_predict(model: GbtModel, x) -> np.ndarray:
    x = matrix(x)
    k, rounds = model.base_score.shape[0], model.rounds
    out = np.tile(model.base_score, (x.shape[0], 1))
    for rows, leaves in _leaf_blocks(model.trees, x):
        step = model.trees.value[leaves, 0].reshape(leaves.shape[0], k, rounds)
        for r in range(rounds):
            out[rows] += model.learning_rate * step[:, :, r]
    return out
