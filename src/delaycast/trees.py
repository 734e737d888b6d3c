"""Regression trees, bagged ensembles, and gradient-boosted chains.

Every model here is one `TreeArrays`: one or more trees back to back in four
flat arrays, all in node order: each node's feature (-1 at leaves), the
thresholds of split nodes only, the values of leaves only, and the offset of
each tree's root. A single tree, a forest and a boosting model differ only
in how many trees the arrays hold and how their leaves are combined.
Children are not stored: trees are numbered level by level, so a tree's
k-th split node has its children at 2k+1 and 2k+2 from its root.

One level-wise exact split search, `_grow`, grows all of them, several
trees at once: a boosting round grows its k target trees, one gradient
column each, and a single tree or a forest member is one tree that owns all
k targets. Each feature is rank-coded once per fit. A tree's cells are its
distinct drawn rows, each weighted by its draw count (1, except in a
forest's bootstraps). At each level every (feature, cell) pair is keyed
node * V + value, over the V distinct values of all features; the level's
present (node, value) bins get their row counts and sums of node-centered
targets, and running sums over the bins, restarted at each tree, give every
candidate's left side. The bins are counted one of two ways, chosen per
level: a dense `np.bincount` over all node * V of them while they are at
most `_DENSE_BINS` per live cell (shallow levels, where it is fastest), else
one sort of the keys (deep levels, where dense bins would far outnumber the
cells and scanning them would cost more than the sort). Both sum each bin's
cells in the same order, so they give the same bits, and neither holds more
than a few arrays the size of the cells.

Both objectives keep the frozen split rules and pick through one helper
(`_first_best`): candidates are the midpoints between a node's adjacent
*present* feature values, boundary ties route left (`x[f] <= threshold`),
and equal-gain ties resolve to the lowest feature index, then the lowest
threshold. Gains that tie in real arithmetic can differ by a rounding step
once sums are taken in another order, so gains within a relative `_TIE_REL`
= 1e-12 of a node's best count as tied, and a node splits only when its best
gain beats the noise floor `_GAIN_EPS` * (1 + its SSE). The objectives
differ in two formulas only: the split gain (summed SSE reduction, or
XGBoost's regularized gain) and the leaf value (the mean, or -G/(H+lambda)).
Categorical codes are treated as ordinal numerics; that is a documented
consequence of the integer label encoding.

The split gain of the boosted trees is XGBoost's (Chen & Guestrin, KDD
2016); the (node, value) bins follow LightGBM's histograms (Ke et al.,
NeurIPS 2017) and XGBoost's "hist" method, kept exact by one bin per
distinct value. A forest member takes its bootstrap draws as row weights,
as scikit-learn's forests do, after Breiman ("Random Forests", 2001).
LightGBM's model format likewise keeps split thresholds and leaf values as
separate arrays.
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
# (node, value) bins a level counts densely per live cell; a level that could
# have more sorts its keys instead
_DENSE_BINS = 4


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


def _concat(trees) -> TreeArrays:
    """The (feature, threshold, value) trees, in order, as one TreeArrays."""
    feature, threshold, value = (np.concatenate(parts) for parts in zip(*trees))
    roots = np.cumsum([0] + [f.size for f, _, _ in trees[:-1]])
    return TreeArrays(feature, threshold, value, roots)


# --- the shared split search ---------------------------------------------------


def _rank_code(x: np.ndarray):
    """Rank-code every feature once.

    Returns (values, codes, owner): `values` concatenates the features'
    sorted distinct values, codes[f, i] is the index in `values` of row i's
    value of feature f, and owner[v] is the feature of value v.
    """
    p = x.shape[1]
    uniques, codes = [], np.empty((p, x.shape[0]), dtype=np.int64)
    offset = 0
    for f in range(p):
        u, inverse = np.unique(x[:, f], return_inverse=True)
        codes[f] = inverse + offset
        uniques.append(u)
        offset += u.size
    owner = np.repeat(np.arange(p), [u.size for u in uniques])
    return np.concatenate(uniques), codes, owner


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


def _bins(key: np.ndarray, size: int, cells: int, weights, columns):
    """The present bins of `key` below `size`, in increasing order, their
    counts, and each of `columns`' sums over them; keys from `size` on are
    dropped.

    A cell counts `weights` (positive; None counts 1 each). The bins are
    counted densely, one `np.bincount` over all `size` of them, while they
    are at most `_DENSE_BINS` per live cell (`cells`), and else on one sort
    of the keys. Either way each bin sums its cells in their order, so both
    give the same bits. Columns are summed one at a time, so an iterator
    of them holds one at once.
    """
    if size <= _DENSE_BINS * cells:
        counts = np.bincount(key, weights, minlength=size)[:size]
        present = np.flatnonzero(counts != 0)  # a bool mask scans several times faster
        return present, counts[present], [np.bincount(key, column, minlength=size)[present]
                                          for column in columns]
    present, inverse = np.unique(key, return_inverse=True)
    below = np.searchsorted(present, size)
    return (present[:below], np.bincount(inverse, weights)[:below],
            [np.bincount(inverse, column)[:below] for column in columns])


def _grow(coded, x: np.ndarray, target: np.ndarray, draw: np.ndarray,
          max_depth: int, min_leaf: int, leaf_value, split_gain):
    """Grow t trees together, level by level, on exact (node, value) bins.

    Tree j is fit on target[:, j] (c columns over the n rows of x) at the
    rows `draw`, in that order; a row may be drawn more than once. Node
    sizes, sums and SSE are summed over the draws in draw order, so a tree
    is the one grown on its drawn rows themselves. The split search runs on
    cells, one per tree and distinct drawn row, each weighted by its draw
    count: each level keys every (feature, cell) pair by its cell's node and
    its value, counts the bins (`_bins`), and running sums over the bins,
    restarted at each tree, give every candidate's left side. A node splits
    at its best candidate (`_first_best`) that leaves at least `min_leaf`
    draws on either side, if that gain beats `_GAIN_EPS` * (1 + its SSE).

    The objective is `leaf_value(sums, sizes)` and `split_gain(left sums,
    left size, right sums, right size, node means)`, per target column on
    sums of node-centered targets; a candidate's gain sums its columns.

    Returns each tree's (feature, threshold, value) in `TreeArrays` order
    and, as (c, t, m) over the m distinct drawn rows in increasing order,
    the value of the leaf each reaches in each tree.
    """
    values, codes, owner = coded
    c, t, n = target.shape
    p, v = codes.shape[0], values.size
    weight = np.bincount(draw, minlength=n)
    rows = np.flatnonzero(weight)
    m = rows.size
    # each row drawn once, in order (a single tree, a boosting round): the
    # draws are the cells, so nothing maps between them
    once = m == draw.size and np.array_equal(draw, rows)
    # cell j * m + i is tree j's row rows[i]; draws keep their tree's cells
    if not once:
        draw_cell = (np.arange(t)[:, None] * m + (np.cumsum(weight > 0) - 1)[draw]).ravel()
        draw_y = target[:, :, draw].reshape(c, -1)
    cell_y = target[:, :, rows].reshape(c, -1)
    cell_w = np.tile(weight[rows].astype(np.float64), t)
    cell_x = np.tile(rows * p, t)      # where each cell's row starts in x
    cell_at = np.arange(t * m)         # each cell's column in `reached`
    # rows drawn once weigh 1, and np.bincount counts cells faster unweighted
    weighted = m < draw.size
    flat_x = x.ravel()
    cell_pos = np.repeat(np.arange(t), m)  # cell -> its node's place in the level
    tree = np.arange(t)                    # node in the level -> its tree
    # each (feature, cell) pair's bin, node * v + value; it moves with the cell
    keys = (np.take(codes, rows, axis=1)[:, None, :] + tree[:, None] * v).reshape(p, -1)
    live = t * m
    reached = np.empty((c, t * m))
    levels = []
    for depth in range(max_depth + 1):
        # place `count` marks the cells, and draws, past their last leaf
        count = tree.size
        pos, ys = (cell_pos, cell_y) if once else (cell_pos[draw_cell], draw_y)
        sizes = np.bincount(pos, minlength=count + 1)[:count]
        sums = np.stack([np.bincount(pos, y, minlength=count + 1)[:count] for y in ys])
        mean = np.append(sums / sizes, np.zeros((c, 1)), axis=1)
        value = leaf_value(sums, sizes)
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count)
        if depth < max_depth:
            centered = cell_y - np.take(mean, cell_pos, axis=1)
            squares = (centered if once else np.take(centered, draw_cell, axis=1)) ** 2
            sse = np.bincount(pos, squares.sum(axis=0), minlength=count + 1)[:count]
            floor = np.where(sse > 0.0, _GAIN_EPS * (1.0 + sse), np.inf)
            if weighted:
                centered *= cell_w
            key, cnt, bin_sums = _bins(
                keys.ravel(), count * v, p * live,
                np.broadcast_to(cell_w, (p, cell_w.size)).ravel() if weighted else None,
                (np.broadcast_to(a, (p, a.size)).ravel() for a in centered))
            node = key // v
            val = key - node * v
            # a candidate is a bin followed by another of its (node, feature)
            starts = _run_starts(node * p + owner[val])
            head = np.flatnonzero(starts)
            span = np.diff(head, append=key.size)
            cand = np.flatnonzero(~starts[1:])
            start = np.repeat(head, span)[cand]
            last = np.repeat(head + span - 1, span)[cand]
            # centered sums return to about zero at every segment end, so a
            # running sum per tree gives each segment's sums at the precision
            # of its own, and no tree's splits depend on another's sums
            through = np.stack(bin_sums)
            tree_head = np.flatnonzero(_run_starts(tree[node]))
            for lo, hi in zip(tree_head, np.append(tree_head[1:], key.size)):
                np.cumsum(through[:, lo:hi], axis=1, out=through[:, lo:hi])
            before = np.zeros_like(through)
            before[:, 1:] = through[:, :-1]
            before[:, tree_head] = 0.0
            upto = np.cumsum(cnt)
            node = node[cand]
            nl = upto[cand] - upto[start] + cnt[start]
            nr = sizes[node] - nl
            base = np.take(before, start, axis=1)
            lc = np.take(through, cand, axis=1) - base
            rc = np.take(through, last, axis=1) - base - lc
            gain = split_gain(lc, nl, rc, nr, np.take(mean, node, axis=1)).sum(axis=0)
            gain[np.minimum(nl, nr) < min_leaf] = -np.inf
            pick = _first_best(node, gain)
            pick = pick[gain[pick] > floor[node[pick]]]
            at = cand[pick]
            feature[node[pick]] = owner[val[at]]
            threshold[node[pick]] = (values[val[at]] + values[val[at + 1]]) / 2.0
        split = feature >= 0
        levels.append((tree, feature, threshold[split], value[:, ~split].T))
        ends = np.append(~split, False)[cell_pos]
        reached[:, cell_at[ends]] = np.take(value, cell_pos[ends], axis=1)
        if not split.any():
            break
        # route the cells of split nodes; children keep their parents' order,
        # and cells of leaves, or past them, go past the next level's nodes
        rank = np.cumsum(split)
        child = np.append(np.where(split, 2 * rank - 2, 2 * rank[-1]), 2 * rank[-1])
        column = np.append(np.maximum(feature, 0), 0)
        cut = np.append(np.where(split, threshold, np.inf), np.inf)
        right = np.take(flat_x, cell_x + column[cell_pos]) > cut[cell_pos]
        moved = child[cell_pos] + right
        keys += (moved - cell_pos) * v
        cell_pos = moved
        tree = np.repeat(tree[split], 2)
        on = cell_pos < tree.size
        live = np.count_nonzero(on)
        if 2 * live < on.size:
            # drop the cells past their last leaf once they are most of
            # them, so a level costs at most about twice its live cells
            if not once:
                drawn = on[draw_cell]
                draw_cell = (np.cumsum(on) - 1)[draw_cell[drawn]]
                draw_y = draw_y[:, drawn]
            cell_pos, cell_w, cell_y, keys, cell_x, cell_at = (
                a[..., on] for a in (cell_pos, cell_w, cell_y, keys, cell_x, cell_at))
    tree, feature, threshold, value = (np.concatenate(parts) for parts in zip(*levels))
    split = feature >= 0
    grown = [(feature[tree == j], threshold[tree[split] == j], value[tree[~split] == j])
             for j in range(t)]
    return grown, reached.reshape(c, t, m)


def _sse_gain(lc, nl, rc, nr, mean):
    """Each target's SSE reduction of a split, from node-centered sums, so
    the gain carries no cancellation against the targets' own scale."""
    tc = lc + rc
    return lc * lc / nl + rc * rc / nr - tc * tc / (nl + nr)


def _check_xy(x, y):
    x = matrix(x)
    y = matrix(y)
    if x.shape[0] == 0:
        raise ValueError("empty input")
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"X has {x.shape[0]} rows but Y has {y.shape[0]}")
    return x, y


def _check_tree(rows: int, max_depth: int, min_samples_leaf: int):
    if max_depth < 0 or min_samples_leaf < 1:
        raise ValueError("max_depth must be >= 0 and min_samples_leaf >= 1")
    if rows < 2 * min_samples_leaf:
        raise ValueError(f"need at least {2 * min_samples_leaf} rows, got {rows}")


def tree_fit(x, y, max_depth: int = 10, min_samples_leaf: int = 5) -> TreeArrays:
    """Greedy variance-reduction tree; leaves hold per-target means."""
    x, y = _check_xy(x, y)
    n = x.shape[0]
    _check_tree(n, max_depth, min_samples_leaf)
    grown, _ = _grow(_rank_code(x), x, y.T[:, None], np.arange(n), max_depth,
                     min_samples_leaf, np.divide, _sse_gain)
    return _concat(grown)


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

    A member is the tree `tree_fit` grows on those draws, x[idx] and y[idx],
    though it is grown without copying them: each distinct drawn row is one
    cell weighted by its draw count, and node sizes, sums and SSE are summed
    over the draws in draw order.
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
    `x` is rank-coded once for all members, and member t takes its draws idx
    as row weights, `np.bincount(idx, minlength=n)`: the same tree as
    `tree_fit(x[idx], y[idx])`, with no resample copied, rank-coded or
    sorted per member.
    """
    x, y = _check_xy(x, y)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    n = x.shape[0]
    _check_tree(n, max_depth, min_samples_leaf)
    coded = _rank_code(x)
    root = Rng(seed)
    trees = []
    for t in range(n_estimators):
        idx = root.spawn(t).integers(0, n, n)
        grown, _ = _grow(coded, x, y.T[:, None], idx, max_depth, min_samples_leaf,
                         np.divide, _sse_gain)
        trees.extend(grown)
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


def gbt_fit(x, y, rounds: int = 100, learning_rate: float = 0.3,
            max_depth: int = 6, reg_lambda: float = 1.0,
            gamma: float = 0.0) -> GbtModel:
    """Boosted squared-error chains: g = prediction - y, h = 1, per target.

    Each round grows every target's tree in one pass of `_grow`, one tree
    per gradient column; the chain of target j depends on column j of y alone.
    """
    x, y = _check_xy(x, y)
    n = x.shape[0]
    _check_tree(n, max_depth, 1)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if reg_lambda < 0.0 or gamma < 0.0:
        raise ValueError("reg_lambda and gamma must be >= 0")
    if not (0.0 <= learning_rate <= 1.0):
        raise ValueError("learning_rate must be in [0, 1]")

    def leaf_value(grad_sum, hess_sum):
        return gbt_leaf_weight(grad_sum, hess_sum, reg_lambda)

    def split_gain(lc, nl, rc, nr, mean):
        return gbt_split_gain(lc + nl * mean, nl, rc + nr * mean, nr, reg_lambda, gamma)

    coded = _rank_code(x)
    # each column summed on its own (pairwise), as a one-target fit sums it
    base = np.ascontiguousarray(y.T).mean(axis=1)
    pred = np.tile(base, (n, 1))
    grown = []
    for _ in range(rounds):
        trees, reached = _grow(coded, x, (pred - y).T[None], np.arange(n), max_depth, 1,
                               leaf_value, split_gain)
        pred += learning_rate * reached[0].T
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
