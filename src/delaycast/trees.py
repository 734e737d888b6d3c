"""Regression trees, bagged ensembles, and gradient-boosted chains.

Every model here is one `TreeArrays`: flat node arrays (feature, threshold,
left, right, value) holding one or more trees back to back, plus the offset
of each tree's root. A single tree, a forest and a boosting model differ
only in how many trees the arrays hold and how their leaves are combined.

All three grow through one level-wise exact split search (`_grow`). Each
feature is rank-coded once; the (row, feature) cells stay sorted by (node,
feature, rank) and are stably partitioned into the children at each level,
and one cumulative sum per level yields every node's left-side sums. The
frozen split rules: candidates are the midpoints between a node's adjacent
*present* feature values, boundary ties route left (`x[f] <= threshold`),
and equal-gain ties resolve to the lowest feature index, then the lowest
threshold. Gains that tie in real arithmetic can differ by a rounding step
once sums are taken in another order, so gains within a relative
`_TIE_REL` = 1e-12 of a node's best count as tied. Categorical codes are
treated as ordinal numerics; that is a documented consequence of the
integer label encoding.

The split gain of the boosted trees is XGBoost's (Chen & Guestrin, KDD
2016); grouping cells by rank follows LightGBM's histograms (Ke et al.,
NeurIPS 2017), kept exact by grouping on each node's distinct values.
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

_NODE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _index_array(name: str, data) -> np.ndarray:
    a = np.asarray(data)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.round(a))).all():
        raise ValueError(f"{name} must hold integers")
    return a.astype(np.int64)


@dataclass(frozen=True, eq=False)
class TreeArrays:
    """One or more regression trees as flat node arrays.

    Tree t owns nodes roots[t] up to the next root (the last tree runs to the
    end). Node i either splits rows with `x[feature[i]] <= threshold[i]` to
    left[i], the rest to right[i] (child indices counted from the tree's
    root), or is a leaf: feature, left and right -1. value[i] is the node's
    prediction, used at leaves. Grown trees are numbered level by level: a
    tree's k-th split node has its children at 2k+1 and 2k+2 from its root
    (`level_order_children`), and their leaves hold threshold 0.0.
    """

    feature: np.ndarray    # (m,) int64
    threshold: np.ndarray  # (m,) float64
    left: np.ndarray       # (m,) int64
    right: np.ndarray      # (m,) int64
    value: np.ndarray      # (m, k) float64
    roots: np.ndarray      # (t,) int64

    def __post_init__(self):
        feature = _index_array("feature", self.feature)
        left = _index_array("left", self.left)
        right = _index_array("right", self.right)
        roots = _index_array("roots", self.roots)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        value = np.asarray(self.value, dtype=np.float64)
        m = feature.size
        if threshold.shape != (m,) or left.size != m or right.size != m \
                or value.ndim != 2 or value.shape[0] != m:
            raise ValueError("node arrays disagree in length")
        if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
            raise ValueError("node thresholds and values must be finite")
        if (roots.size == 0) != (m == 0) or (m and (
                roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= m)):
            raise ValueError("roots must be increasing node offsets starting at 0")
        sizes = np.diff(np.append(roots, m))
        start = np.repeat(roots, sizes)
        local = np.arange(m) - start
        size = np.repeat(sizes, sizes)
        split = feature >= 0
        if (feature < -1).any() or (left[~split] != -1).any() \
                or (right[~split] != -1).any():
            raise ValueError("leaves need feature, left and right -1")
        for child in (left[split], right[split]):
            if ((child <= local[split]) | (child >= size[split])).any():
                raise ValueError("child index must point past its parent "
                                 "inside the same tree")
        refs = np.bincount(np.concatenate([left[split], right[split]])
                           + np.concatenate([start[split]] * 2), minlength=m)
        if (refs != (local > 0)).any():
            raise ValueError(f"node {int(np.argmax(refs != (local > 0)))} is "
                             "unreachable or shared")
        for name, a in zip(_NODE_FIELDS + ("roots",),
                           (feature, threshold, left, right, value, roots)):
            object.__setattr__(self, name, a)

    @property
    def n_trees(self) -> int:
        return self.roots.size

    def member(self, t: int) -> "TreeArrays":
        """Tree t on its own."""
        lo = self.roots[t]
        hi = self.roots[t + 1] if t + 1 < self.n_trees else self.feature.size
        return TreeArrays(*(getattr(self, name)[lo:hi] for name in _NODE_FIELDS),
                          roots=np.zeros(1, dtype=np.int64))


def level_order_children(feature, roots):
    """(left, right) of trees numbered level by level: the k-th split node
    (feature >= 0) of each tree has its children at 2k+1 and 2k+2 from the
    tree's root; leaves get -1.
    """
    feature = _index_array("feature", feature)
    roots = _index_array("roots", roots)
    split = feature >= 0
    before = np.cumsum(split) - split          # split nodes before each node
    sizes = np.diff(np.append(roots, feature.size))
    k = before - np.repeat(before[roots], sizes)
    left = np.where(split, 2 * k + 1, -1)
    return left, np.where(split, left + 1, -1)


def _concat(parts) -> TreeArrays:
    """Trees of every part, in order, as one TreeArrays."""
    offsets = np.cumsum([0] + [p.feature.size for p in parts])
    fields = [np.concatenate([getattr(p, name) for p in parts])
              for name in _NODE_FIELDS]
    roots = np.concatenate([p.roots + o for p, o in zip(parts, offsets)])
    return TreeArrays(*fields, roots=roots)


# --- the shared split search ---------------------------------------------------


def _rank_code(x: np.ndarray):
    """Rank-code every feature once.

    Returns (values, cell_row, cell_code): `values` concatenates the features'
    sorted distinct values, and the root's (row, feature) cells are listed
    feature by feature in (rank, row) order, each with its row and the index
    of its value in `values`.
    """
    p = x.shape[1]
    uniques, codes = [], np.empty((p, x.shape[0]), dtype=np.int64)
    offset = 0
    for f in range(p):
        u, inverse = np.unique(x[:, f], return_inverse=True)
        codes[f] = inverse + offset
        uniques.append(u)
        offset += u.size
    order = np.argsort(codes, axis=1, kind="stable")
    return (np.concatenate(uniques), order.ravel(),
            np.take_along_axis(codes, order, axis=1).ravel())


class _Variance:
    """Summed per-target SSE reduction; nodes predict their target means."""

    def node(self, sums, sizes, sse):
        floor = np.where(sse > 0.0, _GAIN_EPS * (1.0 + sse), np.inf)
        return sums / sizes[:, None], floor

    def gain(self, lc, rc, nl, nr, mean):
        # lc, rc: sums of (target - node mean), so the gain carries no
        # cancellation against the targets' own scale
        tc = lc + rc
        return (lc * lc / nl[:, None] + rc * rc / nr[:, None]
                - tc * tc / (nl + nr)[:, None]).sum(axis=1)


class _Boost:
    """XGBoost gain for squared error (h = 1 per row); nodes hold -G/(H+lambda)."""

    def __init__(self, reg_lambda: float, gamma: float):
        self.reg_lambda = reg_lambda
        self.gamma = gamma

    def node(self, sums, sizes, sse):
        weight = gbt_leaf_weight(sums[:, 0], sizes, self.reg_lambda)
        return weight[:, None], np.zeros(sizes.size)  # strictly positive gain

    def gain(self, lc, rc, nl, nr, mean):
        gl = lc[:, 0] + nl * mean[:, 0]
        gr = rc[:, 0] + nr * mean[:, 0]
        return gbt_split_gain(gl, nl, gr, nr, self.reg_lambda, self.gamma)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from the one before; the first does."""
    starts = np.empty(a.size, dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _best_splits(cell_code, centered, mean, sizes, p, objective, min_leaf):
    """Each node's best candidate as (node, feature, low code, high code, gain).

    Nodes without a candidate are left out. Cells come in (node, feature,
    rank) order, so each node's feature block is one segment; `centered`
    holds each cell's row statistics minus its node's mean. A candidate is
    a segment's last cell of one value, followed by a cell of the next.
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
    lc = np.take(prefix, cand + 1, axis=0) - base
    rc = np.take(prefix, seg_end[seg], axis=0) - base - lc
    gain = objective.gain(lc, rc, nl, nr, np.take(mean, node, axis=0))
    if gain.size == 0:
        return node, node, cand, cand, gain
    head = np.flatnonzero(_run_starts(node))
    top = np.repeat(np.maximum.reduceat(gain, head), np.diff(head, append=node.size))
    tied = np.flatnonzero(gain >= top - _TIE_REL * np.abs(top))
    pick = tied[_run_starts(node[tied])]
    at = cand[pick]
    return node[pick], seg[pick] % p, cell_code[at], cell_code[at + 1], gain[pick]


def _grow(coded, x: np.ndarray, w: np.ndarray, objective, max_depth: int,
          min_leaf: int):
    """Grow one tree level by level on per-row statistics w (n, k).

    Returns the tree and the node (a leaf) each training row ends in.
    """
    values, cell_row, cell_code = coded
    n, p = x.shape
    rows = np.arange(n)                     # rows of this level's nodes
    row_pos = np.zeros(n, dtype=np.int64)   # row -> its node's place in the level
    row_node = np.zeros(n, dtype=np.int64)  # row -> node id
    centered = np.zeros_like(w)             # row -> w minus its node's mean
    sizes = np.array([n])
    first = 0                               # id of the level's first node
    levels = []
    for depth in range(max_depth + 1):
        count = sizes.size
        pos = row_pos[rows]
        w_rows = np.take(w, rows, axis=0)
        sums = np.stack([np.bincount(pos, w_rows[:, j], minlength=count)
                         for j in range(w.shape[1])], axis=1)
        mean = sums / sizes[:, None]
        level_centered = w_rows - np.take(mean, pos, axis=0)
        centered[rows] = level_centered
        sse = np.bincount(pos, (level_centered ** 2).sum(axis=1), minlength=count)
        value, floor = objective.node(sums, sizes, sse)
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count)
        if depth < max_depth:
            node, f, lo, hi, gain = _best_splits(
                cell_code, np.take(centered, cell_row, axis=0), mean, sizes, p,
                objective, min_leaf)
            take = gain > floor[node]
            feature[node[take]] = f[take]
            threshold[node[take]] = (values[lo[take]] + values[hi[take]]) / 2.0
        split = feature >= 0
        n_split = int(split.sum())
        levels.append((feature, threshold, value))
        if n_split == 0:
            break
        # route the rows of split nodes; children keep their parents' order
        keep = split[pos]
        rows, pos = rows[keep], pos[keep]
        child = 2 * (np.cumsum(split) - 1)[pos] + (x[rows, feature[pos]] > threshold[pos])
        first += count
        row_pos[rows] = child
        row_node[rows] = first + child
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
    roots = np.zeros(1, dtype=np.int64)
    tree = TreeArrays(feature, threshold, *level_order_children(feature, roots),
                      value, roots)
    return tree, row_node


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
    tree, _ = _grow(_rank_code(x), x, y, _Variance(), max_depth, min_samples_leaf)
    return tree


def _leaves(trees: TreeArrays, x: np.ndarray) -> np.ndarray:
    """(n, t) node index of the leaf each row reaches in each tree.

    Every row walks every tree at once, one vectorized step per level.
    """
    t = trees.n_trees
    sizes = np.diff(np.append(trees.roots, trees.feature.size))
    start = np.repeat(trees.roots, sizes)
    left, right = trees.left + start, trees.right + start
    node = np.tile(trees.roots, x.shape[0])  # entry e: row e // t, tree e % t
    live = np.flatnonzero(trees.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = x[live // t, trees.feature[at]] <= trees.threshold[at]
        node[live] = np.where(go_left, left[at], right[at])
        live = live[trees.feature[node[live]] >= 0]
    return node.reshape(x.shape[0], t)


def _leaf_blocks(trees: TreeArrays, x: np.ndarray):
    """Yield (row slice, its rows' leaves) over blocks of rows.

    A block holds about _ROUTE_ENTRIES (row, tree) pairs, so routing a large
    table through many trees stays within a few index arrays of that size.
    """
    if trees.feature.size and trees.feature.max() >= x.shape[1]:
        raise ValueError(f"tree splits on feature {trees.feature.max()} "
                         f"but input has {x.shape[1]} columns")
    step = max(1, _ROUTE_ENTRIES // max(trees.n_trees, 1))
    for lo in range(0, x.shape[0], step):
        yield slice(lo, lo + step), _leaves(trees, x[lo:lo + step])


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


def gbt_fit(x, y, rounds: int = 100, learning_rate: float = 0.3,
            max_depth: int = 6, reg_lambda: float = 1.0,
            gamma: float = 0.0) -> GbtModel:
    """Boosted squared-error chains: g = prediction - y, h = 1, per target."""
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
    boost = _Boost(reg_lambda, gamma)
    base = y.mean(axis=0)
    trees = []
    for j in range(y.shape[1]):
        pred = np.full(x.shape[0], base[j])
        for _ in range(rounds):
            tree, leaf = _grow(coded, x, (pred - y[:, j])[:, None], boost,
                               max_depth, 1)
            pred += learning_rate * tree.value[leaf, 0]
            trees.append(tree)
    return GbtModel(base_score=base, learning_rate=learning_rate,
                    reg_lambda=reg_lambda, gamma=gamma, trees=_concat(trees))


def gbt_predict(model: GbtModel, x) -> np.ndarray:
    x = matrix(x)
    k, rounds = model.base_score.shape[0], model.rounds
    out = np.tile(model.base_score, (x.shape[0], 1))
    for rows, leaves in _leaf_blocks(model.trees, x):
        step = model.trees.value[leaves, 0].reshape(leaves.shape[0], k, rounds)
        for r in range(rounds):
            out[rows] += model.learning_rate * step[:, :, r]
    return out
