import itertools
from fractions import Fraction

import numpy as np
import pytest

from delaycast import trees
from delaycast.features import build_table, fit_codebook
from delaycast.numerics import Rng
from delaycast.preprocess import run_pipeline
from delaycast.synth import SynthConfig, generate
from delaycast.trees import (
    ForestModel,
    GbtModel,
    TreeArrays,
    forest_fit,
    forest_predict,
    gbt_fit,
    gbt_leaf_weight,
    gbt_predict,
    gbt_split_gain,
    tree_fit,
    tree_predict,
)


def brute_force_best_split(x, y, min_leaf):
    """Independent oracle: score every midpoint candidate directly."""
    def sse(block):
        return ((block - block.mean(axis=0)) ** 2).sum() if len(block) else 0.0

    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            mask = x[:, f] <= thr
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            gain = sse(y) - sse(y[mask]) - sse(y[~mask])
            key = (-gain, f, thr)
            if best is None or key < best:
                best = key
    return None if best is None else (best[1], best[2], -best[0])


def brute_force_gbt_split(x, g, reg_lambda, gamma):
    """Oracle for one boosting node: XGBoost gain at every midpoint, h = 1."""
    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            mask = x[:, f] <= thr
            gl, gr = g[mask].sum(), g[~mask].sum()
            hl, hr = float(mask.sum()), float((~mask).sum())
            gain = 0.5 * (gl ** 2 / (hl + reg_lambda) + gr ** 2 / (hr + reg_lambda)
                          - (gl + gr) ** 2 / (hl + hr + reg_lambda)) - gamma
            key = (-gain, f, thr)
            if best is None or key < best:
                best = key
    return None if best is None else (best[1], best[2], -best[0])


def brute_force_gbt_tree(x, g, depth, reg_lambda, gamma):
    """Reference boosted tree for one round: recursive, every midpoint.

    Each node splits at `brute_force_gbt_split`'s pick when its gain is
    positive; leaves hold -G/(H+lambda). Returns the nested form of `nested`.
    """
    def grow(idx, depth_left):
        leaf = ("leaf", np.array([-g[idx].sum() / (idx.size + reg_lambda)]))
        if depth_left == 0:
            return leaf
        best = brute_force_gbt_split(x[idx], g[idx], reg_lambda, gamma)
        if best is None or not best[2] > 0.0:
            return leaf
        f, thr, _ = best
        mask = x[idx, f] <= thr
        return (f, thr, grow(idx[mask], depth_left - 1),
                grow(idx[~mask], depth_left - 1))

    return grow(np.arange(x.shape[0]), depth)


def brute_force_tree(x, y, depth, min_leaf):
    """Reference grower: recursive, exact rational gains, every midpoint.

    Exact ties go to the lowest feature, then the lowest threshold; a split
    needs a gain above 1e-10 * (1 + parent SSE), as in trees._GAIN_EPS.
    Returns the nested form of `nested`.
    """
    exact = [[Fraction(v) for v in row] for row in y]

    def sse(idx):
        total = Fraction(0)
        for j in range(y.shape[1]):
            col = [exact[i][j] for i in idx]
            mean = sum(col) / len(col)
            total += sum((c - mean) ** 2 for c in col)
        return total

    def grow(idx, depth_left):
        leaf = ("leaf", y[idx].mean(axis=0))
        if depth_left == 0 or len(idx) < 2 * min_leaf:
            return leaf
        parent = sse(idx)
        if parent == 0:
            return leaf
        best = None
        for f in range(x.shape[1]):
            values = np.unique(x[idx, f])
            for a, b in zip(values, values[1:]):
                thr = (a + b) / 2.0
                mask = x[idx, f] <= thr
                if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                    continue
                gain = parent - sse(idx[mask]) - sse(idx[~mask])
                if best is None or gain > best[0]:
                    best = (gain, f, thr)
        if best is None or not best[0] > Fraction(1e-10) * (1 + parent):
            return leaf
        _, f, thr = best
        mask = x[idx, f] <= thr
        return (f, thr, grow(idx[mask], depth_left - 1),
                grow(idx[~mask], depth_left - 1))

    return grow(np.arange(x.shape[0]), depth)


def splits_before(tree: TreeArrays, i: int) -> int:
    return int((tree.feature[:i] >= 0).sum())


def children(tree: TreeArrays, i: int):
    """Level order: a tree's k-th split node has children 2k+1 and 2k+2."""
    k = splits_before(tree, i)
    return 2 * k + 1, 2 * k + 2


def threshold_of(tree: TreeArrays, i: int) -> float:
    return float(tree.threshold[splits_before(tree, i)])


def value_of(tree: TreeArrays, i: int) -> np.ndarray:
    """Leaf i's value: value holds leaves only, in node order."""
    return tree.value[i - splits_before(tree, i)]


def nested(tree: TreeArrays, i: int = 0):
    """("leaf", value) or (feature, threshold, left, right) from node i down."""
    if tree.feature[i] < 0:
        return ("leaf", value_of(tree, i))
    left, right = children(tree, i)
    return (int(tree.feature[i]), threshold_of(tree, i),
            nested(tree, left), nested(tree, right))


def same_nested(a, b, thresholds=True) -> bool:
    """Topology and leaf payloads match; thresholds too unless told not to."""
    if (a[0] == "leaf") != (b[0] == "leaf"):
        return False
    if a[0] == "leaf":
        return np.allclose(a[1], b[1], atol=1e-9)
    return (a[0] == b[0] and (not thresholds or a[1] == b[1])
            and same_nested(a[2], b[2], thresholds)
            and same_nested(a[3], b[3], thresholds))


def same_shape(a: TreeArrays, b: TreeArrays) -> bool:
    """Topology and leaf payloads match; thresholds are allowed to differ."""
    return same_nested(nested(a), nested(b), thresholds=False)


def max_path(tree: TreeArrays, i: int = 0) -> int:
    if tree.feature[i] < 0:
        return 0
    return 1 + max(max_path(tree, child) for child in children(tree, i))


def leaf_tree(*value):
    return TreeArrays(feature=[-1], threshold=[], value=[value], roots=[0])


def no_trees():
    return TreeArrays(feature=[], threshold=[], value=np.zeros((0, 1)), roots=[])


def walk_builds_tree(is_split) -> bool:
    """Explicit oracle: give each tree's k-th split node children 2k+1 and
    2k+2 and walk them from the root; a tree needs every child past its
    parent and inside the sequence, and reaches each node exactly once.
    """
    before = list(itertools.accumulate(is_split, initial=0))
    seen, stack = set(), [0]
    while stack:
        i = stack.pop()
        if i in seen:
            return False
        seen.add(i)
        if is_split[i]:
            for child in (2 * before[i] + 1, 2 * before[i] + 2):
                if not i < child < len(is_split):
                    return False
                stack.append(child)
    return len(seen) == len(is_split)


def from_splits(*trees_is_split) -> TreeArrays:
    """Trees of the given split/leaf sequences back to back; feature 0 splits."""
    is_split = [s for tree in trees_is_split for s in tree]
    sizes = [len(tree) for tree in trees_is_split]
    return TreeArrays(feature=[0 if s else -1 for s in is_split],
                      threshold=[0.5] * sum(is_split),
                      value=np.ones((len(is_split) - sum(is_split), 1)),
                      roots=np.cumsum([0] + sizes[:-1]))


STEP_X = np.array([[1.0], [2.0], [3.0], [4.0]])
STEP_Y = np.array([[0.0], [0.0], [10.0], [10.0]])

# Four candidates tie exactly: features 0 and 1 each split the rows into
# {sum 4, count 2} and {sum 24, count 4}, at two thresholds apiece, with
# different rows on each side. The frozen rule picks feature 0's lower one.
TIE_X = np.array([[1.0, 5.0], [2.0, 6.0], [5.0, 1.0],
                  [6.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
TIE_Y = np.array([[1.0], [3.0], [2.0], [2.0], [10.0], [10.0]])


class TestTree:
    def test_constant_target_yields_single_leaf(self):
        tree = tree_fit(np.arange(12.0).reshape(6, 2), np.full((6, 2), 3.5),
                        min_samples_leaf=1)
        assert tree.feature.tolist() == [-1]
        assert np.allclose(tree.value[0], [3.5, 3.5])

    def test_step_split_matches_brute_force_oracle(self):
        tree = tree_fit(STEP_X, STEP_Y, max_depth=1, min_samples_leaf=1)
        f, thr, _ = brute_force_best_split(STEP_X, STEP_Y, 1)
        assert tree.feature[0] == f
        assert tree.threshold[0] == pytest.approx(thr)
        assert 2.0 < tree.threshold[0] <= 3.0
        assert np.allclose(value_of(tree, 1), [0.0])
        assert np.allclose(value_of(tree, 2), [10.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_split_matches_oracle_on_random_data(self, seed):
        rng = Rng(seed)
        x = rng.uniform_array((40, 3), -2.0, 2.0)
        y = rng.uniform_array((40, 2), -1.0, 1.0)
        tree = tree_fit(x, y, max_depth=1, min_samples_leaf=5)
        f, thr, _ = brute_force_best_split(x, y, 5)
        assert (tree.feature[0], tree.threshold[0]) == (f, pytest.approx(thr))

    @pytest.mark.parametrize("depth", [3, 4, 5, 6])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_whole_tree_matches_recursive_brute_force(self, depth, min_leaf):
        # integer data: repeated values and exact gain ties at many nodes
        rng = Rng(100 * depth + min_leaf)
        x = np.floor(rng.uniform_array((36, 3), 0.0, 6.0))
        y = np.floor(rng.uniform_array((36, 2), -4.0, 5.0))
        tree = tree_fit(x, y, max_depth=depth, min_samples_leaf=min_leaf)
        assert same_nested(nested(tree), brute_force_tree(x, y, depth, min_leaf))
        # continuous data: every node's split is unique
        x = rng.uniform_array((36, 3), -1.0, 1.0)
        y = rng.uniform_array((36, 2), -3.0, 3.0)
        tree = tree_fit(x, y, max_depth=depth, min_samples_leaf=min_leaf)
        assert same_nested(nested(tree), brute_force_tree(x, y, depth, min_leaf))

    def test_exact_tie_goes_to_lowest_feature_then_threshold(self):
        def exact_gain(f, thr):
            mask = TIE_X[:, f] <= thr
            score = [Fraction(TIE_Y[part].sum()) ** 2 / int(part.sum())
                     for part in (mask, ~mask)]
            return sum(score) - Fraction(TIE_Y.sum()) ** 2 / len(TIE_Y)

        gains = {exact_gain(f, thr) for f in (0, 1) for thr in (2.5, 4.5)}
        assert len(gains) == 1
        tree = tree_fit(TIE_X, TIE_Y, max_depth=1, min_samples_leaf=1)
        assert (tree.feature[0], tree.threshold[0]) == (0, 2.5)

    def test_memorizes_unique_rows_at_unlimited_depth(self):
        rng = Rng(9)
        x = rng.uniform_array((64, 4))
        y = rng.uniform_array((64, 3), -5.0, 5.0)
        tree = tree_fit(x, y, max_depth=64, min_samples_leaf=1)
        assert float(((tree_predict(tree, x) - y) ** 2).mean()) < 1e-12

    def test_depth_and_leaf_size_limits_hold(self):
        rng = Rng(10)
        x = rng.uniform_array((200, 3))
        y = rng.uniform_array((200, 1))
        tree = tree_fit(x, y, max_depth=3, min_samples_leaf=10)
        assert max_path(tree) <= 3

        # route train rows and count occupancy per leaf
        counts = {}
        def walk(i, idx):
            if tree.feature[i] < 0:
                counts[i] = len(idx)
                return
            mask = x[idx, tree.feature[i]] <= threshold_of(tree, i)
            left, right = children(tree, i)
            walk(left, idx[mask])
            walk(right, idx[~mask])
        walk(0, np.arange(200))
        assert min(counts.values()) >= 10

    def test_boundary_value_routes_left(self):
        tree = tree_fit(STEP_X, STEP_Y, max_depth=1, min_samples_leaf=1)
        at_threshold = np.array([[tree.threshold[0]]])
        assert np.allclose(tree_predict(tree, at_threshold), value_of(tree, 1))

    def test_leaf_only_tree_predicts_constant(self):
        got = tree_predict(leaf_tree(7.0, -1.0), np.zeros((5, 9)))
        assert np.allclose(got, np.tile([7.0, -1.0], (5, 1)))

    def test_topology_invariant_under_monotone_feature_transform(self):
        rng = Rng(4)
        x = rng.uniform_array((60, 3), 0.1, 2.0)
        y = rng.uniform_array((60, 2), -3.0, 3.0)
        base = tree_fit(x, y, max_depth=4, min_samples_leaf=2)
        warped = x.copy()
        warped[:, 0] = np.exp(warped[:, 0])
        warped[:, 2] = warped[:, 2] ** 3 + 2.0 * warped[:, 2]
        again = tree_fit(warped, y, max_depth=4, min_samples_leaf=2)
        assert same_shape(base, again)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            tree_fit(np.zeros((0, 2)), np.zeros((0, 1)))
        with pytest.raises(ValueError, match="at least"):
            tree_fit(np.ones((5, 1)), np.ones((5, 1)), min_samples_leaf=3)
        with pytest.raises(ValueError, match="rows"):
            tree_fit(np.ones((4, 1)), np.ones((3, 1)))
        tree = tree_fit(STEP_X, STEP_Y, min_samples_leaf=1)
        with pytest.raises(ValueError, match="columns"):
            tree_predict(tree, np.ones((2, 0)))

    def test_node_construction_rules(self):
        def split_root(**changes):
            fields = dict(feature=[0, -1, -1], threshold=[1.0],
                          value=[[1.0], [2.0]], roots=[0])
            fields.update(changes)
            return TreeArrays(**fields)

        split_root()  # well-formed
        with pytest.raises(ValueError, match="level by level"):
            split_root(feature=[-1, 0, -1])  # a leaf root followed by a split
        with pytest.raises(ValueError, match="level by level"):
            split_root(feature=[0, 0, 0, -1, -1], threshold=[1.0] * 3)  # 3 in 5
        with pytest.raises(ValueError, match="disagree"):
            split_root(threshold=[1.0, 2.0])
        with pytest.raises(ValueError, match="disagree"):
            split_root(value=[[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="integers"):
            split_root(feature=[0.5, -1, -1])
        with pytest.raises(ValueError, match="column indices"):
            split_root(feature=[0, -2, -1])
        with pytest.raises(ValueError, match="finite"):
            split_root(value=[[1.0], [np.inf]])
        with pytest.raises(ValueError, match="finite"):
            split_root(threshold=[np.nan])
        with pytest.raises(ValueError, match="roots"):
            split_root(roots=[1])

    def test_feature_takes_the_smallest_signed_type(self):
        assert leaf_tree(1.0).feature.dtype == np.int8
        wide = TreeArrays(feature=[300, -1, -1], threshold=[0.5],
                          value=np.ones((2, 1)), roots=[0])
        assert wide.feature.dtype == np.int16 and wide.feature[0] == 300

    def test_accepts_exactly_what_an_explicit_walk_builds(self):
        # every split/leaf sequence of 1-13 nodes; full binary trees of 2n+1
        # nodes in level order number Catalan(n): 1+1+2+5+14+42+132 in all
        accepted = 0
        for m in range(1, 14):
            for is_split in itertools.product((False, True), repeat=m):
                try:
                    from_splits(is_split)
                    ok = True
                except ValueError:
                    ok = False
                assert ok == walk_builds_tree(is_split), is_split
                accepted += ok
        assert accepted == 197
        # back to back, trees are accepted exactly when each one is alone
        short = [s for m in range(1, 6)
                 for s in itertools.product((False, True), repeat=m)]
        for a, b in itertools.product(short, repeat=2):
            try:
                from_splits(a, b)
                ok = True
            except ValueError:
                ok = False
            assert ok == (walk_builds_tree(a) and walk_builds_tree(b)), (a, b)


class TestForest:
    def test_same_seed_is_bit_identical(self):
        rng = Rng(2)
        x = rng.uniform_array((80, 3))
        y = rng.uniform_array((80, 1))
        a = forest_fit(x, y, n_estimators=12, max_depth=5, seed=77)
        b = forest_fit(x, y, n_estimators=12, max_depth=5, seed=77)
        assert np.array_equal(forest_predict(a, x), forest_predict(b, x))
        for name in ("feature", "threshold", "value", "roots"):
            assert np.array_equal(getattr(a.trees, name), getattr(b.trees, name))

    def test_members_are_trees_on_the_seeded_bootstraps(self):
        rng = Rng(5)
        x = rng.uniform_array((40, 2))
        y = rng.uniform_array((40, 2))
        forest = forest_fit(x, y, n_estimators=3, max_depth=4, seed=11)
        for t in range(3):
            idx = Rng(11).spawn(t).integers(0, 40, 40)
            again = tree_fit(x[idx], y[idx], max_depth=4, min_samples_leaf=1)
            member = forest.trees.member(t)
            for name in ("feature", "threshold", "value"):
                assert np.array_equal(getattr(member, name), getattr(again, name))

    def test_different_seed_changes_bootstrap(self):
        x = np.arange(40.0).reshape(20, 2)
        y = np.arange(20.0).reshape(20, 1)
        a = forest_fit(x, y, n_estimators=3, max_depth=2, seed=1)
        b = forest_fit(x, y, n_estimators=3, max_depth=2, seed=2)
        assert any(not np.array_equal(a.trees.member(t).threshold,
                                      b.trees.member(t).threshold)
                   for t in range(3))

    def test_prediction_is_mean_of_member_trees(self):
        rng = Rng(3)
        x = rng.uniform_array((60, 2))
        y = rng.uniform_array((60, 2))
        forest = forest_fit(x, y, n_estimators=7, max_depth=4, seed=0)
        member = np.mean([tree_predict(forest.trees.member(t), x)
                          for t in range(forest.trees.n_trees)], axis=0)
        assert np.allclose(forest_predict(forest, x), member, atol=1e-12)

    def test_bagging_beats_one_tree_on_smooth_target(self):
        # depth-limited trees leave cell-boundary error; averaging shrinks it
        deltas = []
        for seed in range(10):
            rng = Rng(100 + seed)
            x = rng.uniform_array((150, 2), -1.0, 1.0)
            x_test = rng.uniform_array((80, 2), -1.0, 1.0)
            def target(m):
                return (m[:, :1] + 2.0 * m[:, 1:]) ** 2
            tree = tree_fit(x, target(x), max_depth=5, min_samples_leaf=1)
            forest = forest_fit(x, target(x), n_estimators=20, max_depth=5,
                                seed=seed)
            tree_mse = float(((tree_predict(tree, x_test) - target(x_test)) ** 2).mean())
            forest_mse = float(((forest_predict(forest, x_test) - target(x_test)) ** 2).mean())
            deltas.append(forest_mse - tree_mse)
        assert np.mean(deltas) <= 0.0

    def test_forest_validation(self):
        with pytest.raises(ValueError, match="n_estimators"):
            forest_fit(np.ones((4, 1)), np.ones((4, 1)), n_estimators=0)
        with pytest.raises(ValueError):
            ForestModel(trees=no_trees(), seed=0)


class TestGbtPieces:
    def test_leaf_weight_hand_values(self):
        assert gbt_leaf_weight(4.0, 3.0, 1.0) == pytest.approx(-1.0)
        assert gbt_leaf_weight(0.0, 5.0, 1.0) == 0.0

    def test_leaf_weight_shrinks_monotonically_with_lambda(self):
        weights = [abs(gbt_leaf_weight(4.0, 3.0, lam))
                   for lam in (0.0, 1.0, 10.0, 100.0, 1e6)]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] < 1e-5

    def test_leaf_weight_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="positive"):
            gbt_leaf_weight(1.0, 0.0, 0.0)

    def test_split_gain_hand_values(self):
        assert gbt_split_gain(0.0, 4.0, 0.0, 4.0, 1.0, 0.75) == pytest.approx(-0.75)
        assert gbt_split_gain(2.0, 1.0, -2.0, 1.0, 1.0, 0.0) == pytest.approx(2.0)
        assert gbt_split_gain(2.0, 1.0, -2.0, 1.0, 1.0, 0.5) == pytest.approx(1.5)

    def test_split_gain_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="positive"):
            gbt_split_gain(1.0, -2.0, 1.0, 1.0, 0.0, 0.0)


def chain_tree(model: GbtModel, j: int, r: int) -> TreeArrays:
    return model.trees.member(j * model.rounds + r)


def assert_same_chain(model: GbtModel, j: int, alone: GbtModel):
    """Chain j of `model` equals the one chain of `alone`, array for array."""
    assert model.rounds == alone.rounds
    assert model.base_score[j] == alone.base_score[0]
    for r in range(model.rounds):
        a, b = chain_tree(model, j, r), chain_tree(alone, 0, r)
        for name in ("feature", "threshold", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (j, r, name)


def models_table(count=500, seed=4):
    """A table shaped like the models workload's: 11 features, 5 targets."""
    records, _ = run_pipeline(generate(SynthConfig(count=count, seed=seed)).flights)
    table = build_table(records, fit_codebook(records), "components")
    return table.x, table.y


class TestGbt:
    def test_single_full_round_matches_plain_tree_on_step(self):
        model = gbt_fit(STEP_X, STEP_Y, rounds=1, learning_rate=1.0,
                        max_depth=10, reg_lambda=0.0, gamma=0.0)
        tree = tree_fit(STEP_X, STEP_Y, max_depth=10, min_samples_leaf=1)
        assert np.allclose(gbt_predict(model, STEP_X),
                           tree_predict(tree, STEP_X), atol=1e-12)

    @pytest.mark.parametrize("seed,reg_lambda,gamma",
                             [(0, 1.0, 0.0), (1, 0.0, 0.0), (2, 5.0, 0.1)])
    def test_first_split_matches_oracle_on_random_data(self, seed, reg_lambda, gamma):
        rng = Rng(30 + seed)
        x = rng.uniform_array((40, 3), -2.0, 2.0)
        y = rng.uniform_array((40, 1), -3.0, 3.0)
        model = gbt_fit(x, y, rounds=1, learning_rate=1.0, max_depth=1,
                        reg_lambda=reg_lambda, gamma=gamma)
        f, thr, gain = brute_force_gbt_split(x, y.mean() - y[:, 0], reg_lambda, gamma)
        assert gain > 0.0
        root = chain_tree(model, 0, 0)
        assert (root.feature[0], root.threshold[0]) == (f, pytest.approx(thr))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("reg_lambda,gamma", [(1.0, 0.0), (0.0, 0.0), (5.0, 0.1)])
    def test_whole_round_matches_recursive_brute_force(self, seed, reg_lambda, gamma):
        # integer features: repeated values, and candidates of different
        # features that cut the rows alike tie exactly
        rng = Rng(40 + seed)
        x = np.floor(rng.uniform_array((40, 3), 0.0, 5.0))
        y = rng.uniform_array((40, 2), -3.0, 3.0)
        model = gbt_fit(x, y, rounds=1, learning_rate=1.0, max_depth=3,
                        reg_lambda=reg_lambda, gamma=gamma)
        for j in range(2):
            want = brute_force_gbt_tree(x, model.base_score[j] - y[:, j], 3,
                                        reg_lambda, gamma)
            assert same_nested(nested(chain_tree(model, j, 0)), want)

    @pytest.mark.parametrize("block_nodes", [None, 1, 3])
    @pytest.mark.parametrize("data", ["models", "ties"])
    def test_chains_do_not_couple(self, monkeypatch, data, block_nodes):
        # integer targets: each column's mean is exact, so the base scores
        # agree whether numpy sums one column or several
        if data == "models":
            x, y = models_table()
            kw = {"rounds": 3, "max_depth": 6}
        else:
            rng = Rng(27)
            x = np.floor(rng.uniform_array((60, 3), 0.0, 4.0))
            y = np.floor(rng.uniform_array((60, 3), -4.0, 5.0))
            kw = {"rounds": 4, "max_depth": 4, "reg_lambda": 0.0}
        whole = gbt_fit(x, y, **kw)
        if block_nodes is not None:
            # dense histograms of `block_nodes` nodes: every level in blocks
            values = sum(np.unique(column).size for column in x.T)
            monkeypatch.setattr(trees, "_HIST_BINS", block_nodes * values)
            blocked = gbt_fit(x, y, **kw)
            for name in ("feature", "threshold", "value", "roots"):
                assert np.array_equal(getattr(blocked.trees, name),
                                      getattr(whole.trees, name))
        for j in range(y.shape[1]):
            assert_same_chain(whole, j, gbt_fit(x, y[:, [j]], **kw))

    def test_chains_do_not_couple_on_fractional_targets(self):
        # each base score is its own column's pairwise mean, as a one-target
        # fit takes it; numpy's mean over axis 0 of several columns sums row
        # by row and differs from it in the last bit on these targets
        rng = np.random.default_rng(0)
        y = rng.normal(size=(5000, 3))
        x = np.floor(rng.uniform(0.0, 6.0, size=(5000, 3)))
        assert not np.array_equal(y.mean(axis=0), [y[:, [j]].mean() for j in range(3)])
        whole = gbt_fit(x, y, rounds=2, max_depth=3)
        for j in range(3):
            assert_same_chain(whole, j, gbt_fit(x, y[:, [j]], rounds=2, max_depth=3))

    def test_exact_tie_goes_to_lowest_feature_then_threshold(self):
        g = TIE_Y.mean() - TIE_Y[:, 0]
        f, thr, _ = brute_force_gbt_split(TIE_X, g, 1.0, 0.0)
        assert (f, thr) == (0, 2.5)
        model = gbt_fit(TIE_X, TIE_Y, rounds=1, learning_rate=1.0, max_depth=1)
        root = chain_tree(model, 0, 0)
        assert (root.feature[0], root.threshold[0]) == (0, 2.5)

    def test_train_mse_nonincreasing_across_rounds(self):
        rng = Rng(21)
        x = rng.uniform_array((120, 3))
        y = rng.uniform_array((120, 2), -4.0, 4.0)
        model = gbt_fit(x, y, rounds=20, learning_rate=0.3, max_depth=3)
        pred = np.tile(model.base_score, (120, 1))
        last = float(((pred - y) ** 2).mean())
        for r in range(model.rounds):
            for j in range(2):
                pred[:, j] += model.learning_rate * tree_predict(
                    chain_tree(model, j, r), x)[:, 0]
            mse = float(((pred - y) ** 2).mean())
            assert mse <= last + 1e-12
            last = mse

    def test_predict_matches_incremental_accumulation(self):
        rng = Rng(22)
        x = rng.uniform_array((60, 2))
        y = rng.uniform_array((60, 3))
        model = gbt_fit(x, y, rounds=8, learning_rate=0.5, max_depth=2)
        pred = np.tile(model.base_score, (60, 1))
        for r in range(model.rounds):
            for j in range(3):
                pred[:, j] += model.learning_rate * tree_predict(
                    chain_tree(model, j, r), x)[:, 0]
        assert np.allclose(gbt_predict(model, x), pred, atol=1e-12)

    def test_prediction_in_row_blocks_matches_one_block(self, monkeypatch):
        rng = Rng(26)
        x = rng.uniform_array((50, 3))
        y = rng.uniform_array((50, 2))
        boosted = gbt_fit(x, y, rounds=3, max_depth=3)
        forest = forest_fit(x, y, n_estimators=3, max_depth=4, seed=1)
        whole = gbt_predict(boosted, x), forest_predict(forest, x)
        monkeypatch.setattr(trees, "_ROUTE_ENTRIES", 7)  # a few rows per block
        assert np.array_equal(gbt_predict(boosted, x), whole[0])
        assert np.array_equal(forest_predict(forest, x), whole[1])

    def test_zero_learning_rate_stays_at_base_score(self):
        rng = Rng(23)
        x = rng.uniform_array((30, 2))
        y = rng.uniform_array((30, 2))
        model = gbt_fit(x, y, rounds=5, learning_rate=0.0, max_depth=2)
        assert np.allclose(gbt_predict(model, x),
                           np.tile(y.mean(axis=0), (30, 1)), atol=1e-12)

    def test_zero_rounds_model_predicts_base_score(self):
        model = GbtModel(base_score=np.array([2.0, -1.0]), learning_rate=0.3,
                         reg_lambda=1.0, gamma=0.0, trees=no_trees())
        assert model.rounds == 0
        got = gbt_predict(model, np.zeros((4, 6)))
        assert np.allclose(got, np.tile([2.0, -1.0], (4, 1)))

    def test_large_gamma_blocks_every_split(self):
        rng = Rng(24)
        x = rng.uniform_array((50, 2))
        y = rng.uniform_array((50, 1), -2.0, 2.0)
        model = gbt_fit(x, y, rounds=4, learning_rate=1.0, max_depth=6,
                        gamma=1e9)
        assert (model.trees.feature == -1).all()
        assert np.allclose(gbt_predict(model, x),
                           np.tile(y.mean(axis=0), (50, 1)), atol=1e-12)

    def test_output_shape_and_validation(self):
        rng = Rng(25)
        x = rng.uniform_array((20, 2))
        y = rng.uniform_array((20, 5))
        model = gbt_fit(x, y, rounds=2, max_depth=2)
        assert gbt_predict(model, x).shape == (20, 5)
        with pytest.raises(ValueError, match="rounds"):
            gbt_fit(x, y, rounds=0)
        with pytest.raises(ValueError, match="learning_rate"):
            gbt_fit(x, y, rounds=1, learning_rate=1.5)
        with pytest.raises(ValueError, match="at least 2"):
            gbt_fit(np.ones((1, 2)), np.ones((1, 1)), rounds=1)

    @pytest.mark.parametrize("rate", [1.5, -0.1, float("nan")])
    def test_learning_rate_is_checked_before_any_tree_grows(self, monkeypatch, rate):
        def grow(*args, **kwargs):
            raise AssertionError("a tree was grown")

        monkeypatch.setattr(trees, "_grow_chains", grow)
        x = Rng(26).uniform_array((40, 3))
        with pytest.raises(AssertionError, match="a tree was grown"):
            gbt_fit(x, x[:, :1], rounds=20, learning_rate=0.3)  # the patch is live
        with pytest.raises(ValueError, match="learning_rate"):
            gbt_fit(x, x[:, :1], rounds=20, learning_rate=rate)
