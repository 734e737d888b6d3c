"""Round-trip, corruption, and cross-kind checks for the model file format."""

import tracemalloc

import numpy as np
import pytest

from delaycast.container import ModelFileError, read_container, write_container
from delaycast.features import chronological_split
from delaycast.modelfile import load_model, save_model
from delaycast.regressors import FitOptions, TrainedModel, predict_table, train_model
from delaycast.trees import TreeArrays, tree_predict

from test_regressors import make_table

KIND_OPTIONS = {
    "ols": FitOptions(),
    "tree": FitOptions(max_depth=4),
    "forest": FitOptions(n_estimators=3, max_depth=3, seed=9),
    "gbt": FitOptions(rounds=4, max_depth=2),
    "mlp": FitOptions(epochs=2, seed=1),
    "lstm": FitOptions(window=3, epochs=1, batch_size=64, seed=1),
    "bilstm": FitOptions(window=2, epochs=1, batch_size=64, seed=1),
    "hybrid": FitOptions(window=4, epochs=1, batch_size=64, seed=1),
}


@pytest.fixture(scope="module")
def split_tables():
    return chronological_split(make_table(count=200, seed=6))


@pytest.mark.parametrize("kind", sorted(KIND_OPTIONS))
def test_round_trip_predictions_identical(kind, split_tables, tmp_path):
    train_t, test_t = split_tables
    trained, _ = train_model(train_t, kind, KIND_OPTIONS[kind])
    path = tmp_path / f"{kind}.model"
    save_model(trained, path)
    loaded = load_model(path)
    assert loaded.kind == trained.kind
    assert loaded.window == trained.window
    assert loaded.feature_names == trained.feature_names
    assert loaded.codebook_columns == trained.codebook_columns
    assert loaded.settings == trained.settings
    assert np.array_equal(predict_table(loaded, test_t),
                          predict_table(trained, test_t))


@pytest.mark.parametrize("kind", ["mlp", "lstm", "bilstm", "hybrid"])
def test_loaded_network_parameters_are_views_of_its_vector(kind, split_tables,
                                                           tmp_path):
    trained, _ = train_model(split_tables[0], kind, KIND_OPTIONS[kind])
    save_model(trained, tmp_path / "net.model")
    net = load_model(tmp_path / "net.model").inner
    assert np.array_equal(net.vector, trained.inner.vector)
    assert all(np.shares_memory(p, net.vector) for p in net.params.values())


def test_save_is_deterministic(split_tables, tmp_path):
    train_t, _ = split_tables
    a, _ = train_model(train_t, "gbt", KIND_OPTIONS["gbt"])
    b, _ = train_model(train_t, "gbt", KIND_OPTIONS["gbt"])
    save_model(a, tmp_path / "a.model")
    save_model(b, tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


class TestTreeMatrix:
    # root splits on feature 2; its right child splits on feature 0
    NODES = dict(feature=[2, -1, 0, -1, -1], threshold=[1.5, 0.0, -3.0, 0.0, 0.0],
                 left=[1, -1, 3, -1, -1], right=[2, -1, 4, -1, -1],
                 value=[[0.0], [1.0], [0.0], [3.0], [5.0]], roots=[0])

    def trained(self, **changes):
        tree = TreeArrays(**{**self.NODES, **changes})
        return TrainedModel(kind="tree", target_mode="total",
                            feature_names=("a", "b", "c"), codebook_columns={},
                            window=1, inner=tree)

    def saved(self, tmp_path, **changes):
        path = tmp_path / "tree.model"
        save_model(self.trained(), path)
        if changes:
            meta, tensors = read_container(path)
            for name, value in changes.items():
                tensors[f"trees.{name}"] = np.asarray(value)
            write_container(path, meta, tensors)
        return path

    def test_level_order_layout(self, tmp_path):
        _, tensors = read_container(self.saved(tmp_path))
        assert tensors["trees.feature"].dtype == np.int8
        assert tensors["trees.feature"].tolist() == [2, -1, 0, -1, -1]
        assert tensors["trees.threshold"].tolist() == [1.5, -3.0]
        assert "trees.left" not in tensors and "trees.right" not in tensors
        assert tensors["trees.value"].shape == (5, 1)
        assert tensors["trees.roots"].tolist() == [0]

    def test_round_trip_routes_identically(self, tmp_path):
        tree = TreeArrays(**self.NODES)
        rebuilt = load_model(self.saved(tmp_path)).inner
        x = np.linspace(-4, 4, 81).reshape(-1, 1).repeat(3, axis=1)
        assert np.array_equal(tree_predict(tree, x), tree_predict(rebuilt, x))

    def test_leaf_width_checked(self, tmp_path):
        path = self.saved(tmp_path, value=np.zeros((5, 2)))
        with pytest.raises(ModelFileError, match="wide"):
            load_model(path)

    def test_bad_child_index(self, tmp_path):
        # three splits in five nodes: the third's children would be 5 and 6
        path = self.saved(tmp_path, feature=[2, 0, 0, -1, -1],
                          threshold=[1.5, 0.5, -3.0])
        with pytest.raises(ModelFileError, match="child index"):
            load_model(path)

    def test_unreachable_rows(self, tmp_path):
        path = self.saved(tmp_path, feature=[2, -1, -1, -1, -1], threshold=[1.5])
        with pytest.raises(ModelFileError, match="unreachable"):
            load_model(path)

    def test_non_integral_feature_refused(self, tmp_path):
        path = self.saved(tmp_path, feature=[2.5, -1.0, 0.0, -1.0, -1.0])
        with pytest.raises(ModelFileError, match="integers"):
            load_model(path)

    def test_save_refuses_other_layouts(self, tmp_path):
        # the root's children swapped places: valid, but not level order
        swapped = self.trained(feature=[2, 0, -1, -1, -1],
                               threshold=[1.5, -3.0, 0.0, 0.0, 0.0],
                               left=[2, 3, -1, -1, -1], right=[1, 4, -1, -1, -1])
        with pytest.raises(ModelFileError, match="level by level"):
            save_model(swapped, tmp_path / "swapped.model")
        for leaf_threshold in (0.25, -0.0):
            odd = self.trained(threshold=[1.5, leaf_threshold, -3.0, 0.0, 0.0])
            with pytest.raises(ModelFileError, match="leaf thresholds"):
                save_model(odd, tmp_path / "odd.model")

    def test_wrong_width(self, tmp_path):
        path = self.saved(tmp_path, threshold=[1.5, 0.0, -3.0, 0.0])
        with pytest.raises(ModelFileError, match="disagree"):
            load_model(path)


@pytest.mark.parametrize("kind", ["forest", "gbt"])
def test_grown_trees_round_trip_bit_for_bit(kind, split_tables, tmp_path):
    trained, _ = train_model(split_tables[0], kind, KIND_OPTIONS[kind])
    save_model(trained, tmp_path / "m.model")
    before, after = trained.inner.trees, load_model(tmp_path / "m.model").inner.trees
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        a, b = getattr(before, name), getattr(after, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


class TestContainer:
    TENSORS = {"code": np.array([3, -1, 7], dtype=np.int8),
               "weight": np.array([[0.5, -2.0]]), "count": np.arange(4)}

    def test_mixed_dtypes_read_back_as_read_only_views(self, tmp_path):
        write_container(tmp_path / "c.bin", {"note": "x"}, self.TENSORS)
        meta, tensors = read_container(tmp_path / "c.bin")
        assert meta == {"note": "x"}
        assert list(tensors) == list(self.TENSORS)
        for name, a in self.TENSORS.items():
            assert tensors[name].dtype == a.dtype
            assert np.array_equal(tensors[name], a)
            assert not tensors[name].flags.writeable

    def test_float64_tensors_declare_no_dtype(self, tmp_path):
        write_container(tmp_path / "c.bin", {}, {"w": np.ones(2), "f": np.ones(2, "f4")})
        header = (tmp_path / "c.bin").read_bytes().split(b"\n", 1)[0]
        assert b"dtype" not in header
        _, tensors = read_container(tmp_path / "c.bin")
        assert tensors["f"].dtype == np.float64

    def test_unsupported_dtype_refused(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {}, self.TENSORS)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b'"dtype":"int8"', b'"dtype":"uint8"', 1))
        with pytest.raises(ModelFileError, match="unsupported tensor declaration"):
            read_container(path)

    def test_payload_length_follows_each_dtype(self, tmp_path):
        # 3 int8 + 2 float64 + 4 int64 = 51 bytes; read as int16 it needs 54
        path = tmp_path / "c.bin"
        write_container(path, {}, self.TENSORS)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b'"dtype":"int8"', b'"dtype":"int16"', 1))
        with pytest.raises(ModelFileError, match="51 bytes but header declares 54"):
            read_container(path)

    def test_neither_side_copies_the_payload(self, tmp_path):
        big = np.arange(32 << 17, dtype=np.float64)   # 32 MiB
        path = tmp_path / "big.bin"
        tracemalloc.start()
        try:
            write_container(path, {}, {"big": big})
            _, written_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _, tensors = read_container(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written_peak < big.nbytes / 4
        assert read_peak < big.nbytes * 1.25
        assert np.array_equal(tensors["big"], big)


class TestCorruption:
    def _saved(self, split_tables, tmp_path):
        train_t, _ = split_tables
        trained, _ = train_model(train_t, "tree", KIND_OPTIONS["tree"])
        path = tmp_path / "m.model"
        save_model(trained, path)
        return path

    def test_flipped_payload_byte(self, split_tables, tmp_path):
        path = self._saved(split_tables, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path)

    def test_truncated_file(self, split_tables, tmp_path):
        path = self._saved(split_tables, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 16])
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_header_tamper(self, split_tables, tmp_path):
        path = self._saved(split_tables, tmp_path)
        blob = path.read_bytes()
        assert b'"version":4' in blob
        path.write_bytes(blob.replace(b'"version":4', b'"version":3', 1))
        with pytest.raises(ModelFileError, match="unsupported container version 3"):
            load_model(path)


class TestCrossKind:
    def test_kind_metadata_must_be_known(self, split_tables, tmp_path):
        path = TestCorruption()._saved(split_tables, tmp_path)
        meta, tensors = read_container(path)
        from delaycast.container import write_container
        meta["kind"] = "perceptron"
        write_container(path, meta, tensors)
        with pytest.raises(ModelFileError, match="perceptron"):
            load_model(path)
