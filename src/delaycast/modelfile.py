"""Save/load for every trained model kind over the tensor container format.

Tree kinds store their `TreeArrays` as four tensors, the same for a tree,
a forest and a boosting model, and nothing the level order implies:
trees.threshold (split nodes only, in node order), trees.value (float64,
one row per node), trees.roots (int64, each tree's first node) and
trees.feature (one entry per node, -1 marking a leaf, in the smallest
signed integer type that holds the largest feature index). Children are
not stored: a tree's k-th split node has its children at 2k+1 and 2k+2
from its root, and leaves read back threshold 0.0, so only trees in that
layout are saved and each round-trips bit for bit. Forest members are
recomputed from the stored seed, not stored. The neural kinds persist
their parameter dict under a "net." prefix next to the rebuild spec. The
container checks a CRC-32 of the payload.
"""

from __future__ import annotations

import numpy as np

from .container import ModelFileError, read_container, write_container
from .features import Standardizer
from .linear import LinearModel
from .regressors import MODEL_KINDS, TrainedModel
from .neural import build_from_spec
from .trees import ForestModel, GbtModel, TreeArrays, level_order_children


def _tree_tensors(trees: TreeArrays) -> dict:
    left, right = level_order_children(trees.feature, trees.roots)
    if not (np.array_equal(trees.left, left) and np.array_equal(trees.right, right)):
        raise ModelFileError("tree nodes must be numbered level by level")
    split = left >= 0
    leaf_threshold = trees.threshold[~split]
    if (leaf_threshold != 0.0).any() or np.signbit(leaf_threshold).any():
        raise ModelFileError("leaf thresholds must be 0.0")
    width = np.min_scalar_type(-1 - int(trees.feature.max(initial=0)))
    # feature last: the 8-byte tensors before it stay aligned when read
    return {"trees.threshold": trees.threshold[split], "trees.value": trees.value,
            "trees.roots": trees.roots, "trees.feature": trees.feature.astype(width)}


def _load_trees(tensors) -> TreeArrays:
    feature, roots = tensors["trees.feature"], tensors["trees.roots"]
    left, right = level_order_children(feature, roots)
    split = left >= 0
    stored = tensors["trees.threshold"]
    if stored.shape != (int(split.sum()),):
        raise ModelFileError(f"{stored.size} thresholds disagree with "
                             f"{int(split.sum())} split nodes")
    threshold = np.zeros(split.size)
    threshold[split] = stored
    return TreeArrays(feature, threshold, left, right, tensors["trees.value"], roots)


def _inner_tensors(trained: TrainedModel):
    """(tensors, payload) for the model-specific part of the file."""
    inner = trained.inner
    if trained.kind == "ols":
        return {"beta": inner.beta}, {"columns": list(trained.used_columns)}
    if trained.kind == "tree":
        return _tree_tensors(inner), {}
    if trained.kind == "forest":
        return _tree_tensors(inner.trees), {"seed": inner.seed}
    if trained.kind == "gbt":
        tensors = {"base_score": inner.base_score, **_tree_tensors(inner.trees)}
        return tensors, {"learning_rate": inner.learning_rate,
                         "reg_lambda": inner.reg_lambda, "gamma": inner.gamma}
    # neural kinds: network params plus the input/target scaling state
    tensors = {f"net.{name}": value for name, value in inner.params.items()}
    tensors["scaler.means"] = trained.scaler.means
    tensors["scaler.stds"] = trained.scaler.stds
    tensors["input.offset"] = trained.input_offset
    tensors["target.offset"] = trained.target_offset
    payload = {"spec": inner.spec,
               "scaler_columns": list(trained.scaler.columns),
               "target_scale": trained.target_scale}
    return tensors, payload


def save_model(trained: TrainedModel, path) -> None:
    """Write one self-describing, checksummed model file."""
    tensors, payload = _inner_tensors(trained)
    meta = {
        "kind": trained.kind,
        "target_mode": trained.target_mode,
        "feature_names": list(trained.feature_names),
        "window": trained.window,
        "codebook": {c: list(v) for c, v in trained.codebook_columns.items()},
        "settings": trained.settings,
        "payload": payload,
    }
    write_container(path, meta, tensors)


def _load_ols(meta, tensors):
    return LinearModel(beta=tensors["beta"])


def _load_gbt(meta, tensors):
    payload = meta["payload"]
    return GbtModel(base_score=tensors["base_score"],
                    learning_rate=payload["learning_rate"],
                    reg_lambda=payload["reg_lambda"], gamma=payload["gamma"],
                    trees=_load_trees(tensors))


def load_model(path) -> TrainedModel:
    """Rebuild a TrainedModel; raises ModelFileError on anything off."""
    meta, tensors = read_container(path)
    kind = meta.get("kind")
    if kind not in MODEL_KINDS:
        raise ModelFileError(f"unknown model kind {kind!r} in file")
    for key in ("target_mode", "feature_names", "window", "codebook", "payload"):
        if key not in meta:
            raise ModelFileError(f"model file missing {key!r} metadata")

    names = tuple(meta["feature_names"])
    common = dict(kind=kind, target_mode=meta["target_mode"],
                  feature_names=names,
                  codebook_columns={c: tuple(v)
                                    for c, v in meta["codebook"].items()},
                  window=meta["window"], settings=meta.get("settings", {}))
    k = 5 if meta["target_mode"] == "components" else 1
    try:
        if kind == "ols":
            return TrainedModel(inner=_load_ols(meta, tensors),
                                used_columns=tuple(meta["payload"]["columns"]),
                                **common)
        if kind in ("tree", "forest"):
            trees = _load_trees(tensors)
            if trees.value.shape[1] != k:
                raise ModelFileError(f"tree values are {trees.value.shape[1]} "
                                     f"wide, expected {k}")
            if kind == "forest":
                trees = ForestModel(trees=trees, seed=meta["payload"]["seed"])
            return TrainedModel(inner=trees, **common)
        if kind == "gbt":
            return TrainedModel(inner=_load_gbt(meta, tensors), **common)
        payload = meta["payload"]
        model = build_from_spec(payload["spec"])
        model.load_params({name[len("net."):]: value
                           for name, value in tensors.items()
                           if name.startswith("net.")})
        scaler = Standardizer(feature_names=names,
                              columns=tuple(payload["scaler_columns"]),
                              means=tensors["scaler.means"],
                              stds=tensors["scaler.stds"])
        return TrainedModel(inner=model, scaler=scaler,
                            input_offset=tensors["input.offset"],
                            target_offset=tensors["target.offset"],
                            target_scale=payload["target_scale"], **common)
    except ModelFileError:
        raise
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise ModelFileError(f"model file is inconsistent: {exc}") from exc
