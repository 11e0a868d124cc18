"""Small native operators, synthetic datasets, and evaluation helpers.

Just enough machine learning to drive compiled search spaces end to end:
scalers, a variance filter, feature concatenation, k-nearest neighbors,
gradient-descent logistic regression, a pruned decision tree, a stump, and
a boosting ensemble with an operator-valued base slot. Every fit is
deterministic given its inputs.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from . import operator_graph as og
from . import schema_model
from .operator_graph import (
    ImplementationError,
    Individual,
    ShapeMismatch,
    ToyImplementation,
    register_impl,
)


class ConstraintTrap(ImplementationError):
    """Deliberate fit-time failure of the pruned tree when reduced-error
    pruning is combined with a non-default confidence. This is the late
    runtime error that early schema validation is meant to replace."""


class BadCsv(Exception):
    pass


class LabelColumnMissing(Exception):
    pass


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    X: np.ndarray
    y: np.ndarray
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=int))
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValueError("features must be a nonempty 2-d matrix")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("labels must match the number of rows")
        classes = np.unique(self.y)
        if classes[0] != 0 or classes[-1] != len(classes) - 1:
            raise ValueError("class ids must be contiguous from 0")

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.X[idx], self.y[idx], self.column_names)


def _matrix(X):
    if isinstance(X, tuple):
        raise ShapeMismatch("only a Concat step accepts multiple inputs")
    return np.asarray(X, dtype=float)


# ---------------------------------------------------------------------------
# Transformers


def _fit_noop(config, X, y):
    _matrix(X)
    return {}


def _apply_noop(artifacts, X):
    return _matrix(X)


def _fit_standard_scaler(config, X, y):
    X = _matrix(X)
    with_mean = config.get("withMean", True)
    with_std = config.get("withStd", True)
    mean = X.mean(axis=0) if with_mean else np.zeros(X.shape[1])
    scale = X.std(axis=0) if with_std else np.ones(X.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    return {"mean": mean, "scale": scale}


def _apply_standard_scaler(artifacts, X):
    return (_matrix(X) - artifacts["mean"]) / artifacts["scale"]


def _inverse_standard_scaler(artifacts, X):
    return _matrix(X) * artifacts["scale"] + artifacts["mean"]


def _fit_minmax_scaler(config, X, y):
    X = _matrix(X)
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span == 0.0, 1.0, span)
    return {"lo": lo, "span": span}


def _apply_minmax_scaler(artifacts, X):
    return (_matrix(X) - artifacts["lo"]) / artifacts["span"]


def _inverse_minmax_scaler(artifacts, X):
    return _matrix(X) * artifacts["span"] + artifacts["lo"]


def _fit_select_k_variance(config, X, y):
    X = _matrix(X)
    k = int(config.get("k", 2))
    k = max(1, min(k, X.shape[1]))
    variances = X.var(axis=0)
    ranked = sorted(range(X.shape[1]), key=lambda j: (-variances[j], j))
    return {"columns": np.array(sorted(ranked[:k]), dtype=int)}


def _apply_select_k_variance(artifacts, X):
    return _matrix(X)[:, artifacts["columns"]]


def _fit_concat(config, X, y):
    return {}


def _apply_concat(artifacts, X):
    parts = X if isinstance(X, tuple) else (X,)
    columns = [np.asarray(p, dtype=float).reshape(len(p), -1) for p in parts]
    return np.hstack(columns)


# ---------------------------------------------------------------------------
# k-nearest neighbors


def _fit_knn(config, X, y):
    X = _matrix(X)
    return {
        "X": X,
        "y": np.asarray(y, dtype=int),
        "k": int(config.get("k", 5)),
        "weighting": config.get("weighting", "uniform"),
        "n_classes": int(np.max(y)) + 1,
    }


def _apply_knn(artifacts, X):
    X = _matrix(X)
    train_X, train_y = artifacts["X"], artifacts["y"]
    k = max(1, min(artifacts["k"], len(train_X)))
    d2 = ((X[:, None, :] - train_X[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = np.zeros((len(X), artifacts["n_classes"]))
    for rank in range(k):
        idx = order[:, rank]
        if artifacts["weighting"] == "distance":
            w = 1.0 / (np.sqrt(d2[np.arange(len(X)), idx]) + 1e-12)
        else:
            w = np.ones(len(X))
        np.add.at(votes, (np.arange(len(X)), train_y[idx]), w)
    return votes.argmax(axis=1)


# ---------------------------------------------------------------------------
# Logistic regression by gradient descent (one-vs-rest beyond two classes)


def _fit_logreg(config, X, y):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    lr = float(config.get("learningRate", 0.1))
    iterations = int(config.get("iterations", 100))
    penalty = config.get("penalty", "l2")
    solver = config.get("solver", "gd")
    if solver not in ("gd", "sgd"):
        solver = "gd"
    n_classes = int(y.max()) + 1
    Xb = np.hstack([X, np.ones((len(X), 1))])
    weights = []
    targets = range(1, 2) if n_classes == 2 else range(n_classes)
    for cls in targets:
        weights.append(_logreg_descent(Xb, (y == cls).astype(float), lr, iterations, penalty, solver))
    return {"weights": np.array(weights), "n_classes": n_classes}


def _draw_rows(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` in a few bulk draws.

    ``randrange(n)`` keeps the top ``k = n.bit_length()`` bits of one 32-bit
    Mersenne Twister word and rejects values ``>= n``. ``getrandbits(32 * W)``
    returns W such words, the first drawn least significant, so splitting it
    into little-endian words and applying the same shift and rejection gives
    the same sequence. Unused accepted words are discarded, so ``rng`` ends
    further along its stream than the per-call loop would leave it.
    """
    k = n.bit_length()
    rows = np.empty(0, dtype=np.int64)
    while len(rows) < count:
        words = (count - len(rows)) * (1 << k) // n + 16
        bits = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        drawn = np.frombuffer(bits, dtype="<u4") >> (32 - k)
        rows = np.concatenate([rows, drawn[drawn < n]])
    return rows[:count]


def _logreg_descent(Xb, t, lr, iterations, penalty, solver):
    w = np.zeros(Xb.shape[1])
    lam = 1e-2
    n = len(Xb)
    if solver == "sgd":
        batch = max(1, n // 4)
        draws = _draw_rows(random.Random(13), n, iterations * batch).reshape(iterations, batch)
    for i in range(iterations):
        if solver == "sgd":
            Xs, ts = Xb[draws[i]], t[draws[i]]
        else:
            Xs, ts = Xb, t
        # minimum(maximum(...)) gives np.clip's bits, NaN included, for less call overhead.
        z = np.minimum(np.maximum(Xs @ w, -30.0), 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = Xs.T @ (p - ts) / len(Xs)
        if penalty == "l1":
            grad = grad + lam * np.sign(w)
        else:
            grad = grad + lam * w
        w = w - lr * grad
        np.minimum(np.maximum(w, -1e6, out=w), 1e6, out=w)
        if not np.isfinite(w).all():
            w = np.zeros_like(w)
            break
    return w


def _apply_logreg(artifacts, X):
    X = _matrix(X)
    Xb = np.hstack([X, np.ones((len(X), 1))])
    scores = Xb @ artifacts["weights"].T
    if artifacts["n_classes"] == 2:
        return (scores[:, 0] > 0).astype(int)
    return scores.argmax(axis=1)


# ---------------------------------------------------------------------------
# Decision trees


def _gini(counts):
    """Gini impurity of class counts along the last axis (nonempty rows)."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


def _grow_tree(X, y, n_classes, depth, max_depth):
    counts = np.bincount(y, minlength=n_classes)
    node = {"counts": counts, "label": int(counts.argmax())}
    n = len(y)
    if depth >= max_depth or np.count_nonzero(counts) <= 1 or n < 2:
        return node
    base = _gini(counts)
    # Gini plateaus (parity-style labels) make every cut look equally useless,
    # and tiny edge shavings then win on noise. Regularizing the gain by an
    # imbalance penalty steers plateau ties toward the even cut that actually
    # opens the data up, while real splits (gain well above the penalty scale)
    # are unaffected.
    min_leaf = max(1, n // 20)
    # CART's sweep: the class counts left of every candidate threshold are
    # prefix sums of the one-hot labels in each feature's sorted order. A
    # threshold's left side is every row with value <= threshold, so its size
    # comes from searchsorted(side="right"); that keeps the mask semantics
    # even where a midpoint rounds onto the upper value.
    onehot = np.eye(n_classes, dtype=np.int64)[y]
    features, thresholds, n_lefts, lefts = [], [], [], []
    for feature in range(X.shape[1]):
        column = X[:, feature]
        order = np.argsort(column, kind="stable")
        values = np.unique(column)
        midpoints = (values[:-1] + values[1:]) / 2.0
        n_left = np.searchsorted(column[order], midpoints, side="right")
        keep = (n_left >= min_leaf) & (n - n_left >= min_leaf)
        n_left = n_left[keep]
        features.append(np.full(len(n_left), feature))
        thresholds.append(midpoints[keep])
        n_lefts.append(n_left)
        lefts.append(np.cumsum(onehot[order], axis=0)[n_left - 1])
    n_left = np.concatenate(n_lefts)
    left = np.concatenate(lefts)
    weighted = (n_left * _gini(left) + (n - n_left) * _gini(counts - left)) / n
    gain = base - weighted
    score = gain - 0.05 * np.abs(2 * n_left - n) / n
    viable = ~(gain < -1e-12)
    # Features in order, thresholds ascending; a later candidate must beat the
    # best by more than 1e-12, so near-ties keep the earliest split.
    best = None
    best_score = -1.0
    for feature, threshold, candidate in zip(np.concatenate(features)[viable].tolist(),
                                             np.concatenate(thresholds)[viable].tolist(),
                                             score[viable].tolist()):
        if best is None or candidate > best_score + 1e-12:
            best = (feature, threshold)
            best_score = candidate
    if best is None:
        return node
    feature, threshold = best
    mask = X[:, feature] <= threshold
    node["feature"] = feature
    node["threshold"] = threshold
    node["left"] = _grow_tree(X[mask], y[mask], n_classes, depth + 1, max_depth)
    node["right"] = _grow_tree(X[~mask], y[~mask], n_classes, depth + 1, max_depth)
    return node


def _tree_predict(node, X):
    """Route row indices down the tree with one mask per internal node."""
    out = np.empty(len(X), dtype=int)
    pending = [(node, np.arange(len(X)))]
    while pending:
        node, rows = pending.pop()
        if "feature" not in node:
            out[rows] = node["label"]
        elif len(rows):
            go_left = X[rows, node["feature"]] <= node["threshold"]
            pending.append((node["left"], rows[go_left]))
            pending.append((node["right"], rows[~go_left]))
    return out


def _wilson_upper(errors, n, z) -> float:
    # C4.5-style pessimistic error: upper confidence bound on the error rate.
    if n == 0:
        return 0.0
    e = errors / n
    denom = 1.0 + z * z / n
    center = e + z * z / (2 * n)
    spread = z * math.sqrt(max(e * (1 - e) / n + z * z / (4 * n * n), 0.0))
    return (center + spread) / denom


def _prune_pessimistic(node, z):
    if "feature" not in node:
        return node
    node["left"] = _prune_pessimistic(node["left"], z)
    node["right"] = _prune_pessimistic(node["right"], z)
    n = int(node["counts"].sum())
    leaf_errors = n - int(node["counts"].max())
    subtree = _subtree_pessimistic(node, z)
    if _wilson_upper(leaf_errors, n, z) * n <= subtree + 1e-12:
        return {"counts": node["counts"], "label": node["label"]}
    return node


def _subtree_pessimistic(node, z) -> float:
    if "feature" not in node:
        n = int(node["counts"].sum())
        return _wilson_upper(n - int(node["counts"].max()), n, z) * n
    return _subtree_pessimistic(node["left"], z) + _subtree_pessimistic(node["right"], z)


def _prune_reduced_error(node, X, y):
    if "feature" not in node or len(y) == 0:
        return node
    mask = X[:, node["feature"]] <= node["threshold"]
    node["left"] = _prune_reduced_error(node["left"], X[mask], y[mask])
    node["right"] = _prune_reduced_error(node["right"], X[~mask], y[~mask])
    subtree_errors = int((_tree_predict(node, X) != y).sum())
    leaf_errors = int((y != node["label"]).sum())
    if leaf_errors <= subtree_errors:
        return {"counts": node["counts"], "label": node["label"]}
    return node


def _fit_pruned_tree(config, X, y):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    reduced_error = bool(config.get("R", False))
    confidence = config.get("C", 0.25)
    if reduced_error and confidence != 0.25:
        # The schema encodes (R=true) => (C=0.25); violating configurations
        # must fail here, exactly where late error checking would catch them.
        raise ConstraintTrap(
            f"reduced-error pruning requires confidence 0.25, got {confidence!r}"
        )
    max_depth = int(config.get("maxDepth", 6))
    n_classes = int(y.max()) + 1
    if reduced_error and len(y) >= 8:
        order = list(range(len(y)))
        random.Random(29).shuffle(order)
        cut = max(1, len(y) // 4)
        grow_idx = np.array(order[cut:], dtype=int)
        hold_idx = np.array(order[:cut], dtype=int)
        tree = _grow_tree(X[grow_idx], y[grow_idx], n_classes, 0, max_depth)
        tree = _prune_reduced_error(tree, X[hold_idx], y[hold_idx])
    else:
        tree = _grow_tree(X, y, n_classes, 0, max_depth)
        if not reduced_error:
            z = NormalDist().inv_cdf(1.0 - min(max(float(confidence), 1e-6), 0.499999))
            tree = _prune_pessimistic(tree, z)
    return {"tree": tree, "n_classes": n_classes}


def _apply_tree(artifacts, X):
    return _tree_predict(artifacts["tree"], _matrix(X))


def _fit_stump(config, X, y):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    return {"tree": _grow_tree(X, y, n_classes, 0, 1), "n_classes": n_classes}


# ---------------------------------------------------------------------------
# Boosting over an operator-valued base estimator


_STUMP = Individual(
    name="DecisionStump",
    schema=schema_model.ObjectNode((), additional_allowed=False),
    impl="decision_stump",
)


def _fit_boosted(config, X, y):
    X = _matrix(X)
    y = np.asarray(y, dtype=int)
    base = config.get("base")
    if base is None:
        base = _STUMP
    base = og.configure(base, {})
    n_estimators = int(config.get("n_estimators", 10))
    n_classes = int(y.max()) + 1
    rng = np.random.default_rng(911)
    data = LabeledDataset(X, y)
    weights = np.full(len(y), 1.0 / len(y))
    members = []
    for round_index in range(n_estimators):
        if round_index == 0:
            sample = data  # uniform weights: fit on the data as-is
        else:
            idx = rng.choice(len(y), size=len(y), replace=True, p=weights)
            if len(np.unique(y[idx])) < n_classes:
                idx = np.concatenate([idx, [int(np.argmax(y == c)) for c in range(n_classes)]])
            sample = data.subset(idx)
        trained = og.fit(base, sample)
        pred = og.predict(trained, X)
        miss = pred != y
        err = float(weights[miss].sum())
        if err <= 1e-12:
            members.append((trained, 6.0 + math.log(max(n_classes - 1, 1))))
            break
        alpha = math.log((1.0 - err) / err) + math.log(max(n_classes - 1, 1))
        if alpha <= 0.0:
            if not members:
                members.append((trained, 1.0))
            break
        members.append((trained, alpha))
        weights = weights * np.exp(alpha * miss)
        weights = weights / weights.sum()
    return {"members": members, "n_classes": n_classes}


def _apply_boosted(artifacts, X):
    X = _matrix(X)
    members = artifacts["members"]
    if len(members) == 1:
        return np.asarray(og.predict(members[0][0], X), dtype=int)
    votes = np.zeros((len(X), artifacts["n_classes"]))
    for trained, alpha in members:
        pred = np.asarray(og.predict(trained, X), dtype=int)
        np.add.at(votes, (np.arange(len(X)), pred), alpha)
    return votes.argmax(axis=1)


for _impl in (
    ToyImplementation("noop", "transformer", _fit_noop, _apply_noop, _apply_noop),
    ToyImplementation("standard_scaler", "transformer", _fit_standard_scaler,
                      _apply_standard_scaler, _inverse_standard_scaler),
    ToyImplementation("minmax_scaler", "transformer", _fit_minmax_scaler,
                      _apply_minmax_scaler, _inverse_minmax_scaler),
    ToyImplementation("select_k_variance", "transformer", _fit_select_k_variance,
                      _apply_select_k_variance),
    ToyImplementation("concat", "transformer", _fit_concat, _apply_concat),
    ToyImplementation("knn", "estimator", _fit_knn, _apply_knn),
    ToyImplementation("logreg_gd", "estimator", _fit_logreg, _apply_logreg),
    ToyImplementation("pruned_tree", "estimator", _fit_pruned_tree, _apply_tree),
    ToyImplementation("decision_stump", "estimator", _fit_stump, _apply_tree),
    ToyImplementation("boosted_ensemble", "estimator", _fit_boosted, _apply_boosted),
):
    register_impl(_impl)


# ---------------------------------------------------------------------------
# Datasets


def synth_dataset(kind: str, n: int, seed: int) -> LabeledDataset:
    """Deterministic synthetic classification sets.

    blobs: two linearly separable gaussian clusters (informative axis 0,
    five high-variance noise dimensions). xor: four clusters labeled by
    quadrant parity, not linearly separable. moonsApprox: two interleaved
    half-circles, exactly balanced for even n.
    """
    if n < 8:
        raise ValueError("datasets need at least 8 rows")
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        n0 = n // 2
        signs = np.array([-1.0] * n0 + [1.0] * (n - n0))
        X = np.empty((n, 6))
        X[:, 0] = signs * 2.0 + 0.5 * rng.standard_normal(n)
        X[:, 1:] = 2.0 * rng.standard_normal((n, 5))
        y = (signs > 0).astype(int)
    elif kind == "xor":
        quadrant = np.arange(n) % 4
        cx = np.where(quadrant % 2 == 0, 1.5, -1.5)
        cy = np.where(quadrant < 2, 1.5, -1.5)
        X = np.stack([cx, cy], axis=1) + 0.45 * rng.standard_normal((n, 2))
        y = ((cx > 0) != (cy > 0)).astype(int)
    elif kind == "moonsApprox":
        n0 = n // 2
        t0 = np.linspace(0.0, math.pi, n0)
        t1 = np.linspace(0.0, math.pi, n - n0)
        upper = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        lower = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        X = np.vstack([upper, lower]) + 0.18 * rng.standard_normal((n, 2))
        y = np.array([0] * n0 + [1] * (n - n0))
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    order = rng.permutation(n)
    return LabeledDataset(X[order], y[order])


def load_csv(path, label_column: str) -> LabeledDataset:
    """Load a headered numeric CSV, mapping the label column to class ids."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise BadCsv(str(exc)) from exc
    if not rows or not rows[0]:
        raise BadCsv("missing header row")
    header = rows[0]
    if label_column not in header:
        raise LabelColumnMissing(f"no column named {label_column!r}")
    label_idx = header.index(label_column)
    features, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise BadCsv(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            features.append([float(c) for i, c in enumerate(row) if i != label_idx])
        except ValueError as exc:
            raise BadCsv(f"line {lineno}: {exc}") from exc
        labels.append(row[label_idx])
    if not features:
        raise BadCsv("no data rows")
    classes = sorted(set(labels))
    mapping = {c: i for i, c in enumerate(classes)}
    names = tuple(c for i, c in enumerate(header) if i != label_idx)
    return LabeledDataset(np.array(features), np.array([mapping[l] for l in labels]), names)


def train_test_split(ds: LabeledDataset, fraction: float, seed: int):
    """Stratified split preserving class ratios within one row."""
    rng = random.Random(seed)
    train_idx, test_idx = [], []
    for cls in range(ds.n_classes):
        idx = [int(i) for i in np.flatnonzero(ds.y == cls)]
        rng.shuffle(idx)
        cut = int(round(fraction * len(idx)))
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


def stratified_folds(ds: LabeledDataset, k: int, seed: int) -> list[list[int]]:
    if k < 2 or k > len(ds.y):
        raise ValueError("folds must satisfy 2 <= k <= n")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in range(ds.n_classes):
        idx = [int(i) for i in np.flatnonzero(ds.y == cls)]
        rng.shuffle(idx)
        for i in idx:
            smallest = min(range(k), key=lambda f: (len(folds[f]), f))
            folds[smallest].append(i)
    return folds


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    return float((predictions == labels).mean())


def cv_splits(ds: LabeledDataset, k: int, seed: int = 0):
    """Split the data once into (train subset, test X, test y) per nonempty
    stratified fold, rows in ascending order within each part."""
    splits = []
    for fold in stratified_folds(ds, k, seed):
        if not fold:
            continue
        test = np.array(sorted(fold), dtype=int)
        train = np.setdiff1d(np.arange(len(ds.y)), test)
        splits.append((ds.subset(train), ds.X[test], ds.y[test]))
    return splits


def cross_val_score(op, splits) -> float:
    """Mean accuracy of the operator fitted on each split from ``cv_splits``.

    Splitting is separate so that a search splits its folds once per
    objective (see ``optimizer.make_cv_objective``) and every trial reuses
    the same train subsets and test slices.
    """
    scores = [accuracy(og.predict(og.fit(op, train), test_X), test_y)
              for train, test_X, test_y in splits]
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# Operator registry


IMPL_BINDINGS = {
    "NoOp": "noop",
    "StandardScaler": "standard_scaler",
    "Scaler": "standard_scaler",
    "MinMaxScaler": "minmax_scaler",
    "SelectKVariance": "select_k_variance",
    "Concat": "concat",
    "KNN": "knn",
    "LogRegGD": "logreg_gd",
    "PrunedTree": "pruned_tree",
    "J48": "pruned_tree",
    "LR": "logreg_gd",
    "DecisionStump": "decision_stump",
    "BoostedEnsemble": "boosted_ensemble",
    # PCA ships as a compile-only schema fixture with no toy implementation.
}


def default_schemas_dir() -> Path:
    return Path(__file__).parent / "schemas"


def load_registry(schemas_dir=None) -> dict[str, Individual]:
    """Build the operator registry from a directory of <Name>.schema.json files."""
    directory = Path(schemas_dir) if schemas_dir else default_schemas_dir()
    registry = {}
    for path in sorted(directory.glob("*.schema.json")):
        name = path.name[: -len(".schema.json")]
        schema = schema_model.parse_schema(path.read_text(encoding="utf-8"))
        registry[name] = Individual(name=name, schema=schema, impl=IMPL_BINDINGS.get(name))
    return registry
