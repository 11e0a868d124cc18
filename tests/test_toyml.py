import copy
import dataclasses
import functools
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lalec import operator_graph as og
from lalec import schema_model, toyml
from lalec.operator_graph import configure, fit, predict
from lalec.toyml import (
    ConstraintTrap,
    LabeledDataset,
    accuracy,
    cross_val_score,
    cv_splits,
    load_csv,
    stratified_folds,
    synth_dataset,
)

from conftest import tree_shape
from oracles import (
    _reference_prune_reduced_error,
    reference_cross_val_score,
    reference_fit_pruned_tree,
    reference_lockstep_descent,
    reference_stratified_folds,
)


class TestDatasets:
    def test_blobs_deterministic(self):
        a = synth_dataset("blobs", 100, 0)
        b = synth_dataset("blobs", 100, 0)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = synth_dataset("blobs", 100, 1)
        assert not np.array_equal(a.X, c.X)

    def test_blobs_linearly_separable_on_axis0(self):
        ds = synth_dataset("blobs", 200, 3)
        lo = ds.X[ds.y == 1, 0].min()
        hi = ds.X[ds.y == 0, 0].max()
        assert hi < lo  # a threshold on feature 0 separates the classes

    def test_xor_not_linearly_separable(self, registry):
        ds = synth_dataset("xor", 200, 1)
        logreg = configure(registry["LogRegGD"], {"iterations": 200})
        tree = configure(registry["PrunedTree"], {"maxDepth": 4})
        assert cross_val_score(logreg, cv_splits(ds, 5)) < 0.75
        assert cross_val_score(tree, cv_splits(ds, 5)) >= 0.85

    def test_moons_balanced(self):
        ds = synth_dataset("moonsApprox", 100, 2)
        assert int(ds.y.sum()) == 50

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            synth_dataset("blobs", 4, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_dataset("spiral", 50, 0)

    def test_labels_contiguous(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 2, 2]))


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1,2,yes\n3,4,no\n5,6,yes\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.X.tolist() == [[1, 2], [3, 4], [5, 6]]
        assert ds.y.tolist() == [1, 0, 1]  # sorted label names -> class ids

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(toyml.LabelColumnMissing):
            load_csv(path, "label")

    def test_bad_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1,x\nnot_a_number,y\n", encoding="utf-8")
        with pytest.raises(toyml.BadCsv):
            load_csv(path, "label")

    @pytest.mark.parametrize("text", ["a,b,label\n1,2,yes\n3,4,no\n\n",
                                      "a,b,label\n1,2,yes\n\n3,4,no\n"])
    def test_blank_lines_are_skipped(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.X.tolist() == [[1, 2], [3, 4]]
        assert ds.y.tolist() == [1, 0]

    def test_short_row_after_a_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1,2,yes\n\n3,no\n", encoding="utf-8")
        with pytest.raises(toyml.BadCsv, match="^line 4: expected 3 cells, got 2$"):
            load_csv(path, "label")

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,a\nyes,1\nno,2\n", encoding="utf-8-sig")
        ds = load_csv(path, "label")
        assert ds.y.tolist() == [1, 0]


class TestSplits:
    def test_folds_partition(self):
        ds = synth_dataset("xor", 60, 0)
        folds = stratified_folds(ds, 5, 1)
        all_indices = sorted(i for fold in folds for i in fold)
        assert all_indices == list(range(60))
        assert {len(f) for f in folds} == {12}

    @given(labels=st.lists(st.integers(0, 4), min_size=8, max_size=200),
           k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_folds_equal_the_smallest_fold_reference(self, labels, k, seed):
        _, y = np.unique(labels, return_inverse=True)  # contiguous class ids
        ds = LabeledDataset(np.zeros((len(y), 1)), y)
        k = min(k, len(y))
        folds = stratified_folds(ds, k, seed)
        assert folds == reference_stratified_folds(ds, k, seed)
        assert max(map(len, folds)) - min(map(len, folds)) <= 1

    def test_leave_one_out_matches_brute_force(self, registry):
        # LOO with 1-NN: each point takes the label of its nearest other point.
        ds = synth_dataset("moonsApprox", 24, 7)
        knn = configure(registry["KNN"], {"k": 1})
        got = cross_val_score(knn, cv_splits(ds, len(ds.y)))
        hits = 0
        for i in range(len(ds.y)):
            d2 = ((ds.X - ds.X[i]) ** 2).sum(axis=1)
            d2[i] = np.inf
            hits += ds.y[int(np.argmin(d2))] == ds.y[i]
        assert got == pytest.approx(hits / len(ds.y))

    def test_a_training_fold_may_lack_class_0(self, registry):
        ds = LabeledDataset(np.arange(24.0).reshape(12, 2), np.array([0] + [1] * 11))
        splits = cv_splits(ds, 3)
        assert sorted(sorted(set(train.y.tolist())) for train, _, _ in splits) == \
            [[0, 1], [0, 1], [1]]
        assert 0 <= cross_val_score(configure(registry["KNN"], {}), splits) <= 1

    def test_cross_val_frozen_trained_is_plain_accuracy(self, registry, blobs):
        trained = og.freeze_trained(fit(configure(registry["KNN"], {"k": 3}), blobs))
        score = cross_val_score(trained, cv_splits(blobs, 4))
        assert score == pytest.approx(accuracy(predict(trained, blobs.X), blobs.y))


class TestShapes:
    """A fitted step refuses input of another width, and scoring refuses
    predictions that are not one label per row."""

    # The steps fitted per implementation: NoOp and Concat are checked by
    # the step after them, BoostedEnsemble by its members.
    WIDTH_CASES = {
        "noop": ("NoOp", "KNN"),
        "standard_scaler": ("StandardScaler",),
        "minmax_scaler": ("MinMaxScaler",),
        "select_k_variance": ("SelectKVariance",),
        "concat": ("Concat", "LogRegGD"),
        "knn": ("KNN",),
        "logreg_gd": ("LogRegGD",),
        "pruned_tree": ("PrunedTree",),
        "decision_stump": ("DecisionStump",),
        "boosted_ensemble": ("BoostedEnsemble",),
    }

    def test_every_implementation_has_a_case(self):
        assert set(self.WIDTH_CASES) == set(og.IMPLEMENTATIONS)

    @pytest.mark.parametrize("impl", sorted(WIDTH_CASES))
    def test_a_fitted_step_refuses_input_of_another_width(self, registry, blobs, impl):
        op = functools.reduce(og.pipe, [configure(registry[name], {})
                                        for name in self.WIDTH_CASES[impl]])
        trained = fit(op, blobs)
        for X in (blobs.X[:, :1], blobs.X[:, :3], np.hstack([blobs.X, blobs.X]), blobs.X[0]):
            with pytest.raises(og.ShapeMismatch, match=r"^expected a matrix of 6 columns, "
                                                       r"got shape \("):
                predict(trained, X)
        assert len(predict(trained, blobs.X[:0])) == 0  # no rows still predict

    def test_accuracy_refuses_predictions_not_shaped_like_the_labels(self):
        assert accuracy([0, 1, 1], [0, 1, 0]) == pytest.approx(2 / 3)
        for predictions in ([[0], [1], [1]], [[0, 1, 1]], [0, 1], 1):
            with pytest.raises(og.ShapeMismatch, match="^predictions of shape"):
                accuracy(predictions, [0, 1, 0])

    def test_a_transformer_final_pipeline_gets_no_score(self, registry):
        splits = cv_splits(synth_dataset("blobs", 60, 0), 3)
        select = configure(registry["SelectKVariance"], {"k": 1})
        for op in (og.pipe(configure(registry["KNN"], {}), select), select):
            with pytest.raises(og.ShapeMismatch, match="^predictions of shape"):
                cross_val_score(op, splits)
            with pytest.raises(og.ShapeMismatch, match="^predictions of shape"):
                reference_cross_val_score(op, splits)


class TestOperators:
    def test_standard_scaler_hand_arithmetic(self, registry):
        data = LabeledDataset(np.array([[1.0], [3.0]]), np.array([0, 1]))
        trained = fit(configure(registry["StandardScaler"], {}), data)
        assert trained.artifacts["mean"].tolist() == [2.0]
        assert trained.artifacts["scale"].tolist() == [1.0]
        assert predict(trained, data.X).tolist() == [[-1.0], [1.0]]

    def test_scaler_round_trip(self, registry, blobs):
        for name, shift, scale in (("StandardScaler", "mean", "scale"),
                                   ("MinMaxScaler", "lo", "span")):
            trained = fit(configure(registry[name], {}), blobs)
            out = predict(trained, blobs.X)
            restored = out * trained.artifacts[scale] + trained.artifacts[shift]
            assert np.allclose(restored, blobs.X, rtol=1e-9, atol=1e-9)

    def test_knn1_memorizes_training_points(self, registry, blobs):
        trained = fit(configure(registry["KNN"], {"k": 1}), blobs)
        assert np.array_equal(predict(trained, blobs.X), blobs.y)

    def test_knn_k_clamped_to_n(self, registry):
        tiny = LabeledDataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))
        trained = fit(configure(registry["KNN"], {"k": 25}), tiny)
        predict(trained, tiny.X)  # must not raise

    def test_select_k_variance_keeps_highest_variance(self, registry):
        X = np.array([[0.0, 10.0, 0.1], [0.0, -10.0, 0.2], [0.0, 10.0, 0.3], [0.0, -10.0, 0.4]])
        data = LabeledDataset(X, np.array([0, 1, 0, 1]))
        trained = fit(configure(registry["SelectKVariance"], {"k": 1}), data)
        assert trained.artifacts["columns"].tolist() == [1]

    def test_logreg_separable_blobs(self, registry):
        # Two blobs with a wide margin relative to their spread.
        ds = synth_dataset("blobs", 150, 4)
        trained = fit(configure(registry["LogRegGD"], {"iterations": 150}), ds)
        assert accuracy(predict(trained, ds.X), ds.y) >= 0.98

    def test_logreg_l1_solver_sgd(self, registry, blobs):
        op = configure(registry["LogRegGD"], {"penalty": "l1"})
        op2 = configure(registry["LogRegGD"], {"solver": "sgd"})
        for candidate in (op, op2):
            trained = fit(candidate, blobs)
            assert accuracy(predict(trained, blobs.X), blobs.y) > 0.6

    def test_logreg_extreme_learning_rate_survives(self, registry, blobs):
        trained = fit(configure(registry["LogRegGD"], {"learningRate": 10.0}), blobs)
        preds = predict(trained, blobs.X)
        assert preds.shape == blobs.y.shape

    def test_tree_deterministic(self, registry, blobs):
        a = fit(configure(registry["PrunedTree"], {"maxDepth": 4}), blobs)
        b = fit(configure(registry["PrunedTree"], {"maxDepth": 4}), blobs)
        assert np.array_equal(predict(a, blobs.X), predict(b, blobs.X))

    def test_reduced_error_pruning_runs(self, registry, xor_data):
        trained = fit(configure(registry["PrunedTree"], {"R": True, "maxDepth": 6}), xor_data)
        assert accuracy(predict(trained, xor_data.X), xor_data.y) > 0.7


class TestConstraintTrap:
    def test_trap_fires_on_violation(self, registry, blobs):
        # Build the violating operator against the dropped schema, the way an
        # unconstrained compile would.
        from lalec.space_normalizer import drop_constraints
        from dataclasses import replace

        tree = registry["PrunedTree"]
        loose = replace(tree, schema=drop_constraints(tree.schema))
        bad = configure(loose, {"R": True, "C": 0.3})
        with pytest.raises(ConstraintTrap):
            fit(bad, blobs)

    def test_trap_agrees_with_validate(self, registry, blobs):
        # The runtime trap and the schema constraint reject exactly the same
        # configurations over the base domains.
        from lalec import schema_model as sm
        from lalec.space_normalizer import drop_constraints
        from dataclasses import replace

        tree = registry["PrunedTree"]
        loose = replace(tree, schema=drop_constraints(tree.schema))
        for r in (True, False):
            for c in (0.1, 0.25, 0.4):
                config = {"R": r, "C": c, "maxDepth": 3}
                candidate = configure(loose, config)
                try:
                    fit(candidate, blobs)
                    trapped = False
                except ConstraintTrap:
                    trapped = True
                assert trapped == (not sm.validate(config, tree.schema).ok)

    def test_valid_combination_never_traps(self, registry, blobs):
        trained = fit(configure(registry["PrunedTree"], {"R": True, "C": 0.25}), blobs)
        assert og.state_of(trained) == og.LifecycleState.TRAINED


class TestBoostedEnsemble:
    def test_single_round_equals_base(self, registry, xor_data):
        stump = configure(registry["DecisionStump"], {})
        ens = configure(registry["BoostedEnsemble"], {"n_estimators": 1})
        trained_ens = fit(ens, xor_data)
        trained_stump = fit(stump, xor_data)
        assert np.array_equal(predict(trained_ens, xor_data.X),
                              predict(trained_stump, xor_data.X))

    def test_boosted_stumps_beat_single_stump(self, registry):
        # Interleaved arcs: one axis cut gets most points, reweighted cuts
        # recover the rest.
        ds = toyml.synth_dataset("moonsApprox", 160, 0)
        stump_score = cross_val_score(configure(registry["DecisionStump"], {}),
                                      cv_splits(ds, 3))
        boosted = configure(registry["BoostedEnsemble"], {"n_estimators": 10})
        assert cross_val_score(boosted, cv_splits(ds, 3)) > stump_score

    def test_boosting_beats_single_stump(self, registry, xor_data):
        # Boosted trees must beat one stump on data a single axis cut cannot split.
        stump_score = cross_val_score(configure(registry["DecisionStump"], {}),
                                      cv_splits(xor_data, 3))
        ens = configure(registry["BoostedEnsemble"],
                        {"base": configure(registry["PrunedTree"], {"maxDepth": 2}),
                         "n_estimators": 10})
        ens_score = cross_val_score(ens, cv_splits(xor_data, 3))
        assert ens_score > stump_score

    def test_null_base_uses_stump(self, registry, blobs):
        trained = fit(configure(registry["BoostedEnsemble"], {"n_estimators": 3}), blobs)
        assert trained.artifacts["members"]

    def test_fits_labels_without_class_0(self, registry, blobs):
        # Blobs' classes 0 and 1 as ids 1 and 2, beside one row of class 0.
        whole = LabeledDataset(np.vstack([blobs.X, blobs.X[:1]]), np.append(blobs.y + 1, 0))
        data = whole.subset(range(len(blobs.y)))
        trained = fit(configure(registry["BoostedEnsemble"], {}), data)
        assert set(predict(trained, data.X).tolist()) <= {1, 2}

    def test_deterministic(self, registry, xor_data):
        ens = configure(registry["BoostedEnsemble"], {"n_estimators": 5})
        a = fit(ens, xor_data)
        b = fit(ens, xor_data)
        assert np.array_equal(predict(a, xor_data.X), predict(b, xor_data.X))


class TestRegistry:
    def test_operator_without_impl_cannot_fit(self, registry, blobs):
        with pytest.raises(og.ImplementationError):
            fit(configure(registry["PCA"], {}), blobs)

    def test_all_fixture_defaults_fit(self, registry, blobs):
        for name, op in registry.items():
            if op.impl is None:
                continue
            trained = fit(og.freeze_trainable(op), blobs)
            assert og.state_of(trained) == og.LifecycleState.TRAINED, name


# ---------------------------------------------------------------------------
# Reference oracles: the per-candidate and per-row implementations that the
# vectorised code in toyml replaced. The fast code must give equal results.


def reference_gini(counts) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def reference_grow_tree(X, y, n_classes, depth, max_depth):
    counts = np.bincount(y, minlength=n_classes)
    node = {"counts": counts, "label": int(counts.argmax())}
    if depth >= max_depth or len(np.unique(y)) <= 1 or len(y) < 2:
        return node
    best = None
    best_score = -1.0
    base = reference_gini(counts)
    min_leaf = max(1, len(y) // 20)
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        if len(values) < 2:
            continue
        for threshold in (values[:-1] + values[1:]) / 2.0:
            mask = X[:, feature] <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or len(y) - n_left < min_leaf:
                continue
            left = np.bincount(y[mask], minlength=n_classes)
            right = counts - left
            weighted = (n_left * reference_gini(left)
                        + (len(y) - n_left) * reference_gini(right)) / len(y)
            gain = base - weighted
            if gain < -1e-12:
                continue
            score = gain - 0.05 * abs(2 * n_left - len(y)) / len(y)
            if best is None or score > best_score + 1e-12:
                best = (feature, float(threshold), mask)
                best_score = score
    if best is None:
        return node
    feature, threshold, mask = best
    node["feature"] = feature
    node["threshold"] = threshold
    node["left"] = reference_grow_tree(X[mask], y[mask], n_classes, depth + 1, max_depth)
    node["right"] = reference_grow_tree(X[~mask], y[~mask], n_classes, depth + 1, max_depth)
    return node


def reference_tree_predict_one(node, x) -> int:
    while "feature" in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["label"]


def reference_logreg_descent(Xb, t, lr, iterations, penalty, solver):
    rng = random.Random(13)
    w = np.zeros(Xb.shape[1])
    lam = 1e-2
    n = len(Xb)
    for _ in range(iterations):
        if solver == "sgd":
            rows = np.array([rng.randrange(n) for _ in range(max(1, n // 4))])
            Xs, ts = Xb[rows], t[rows]
        else:
            Xs, ts = Xb, t
        z = np.clip(Xs @ w, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = Xs.T @ (p - ts) / len(Xs)
        if penalty == "l1":
            grad = grad + lam * np.sign(w)
        else:
            grad = grad + lam * w
        w = w - lr * grad
        np.clip(w, -1e6, 1e6, out=w)
        if not np.all(np.isfinite(w)):
            w = np.zeros_like(w)
            break
    return w


def weight_rows(problems, raw):
    """Per problem, its rows of weights in the flat raw weights of one
    descent over ``problems``, with non-finite rows zeroed."""
    weights, at = [], 0
    for Xb, T in problems:
        W = raw[at:at + len(T) * Xb.shape[1]].reshape(len(T), Xb.shape[1]).copy()
        W[~np.isfinite(W).all(axis=1)] = 0.0
        weights.append(W)
        at += W.size
    return weights


def descend(problems, lr, iterations, penalty, solver):
    """Per problem, its rows of weights after one descent from scratch."""
    [[raw]] = toyml._logreg_descent([(problems, lr, [iterations])], penalty, solver)
    return weight_rows(problems, raw)


def reference_apply_knn(artifacts, X):
    X = np.asarray(X, dtype=float)
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


def _adjacent_pair_values():
    # Pairs of neighbouring floats: their midpoint rounds onto one of the two,
    # and onto the upper one for about half of them.
    return st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False).map(
        lambda a: [a, float(np.nextafter(a, np.inf))])


@st.composite
def tree_data(draw):
    n_classes = draw(st.integers(2, 4))
    # Row counts around multiples of 20 move min_leaf = max(1, n // 20).
    n = draw(st.one_of(st.integers(1, 30), st.sampled_from([19, 20, 39, 40, 41, 59, 60, 61]),
                       st.integers(30, 90)))
    n_features = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(n_features):
        kind = draw(st.sampled_from(["ties", "coarse", "continuous", "adjacent", "constant"]))
        if kind == "ties":
            column = rng.integers(0, draw(st.integers(1, 5)), n).astype(float)
        elif kind == "coarse":
            column = np.round(rng.standard_normal(n), draw(st.integers(0, 1)))
        elif kind == "continuous":
            column = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
        elif kind == "adjacent":
            pool = draw(_adjacent_pair_values()) + draw(_adjacent_pair_values())
            column = rng.choice(np.array(pool), n)
        else:
            column = np.full(n, draw(st.floats(-5, 5, allow_nan=False)))
        columns.append(column)
    X = np.stack(columns, axis=1)
    y = rng.integers(0, n_classes, n)
    if draw(st.booleans()):
        # Labels that follow a feature give real splits, not only noise.
        y = (X[:, 0] > np.median(X[:, 0])).astype(int) * (n_classes - 1)
    return X, y, n_classes


@st.composite
def descent_batches(draw, min_problems=1, max_problems=5):
    """``(Xb, T)`` problems with their own row counts and widths, a bias
    column last, C- or Fortran-ordered (a column selection gives the
    latter), and 1-3 random 0/1 target rows each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = []
    for _ in range(draw(st.integers(min_problems, max_problems))):
        n, d = draw(st.integers(1, 60)), draw(st.integers(1, 5))
        scale = draw(st.sampled_from([1.0, 1e3, 1e300]))
        Xb = np.hstack([rng.standard_normal((n, d)) * scale, np.ones((n, 1))])
        if draw(st.booleans()):
            Xb = np.asfortranarray(Xb)
        problems.append((Xb, (rng.random((draw(st.integers(1, 3)), n)) < 0.5).astype(float)))
    return problems


def reference_sgd_rows(n, count):
    """The sgd rows of n-row problems as a randrange loop."""
    rng = random.Random(13)
    return [rng.randrange(n) for _ in range(count)]


class TestReferenceOracles:
    @given(tree_data(), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_grow_tree_matches_per_threshold_reference(self, data, max_depth):
        X, y, n_classes = data
        got = toyml._grow_tree(X, y, n_classes, 0, max_depth)
        want = reference_grow_tree(X, y, n_classes, 0, max_depth)
        assert tree_shape(got) == tree_shape(want)

    @given(tree_data(), st.integers(1, 8), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_prune_reduced_error_matches_in_place_reference(self, data, max_depth, held, seed):
        # Held-out rows drawn from the data and beside it, often too few to
        # reach every subtree, so that some subtrees see no rows at all.
        X, y, n_classes = data
        tree = toyml._grow_tree(X, y, n_classes, 0, max_depth)
        grown = tree_shape(tree)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(y), held)
        hold_X = np.vstack([X[rows], rng.standard_normal((held // 2, X.shape[1]))])
        hold_y = np.concatenate([y[rows], rng.integers(0, n_classes, held // 2)])
        got, errors = toyml._prune_reduced_error(tree, hold_X, hold_y)
        want = _reference_prune_reduced_error(copy.deepcopy(tree), hold_X, hold_y)
        assert tree_shape(got) == tree_shape(want)
        assert errors == int((toyml._tree_predict(want, hold_X) != hold_y).sum())
        assert tree_shape(tree) == grown  # kept nodes are new

    def test_midpoint_rounding_onto_upper_value_keeps_mask_semantics(self):
        # Neighbouring floats a < b whose midpoint rounds onto b: the cut
        # "x <= b" cannot separate the a rows from the b rows. Counting only
        # the a rows as its left side would make it a fake pure split that
        # beats the real best cut, between 3.0 and 5.0.
        a = float(np.nextafter(1.0, np.inf))
        b = float(np.nextafter(a, np.inf))
        assert (a + b) / 2.0 == b
        X = np.array([[a]] * 3 + [[b]] * 3 + [[3.0]] * 3 + [[5.0]] * 3)
        y = np.array([0] * 3 + [1] * 3 + [0] * 3 + [1] * 3)
        got = toyml._grow_tree(X, y, 2, 0, 1)
        assert tree_shape(got) == tree_shape(reference_grow_tree(X, y, 2, 0, 1))
        assert got["threshold"] == 4.0
        assert got["left"]["counts"].tolist() == [6, 3]

    @given(tree_data(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_tree_predict_matches_per_row_reference(self, data, max_depth, seed):
        X, y, n_classes = data
        tree = toyml._grow_tree(X, y, n_classes, 0, max_depth)
        rng = np.random.default_rng(seed)
        queries = np.vstack([X, rng.standard_normal((7, X.shape[1])),
                             np.full((1, X.shape[1]), np.nan)])
        want = np.array([reference_tree_predict_one(tree, q) for q in queries], dtype=int)
        got = toyml._tree_predict(tree, queries)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert toyml._tree_predict(tree, queries[:0]).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**31 + 1, 2**32 - 1])
    def test_bulk_rows_at_bit_length_edges(self, n):
        # The kept rows are int64, so rows up to 2**32 - 2 come back exact.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(toyml, "_sgd_rows_memo", (0, np.empty(0, dtype=np.int64)))
            assert toyml._sgd_rows(n, 500).tolist() == reference_sgd_rows(n, 500)

    @given(st.one_of(st.integers(1, 300),
                     st.sampled_from([2**k + d for k in range(9) for d in (-1, 0, 1)
                                      if 1 <= 2**k + d <= 300])),
           st.integers(0, 3000), st.integers(0, 3000))
    @settings(max_examples=300, deadline=None)
    def test_fewer_rows_are_a_prefix_of_more(self, n, a, b):
        # The sgd rows of a problem are drawn once, for the longest descent
        # on it; a shorter descent reads the first a, which is what a fresh
        # draw of a rows gives.
        a, b = sorted((a, b))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(toyml, "_sgd_rows_memo", (0, np.empty(0, dtype=np.int64)))
            shorter = toyml._sgd_rows(n, a).tolist()
            patch.setattr(toyml, "_sgd_rows_memo", (0, np.empty(0, dtype=np.int64)))
            assert shorter == toyml._sgd_rows(n, b)[:a].tolist()

    @given(st.lists(st.tuples(st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3, 64])),
                              st.integers(0, 3000)), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_kept_sgd_rows_equal_fresh_draws(self, requests):
        # Any sequence of (n, count) requests, with counts rising and
        # falling and n changing or not, gives what a fresh draw gives.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(toyml, "_sgd_rows_memo", (0, np.empty(0, dtype=np.int64)))
            for n, count in requests:
                got = toyml._sgd_rows(n, count)
                assert not got.flags.writeable
                assert got.tolist() == reference_sgd_rows(n, count)
            last_n, kept = toyml._sgd_rows_memo
        # What is kept is the rows of the last n and no more than its
        # longest request since n last changed.
        run = []
        for n, count in reversed(requests):
            if n != last_n:
                break
            run.append(count)
        assert last_n == requests[-1][0] and len(kept) <= max(run)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
           st.sampled_from([(-30.0, 30.0), (-1e6, 1e6)]))
    @settings(max_examples=200, deadline=None)
    def test_minimum_maximum_has_clip_bits(self, values, bounds):
        values = np.array(values + [math.nan, math.inf, -math.inf, -0.0, 0.0], dtype=float)
        lo, hi = bounds
        want = np.clip(values, lo, hi)
        assert np.minimum(np.maximum(values, lo), hi).tobytes() == want.tobytes()
        inplace = values.copy()
        np.minimum(np.maximum(inplace, lo, out=inplace), hi, out=inplace)
        assert inplace.tobytes() == want.tobytes()

    @given(st.integers(1, 60), st.integers(1, 5), st.sampled_from(["gd", "sgd"]),
           st.sampled_from(["l1", "l2"]), st.floats(1e-4, 10.0), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e3, 1e300]))
    @settings(max_examples=120, deadline=None)
    def test_logreg_descent_matches_reference(self, n, d, solver, penalty, lr, iterations,
                                              seed, scale):
        rng = np.random.default_rng(seed)
        Xb = np.hstack([rng.standard_normal((n, d)) * scale, np.ones((n, 1))])
        t = (rng.random(n) < 0.5).astype(float)
        want = reference_logreg_descent(Xb, t, lr, iterations, penalty, solver)
        (W,) = descend([(Xb, t[None])], lr, iterations, penalty, solver)
        assert W[0].tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("solver", ["gd", "sgd"])
    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_logreg_descent_with_non_finite_row_matches_reference(self, solver, penalty, bad):
        # The reference stops at the first step whose weights are not finite
        # and the fast code checks once after the loop. A NaN row turns the
        # weights NaN at the first step that uses it, and so does an inf row
        # used while its weight is 0 (inf * 0 is NaN). An inf row used later
        # gives an inf gradient entry that the clip maps to +-1e6 instead,
        # and the later steps only move that weight a little.
        rng = np.random.default_rng(5)
        Xb = np.hstack([rng.standard_normal((40, 3)), np.ones((40, 1))])
        Xb[7, 1] = bad
        t = (rng.random(40) < 0.5).astype(float)
        want = reference_logreg_descent(Xb, t, 0.1, 30, penalty, solver)
        (W,) = descend([(Xb, t[None])], 0.1, 30, penalty, solver)
        assert W[0].tobytes() == want.tobytes()
        if math.isnan(bad) or solver == "gd":
            assert not want.any()
        else:
            assert np.abs(want).max() > 9e5

    @given(descent_batches(), st.sampled_from(["gd", "sgd"]), st.sampled_from(["l1", "l2"]),
           st.floats(1e-4, 10.0), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_lockstep_descents_match_reference_each(self, problems, solver, penalty, lr,
                                                    iterations):
        # Problems of different row counts and widths, one to three targets
        # each: every descent must get the bits it gets alone.
        got = descend(problems, lr, iterations, penalty, solver)
        assert len(got) == len(problems)
        for (Xb, T), W in zip(problems, got):
            assert W.shape == (len(T), Xb.shape[1])
            for t, w in zip(T, W):
                want = reference_logreg_descent(Xb, t, lr, iterations, penalty, solver)
                assert w.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @given(descent_batches(min_problems=2), st.sampled_from(["gd", "sgd"]),
           st.sampled_from(["l1", "l2"]), st.sampled_from([math.nan, math.inf, -math.inf]),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_problem_leaves_the_others_alone(self, problems, solver, penalty, bad,
                                                        data):
        victim = data.draw(st.integers(0, len(problems) - 1))
        Xb, T = problems[victim]
        poisoned = Xb.copy()
        poisoned[data.draw(st.integers(0, len(Xb) - 1)),
                 data.draw(st.integers(0, Xb.shape[1] - 1))] = bad
        mixed = problems[:victim] + [(poisoned, T)] + problems[victim + 1:]
        clean = descend(problems, 0.1, 30, penalty, solver)
        got = descend(mixed, 0.1, 30, penalty, solver)
        for k, (W_clean, W) in enumerate(zip(clean, got)):
            if k != victim:
                assert W.tobytes() == W_clean.tobytes()
        for t, w in zip(T, got[victim]):
            want = reference_logreg_descent(poisoned, t, 0.1, 30, penalty, solver)
            assert w.tobytes() == want.tobytes()


@st.composite
def lockstep_jobs(draw):
    """LogRegGD jobs for one many-jobs fit over 1-3 sets of problems (C- or
    Fortran-ordered features, 2-3 classes): mixed learning rates,
    iterations, penalties and solvers. Jobs with one run key (problem set,
    lr, penalty, solver) run as one descent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        problems = []
        for _ in range(draw(st.integers(1, 3))):
            n_classes = draw(st.integers(2, 3))
            n = draw(st.integers(n_classes, 40))
            X = rng.standard_normal((n, draw(st.integers(1, 4)))) * draw(
                st.sampled_from([1.0, 1e3]))
            if draw(st.booleans()):
                X = np.asfortranarray(X)
            y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)])
            problems.append((X, y))
        sets.append(problems)
    keys = draw(st.lists(st.tuples(st.integers(0, len(sets) - 1), st.sampled_from([0.05, 0.5, 3.0]),
                                   st.sampled_from(["l1", "l2"]), st.sampled_from(["gd", "sgd"])),
                         min_size=1, max_size=4, unique=True))
    jobs = draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(0, 40)),
                         min_size=1, max_size=8))
    return sets, jobs


class TestLockstepJobs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(lockstep_jobs())
    def test_many_jobs_match_the_reference_each(self, case):
        sets, jobs = case
        input_keys = [og._content_key([X for X, _ in problems]) for problems in sets]

        def job(key, iterations):
            index, lr, penalty, solver = key
            config = {"learningRate": lr, "iterations": iterations, "penalty": penalty,
                      "solver": solver}
            return config, sets[index], input_keys[index]

        descents = []
        descend_all = toyml._logreg_descent

        def counted(specs, penalty, solver):
            descents.extend(specs)
            return descend_all(specs, penalty, solver)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(toyml, "_logreg_descent", counted)
            fitted = toyml._fit_logreg([job(*j) for j in jobs])
        assert len(fitted) == len(jobs)
        assert len(descents) == len({key for key, _ in jobs})  # one per run key
        for ((index, lr, penalty, solver), iterations), artifacts in zip(jobs, fitted):
            for (X, y), artifact in zip(sets[index], artifacts):
                Xb = np.hstack([X, np.ones((len(X), 1))])
                classes = [1] if y.max() == 1 else range(y.max() + 1)
                assert len(artifact["weights"]) == len(classes)
                for c, w in zip(classes, artifact["weights"]):
                    want = reference_logreg_descent(Xb, (y == c).astype(float), lr, iterations,
                                                    penalty, solver)
                    assert w.tobytes() == want.tobytes()

    @given(descent_batches(max_problems=3), st.lists(st.integers(0, 30), min_size=1, max_size=3,
                                                      unique=True),
           st.sampled_from(["gd", "sgd"]), st.sampled_from(["l1", "l2"]))
    @settings(max_examples=60, deadline=None)
    def test_one_descent_records_every_count(self, problems, counts, solver, penalty):
        counts = sorted(counts)
        [raws] = toyml._logreg_descent([(problems, 0.3, counts)], penalty, solver)
        for count, raw in zip(counts, raws):
            for (Xb, T), W in zip(problems, weight_rows(problems, raw)):
                for t, w in zip(T, W):
                    want = reference_logreg_descent(Xb, t, 0.3, count, penalty, solver)
                    assert w.tobytes() == want.tobytes()

    def test_row_blocks_are_bounded_before_they_are_gathered(self, monkeypatch):
        # A block holds the rows of as many steps as fit in ROW_BLOCK_FLOATS;
        # one step's rows are gathered even when they alone hold more. The
        # gather is one np.take on the row axis of the problem's stack.
        rng = np.random.default_rng(3)
        problems = [(rng.standard_normal((40, 3)), (rng.random((1, 40)) < 0.5).astype(float))]
        want = descend(problems, 0.2, 25, "l2", "sgd")
        gathered = []
        take = np.take

        def watched(a, indices, axis=None, **kwargs):
            gathered.append((a.shape, axis, np.size(indices)))
            return take(a, indices, axis=axis, **kwargs)

        monkeypatch.setattr(np, "take", watched)
        for limit, steps in ((1 << 14, 25), (130, 2), (1, 1)):
            monkeypatch.setattr(toyml, "ROW_BLOCK_FLOATS", limit)
            del gathered[:]
            got = descend(problems, 0.2, 25, "l2", "sgd")
            assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
            # A step's batch of 10 rows of 3 floats, their 10 targets and
            # their 10 row indices.
            rows = [size for shape, axis, size in gathered if shape == (1, 40, 3)]
            assert {axis for _, axis, _ in gathered} == {1}
            assert len(rows) == len(gathered) // 2
            assert max(rows) == 10 * steps

    @pytest.mark.parametrize("solver", ["gd", "sgd"])
    @pytest.mark.parametrize("seed", range(4))
    def test_stacks_are_bounded_before_they_are_allocated(self, monkeypatch, solver, seed):
        # Ten segments of 20x3 inputs (five descents, two targets each) go
        # in stacks of at most 200 floats, three items each; the 60x4 input
        # alone holds more and runs uncopied.
        rng = np.random.default_rng(seed)
        small = rng.standard_normal((20, 3))
        big = np.asfortranarray(rng.standard_normal((60, 4)))
        problems = [(small, (rng.random((2, 20)) < 0.5).astype(float)),
                    (big, (rng.random((1, 60)) < 0.5).astype(float))]
        descents = [(problems, lr, [count]) for lr, count in
                    zip((0.05, 0.1, 0.5, 1.0, 3.0), rng.integers(0, 30, 5))]
        monkeypatch.setattr(toyml, "ROW_BLOCK_FLOATS", 200)
        want = reference_lockstep_descent(descents, "l2", solver)
        stacked, operands = [], []
        stack, matmul, take = np.stack, np.matmul, np.take

        def watched_stack(arrays, *args, **kwargs):
            out = stack(arrays, *args, **kwargs)
            stacked.append(out.size)
            return out

        def watched_matmul(a, b, **kwargs):
            # The stack is the left operand of X @ W and the right one of the
            # row (p - t) @ X.
            operands.append(b if a.shape[1] == 1 else a)
            return matmul(a, b, **kwargs)

        def watched_take(a, indices, **kwargs):
            operands.append(a)
            return take(a, indices, **kwargs)

        monkeypatch.setattr(np, "stack", watched_stack)
        monkeypatch.setattr(np, "matmul", watched_matmul)
        monkeypatch.setattr(np, "take", watched_take)
        got = toyml._logreg_descent(descents, "l2", solver)
        assert [[raw.tobytes() for raw in raws] for raws in got] == [
            [raw.tobytes() for raw in raws] for raws in want]
        assert stacked and max(stacked) <= 200
        big_operands = [op for op in operands if op.shape[1:] == big.shape]
        assert all(np.shares_memory(op, big) for op in big_operands)
        assert bool(big_operands) == any(count > 0 for _, _, [count] in descents)


@st.composite
def stacked_descents(draw):
    """One lockstep's descents over 2-4 inputs of at least two shapes, the
    first C- and the second Fortran-ordered, n down to 1, with a bias
    column last. Every descent fits the first input and some of the
    others, 1-4 target rows each, so segments far outnumber inputs; counts
    run from 0 to 40, and the first descent records after 0 steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = []
    for k in range(draw(st.integers(2, 4))):
        n, d = draw(st.integers(1, 30)), draw(st.integers(0, 3))
        if k == 1 and (n, d + 1) == inputs[0].shape:
            n += 1
        Xb = np.hstack([rng.standard_normal((n, d)) * draw(st.sampled_from([1.0, 1e3])),
                        np.ones((n, 1))])
        inputs.append(np.asfortranarray(Xb) if k == 1 or (k > 1 and draw(st.booleans()))
                      else Xb)
    descents = []
    for k in range(draw(st.integers(3, 8))):
        chosen = [0] + draw(st.lists(st.integers(1, len(inputs) - 1), max_size=2))
        problems = [(inputs[i], (rng.random((draw(st.integers(1, 4)), len(inputs[i])))
                                 < 0.5).astype(float)) for i in chosen]
        counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True))
        descents.append((problems, draw(st.sampled_from([0.05, 0.5, 3.0])),
                         sorted(set(counts) | ({0} if k == 0 else set()))))
    return descents


class TestStackedLockstep:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(stacked_descents(), st.sampled_from(["gd", "sgd"]), st.sampled_from(["l1", "l2"]))
    @settings(max_examples=60, deadline=None)
    def test_stacked_lockstep_matches_the_references(self, descents, solver, penalty):
        got = toyml._logreg_descent(descents, penalty, solver)
        want = reference_lockstep_descent(descents, penalty, solver)
        assert [[raw.tobytes() for raw in raws] for raws in got] == [
            [raw.tobytes() for raw in raws] for raws in want]
        for (problems, lr, counts), raws in zip(descents, got):
            for count, raw in zip(counts, raws):
                for (Xb, T), W in zip(problems, weight_rows(problems, raw)):
                    for t, w in zip(T, W):
                        ref = reference_logreg_descent(Xb, t, lr, count, penalty, solver)
                        assert w.tobytes() == ref.tobytes()


@st.composite
def clipped_descents(draw):
    """One lockstep's descents over 1-3 inputs whose shapes often match, so
    that several descents share a stack: input scales 1, 1e3 and 1e300, C-
    or Fortran-ordered, sometimes with a non-finite cell, and 2-5 descents
    of 1-2 target rows per input, learning rates from 1e-4 to 10 and up to
    200 steps. Targets are random or follow the first feature's sign, which
    makes the weights grow until a clip bites. An input is 0-4 features and
    a bias column, so some have one column (see `same_weights`). A
    one-column input of two rows or more gets no non-finite cell: .dot
    gives 0 for such a cell times a zero weight, where the lockstep gives
    NaN (see _logreg_descent); a fit's one-column input is all ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 40)), draw(st.integers(0, 4))
    inputs = []
    for _ in range(draw(st.integers(1, 3))):
        shape = (n, d) if draw(st.booleans()) else (draw(st.integers(1, 40)), d)
        Xb = np.hstack([rng.standard_normal(shape) * draw(st.sampled_from([1.0, 1e3, 1e300])),
                        np.ones((shape[0], 1))])
        if draw(st.integers(0, 4)) == 0 and (d or shape[0] == 1):
            Xb[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, d))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        inputs.append(np.asfortranarray(Xb) if draw(st.booleans()) else Xb)
    descents = []
    for _ in range(draw(st.integers(2, 5))):
        chosen = draw(st.lists(st.integers(0, len(inputs) - 1), min_size=1, max_size=3,
                               unique=True))
        problems = []
        for i in chosen:
            targets = np.vstack([inputs[i][:, 0] > 0, rng.random(len(inputs[i])) < 0.5])
            rows = draw(st.sampled_from([[0], [1], [0, 1]]))
            problems.append((inputs[i], targets[rows].astype(float)))
        counts = draw(st.lists(st.integers(0, 200), min_size=1, max_size=2, unique=True))
        descents.append((problems, 10.0 ** draw(st.floats(-4, 1)), sorted(counts)))
    return descents


def same_weights(got, want):
    """Whether two descents' recorded weights are equal bit for bit, but
    that a NaN equals any NaN: on a 1x1 input .dot multiplies as scalars,
    and a NaN may differ in sign (see _logreg_descent)."""
    def bits(raws):
        return [(np.isnan(raw).tobytes(), np.where(np.isnan(raw), 0.0, raw).tobytes())
                for raw in raws]

    return [bits(raws) for raws in got] == [bits(raws) for raws in want]


def bandit_shaped_stack(lr, scale):
    """Three 80x7 inputs (six features and a bias column) with one 0/1
    target row each, as a gd lockstep of bandit_ablation holds."""
    rng = np.random.default_rng(8)
    problems = [(np.hstack([rng.standard_normal((80, 6)) * scale, np.ones((80, 1))]),
                 (rng.random((1, 80)) < 0.5).astype(float)) for _ in range(3)]
    return [(problems, lr, [100])]


class TestClipBounds:
    # A block of steps drops a clip only where a bound on the weights it can
    # reach proves the clip changes nothing; these check the fast path that
    # gives against the reference, which clips every step.

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(clipped_descents(), st.sampled_from(["gd", "sgd"]), st.sampled_from(["l1", "l2"]),
           st.sampled_from([1, 2, 3, 4, 5, 6, 7, toyml.GD_BLOCK_STEPS]))
    @settings(max_examples=120, deadline=None)
    def test_skipped_clips_keep_the_reference_bits(self, descents, solver, penalty, steps):
        # Blocks of 1-7 gd steps let the bound hold early in a descent and
        # fail later on, as the weights grow.
        want = reference_lockstep_descent(descents, penalty, solver)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(toyml, "GD_BLOCK_STEPS", steps)
            got = toyml._logreg_descent(descents, penalty, solver)
        assert same_weights(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @example([([(np.array([[3.0, 1.0], [-3.0, 1.0]] * 2), np.array([[1.0, 0.0] * 2]))],
               0.1, [64])], "gd", "l2", toyml.GD_BLOCK_STEPS)
    @given(clipped_descents(), st.sampled_from(["gd", "sgd"]), st.sampled_from(["l1", "l2"]),
           st.sampled_from([1, 2, 3, 4, 5, 6, 7, toyml.GD_BLOCK_STEPS]))
    @settings(max_examples=120, deadline=None)
    def test_each_block_stays_within_its_bound(self, descents, solver, penalty, steps):
        # The reference, recorded after every step, against the bound the
        # lockstep puts on a block: over each block of `steps` steps of a
        # phase, no weight leaves _weight_bound(m, M, lr, L), and no |z|
        # exceeds R times that. Each target row is checked with its own
        # input's M and R and its own lr, which bound it at least as tightly
        # as its stack's largest do. The bound holds for any block, so sgd's
        # descents are checked on the same blocks; |Xb @ w| over all rows
        # bounds the |z| of any batch. Inputs on which the lockstep keeps
        # both clips whatever the bound (a non-finite cell, or an |x| at
        # which a gradient's sum may overflow) are left out.
        stepped = [(problems, lr, list(range(counts[-1] + 1)))
                   for problems, lr, counts in descents]
        raws = reference_lockstep_descent(stepped, penalty, solver)
        for (problems, lr, counts), after in zip(descents, raws):
            path = np.vstack(after)  # the weights after 0, 1, 2, ... steps
            blocks = [(b0, min(b0 + steps, stop)) for start, stop in zip([0, *counts], counts)
                      for b0 in range(start, stop, steps)]
            at = 0
            for Xb, T in problems:
                n, d = Xb.shape
                top, row_sum = toyml._abs_bounds(Xb[None])
                for _ in T:
                    w, at = path[:, at:at + d], at + d
                    if not n * top < 1e300:
                        continue
                    reached = np.abs(w).max(axis=1)
                    z = np.abs(w @ Xb.T).max(axis=1)  # the |z| of the step after each
                    for b0, b1 in blocks:
                        bound = toyml._weight_bound(reached[b0], top, lr, b1 - b0)
                        assert reached[b0:b1 + 1].max() <= bound, (b0, b1)
                        assert z[b0:b1].max() <= row_sum * bound, (b0, b1)

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    @pytest.mark.parametrize("lr, scale, clipped", [(0.01, 1.0, False), (10.0, 1e3, True),
                                                    (1e12, 1.0, True)])
    def test_clips_run_only_where_the_bound_needs_them(self, monkeypatch, penalty, lr, scale,
                                                       clipped):
        # At bandit_ablation's shape and a small learning rate no clip can
        # change a value, so none runs; at lr 10 and inputs of 1e3 both the
        # z clip (+-30) and the w clip (+-1e6) run, and so they do at lr
        # 1e12, where the bound's growth factor overflows a float.
        descents = bandit_shaped_stack(lr, scale)
        want = reference_lockstep_descent(descents, penalty, "gd")
        bounds = []

        def watched(ufunc):
            def call(a, b, *, out=None):  # numpy 2.4 takes out only by keyword here
                bounds.append(float(b))
                return ufunc(a, b, out=out)
            return call

        monkeypatch.setattr(np, "maximum", watched(np.maximum))
        monkeypatch.setattr(np, "minimum", watched(np.minimum))
        got = toyml._logreg_descent(descents, penalty, "gd")
        assert [[raw.tobytes() for raw in raws] for raws in got] == [
            [raw.tobytes() for raw in raws] for raws in want]
        assert set(bounds) == ({-30.0, 30.0, -1e6, 1e6} if clipped else set())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_gradient_sum_that_overflows_keeps_the_clips(self):
        # Cells of 1e307 and a tiny learning rate: each step could move a
        # weight by little, but the gradient's sum over 80 rows overflows to
        # inf before its mean is taken, and only the w clip turns -inf into
        # -1e6.
        X = np.hstack([np.full((80, 1), 1e307), np.ones((80, 1))])
        descents = [([(X, np.ones((1, 80)))], 1e-310, [1, 3])]
        want = reference_lockstep_descent(descents, "l2", "gd")
        got = toyml._logreg_descent(descents, "l2", "gd")
        assert [[raw.tobytes() for raw in raws] for raws in got] == [
            [raw.tobytes() for raw in raws] for raws in want]


def _integer_values(draw, rng, shape):
    """Small integers as floats, sometimes with NaN or +-inf cells."""
    values = rng.integers(0, draw(st.integers(1, 4)), shape).astype(float)
    if draw(st.booleans()):
        cells = rng.random(shape) < draw(st.sampled_from([0.05, 0.3]))
        values[cells] = rng.choice(np.array([math.nan, math.inf, -math.inf]), int(cells.sum()))
    return values


@st.composite
def knn_data(draw):
    """Integer-valued features (ties are common), duplicate train rows, and
    sometimes NaN or +-inf cells in the test rows and in the train rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(2, 4))
    n_distinct = draw(st.integers(1, 20))
    n_train = draw(st.integers(n_distinct, 40))
    d = draw(st.integers(1, 3))
    pool = _integer_values(draw, rng, (n_distinct, d))
    train_X = pool[rng.integers(0, n_distinct, n_train)]
    train_y = rng.integers(0, n_classes, n_train)
    test_X = _integer_values(draw, rng, (draw(st.integers(0, 12)), d))
    artifacts = {"X": train_X, "y": train_y, "k": draw(st.integers(1, n_train + 5)),
                 "weighting": draw(st.sampled_from(["uniform", "distance"])),
                 "n_classes": n_classes}
    return artifacts, test_X


class TestKnnOracle:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @given(knn_data())
    @settings(max_examples=400, deadline=None)
    def test_apply_knn_matches_full_sort_reference(self, data):
        artifacts, test_X = data
        want = reference_apply_knn(artifacts, test_X)
        got = toyml._apply_knn(artifacts, test_X)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.integers(1, 30), st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_smallest_k_is_stable_argsort_prefix(self, m, rows, data):
        values = st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, 0.5, 1e-300,
                                  math.inf, math.nan, -math.nan])
        d2 = np.array(data.draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                         min_size=rows, max_size=rows)),
                      dtype=float).reshape(rows, m)
        k = data.draw(st.integers(1, m))
        order, nearest = toyml._smallest_k(d2, k)
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(order, want)
        assert nearest.tobytes() == np.take_along_axis(d2, want, axis=1).tobytes()

    @given(st.integers(0, 12), st.integers(1, 8), st.integers(2, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_votes_add_in_column_order(self, rows, columns, n_classes, data):
        # With weights of very different sizes and signs, the rounded sums
        # depend on the order of addition.
        labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                             min_size=rows * columns, max_size=rows * columns)),
                          dtype=int).reshape(rows, columns)
        weights = np.array(data.draw(st.lists(
            st.sampled_from([1.0, -1.0, 1e16, -1e16, 0.1, 3.0, 1e-3]),
            min_size=rows * columns, max_size=rows * columns)), dtype=float).reshape(rows, columns)
        want = np.zeros((rows, n_classes))
        for j in range(columns):
            np.add.at(want, (np.arange(rows), labels[:, j]), weights[:, j])
        assert toyml._votes(labels, weights, n_classes).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Prefix store: cross_val_score against the fit-then-predict reference


REGISTRY = toyml.load_registry()


def _loose(name, config):
    """An operator configured against its schema without side constraints,
    as an unconstrained compile decodes it: a PrunedTree with R and
    C != 0.25 traps, and a LogRegGD may pair sgd with l1."""
    from dataclasses import replace

    from lalec.space_normalizer import drop_constraints

    op = REGISTRY[name]
    return configure(replace(op, schema=drop_constraints(op.schema)), config)


# Groups of sibling steps: a slot of a pipeline family draws one group, and
# each pipeline of the family one of its steps, so that the pipelines share
# prefixes, or differ in the configuration of one step of a prefix.
TRANSFORMER_GROUPS = [
    [lambda: configure(REGISTRY["Scaler"], {}),
     lambda: configure(REGISTRY["StandardScaler"], {"withMean": False}),
     lambda: configure(REGISTRY["StandardScaler"], {"withStd": False})],
    [lambda: configure(REGISTRY["MinMaxScaler"], {}),
     lambda: configure(REGISTRY["NoOp"], {})],
    [lambda: configure(REGISTRY["SelectKVariance"], {"k": 1}),
     lambda: configure(REGISTRY["SelectKVariance"], {"k": 2})],
]
ESTIMATOR_GROUPS = [
    [lambda: configure(REGISTRY["KNN"], {"k": 1}),
     lambda: configure(REGISTRY["KNN"], {"k": 3, "weighting": "distance"})],
    [lambda: configure(REGISTRY["LogRegGD"], {"iterations": 10}),
     lambda: configure(REGISTRY["LogRegGD"], {"iterations": 10, "solver": "sgd"}),
     lambda: configure(REGISTRY["LogRegGD"], {"iterations": 10, "penalty": "l1"})],
    [lambda: configure(REGISTRY["PrunedTree"], {"maxDepth": 2}),
     lambda: configure(REGISTRY["PrunedTree"], {"maxDepth": 3}),
     lambda: _loose("PrunedTree", {"R": True, "C": 0.3})],
    [lambda: configure(REGISTRY["DecisionStump"], {}),
     lambda: configure(REGISTRY["BoostedEnsemble"], {"n_estimators": 2}),
     lambda: configure(REGISTRY["BoostedEnsemble"], {
         "n_estimators": 2, "base": configure(REGISTRY["LogRegGD"], {"iterations": 10})})],
]


def _nested(steps):
    # A pipeline whose first step is itself a pipeline, after an optional
    # transformer.
    inner = og.Pipeline((og.pipe(steps[-3], steps[-2]), steps[-1]), ((0, 1),))
    return og.pipe(steps[0], inner) if len(steps) == 4 else inner


SHAPES = {
    "linear": lambda steps: functools.reduce(og.pipe, steps),
    "concat": lambda steps: og.pipe(og.pipe(og.both(steps[0], steps[1]),
                                            configure(REGISTRY["Concat"], {})), steps[2]),
    "nested": _nested,
    "two_sinks": lambda steps: og.both(*steps),
    # A pipeline step with two sinks, whose merged output feeds Concat.
    "nested_sinks": lambda steps: og.Pipeline(
        (og.both(steps[0], steps[1]), configure(REGISTRY["Concat"], {}), steps[2]),
        ((0, 1), (1, 2))),
}


@st.composite
def pipeline_families(draw):
    """1-4 pipelines of one shape and one group per slot: linear pipelines,
    Concat merges, nested pipelines, two-sink graphs and pipeline steps
    with two sinks, with estimators also in the middle."""
    groups = TRANSFORMER_GROUPS + ESTIMATOR_GROUPS
    shape = draw(st.sampled_from(sorted(SHAPES)))
    count = {"linear": draw(st.integers(0, 2)), "concat": 2, "two_sinks": 1,
             "nested": 2 + draw(st.integers(0, 1)), "nested_sinks": 2}[shape]
    slots = [draw(st.sampled_from(groups)) for _ in range(count)]
    slots.append(draw(st.sampled_from(ESTIMATOR_GROUPS)))
    if shape == "nested":
        slots[0] = draw(st.sampled_from(TRANSFORMER_GROUPS))
    return [SHAPES[shape]([draw(st.sampled_from(group))() for group in slots])
            for _ in range(draw(st.integers(1, 4)))]


def scored(score, op, splits):
    try:
        return "returned", score(op, splits)
    except Exception as exc:  # the exception's type is the outcome
        return "raised", type(exc)


def counting_fits(monkeypatch, impl_name):
    """Record the number of problems of each job fitted by one
    implementation."""
    calls = []
    impl = og.IMPLEMENTATIONS[impl_name]

    def fit(jobs):
        calls.extend(len(problems) for _, problems, _ in jobs)
        return impl.fit(jobs)

    monkeypatch.setitem(og.IMPLEMENTATIONS, impl_name, dataclasses.replace(impl, fit=fit))
    return calls


def counting_applies(monkeypatch, impl_name):
    """Record one entry per apply call of one implementation."""
    calls = []
    impl = og.IMPLEMENTATIONS[impl_name]

    def apply(artifacts, X):
        calls.append(1)
        return impl.apply(artifacts, X)

    monkeypatch.setitem(og.IMPLEMENTATIONS, impl_name, dataclasses.replace(impl, apply=apply))
    return calls


def is_share_key(key):
    """Whether a store key is a ``share`` result's: its third item is
    ``(input key, fold index)``, where a step output's is a content key (a
    digest, or a tuple of its parts' keys), which never ends with an int."""
    return isinstance(key[2], tuple) and isinstance(key[2][-1], int)


def step_entries(store):
    """The stored step outputs, keyed (impl, configuration, input key):
    every key but ``()``, the splits' own, and the share results'."""
    return {key: entry for key, entry in store.items() if key and not is_share_key(key)}


def share_entries(store):
    """The stored ``share`` results, keyed (impl, configuration cut to
    share_by, (input key, fold index))."""
    return {key: entry for key, entry in store.items() if key and is_share_key(key)}


def store_tags(store):
    """The implementation name of every step output in a splits' store,
    sorted."""
    return sorted(key[0] for key in step_entries(store))


class TestPrefixStore:
    @settings(max_examples=60, deadline=None)
    @given(families=st.lists(pipeline_families(), min_size=1, max_size=3),
           seed=st.integers(0, 3))
    def test_scores_equal_the_reference(self, families, seed):
        # One splits object serves every pipeline, twice over, so later
        # pipelines meet prefixes that earlier ones stored.
        splits = cv_splits(synth_dataset("xor", 36, seed), 3, seed)
        ops = [op for family in families for op in family]
        for op in ops + ops:
            reference = scored(reference_cross_val_score, op, splits)
            if len(og.sinks(op)) == 1:
                assert scored(cross_val_score, op, splits) == reference
                continue
            # Labels from two sinks: scoring refuses them before any fit,
            # the reference after fitting every step, if no fit raises.
            with pytest.MonkeyPatch.context() as patch:
                fits = [counting_fits(patch, name) for name in list(og.IMPLEMENTATIONS)]
                assert scored(cross_val_score, op, splits) == ("raised", og.ShapeMismatch)
            assert not any(fits)
            train, _, _ = next(iter(splits))
            try:
                fit(op, train)
            except Exception as exc:  # the reference's first fit error
                assert reference == ("raised", type(exc))
            else:
                assert reference == ("raised", og.ShapeMismatch)

    def test_shared_prefix_is_fitted_once_per_splits(self, monkeypatch, blobs):
        fits = counting_fits(monkeypatch, "standard_scaler")
        splits = cv_splits(blobs, 3)
        for k in (1, 3, 5):
            op = og.pipe(configure(REGISTRY["StandardScaler"], {"withStd": True}),
                         configure(REGISTRY["KNN"], {"k": k}))
            assert cross_val_score(op, splits) == reference_cross_val_score(op, splits)
        assert fits == [3] + [1] * 9  # once here, and once per fold per reference call
        del fits[:]
        cross_val_score(op, cv_splits(blobs, 3))  # other splits, another store
        cross_val_score(op, list(splits))  # a plain list has no store
        assert fits == [3, 3]

    def test_same_implementation_with_another_configuration_is_fitted_apart(self, blobs):
        splits = cv_splits(blobs, 3)
        for first in (configure(REGISTRY["Scaler"], {}),
                      configure(REGISTRY["StandardScaler"], {"withStd": False}),
                      configure(REGISTRY["StandardScaler"], {"withStd": False})):
            op = og.pipe(first, configure(REGISTRY["KNN"], {"k": 3}))
            assert cross_val_score(op, splits) == reference_cross_val_score(op, splits)
        assert len(step_entries(splits.store)) == 2

    def test_equal_branches_share_within_one_call(self, monkeypatch, xor_data):
        fits = counting_fits(monkeypatch, "minmax_scaler")
        union = og.both(configure(REGISTRY["MinMaxScaler"], {}),
                        configure(REGISTRY["MinMaxScaler"], {}))
        op = og.pipe(og.pipe(union, configure(REGISTRY["Concat"], {})),
                     configure(REGISTRY["KNN"], {}))
        splits = cv_splits(xor_data, 3)
        assert cross_val_score(op, list(splits)) == reference_cross_val_score(op, splits)
        assert fits == [3] + [1] * 6  # one here, two per fold in the reference

    def test_different_prefixes_with_equal_outputs_share_entries(self, monkeypatch, xor_data):
        # xor data has two columns, so NoOp and SelectKVariance with k >= 2
        # pass on its values unchanged. NoOp passes on the C-ordered arrays
        # themselves and SelectKVariance Fortran-ordered copies, so the
        # MinMaxScaler after them sees two input keys: it is fitted once
        # after NoOp and once after both SelectKVariance steps.
        fits = counting_fits(monkeypatch, "minmax_scaler")
        splits = cv_splits(xor_data, 3)
        for first in (configure(REGISTRY["NoOp"], {}),
                      configure(REGISTRY["SelectKVariance"], {"k": 2}),
                      configure(REGISTRY["SelectKVariance"], {"k": 3})):
            op = functools.reduce(og.pipe, [first, configure(REGISTRY["MinMaxScaler"], {}),
                                            configure(REGISTRY["KNN"], {})])
            assert cross_val_score(op, splits) == reference_cross_val_score(op, splits)
        assert fits == [3, 1, 1, 1, 3] + [1] * 6  # and once per fold per reference call
        assert [key[0] for key in step_entries(splits.store)].count("minmax_scaler") == 2

    def test_each_value_is_hashed_once(self, monkeypatch, blobs):
        # The splits' features get their key once per store, and each
        # non-final step's outputs once, when they are computed; a step
        # served from the store hashes nothing.
        digests = []
        content_key = og._content_key

        def counted(values):
            digests.append(len(values))
            return content_key(values)

        monkeypatch.setattr(og, "_content_key", counted)
        splits = cv_splits(blobs, 3)
        prefix = [configure(REGISTRY["Scaler"], {}), configure(REGISTRY["MinMaxScaler"], {})]
        for last in (configure(REGISTRY["KNN"], {}), configure(REGISTRY["KNN"], {}),
                     configure(REGISTRY["DecisionStump"], {})):
            cross_val_score(functools.reduce(og.pipe, prefix + [last]), splits)
        assert digests == [2 * len(splits)] * 3  # the features, then each prefix step
        cross_val_score(functools.reduce(og.pipe, prefix[:1] + [
            configure(REGISTRY["NoOp"], {}), configure(REGISTRY["KNN"], {})]), splits)
        assert len(digests) == 4
        cross_val_score(og.pipe(prefix[0], configure(REGISTRY["KNN"], {})), cv_splits(blobs, 3))
        assert len(digests) == 6  # another store keys its features again

    def test_failing_prefix_is_not_stored(self, monkeypatch, blobs):
        fits = counting_fits(monkeypatch, "pruned_tree")
        op = functools.reduce(og.pipe, [configure(REGISTRY["Scaler"], {}),
                                        _loose("PrunedTree", {"R": True, "C": 0.3}),
                                        configure(REGISTRY["KNN"], {})])
        splits = cv_splits(blobs, 3)
        for _ in range(3):
            with pytest.raises(ConstraintTrap):
                cross_val_score(op, splits)
        assert len(fits) == 3
        [key] = step_entries(splits.store)  # the scaler alone
        assert key[0] == "standard_scaler"

    def test_unkeyed_step_runs_every_trial_and_its_successors_are_stored(
            self, monkeypatch, blobs):
        # A step with an operator-valued hyperparameter and a frozen trained
        # step have no entry, so they map both sides of every fold on every
        # call; their outputs still get a content key, so the NoOp after
        # them is fitted once.
        boosted = configure(REGISTRY["BoostedEnsemble"], {
            "n_estimators": 2, "base": configure(REGISTRY["KNN"], {})})
        frozen = og.freeze_trained(fit(configure(REGISTRY["MinMaxScaler"], {}), blobs))
        for first in (boosted, frozen):
            op = functools.reduce(og.pipe, [first, configure(REGISTRY["NoOp"], {}),
                                            configure(REGISTRY["KNN"], {})])
            splits = cv_splits(blobs, 3)
            want = reference_cross_val_score(op, splits)
            fits, applies = counting_fits(monkeypatch, first.impl), counting_applies(
                monkeypatch, first.impl)
            noop_fits = counting_fits(monkeypatch, "noop")
            for _ in range(3):
                assert cross_val_score(op, splits) == want
            assert fits == ([] if first is frozen else [3, 3, 3])
            assert len(applies) == 3 * 2 * len(splits)
            assert noop_fits == [3]
            [key] = step_entries(splits.store)
            assert key[0] == "noop" and key[2] == splits.store[key][1]

    def test_stored_arrays_are_read_only(self, monkeypatch, xor_data):
        op = functools.reduce(og.pipe, [configure(REGISTRY["Scaler"], {}),
                                        configure(REGISTRY["LogRegGD"], {"iterations": 10}),
                                        configure(REGISTRY["KNN"], {})])
        splits = cv_splits(xor_data, 3)
        cross_val_score(op, splits)
        stored = [out for outputs, _ in step_entries(splits.store).values() for out in outputs]
        assert len(stored) == 2 * 2 * len(splits)  # two steps, both sides of each fold
        tables = share_entries(splits.store).values()  # KNN's, one per fold
        assert len(tables) == len(splits)
        stored += [array for table in tables for array in table]
        assert all(isinstance(out, np.ndarray) and not out.flags.writeable for out in stored)
        assert all(train.X.flags.writeable for train, _, _ in splits)  # views only

        def scribble(artifacts, X):
            X[:, 0] = 0.0
            return X

        monkeypatch.setitem(og.IMPLEMENTATIONS, "noop", dataclasses.replace(
            og.IMPLEMENTATIONS["noop"], apply=scribble))
        writer = functools.reduce(og.pipe, [configure(REGISTRY["Scaler"], {}),
                                            configure(REGISTRY["NoOp"], {}),
                                            configure(REGISTRY["KNN"], {})])
        for target in (splits, cv_splits(xor_data, 3)):  # stored, and just computed
            with pytest.raises(ValueError, match="read-only"):
                cross_val_score(writer, target)


# ---------------------------------------------------------------------------
# LogRegGD runs: one descent per run within a fit call, none kept across calls


@st.composite
def logreg_splits(draw):
    """Three-fold splits of 2-4 classes with at least two rows each, and
    sometimes NaN or +-inf cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(2 * n_classes + 1, 40))
    y = rng.integers(0, n_classes, n)
    y[:2 * n_classes] = np.repeat(np.arange(n_classes), 2)
    X = rng.standard_normal((n, draw(st.integers(1, 4)))) * draw(st.sampled_from([1.0, 1e3]))
    for bad in draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2)):
        X[rng.integers(n), rng.integers(X.shape[1])] = bad
    return cv_splits(LabeledDataset(X, y), 3)


@st.composite
def logreg_runs(draw):
    """LogRegGD configurations in groups that differ only in iterations,
    the groups differing in learningRate, penalty or solver, in a random
    order and with an optional first step before each."""
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        group = {"learningRate": draw(st.sampled_from([0.05, 0.5, 3.0])),
                 "penalty": draw(st.sampled_from(["l1", "l2"])),
                 "solver": draw(st.sampled_from(["gd", "sgd"]))}
        for iterations in draw(st.lists(st.integers(10, 40), min_size=1, max_size=4)):
            configs.append({**group, "iterations": iterations})
    first = draw(st.sampled_from([None, "NoOp", "MinMaxScaler"]))
    ops = []
    for config in draw(st.permutations(configs)):
        op = _loose("LogRegGD", config)
        ops.append(op if first is None else og.pipe(configure(REGISTRY[first], {}), op))
    return ops


def counting_descents(monkeypatch):
    """Record the step counts of each LogRegGD descent."""
    calls = []
    descent = toyml._logreg_descent

    def counted(descents, penalty, solver):
        calls.extend(counts for _, _, counts in descents)
        return descent(descents, penalty, solver)

    monkeypatch.setattr(toyml, "_logreg_descent", counted)
    return calls


class TestRunStore:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(splits=logreg_splits(), ops=logreg_runs())
    def test_resumed_runs_score_as_the_reference(self, splits, ops):
        want = [reference_cross_val_score(op, splits) for op in ops]
        assert [cross_val_score(op, splits) for op in ops] == want
        # Scored as one window, the runs that differ only in iterations
        # descend as one.
        assert [score for score, _ in toyml.cross_val_scores(ops, splits)] == want

    def test_each_call_descends_from_scratch(self, monkeypatch, blobs):
        calls = counting_descents(monkeypatch)
        splits = cv_splits(blobs, 3)
        op = og.pipe(configure(REGISTRY["Scaler"], {}),
                     configure(REGISTRY["LogRegGD"], {"iterations": 20, "solver": "sgd"}))
        scores = [cross_val_score(op, splits) for _ in range(2)]
        assert calls == [[20], [20]]
        # The store keeps the scaler's outputs and nothing of LogRegGD.
        assert store_tags(splits.store) == ["standard_scaler"]
        assert scores == [reference_cross_val_score(op, splits)] * 2

    def test_runs_are_kept_apart_by_input_and_configuration(self, monkeypatch, blobs):
        calls = counting_descents(monkeypatch)
        splits = cv_splits(blobs, 3)
        logreg = [configure(REGISTRY["LogRegGD"], {"iterations": 10, **config})
                  for config in ({}, {"learningRate": 0.2}, {"penalty": "l1"},
                                 {"solver": "sgd"})]
        scaled = og.pipe(configure(REGISTRY["Scaler"], {}), logreg[0])
        ops = logreg + [scaled, og.pipe(configure(REGISTRY["MinMaxScaler"], {}), logreg[0]),
                        og.pipe(configure(REGISTRY["Scaler"], {}), configure(
                            REGISTRY["LogRegGD"], {"iterations": 12}))]
        got = [score for score, _ in toyml.cross_val_scores(ops, splits)]
        # Only the two scaled fits that differ in iterations share a descent.
        assert sorted(calls) == [[10]] * 5 + [[10, 12]]
        assert got == [reference_cross_val_score(op, splits) for op in ops]

    def test_equal_inputs_share_runs_whatever_made_them(self, monkeypatch, xor_data):
        # xor data has two columns, so SelectKVariance with k >= 2 and NoOp
        # pass on its values unchanged. NoOp's outputs are the splits' own
        # arrays and have their content key; SelectKVariance's are
        # Fortran-ordered, another layout and so another key, and its run
        # descends alone. A frozen step has no entry, but its outputs still
        # have a content key.
        calls = counting_descents(monkeypatch)
        frozen = og.freeze_trained(fit(configure(REGISTRY["MinMaxScaler"], {}), xor_data))
        splits = cv_splits(xor_data, 3)
        firsts = [None, configure(REGISTRY["NoOp"], {}),
                  configure(REGISTRY["SelectKVariance"], {"k": 3}), frozen, frozen]
        ops = []
        for iterations, first in zip((10, 20, 30, 10, 25), firsts):
            op = configure(REGISTRY["LogRegGD"], {"iterations": iterations})
            ops.append(op if first is None else og.pipe(first, op))
        scores = [score for score, _ in toyml.cross_val_scores(ops, splits)]
        assert calls == [[10, 20], [30], [10, 25]]
        assert scores == [reference_cross_val_score(op, splits) for op in ops]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 4), n_classes=st.integers(2, 3),
           lr=st.sampled_from([0.05, 0.5, 3.0]), penalty=st.sampled_from(["l1", "l2"]),
           solver=st.sampled_from(["gd", "sgd"]), scaled=st.booleans(),
           counts=st.lists(st.integers(10, 40), min_size=2, max_size=2, unique=True))
    def test_runs_are_never_resumed_in_another_layout(self, seed, width, n_classes, lr, penalty,
                                                       solver, scaled, counts):
        # NoOp passes on the splits' C-ordered arrays, SelectKVariance with k
        # at the width Fortran-ordered copies with the same bytes, and a
        # Scaler after either keeps its input's layout. A descent's bits
        # depend on the layout, so the two fits of one window must not run
        # as one descent: each must give the weights of its own fit.
        rng = np.random.default_rng(seed)
        y = np.concatenate([np.repeat(np.arange(n_classes), 3),
                            rng.integers(0, n_classes, 3 * n_classes)])
        splits = cv_splits(LabeledDataset(rng.standard_normal((len(y), width)), y), 3)
        config = {"learningRate": lr, "penalty": penalty, "solver": solver}
        ops = []
        for first, iterations in zip(("NoOp", "SelectKVariance"), sorted(counts)):
            steps = [configure(REGISTRY[first], {"k": width} if first == "SelectKVariance" else {})]
            steps += [configure(REGISTRY["Scaler"], {})] if scaled else []
            steps.append(_loose("LogRegGD", {**config, "iterations": iterations}))
            ops.append(functools.reduce(og.pipe, steps))
        impl = og.IMPLEMENTATIONS["logreg_gd"]
        fitted = []

        def recorded(jobs):
            out = impl.fit(jobs)
            fitted.extend(out)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(og.IMPLEMENTATIONS, "logreg_gd",
                          dataclasses.replace(impl, fit=recorded))
            toyml.cross_val_scores(ops, splits)
        assert len(fitted) == len(ops)
        for op, artifacts in zip(ops, fitted):
            for got, (train, _, _) in zip(artifacts, splits):
                want = fit(op, train).steps[-1].artifacts
                assert got["weights"].tobytes() == want["weights"].tobytes()

    def test_a_failing_final_fit_leaves_the_others_in_the_window(self, monkeypatch, blobs):
        calls = counting_descents(monkeypatch)
        splits = cv_splits(blobs, 3)
        merged = og.pipe(og.both(configure(REGISTRY["NoOp"], {}), configure(REGISTRY["NoOp"], {})),
                         configure(REGISTRY["LogRegGD"], {"iterations": 10}))
        good = [configure(REGISTRY["LogRegGD"], {"iterations": k, "solver": "sgd"})
                for k in (20, 10, 20)]
        ops = [good[0], merged, good[1], good[2]]
        got = toyml.cross_val_scores(ops, splits)
        for op, (outcome, seconds) in zip(ops, got):
            kind = "raised" if isinstance(outcome, Exception) else "returned"
            assert (kind, type(outcome) if kind == "raised" else outcome) == scored(
                reference_cross_val_score, op, splits)
            assert seconds >= 0.0
        # The many-jobs fit raised before any descent, so each job was
        # fitted alone, in order, each from scratch.
        assert calls[:3] == [[20], [10], [20]]
        # Jobs with one run key in one window run as one descent.
        window = [configure(REGISTRY["LogRegGD"], {"iterations": k, "solver": "sgd"})
                  for k in (40, 30, 50, 40)]
        del calls[:]
        toyml.cross_val_scores(window, splits)
        assert calls == [[30, 40, 50]]
        assert store_tags(splits.store) == ["noop"]

    def test_failing_and_non_json_fits_store_no_run(self, monkeypatch, blobs):
        calls = counting_descents(monkeypatch)
        splits = cv_splits(blobs, 3)
        merged = og.pipe(og.both(configure(REGISTRY["NoOp"], {}),
                                 configure(REGISTRY["NoOp"], {})),
                         configure(REGISTRY["LogRegGD"], {"iterations": 10}))
        with pytest.raises(og.ShapeMismatch):
            cross_val_score(merged, splits)  # an input that LogRegGD refuses
        # A configuration that is not exact JSON descends alone, even beside
        # one that differs only in iterations.
        ops = [configure(REGISTRY["LogRegGD"], {"iterations": k, "learningRate": np.float64(0.1)})
               for k in (10, 20)]
        scores = [score for score, _ in toyml.cross_val_scores(ops, splits)]
        assert calls == [[10], [20]]
        assert scores == [reference_cross_val_score(op, splits) for op in ops]
        assert store_tags(splits.store) == ["noop"]


# ---------------------------------------------------------------------------
# Grown trees kept in a store: fits against the grow-then-prune-in-place oracle


TREE_CONFIGS = st.fixed_dictionaries({
    "maxDepth": st.integers(1, 6), "R": st.booleans(),
    "C": st.sampled_from([0.05, 0.1, 0.25, 0.4, 0.45])})


class TestSharedGrownTrees:
    @given(data=tree_data(),
           calls=st.lists(st.lists(TREE_CONFIGS, min_size=1, max_size=4), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_fits_on_one_store_give_the_oracle_trees(self, data, calls):
        # Windows of PrunedTree jobs, one call after another on one store:
        # every fit, in any order of C and across calls, gives the tree the
        # oracle grows and prunes in place, and every kept tree is as grown.
        X, y, _ = data
        half = len(y) // 2 + 1
        # Labels need not be contiguous class ids, so not LabeledDatasets.
        datasets = [SimpleNamespace(X=X, y=y), SimpleNamespace(X=X[:half], y=y[:half])]
        impl = og.IMPLEMENTATIONS["pruned_tree"]
        fitted, store = [], {}

        def recorded(jobs):
            out = impl.fit(jobs)
            fitted.extend(zip((config for config, _, _ in jobs), out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(og.IMPLEMENTATIONS, "pruned_tree", dataclasses.replace(impl, fit=recorded))
            for configs in calls:
                outcomes = og.fit_predict_many([_loose("PrunedTree", c) for c in configs],
                                               datasets, [X, X], store)
                for config, (outcome, _) in zip(configs, outcomes):
                    trapped = config["R"] and config["C"] != 0.25
                    assert isinstance(outcome, ConstraintTrap) == trapped
        assert len(fitted) == sum(not (c["R"] and c["C"] != 0.25) for cs in calls for c in cs)
        for config, artifacts in fitted:
            for artifact, rows in zip(artifacts, datasets):
                want = reference_fit_pruned_tree(config, rows.X, rows.y)
                assert tree_shape(artifact["tree"]) == tree_shape(want["tree"])
                assert artifact["n_classes"] == want["n_classes"]
            # A plain fit, which keeps nothing, gives the same trees.
            [plain] = impl.fit([(config, [(rows.X, rows.y) for rows in datasets], None)])
            assert [tree_shape(a["tree"]) for a in plain] == [
                tree_shape(a["tree"]) for a in artifacts]
        grown = {}
        for config, _ in fitted:
            named = {"maxDepth": config["maxDepth"], "R": config["R"]}
            for i, rows in enumerate(datasets):
                key = og._store_key("pruned_tree", named, (store[()], i))
                grown[key] = toyml._grow_unpruned(named, rows.X, rows.y)
        kept = {key: tree for key, tree in store.items() if key and key[0] == "pruned_tree"}
        assert kept.keys() == grown.keys()
        for key, tree in kept.items():
            assert tree_shape(tree) == tree_shape(grown[key])


# ---------------------------------------------------------------------------
# KNN neighbour tables: one per input and fold, built whole


@st.composite
def knn_splits(draw):
    """One to three folds of two integer-valued columns (ties are common,
    sometimes NaN or +-inf cells) and up to 20 training rows, or 26 to 45
    so that a k above the table's width takes the direct path, with C- or
    Fortran-ordered held-out inputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n_train = draw(st.one_of(st.integers(2, 20), st.integers(toyml.KNN_TABLE_K + 1, 45)))
        pool = _integer_values(draw, rng, (draw(st.integers(1, n_train)), 2))
        train = SimpleNamespace(X=pool[rng.integers(0, len(pool), n_train)],
                                y=rng.integers(0, 3, n_train))
        test_X = _integer_values(draw, rng, (draw(st.integers(1, 10)), 2))
        if draw(st.booleans()):
            test_X = np.asfortranarray(test_X)
        parts.append((train, test_X, rng.integers(0, 3, len(test_X))))
    return toyml.CvSplits(parts)


# Steps before KNN. On two columns NoOp passes on views of the pipeline's
# input, with its content key, and SelectKVariance with k=2 and k=3 gives
# distinct copies with one content key, so each pair's KNN steps read one
# table through held-out inputs that are not the arrays it was made from. A
# KNN first step also maps the training inputs of the folds.
KNN_INPUTS = {
    "none": lambda: None,
    "noop": lambda: configure(REGISTRY["NoOp"], {}),
    "select2": lambda: configure(REGISTRY["SelectKVariance"], {"k": 2}),
    "select3": lambda: configure(REGISTRY["SelectKVariance"], {"k": 3}),
    "knn": lambda: configure(REGISTRY["KNN"], {"k": 2}),
}


# KNN with k admitted up to 40, above the width of its neighbour tables.
WIDE_KNN = og.customize_schema(
    REGISTRY["KNN"], {"k": schema_model.RangeNode(1, 40, integer_valued=True, default=5)})


def knn_pipeline(first, k, weighting="uniform"):
    knn = configure(WIDE_KNN, {"k": k, "weighting": weighting})
    step = KNN_INPUTS[first]()
    return knn if step is None else og.pipe(step, knn)


class TestSharedNeighbours:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @given(splits=knn_splits(),
           windows=st.lists(st.lists(st.tuples(st.sampled_from(sorted(KNN_INPUTS)),
                                               st.integers(1, 40),
                                               st.sampled_from(["uniform", "distance"])),
                                     min_size=1, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_predictions_equal_the_reference(self, splits, windows):
        # Windows one after another on one store, their k growing and
        # shrinking, and often at least the training rows.
        datasets = [train for train, _, _ in splits]
        held_out = [test_X for _, test_X, _ in splits]
        for window in windows:
            ops = [knn_pipeline(*spec) for spec in window]
            for op, (outcome, _) in zip(ops, og.fit_predict_many(ops, datasets, held_out,
                                                                 splits.store)):
                for got, train, test_X in zip(outcome, datasets, held_out):
                    want = predict(fit(op, train), test_X)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert [score for score, _ in toyml.cross_val_scores(ops, splits)] == [
                reference_cross_val_score(op, splits) for op in ops]
        assert share_entries(splits.store)

    def test_each_table_is_sorted_once(self, monkeypatch):
        calls = []
        smallest_k = toyml._smallest_k

        def counted(d2, k):
            calls.append(k)
            return smallest_k(d2, k)

        monkeypatch.setattr(toyml, "_smallest_k", counted)
        for n, width in ((24, 16), (48, 25)):  # 16 and 32 training rows per fold
            calls.clear()
            splits = cv_splits(synth_dataset("xor", n, 1), 3)
            asked = [("none", 3), ("noop", 1), ("noop", 5), ("none", 25), ("select2", 2),
                     ("select3", 9), ("noop", 2), ("select2", 25), ("select3", 20), ("none", 30)]
            scores = [cross_val_score(knn_pipeline(first, k), splits) for first, k in asked]
            # Per fold: one table for the KNN alone and after NoOp, one after
            # either SelectKVariance, each sorted once; k = 30 on 32 training
            # rows is wider than the tables and sorts its own distances.
            assert calls == [width] * 6 + [30] * 3 * (n == 48)
            tables = share_entries(splits.store).values()
            for (order, d2), (_, test_X, _) in zip(tables, splits + splits):
                assert order.dtype == np.int32 and d2.dtype == np.float64
                assert order.shape == d2.shape == (len(test_X), width)
            assert scores == [reference_cross_val_score(knn_pipeline(first, k), splits)
                              for first, k in asked]

    def test_table_width_is_the_schema_maximum(self):
        doc = json.loads((toyml.default_schemas_dir() / "KNN.schema.json").read_text())
        assert toyml.KNN_TABLE_K == doc["properties"]["k"]["maximum"]
