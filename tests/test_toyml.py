import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lalec import operator_graph as og
from lalec import toyml
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
    train_test_split,
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
        assert ds.column_names == ("a", "b")
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


class TestSplits:
    def test_stratified_66_split(self):
        ds = synth_dataset("blobs", 100, 0)
        train, test = train_test_split(ds, 0.66, 5)
        assert len(train.y) == 66 and len(test.y) == 34
        assert abs(int(train.y.sum()) - 33) <= 1

    def test_folds_partition(self):
        ds = synth_dataset("xor", 60, 0)
        folds = stratified_folds(ds, 5, 1)
        all_indices = sorted(i for fold in folds for i in fold)
        assert all_indices == list(range(60))
        assert {len(f) for f in folds} == {12}

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

    def test_cross_val_frozen_trained_is_plain_accuracy(self, registry, blobs):
        trained = og.freeze_trained(fit(configure(registry["KNN"], {"k": 3}), blobs))
        score = cross_val_score(trained, cv_splits(blobs, 4))
        assert score == pytest.approx(accuracy(predict(trained, blobs.X), blobs.y))


class TestOperators:
    def test_standard_scaler_hand_arithmetic(self, registry):
        data = LabeledDataset(np.array([[1.0], [3.0]]), np.array([0, 1]))
        trained = fit(configure(registry["StandardScaler"], {}), data)
        assert trained.artifacts["mean"].tolist() == [2.0]
        assert trained.artifacts["scale"].tolist() == [1.0]
        assert predict(trained, data.X).tolist() == [[-1.0], [1.0]]

    def test_scaler_round_trip(self, registry, blobs):
        for name in ("StandardScaler", "MinMaxScaler"):
            trained = fit(configure(registry[name], {}), blobs)
            impl = og.implementation_of(trained)
            restored = impl.inverse(trained.artifacts, predict(trained, blobs.X))
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


def tree_shape(node):
    """(feature, threshold bits, counts, label) of every node, preorder."""
    out = [(node.get("feature"),
            None if "threshold" not in node else np.float64(node["threshold"]).tobytes(),
            node["counts"].tolist(), node["label"])]
    if "feature" in node:
        assert type(node["feature"]) is int and type(node["threshold"]) is float
        out += tree_shape(node["left"]) + tree_shape(node["right"])
    return out


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


class TestReferenceOracles:
    @given(tree_data(), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_grow_tree_matches_per_threshold_reference(self, data, max_depth):
        X, y, n_classes = data
        got = toyml._grow_tree(X, y, n_classes, 0, max_depth)
        want = reference_grow_tree(X, y, n_classes, 0, max_depth)
        assert tree_shape(got) == tree_shape(want)

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

    @given(st.integers(1, 2**16), st.integers(0, 2000), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bulk_rows_match_randrange_loop(self, n, count, seed):
        reference = random.Random(seed)
        want = [reference.randrange(n) for _ in range(count)]
        assert toyml._draw_rows(random.Random(seed), n, count).tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**31 + 1, 2**32 - 1])
    def test_bulk_rows_at_bit_length_edges(self, n):
        reference = random.Random(n)
        want = [reference.randrange(n) for _ in range(500)]
        assert toyml._draw_rows(random.Random(n), n, 500).tolist() == want

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
        got = toyml._logreg_descent(Xb, t, lr, iterations, penalty, solver)
        assert got.tobytes() == want.tobytes()
