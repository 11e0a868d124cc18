"""Golden search histories: seeded runs whose history JSON (timing fields
zeroed) must stay byte-identical when the evaluation code is optimised.

The digests were recorded from the reference implementations kept in
tests/test_toyml.py: per-row tree growth, sgd row drawing and fold
splitting, the descent step that checks finiteness every iteration, and
k-nearest neighbours by a full stable sort of every distance row. A changed digest means a
seeded search result changed, which a speed-up must never do.
"""

import hashlib
import json

import numpy as np
import pytest

from lalec import optimizer as opt
from lalec import toyml
from lalec.pipeline_dsl import parse_expr
from lalec.space_backends import compile_space


def history_digest(history) -> str:
    doc = history.to_json(include_timing=False)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CRITERION_8 = {
    True: "9807b7037dab4f3491a4c23fe50f8394c729903c2e8768f4edd2380caad2be0b",
    False: "460c281dab51e915341bd2c5942c233addf2c0d70b096fb2c737515068f87c1a",
}


@pytest.mark.parametrize("keep_constraints", [True, False],
                         ids=["constrained", "unconstrained"])
def test_criterion_8_bandit_history_is_pinned(registry, blobs, keep_constraints):
    # The criterion-8 ablation run: blobs n=120 seed 0, 3 folds, 200 trials.
    op = parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)", registry)
    compiled = compile_space(op, keep_constraints=keep_constraints)
    objective = opt.make_cv_objective(compiled, blobs, folds=3)
    spec = opt.OptimizerSpec(strategy="bandit", max_trials=200, seed=0)
    history = opt.bandit_search(compiled.hierarchical(), objective, spec)
    assert history_digest(history) == CRITERION_8[keep_constraints]


def test_random_search_with_sgd_and_boosting_is_pinned(registry, xor_data):
    op = parse_expr("Scaler >> (LogRegGD | BoostedEnsemble)", registry)
    compiled = compile_space(op)
    objective = opt.make_cv_objective(compiled, xor_data, folds=3)
    spec = opt.OptimizerSpec(strategy="random", max_trials=60, seed=0)
    history = opt.random_search(compiled.hierarchical(), objective, spec)
    sgd = [t for t in history.trials
           if t.point.get("step1__solver") == "sgd" and t.status == opt.VALID]
    assert len(sgd) >= 5  # the pin covers the stochastic solver's row draws
    assert history_digest(history) == (
        "41fd43722ae3cbffab7892335ebfe136def0f1e30c9f85ab744585d544be6815")


SEARCH_CLI_EXPR = "(StandardScaler | MinMaxScaler | NoOp) >> SelectKVariance >> (LogRegGD | KNN)"

KNN_LOGREG = {
    "random": "b4bced3fae691f36e7d2e2bf66449934e8b379d0abbaf7bdca66330fa76c10b0",
    "grid": "0d8627572f293f98edc881f48be101726f3e88068dfcb24389d41db0431d96f4",
}


def _covers_knn_and_logreg_variants(history) -> bool:
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    return (any(p["step2__D"] == "KNN" and p["step2__weighting"] == "distance"
                and p["step2__k"] > 1 for p in valid)
            and any(p["step2__D"] == "LogRegGD" and p["step2__penalty"] == "l1"
                    for p in valid)
            and any(p["step2__D"] == "LogRegGD" and p["step2__solver"] == "sgd"
                    for p in valid))


@pytest.mark.parametrize("strategy", ["random", "grid"])
def test_knn_and_logreg_search_is_pinned(registry, strategy):
    # The search_cli benchmark's pipeline, smaller: moonsApprox n=120 seed 0,
    # 3 folds, 60 random trials or all 236 grid cells (cont_samples=1).
    compiled = compile_space(parse_expr(SEARCH_CLI_EXPR, registry))
    data = toyml.synth_dataset("moonsApprox", 120, 0)
    objective = opt.make_cv_objective(compiled, data, folds=3)
    spec = opt.OptimizerSpec(strategy=strategy, max_trials=60 if strategy == "random" else 300,
                             seed=0)
    if strategy == "random":
        history = opt.random_search(compiled.hierarchical(), objective, spec)
    else:
        history = opt.grid_search(compiled.grid(1, 0), objective, spec)
    # The pin covers distance-weighted votes over several neighbours, the l1
    # penalty and the stochastic solver.
    assert _covers_knn_and_logreg_variants(history)
    assert history_digest(history) == KNN_LOGREG[strategy]


def three_blobs(n=150, seed=4):
    """Three gaussian clusters in 3 features, labels 0-2 in shuffled order,
    so a LogRegGD fit runs one one-vs-rest descent per class."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 2.0, 0.0], [2.0, -1.0, 0.5], [-2.0, -1.0, -0.5]])
    y = rng.permutation(np.arange(n) % 3)
    X = centers[y] + 1.1 * rng.standard_normal((n, 3))
    return toyml.LabeledDataset(X, y)


THREE_CLASS = {
    "random": "d3be83008ef23a808afbe8bec602474eb3f8a27359f5a79b7493004e24643c8f",
    "grid": "9bde8a7b7953612acec4cb1e33ebb88a684b3eadd16da3d4f8a4cca455bdf781",
}


@pytest.mark.parametrize("strategy", ["random", "grid"])
def test_three_class_logreg_search_is_pinned(registry, strategy):
    # 3 folds x 3 one-vs-rest targets: every LogRegGD trial runs nine descents.
    compiled = compile_space(parse_expr("(StandardScaler | NoOp) >> LogRegGD", registry))
    data = three_blobs()
    assert data.n_classes == 3
    objective = opt.make_cv_objective(compiled, data, folds=3)
    spec = opt.OptimizerSpec(strategy=strategy, max_trials=60 if strategy == "random" else 300,
                             seed=0)
    if strategy == "random":
        history = opt.random_search(compiled.hierarchical(), objective, spec)
    else:
        history = opt.grid_search(compiled.grid(1, 0), objective, spec)
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    # The pin covers both solvers and both penalties.
    assert any(p["logreggd__solver"] == "gd" for p in valid)
    assert any(p["logreggd__solver"] == "sgd" for p in valid)
    assert any(p["logreggd__penalty"] == "l1" for p in valid)
    assert history_digest(history) == THREE_CLASS[strategy]


def test_concat_merge_search_is_pinned(registry, xor_data):
    # Two branches fitted on the same folds and merged by Concat before the
    # estimator: covers the merge path of the multi-dataset walker.
    op = parse_expr("(Scaler & NoOp) >> Concat >> (LogRegGD | KNN)", registry)
    compiled = compile_space(op)
    objective = opt.make_cv_objective(compiled, xor_data, folds=3)
    spec = opt.OptimizerSpec(strategy="random", max_trials=60, seed=0)
    history = opt.random_search(compiled.hierarchical(), objective, spec)
    valid = [t.point for t in history.trials if t.status == opt.VALID]
    assert any(p["step3__D"] == "LogRegGD" for p in valid)
    assert any(p["step3__D"] == "KNN" for p in valid)
    assert history_digest(history) == (
        "e7ca4328afd5e0d5d9606e827410ac183aabdbfaae1b8b57055c7856d33419b9")
