"""Golden search histories: seeded runs whose history JSON (timing fields
zeroed) must stay byte-identical when the evaluation code is optimised.

The digests were recorded from the per-row reference implementations of
tree growth, sgd row drawing and fold splitting. A changed digest means a
seeded search result changed, which a speed-up must never do.
"""

import hashlib
import json

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
