import json
import math
import random
import statistics
import sys

import pytest

from lalec import optimizer as opt
from lalec import toyml
from lalec.operator_graph import configure, freeze_trainable, pipe
from lalec.pipeline_dsl import parse_expr
from lalec.space_backends import compile_space, sample_space
from lalec.optimizer import (
    History,
    OptimizerSpec,
    bandit_search,
    grid_search,
    make_cv_objective,
    random_search,
)


@pytest.fixture(scope="module")
def ablation(registry, blobs):
    op = parse_expr("Scaler >> (PrunedTree | LogRegGD | KNN)", registry)
    constrained = compile_space(op)
    unconstrained = compile_space(op, keep_constraints=False)
    return {
        "constrained": (constrained, make_cv_objective(constrained, blobs, folds=3)),
        "unconstrained": (unconstrained, make_cv_objective(unconstrained, blobs, folds=3)),
    }


def canonical(history: History) -> str:
    return json.dumps(history.to_json(include_timing=False), sort_keys=True)


class TestRandomSearch:
    def test_constrained_has_zero_invalid(self, ablation):
        compiled, objective = ablation["constrained"]
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=100, seed=0))
        assert history.count(opt.INVALID_CONFIG) == 0
        assert history.count(opt.RUNTIME_ERROR) == 0

    def test_unconstrained_records_penalties(self, ablation):
        compiled, objective = ablation["unconstrained"]
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=120, seed=0))
        assert history.invalid_count() >= 1
        for trial in history.trials:
            if trial.status != opt.VALID:
                assert trial.loss == sys.float_info.max

    def test_empty_space_single_default_trial(self, registry, blobs):
        p = pipe(freeze_trainable(configure(registry["Scaler"], {})),
                 freeze_trainable(configure(registry["KNN"], {})))
        compiled = compile_space(p)
        objective = make_cv_objective(compiled, blobs, folds=3)
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=50, seed=0))
        assert len(history.trials) == 1
        assert history.trials[0].point == {}
        assert history.best == 0

    def test_loguniform_median(self):
        # Median of a loguniform draw over (1, 1000) is sqrt(1000) ~ 31.6.
        doc = {"kind": "disjuncts", "operator": "x", "disjuncts": [{
            "x": {"kind": "continuous", "lo": 1.0, "hi": 1000.0, "loOpen": False,
                  "hiOpen": False, "integer": False, "distribution": "loguniform"}}]}
        rng = random.Random(0)
        draws = [sample_space(doc, rng)["x"] for _ in range(10000)]
        assert 20.0 <= statistics.median(draws) <= 50.0
        assert min(draws) >= 1.0 and max(draws) <= 1000.0

    def test_quantized_draws(self):
        doc = {"kind": "disjuncts", "operator": "x", "disjuncts": [{
            "x": {"kind": "continuous", "lo": 0.0, "hi": 1.0, "loOpen": True,
                  "hiOpen": True, "integer": False, "distribution": "uniform",
                  "quantization": 0.1}}]}
        rng = random.Random(1)
        for _ in range(200):
            value = sample_space(doc, rng)["x"]
            assert 0.0 < value < 1.0
            assert math.isclose(value % 0.1, 0, abs_tol=1e-9) or \
                math.isclose(value % 0.1, 0.1, abs_tol=1e-9)

    def test_history_deterministic(self, ablation):
        compiled, objective = ablation["constrained"]
        spec = OptimizerSpec(max_trials=40, seed=11)
        a = random_search(compiled.hierarchical(), objective, spec)
        b = random_search(compiled.hierarchical(), objective, spec)
        assert canonical(a) == canonical(b)
        c = random_search(compiled.hierarchical(), objective,
                          OptimizerSpec(max_trials=40, seed=12))
        assert canonical(a) != canonical(c)

    def test_history_round_trips_through_json(self, ablation):
        compiled, objective = ablation["constrained"]
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=10, seed=3))
        again = History.from_json(json.loads(json.dumps(history.to_json())))
        assert canonical(again) == canonical(history)

    def test_best_monotone_and_valid(self, ablation):
        compiled, objective = ablation["unconstrained"]
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=60, seed=2))
        curve = history.best_so_far()
        assert all(curve[i + 1][1] <= curve[i][1] for i in range(len(curve) - 1))
        assert history.trials[history.best].status == opt.VALID

    def test_penalty_never_best_while_valid_exists(self, ablation):
        compiled, objective = ablation["unconstrained"]
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=60, seed=4))
        assert any(t.status == opt.VALID for t in history.trials)
        assert history.trials[history.best].status == opt.VALID

    def test_parallel_jobs_keep_trial_order(self, ablation):
        compiled, objective = ablation["constrained"]
        spec = OptimizerSpec(max_trials=24, seed=9)
        sequential = random_search(compiled.hierarchical(), objective, spec)
        parallel = random_search(compiled.hierarchical(), objective, spec, jobs=4)
        assert canonical(sequential) == canonical(parallel)


class TestGridSearch:
    def test_exhaustive_and_counted(self, registry, blobs):
        op = parse_expr("PCA >> (J48 | LR)", registry)
        compiled = compile_space(op)
        grid = compiled.grid(1, 0)

        seen = []

        def objective(point):
            seen.append(point)
            return float(len(seen))

        history = grid_search(grid, objective, OptimizerSpec(strategy="grid", max_trials=100))
        assert len(history.trials) == grid["cellCount"] == 27

    def test_too_large(self, registry, blobs):
        op = parse_expr("PCA >> (J48 | LR)", registry)
        grid = compile_space(op).grid(1, 0)
        with pytest.raises(opt.GridTooLarge):
            grid_search(grid, lambda p: 0.0, OptimizerSpec(strategy="grid", max_trials=10))

    def test_single_cell(self, registry):
        grid = compile_space(configure(registry["StandardScaler"],
                                       {"withMean": True, "withStd": True})).grid(1, 0)
        history = grid_search(grid, lambda p: 1.0, OptimizerSpec(strategy="grid"))
        assert len(history.trials) == 1

    def test_argmin_by_construction(self, registry, blobs):
        op = parse_expr("PCA >> (J48 | LR)", registry)
        grid = compile_space(op).grid(1, 0)
        history = grid_search(
            grid, lambda point: 0.0 if point["step1__D"] == "LR" else 1.0,
            OptimizerSpec(strategy="grid", max_trials=100))
        assert history.trials[history.best].point["step1__D"] == "LR"


class TestBanditSearch:
    def test_gives_up_on_trap_branch(self, ablation):
        compiled_c, objective_c = ablation["constrained"]
        compiled_u, objective_u = ablation["unconstrained"]
        spec = OptimizerSpec(strategy="bandit", max_trials=200, seed=0)
        constrained = bandit_search(compiled_c.hierarchical(), objective_c, spec)
        unconstrained = bandit_search(compiled_u.hierarchical(), objective_u, spec)

        def tree_share(history):
            window = [t for t in history.trials if 100 <= t.index < 200]
            return sum(1 for t in window
                       if t.point["step1__D"] == "PrunedTree") / len(window)

        assert unconstrained.invalid_count() >= 1
        assert tree_share(unconstrained) < 1 / 3  # below the uniform share
        assert tree_share(constrained) > tree_share(unconstrained)

    def test_share_recovers_when_constrained(self, ablation):
        # With constraints kept the tree branch never fails, scores best,
        # and exploitation concentrates on it.
        compiled, objective = ablation["constrained"]
        spec = OptimizerSpec(strategy="bandit", max_trials=150, seed=1)
        history = bandit_search(compiled.hierarchical(), objective, spec)
        picks = [t.point["step1__D"] for t in history.trials[50:]]
        assert picks.count("PrunedTree") / len(picks) > 0.5

    def test_epsilon_one_is_uniform(self, ablation):
        compiled, objective = ablation["constrained"]
        spec = OptimizerSpec(strategy="bandit", max_trials=300, seed=5, bandit_epsilon=1.0)
        history = bandit_search(compiled.hierarchical(), objective, spec)
        counts = {}
        for trial in history.trials:
            counts[trial.point["step1__D"]] = counts.get(trial.point["step1__D"], 0) + 1
        # Binomial(300, 1/3): four standard deviations around the mean.
        for value in ("PrunedTree", "LogRegGD", "KNN"):
            assert abs(counts.get(value, 0) - 100) < 4 * math.sqrt(300 * (1 / 3) * (2 / 3))

    def test_no_top_level_choice_falls_back(self, registry, blobs):
        compiled = compile_space(parse_expr("Scaler >> KNN", registry))
        objective = make_cv_objective(compiled, blobs, folds=3)
        spec = OptimizerSpec(strategy="bandit", max_trials=10, seed=0)
        history = bandit_search(compiled.hierarchical(), objective, spec)
        assert len(history.trials) == 10

    def test_rejects_concurrency(self, ablation):
        compiled, objective = ablation["constrained"]
        with pytest.raises(ValueError):
            bandit_search(compiled.hierarchical(), objective,
                          OptimizerSpec(strategy="bandit", max_trials=5), jobs=2)

    def test_deterministic(self, ablation):
        compiled, objective = ablation["constrained"]
        spec = OptimizerSpec(strategy="bandit", max_trials=30, seed=8)
        assert canonical(bandit_search(compiled.hierarchical(), objective, spec)) == \
            canonical(bandit_search(compiled.hierarchical(), objective, spec))


class TestCvObjective:
    def test_separable_blobs_reach_zero_loss(self, registry, blobs):
        compiled = compile_space(parse_expr("Scaler >> KNN", registry))
        objective = make_cv_objective(compiled, blobs, folds=3)
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=20, seed=0))
        assert history.trials[history.best].loss == 0.0

    def test_frozen_point_repeatable(self, registry, blobs):
        frozen = pipe(freeze_trainable(configure(registry["Scaler"], {})),
                      freeze_trainable(configure(registry["KNN"], {"k": 3})))
        compiled = compile_space(frozen)
        objective = make_cv_objective(compiled, blobs, folds=4)
        assert objective({}) == objective({})

    def test_trap_config_scores_penalty(self, registry, blobs):
        op = parse_expr("Scaler >> PrunedTree", registry)
        compiled = compile_space(op, keep_constraints=False)
        objective = make_cv_objective(compiled, blobs, folds=3)
        bad_point = {"prunedtree__R": True, "prunedtree__C": 0.4, "prunedtree__maxDepth": 3}
        with pytest.raises(toyml.ConstraintTrap):
            objective(bad_point)
        history = random_search(compiled.hierarchical(),
                                lambda p: objective(p),
                                OptimizerSpec(max_trials=1, seed=0))
        assert history.trials[0].status in (opt.VALID, opt.RUNTIME_ERROR)

    def test_invalid_config_signalled(self, registry, blobs):
        compiled = compile_space(parse_expr("Scaler >> PrunedTree", registry))
        objective = make_cv_objective(compiled, blobs, folds=3)
        with pytest.raises(opt.InvalidConfigError):
            objective({"prunedtree__R": True, "prunedtree__C": 0.4,
                       "prunedtree__maxDepth": 3})

    def test_folds_split_once_per_objective(self, registry, blobs, monkeypatch):
        calls = []
        split = toyml.stratified_folds
        monkeypatch.setattr(toyml, "stratified_folds",
                            lambda *args: calls.append(args) or split(*args))
        compiled = compile_space(parse_expr("Scaler >> (KNN | LogRegGD)", registry))
        objective = make_cv_objective(compiled, blobs, folds=3)
        assert calls == []
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=12, seed=0))
        assert history.count(opt.VALID) == 12
        assert len(calls) == 1

    def test_unsplittable_folds_fail_every_trial(self, registry, monkeypatch):
        calls = []
        split = toyml.stratified_folds
        monkeypatch.setattr(toyml, "stratified_folds",
                            lambda *args: calls.append(args) or split(*args))
        tiny = toyml.synth_dataset("blobs", 8, 0)
        compiled = compile_space(parse_expr("Scaler >> KNN", registry))
        objective = make_cv_objective(compiled, tiny, folds=9)  # more folds than rows
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=3, seed=0))
        assert [t.status for t in history.trials] == [opt.RUNTIME_ERROR] * 3
        assert len(calls) == 3
