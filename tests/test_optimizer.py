import functools
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lalec import grammar_engine
from lalec import operator_graph as og
from lalec import optimizer as opt
from lalec import schema_model as sm
from lalec import toyml
from lalec.operator_graph import choose, configure, freeze_trainable, pipe
from lalec.pipeline_dsl import parse_expr, parse_grammar
from lalec.space_backends import compile_space, sample_space
from lalec.optimizer import (
    History,
    OptimizerSpec,
    bandit_search,
    grid_search,
    make_cv_objective,
    random_search,
)
from oracles import reference_bandit_search, reference_cv_objective, space_dimensions


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
        with pytest.raises(opt.GridTooLarge, match=r"^27 cells exceed the cap of 10 trials$"):
            grid_search(grid, lambda p: 0.0, OptimizerSpec(strategy="grid", max_trials=10))

    def test_too_large_refused_before_building_cells(self):
        class Unbuildable:
            def __iter__(self):
                raise AssertionError("cells were built before the cap was checked")

        grid = {"disjuncts": Unbuildable(), "cellCount": 10**12}
        with pytest.raises(opt.GridTooLarge):
            grid_search(grid, lambda p: 0.0, OptimizerSpec(strategy="grid", max_trials=300))

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

    def test_deterministic(self, ablation):
        compiled, objective = ablation["constrained"]
        spec = OptimizerSpec(strategy="bandit", max_trials=30, seed=8)
        assert canonical(bandit_search(compiled.hierarchical(), objective, spec)) == \
            canonical(bandit_search(compiled.hierarchical(), objective, spec))


class TestRun:
    @pytest.mark.parametrize("strategy", ["random", "grid", "bandit"])
    def test_each_strategy_searches_its_encoding(self, ablation, strategy):
        compiled, _ = ablation["constrained"]

        def objective(point):
            return len(json.dumps(point, sort_keys=True)) % 7 / 7

        spec = OptimizerSpec(strategy=strategy, max_trials=300, seed=4)
        if strategy == "grid":
            expected = grid_search(compiled.grid(2, 4), objective, spec)
        elif strategy == "bandit":
            expected = bandit_search(compiled.hierarchical(), objective, spec)
        else:
            expected = random_search(compiled.hierarchical(), objective, spec)
        assert canonical(opt.run(compiled, objective, spec, 2)) == canonical(expected)

    def test_strategy_names_are_defined_once(self):
        # The CLI lists the strategies in this order.
        assert opt.STRATEGIES == ("random", "grid", "bandit")
        assert OptimizerSpec().strategy == opt.STRATEGIES[0]
        with pytest.raises(ValueError, match="^unknown strategy 'Grid'$"):
            OptimizerSpec(strategy="Grid")


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

    def test_nan_integer_is_an_invalid_config(self, registry, blobs):
        objective = make_cv_objective(compile_space(registry["KNN"]), blobs, folds=3)
        grid = {"disjuncts": [{"params": {"knn__k": [math.nan]}}], "cellCount": 1}
        history = grid_search(grid, objective, OptimizerSpec(strategy="grid"))
        assert history.trials[0].status == opt.INVALID_CONFIG

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


def counting(monkeypatch, score=None):
    """Record each candidate that toyml.cross_val_scores scores; with
    `score`, score each one by a call of it instead."""
    calls = []
    scores = toyml.cross_val_scores

    def counted(candidates, splits):
        calls.extend(candidates)
        if score is None:
            return scores(candidates, splits)
        outcomes = []
        for candidate in candidates:
            try:
                outcomes.append((score(candidate, splits), 0.0))
            except Exception as exc:  # the window's outcome for this candidate
                outcomes.append((exc, 0.0))
        return outcomes

    monkeypatch.setattr(toyml, "cross_val_scores", counted)
    return calls


def outcome(objective, point):
    try:
        return "returned", objective(point)
    except Exception as exc:  # the exception's type is the outcome
        return "raised", type(exc)


class TestCvObjectiveMemo:
    def test_scores_each_distinct_valid_point_once(self, ablation, blobs, monkeypatch):
        compiled, _ = ablation["constrained"]
        calls = counting(monkeypatch)
        objective = make_cv_objective(compiled, blobs, folds=3)
        spec = OptimizerSpec(strategy="bandit", max_trials=80, seed=0)
        history = bandit_search(compiled.hierarchical(), objective, spec)
        distinct = {json.dumps(t.point, sort_keys=True) for t in history.trials
                    if t.status == opt.VALID}
        assert len(distinct) < history.count(opt.VALID)  # the run repeats points
        assert len(calls) == len(distinct)
        point = history.trials[history.best].point
        assert objective(dict(point)) == history.trials[history.best].loss
        assert len(calls) == len(distinct)

    def test_failing_point_raises_on_every_call(self, registry, blobs, monkeypatch):
        trap = {"prunedtree__R": True, "prunedtree__C": 0.4, "prunedtree__maxDepth": 3}
        op = parse_expr("Scaler >> PrunedTree", registry)
        calls = counting(monkeypatch)
        objective = make_cv_objective(compile_space(op, keep_constraints=False), blobs, folds=3)
        for _ in range(3):
            with pytest.raises(toyml.ConstraintTrap):
                objective(trap)
        assert len(calls) == 3
        objective = make_cv_objective(compile_space(op), blobs, folds=3)
        for _ in range(3):
            with pytest.raises(opt.InvalidConfigError):
                objective(trap)

    def test_runtime_error_is_never_stored(self, registry, blobs, monkeypatch):
        def fail(candidate, splits):
            raise ArithmeticError("fit failed")

        calls = counting(monkeypatch, fail)
        objective = make_cv_objective(compile_space(parse_expr("Scaler >> KNN", registry)),
                                      blobs, folds=3)
        point = {"knn__k": 3, "knn__weighting": "uniform"}
        for _ in range(3):
            assert outcome(objective, point) == ("raised", ArithmeticError)
        assert len(calls) == 3

    @pytest.mark.parametrize("values", [(1, 1.0, True), (0.0, -0.0)],
                             ids=["one", "signed_zero"])
    def test_values_equal_only_in_python_are_scored_apart(self, blobs, monkeypatch, values):
        probe = og.Individual("Probe", sm.parse_schema({"allOf": [{
            "type": "object",
            "properties": {"x": {"type": "number", "minimum": -1, "maximum": 1,
                                 "default": 0}}}]}))
        compiled = compile_space(probe)
        calls = counting(monkeypatch, lambda candidate, splits: 0.25)
        objective = make_cv_objective(compiled, blobs, folds=3)
        reference = reference_cv_objective(compiled, blobs, folds=3)
        expected = [outcome(reference, {"probe__x": v}) for v in values]
        scored = len(calls)
        for _ in range(2):
            assert [outcome(objective, {"probe__x": v}) for v in values] == expected
        # Each value that decodes is scored once, apart from the others.
        assert len(calls) - scored == sum(kind == "returned" for kind, _ in expected)

    def test_numpy_values_score_as_the_reference(self, registry, blobs, monkeypatch):
        compiled = compile_space(parse_expr("Scaler >> KNN", registry))
        point = {"knn__k": np.int64(4), "knn__weighting": "distance"}
        expected = reference_cv_objective(compiled, blobs, folds=3)(point)
        calls = counting(monkeypatch)
        objective = make_cv_objective(compiled, blobs, folds=3)
        assert [objective(point) for _ in range(2)] == [expected, expected]
        assert len(calls) == 2  # JSON cannot encode np.int64: no memo
        # JSON prints np.float64 as a float, so it is kept out of the memo too.
        assert objective({"knn__k": np.float64(4.0), "knn__weighting": "distance"}) == expected
        assert len(calls) == 3


REGISTRY = toyml.load_registry()
# Narrow registry leaves, so that searches draw the same point again.
PREPROCESSORS = ["Scaler", "NoOp", "StandardScaler", "MinMaxScaler", "SelectKVariance"]
ESTIMATORS = ["KNN", "LR", "PrunedTree", "DecisionStump", "J48"]


@st.composite
def narrow_pipelines(draw):
    steps = [REGISTRY[name] for name in
             draw(st.lists(st.sampled_from(PREPROCESSORS), max_size=2))]
    estimators = draw(st.lists(st.sampled_from(ESTIMATORS), min_size=1, max_size=3,
                               unique=True))
    if len(estimators) == 1:
        steps.append(REGISTRY[estimators[0]])
    else:
        steps.append(choose([REGISTRY[name] for name in estimators]))
    return steps[0] if len(steps) == 1 else functools.reduce(pipe, steps)



class TestMemoAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(op=narrow_pipelines(), keep=st.booleans(), seed=st.integers(0, 2**31 - 1),
           trials=st.integers(1, 12))
    def test_histories_equal_the_unmemoized_objective(self, op, keep, seed, trials):
        # One objective serves every search, so later searches also repeat
        # the points of earlier ones.
        compiled = compile_space(op, keep_constraints=keep)
        data = toyml.synth_dataset("blobs", 48, seed % 5)
        doc, grid = compiled.hierarchical(), compiled.grid(1, seed)
        histories = {}
        for name, make in (("memo", make_cv_objective), ("reference", reference_cv_objective)):
            objective = make(compiled, data, folds=3, cv_seed=seed)
            runs = [random_search(doc, objective, OptimizerSpec(max_trials=trials, seed=seed)),
                    bandit_search(doc, objective, OptimizerSpec(strategy="bandit",
                                                                max_trials=trials, seed=seed)),
                    random_search(doc, objective, OptimizerSpec(max_trials=trials, seed=seed))]
            if grid["cellCount"] <= 24:
                runs.append(grid_search(grid, objective,
                                        OptimizerSpec(strategy="grid", max_trials=24)))
            histories[name] = [canonical(h) for h in runs]
        assert histories["memo"] == histories["reference"]


# Pipelines whose trials end in LogRegGD (so windows descend in lockstep),
# with a prefix that traps when compiled without constraints (PrunedTree's R
# with C != 0.25 raises ConstraintTrap mid-pipeline).
WINDOWED_EXPRS = [
    "(Scaler | MinMaxScaler | NoOp) >> SelectKVariance >> (LogRegGD | KNN)",
    "Scaler >> PrunedTree >> (LogRegGD | KNN)",
    "(NoOp | MinMaxScaler) >> LogRegGD",
]


def _trial_fields(trials):
    return [(t.index, json.dumps(t.point, sort_keys=True), t.loss, t.status) for t in trials]


class TestWindows:
    @settings(max_examples=20, deadline=None)
    @given(expr=st.sampled_from(WINDOWED_EXPRS), keep=st.booleans(),
           seed=st.integers(0, 2**31 - 1), window=st.sampled_from([1, 3, 64]),
           data=st.data())
    def test_trials_equal_the_reference_point_by_point(self, expr, keep, seed, window, data):
        compiled = compile_space(parse_expr(expr, REGISTRY), keep_constraints=keep)
        dataset = toyml.synth_dataset("moonsApprox", 36, seed % 5)
        rng = random.Random(seed)
        doc = compiled.hierarchical()
        points = [sample_space(doc, rng) for _ in range(data.draw(st.integers(1, 10)))]
        for _ in range(data.draw(st.integers(0, 3))):
            # A spoiled point (NaN is no value of any domain) and repeats,
            # also of points scored in an earlier window.
            point = dict(data.draw(st.sampled_from(points)))
            point[data.draw(st.sampled_from(sorted(point)))] = math.nan
            points.append(point)
        points += [data.draw(st.sampled_from(points)) for _ in range(data.draw(st.integers(0, 4)))]
        points = data.draw(st.permutations(points))
        spec = OptimizerSpec(max_trials=len(points), seed=seed)

        def searched(objective):
            # Random search draws these points, and grid search has them as
            # its cells.
            with mock.patch.object(opt, "sample_space", side_effect=points), \
                    mock.patch.object(opt, "grid_cells", return_value=iter(points)):
                return [_trial_fields(random_search(doc, objective, spec).trials),
                        _trial_fields(grid_search({"cellCount": len(points)}, objective,
                                                  OptimizerSpec(strategy="grid",
                                                                max_trials=len(points))).trials)]

        objective = make_cv_objective(compiled, dataset, folds=3, cv_seed=seed)
        with mock.patch.object(opt, "WINDOW", window):
            got = searched(objective)
            again = searched(objective)  # every point seen before
        # A plain callable is scored point by point.
        want = searched(reference_cv_objective(compiled, dataset, folds=3, cv_seed=seed))
        assert got == again == want
        histories = {}
        for name, make in (("windowed", make_cv_objective), ("reference", reference_cv_objective)):
            objective = make(compiled, dataset, folds=3, cv_seed=seed)
            histories[name] = [canonical(random_search(doc, objective, spec)),
                               canonical(grid_search(compiled.grid(1, seed), objective,
                                                     OptimizerSpec(strategy="grid",
                                                                   max_trials=400)))]
        assert histories["windowed"] == histories["reference"]

    def test_failures_keep_their_status(self, registry, blobs):
        compiled = compile_space(parse_expr("Scaler >> PrunedTree >> LogRegGD", registry),
                                 keep_constraints=False)
        good = {"prunedtree__R": False, "prunedtree__C": 0.25, "prunedtree__maxDepth": 3}
        trap = dict(good, prunedtree__R=True, prunedtree__C=0.4)
        spoiled = dict(good, prunedtree__maxDepth=math.nan)
        objective = make_cv_objective(compiled, blobs, folds=3)
        outcomes = objective.many([good, trap, spoiled, good, trap])
        assert [type(o).__name__ for o, _ in outcomes] == [
            "float", "ConstraintTrap", "InvalidConfigError", "float", "ConstraintTrap"]
        assert outcomes[0][0] == outcomes[3][0]

    def test_elapsed_sums_to_the_window_wall_time(self, registry, blobs):
        compiled = compile_space(parse_expr("Scaler >> (LogRegGD | KNN)", registry))
        objective = make_cv_objective(compiled, blobs, folds=3)
        rng = random.Random(0)
        points = [sample_space(compiled.hierarchical(), rng) for _ in range(12)]
        start = time.perf_counter()
        outcomes = objective.many(points)
        wall = time.perf_counter() - start
        elapsed = [seconds for _, seconds in outcomes]
        assert all(seconds > 0.0 for seconds in elapsed)
        assert 0.9 * wall <= sum(elapsed) <= wall

    def test_descents_of_a_window_share_one_lockstep(self, registry, blobs, monkeypatch):
        calls = []
        descent = toyml._logreg_descent

        def counted(descents, penalty, solver):
            calls.append(len(descents))
            return descent(descents, penalty, solver)

        monkeypatch.setattr(toyml, "_logreg_descent", counted)
        compiled = compile_space(parse_expr("(Scaler | NoOp) >> LogRegGD", registry))
        objective = make_cv_objective(compiled, blobs, folds=3)
        history = random_search(compiled.hierarchical(), objective,
                                OptimizerSpec(max_trials=20, seed=1))
        assert history.count(opt.VALID) == 20
        # One window: one call per solver and penalty, one descent per trial.
        groups = {(t.point["logreggd__solver"], t.point["logreggd__penalty"])
                  for t in history.trials}
        assert len(calls) == len(groups) and sum(calls) == 20


# Spaces with a top-level choice of two or three branches, and one without
# (where bandit search falls back to random search).
BANDIT_EXPRS = [
    "Scaler >> (PrunedTree | LogRegGD | KNN)",
    "(NoOp | MinMaxScaler) >> LogRegGD",
    "Scaler >> KNN",
]


@functools.cache
def _bandit_doc(expr: str, keep: bool) -> dict:
    return compile_space(parse_expr(expr, REGISTRY), keep_constraints=keep).hierarchical()


class DrawnOutcomes:
    """An objective whose outcome is a seeded draw per point from a pool of
    losses and exception types: a small pool gives ties, and PENALTY-sized
    losses test the running means."""

    def __init__(self, pool, seed):
        self.pool = pool
        self.seed = seed

    def __call__(self, point):
        outcome = random.Random(f"{self.seed}:{json.dumps(point, sort_keys=True)}").choice(
            self.pool)
        if isinstance(outcome, type):
            raise outcome("drawn to fail")
        return outcome


class DrawnOutcomesMany(DrawnOutcomes):
    """The same outcomes, also scored a window at a time, each point taking
    one second."""

    scored = 0

    def many(self, points):
        self.scored += len(points)
        results = []
        for point in points:
            try:
                results.append((self(point), 1.0))
            except Exception as exc:
                results.append((exc, 1.0))
        return results


class TestBanditAgainstReference:
    # Plans of these lengths are cut at many offsets.
    @pytest.mark.parametrize("window", [1, 2, 3, 64])
    @settings(max_examples=80, deadline=None)
    @given(expr=st.sampled_from(BANDIT_EXPRS), keep=st.booleans(),
           seed=st.integers(0, 2**31 - 1),
           epsilon=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           trials=st.integers(1, 40),
           pool=st.lists(st.one_of(
               st.sampled_from([0.0, 0.5, 1.0, opt.PENALTY, opt.PENALTY / 3]),
               st.floats(0.0, 1.0),
               st.sampled_from([opt.InvalidConfigError, RuntimeError])), min_size=1, max_size=6),
           windowed=st.booleans())
    def test_histories_equal_the_reference(self, window, expr, keep, seed, epsilon, trials,
                                           pool, windowed):
        doc = _bandit_doc(expr, keep)
        spec = OptimizerSpec(strategy="bandit", max_trials=trials, seed=seed,
                             bandit_epsilon=epsilon)
        objective = (DrawnOutcomesMany if windowed else DrawnOutcomes)(pool, seed)
        with mock.patch.object(opt, "WINDOW", window):
            got = bandit_search(doc, objective, spec)
        want = reference_bandit_search(doc, DrawnOutcomes(pool, seed), spec)
        assert got.to_json(include_timing=False) == want.to_json(include_timing=False)
        if windowed:  # the kept trials' elapsed includes the dropped points'
            assert sum(t.elapsed for t in got.trials) == pytest.approx(objective.scored)

    def test_cv_objective_is_scored_through_many_in_windows(self, ablation):
        compiled, objective = ablation["unconstrained"]

        class Spy:
            def __init__(self):
                self.calls = 0
                self.windows = []

            def __call__(self, point):
                self.calls += 1
                return objective(point)

            def many(self, points):
                self.windows.append(len(points))
                return objective.many(points)

        spy = Spy()
        spec = OptimizerSpec(strategy="bandit", max_trials=30, seed=2)
        history = bandit_search(compiled.hierarchical(), spy, spec)
        assert spy.calls == 0 and spy.windows[0] == 30  # the whole run planned at once
        assert history.invalid_count() >= 1  # failures arrive as outcomes, not raised
        assert canonical(history) == canonical(
            reference_bandit_search(compiled.hierarchical(), objective, spec))

    @settings(max_examples=30, deadline=None)
    @given(expr=st.sampled_from(BANDIT_EXPRS), seed=st.integers(0, 2**31 - 1),
           epsilon=st.floats(0.0, 1.0), trials=st.integers(1, 40),
           pool=st.lists(st.one_of(st.floats(0.0, 1.0), st.just(RuntimeError)),
                         min_size=1, max_size=4))
    def test_a_plain_callable_is_called_once_per_trial(self, expr, seed, epsilon, trials, pool):
        called = []

        def objective(point):
            called.append(point)
            return DrawnOutcomes(pool, seed)(point)

        spec = OptimizerSpec(strategy="bandit", max_trials=trials, seed=seed,
                             bandit_epsilon=epsilon)
        history = bandit_search(_bandit_doc(expr, False), objective, spec)
        assert called == [t.point for t in history.trials]
        assert len(called) == trials


class TestRandomDrawsAhead:
    @pytest.mark.parametrize("window, trials", [(5, 23), (64, 200), (64, 1)])
    def test_never_more_than_a_window_ahead_of_scoring(self, ablation, window, trials):
        compiled, _ = ablation["constrained"]
        draws, ahead = [], []

        def counted(*args, **kwargs):
            draws.append(None)
            return sample_space(*args, **kwargs)

        class Objective:
            scored = 0

            def many(self, points):
                # Points drawn but not yet scored, this window's included.
                ahead.append(len(draws) - self.scored)
                self.scored += len(points)
                return [(0.5, 0.0)] * len(points)

        with mock.patch.object(opt, "WINDOW", window), \
                mock.patch.object(opt, "sample_space", counted):
            history = random_search(compiled.hierarchical(), Objective(),
                                    OptimizerSpec(max_trials=trials, seed=3))
        assert len(history.trials) == len(draws) == trials
        assert max(ahead) <= window and sum(ahead) == trials


FIXTURE_GRAMMARS = [parse_grammar(path.read_text(), REGISTRY) for path in
                    sorted((Path(__file__).parent.parent / "fixtures" / "grammars").iterdir())]


@st.composite
def search_spaces(draw):
    """The hierarchical document of a registry operator (also frozen), a
    narrow pipeline or a sampled grammar topology, with or without constraints."""
    kind = draw(st.sampled_from(["operator", "pipeline", "topology"]))
    if kind == "operator":
        op = REGISTRY[draw(st.sampled_from(sorted(REGISTRY)))]
        if draw(st.booleans()):
            op = freeze_trainable(configure(op, {}))
    elif kind == "pipeline":
        op = draw(narrow_pipelines())
    else:
        op = grammar_engine.sample(draw(st.sampled_from(FIXTURE_GRAMMARS)),
                                   draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 4)),
                                   REGISTRY)
    return compile_space(op, keep_constraints=draw(st.booleans())).hierarchical()


class TestEmptyFirstPoint:
    """random_search learns that a space has no dimension from its first
    point being empty; space_dimensions counts them."""

    @settings(max_examples=150, deadline=None)
    @given(doc=search_spaces(), seed=st.integers(0, 2**31 - 1))
    def test_a_point_is_empty_exactly_when_the_space_has_no_dimension(self, doc, seed):
        rng = random.Random(seed)
        empty = space_dimensions(doc) == 0
        for _ in range(20):
            assert (sample_space(doc, rng) == {}) == empty
