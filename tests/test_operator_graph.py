import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lalec import operator_graph as og
from lalec import schema_model as sm
from lalec import toyml
from lalec.operator_graph import (
    Choice,
    LifecycleState,
    Pipeline,
    both,
    choose,
    configure,
    fit,
    freeze_trainable,
    freeze_trained,
    pipe,
    predict,
    sinks,
    sources,
    state_of,
)
from oracles import graph_isomorphic, reference_best_effort_defaults, reference_cross_val_score


@pytest.fixture
def ops(registry):
    return registry


class TestCombinators:
    def test_pipe_two_singletons(self, ops):
        p = pipe(ops["PCA"], ops["KNN"])
        assert len(p.steps) == 2
        assert p.edges == ((0, 1),)

    def test_union_then_concat(self, ops):
        # (A & B) >> Concat >> Est: union sinks both feed the concat step.
        p = pipe(both(ops["PCA"], ops["KNN"]), pipe(ops["Concat"], ops["LR"]))
        assert len(p.steps) == 4
        assert set(p.edges) == {(0, 2), (1, 2), (2, 3)}

    def test_pipe_associative(self, ops):
        a, b, c = ops["NoOp"], ops["StandardScaler"], ops["KNN"]
        assert graph_isomorphic(pipe(pipe(a, b), c), pipe(a, pipe(b, c)))

    def test_both_associative_and_commutative(self, ops):
        a, b, c = ops["NoOp"], ops["StandardScaler"], ops["KNN"]
        assert graph_isomorphic(both(a, both(b, c)), both(both(a, b), c))
        assert graph_isomorphic(both(a, b), both(b, a))

    def test_pipe_not_commutative(self, ops):
        a, b = ops["NoOp"], ops["KNN"]
        assert not graph_isomorphic(pipe(a, b), pipe(b, a))

    def test_both_has_no_edges(self, ops):
        p = both(ops["PCA"], ops["KNN"])
        assert p.edges == ()
        assert sinks(p) == (0, 1)

    def test_sinks_of_union_is_union_of_sinks(self, ops):
        x = pipe(ops["NoOp"], ops["StandardScaler"])
        y = ops["KNN"]
        p = both(x, y)
        assert set(sinks(p)) == {1, 2}
        assert set(sources(p)) == {0, 2}

    def test_choose_flattens(self, ops):
        c = choose([ops["KNN"], choose([ops["LR"], ops["J48"]])])
        assert isinstance(c, Choice)
        assert len(c.alternatives) == 3

    def test_choose_requires_two(self, ops):
        with pytest.raises(og.TooFewAlternatives):
            choose([ops["KNN"]])

    def test_acyclicity_enforced(self, ops):
        with pytest.raises(og.OperatorError):
            Pipeline((ops["NoOp"], ops["KNN"]), ((0, 1), (1, 0)))
        with pytest.raises(og.OperatorError):
            Pipeline((ops["NoOp"],), ((0, 3),))

    def test_no_mutation(self, ops):
        x = configure(ops["KNN"], {"k": 3})
        y = ops["LR"]
        before_x, before_y = copy.deepcopy(x), copy.deepcopy(y)
        pipe(x, y)
        both(x, y)
        choose([x, y])
        assert x == before_x and y == before_y


class TestConfigure:
    def test_partial_binding(self, ops):
        knn = configure(ops["KNN"], {"k": 3})
        assert knn.bound == {"k": 3}
        assert state_of(knn) == LifecycleState.TRAINABLE
        assert state_of(ops["KNN"]) == LifecycleState.PLANNED  # input untouched

    def test_invalid_combination_rejected(self, ops):
        with pytest.raises(og.ValidationFailed) as err:
            configure(ops["LR"], {"solver": "sag", "penalty": "l1"})
        assert "l2" in str(err.value)

    def test_refutable_merge_rejected(self, ops):
        # Valid in isolation, but completing with defaults breaks the
        # implication: R=true forces C to stay at its default 0.25.
        tree = configure(ops["J48"], {"R": True})
        with pytest.raises(og.ValidationFailed):
            configure(tree, {"C": 0.3})

    def test_empty_configure_promotes_only(self, ops):
        op = configure(ops["KNN"], {})
        assert op.bound == {}
        assert op.state == LifecycleState.TRAINABLE
        assert configure(op, {}) == op

    def test_unknown_name(self, ops):
        with pytest.raises(og.ValidationFailed):
            configure(ops["KNN"], {"neighbors": 3})

    def test_operator_valued_binding(self, ops):
        ens = configure(ops["BoostedEnsemble"], {"base": ops["PrunedTree"]})
        assert ens.bound["base"] is ops["PrunedTree"]

    def test_state_monotone(self, ops):
        op = ops["KNN"]
        for partial in ({}, {"k": 2}, {"weighting": "distance"}):
            configured = configure(op, partial)
            assert state_of(configured) >= state_of(op)
            op = configured


class TestState:
    def test_pipeline_state_is_meet(self, ops, blobs):
        trained_scaler = fit(configure(ops["Scaler"], {}), blobs)
        planned_knn = ops["KNN"]
        p = pipe(trained_scaler, planned_knn)
        assert state_of(p) == LifecycleState.PLANNED

    def test_trainable_pipeline(self, ops):
        p = pipe(configure(ops["Scaler"], {}), configure(ops["KNN"], {}))
        assert state_of(p) == LifecycleState.TRAINABLE

    def test_choice_state(self, ops):
        c = choose([configure(ops["KNN"], {}), configure(ops["LR"], {})])
        assert state_of(c) == LifecycleState.TRAINABLE


class TestFreeze:
    def test_freeze_trainable_fills_defaults(self, ops):
        frozen = freeze_trainable(configure(ops["KNN"], {"k": 4}))
        assert frozen.bound == {"k": 4, "weighting": "uniform"}
        assert frozen.frozen_trainable

    def test_frozen_pipeline_space_has_only_open_dimensions(self, ops):
        from lalec.space_backends import compile_space

        frozen = freeze_trainable(configure(ops["Scaler"], {}))
        p = pipe(frozen, ops["KNN"])
        flat = compile_space(p).flat()
        only_knn = compile_space(ops["KNN"]).flat()
        assert [sorted(k.split("__")[-1] for k in row) for row in flat] == \
            [sorted(k.split("__")[-1] for k in row) for row in only_knn]

    def test_freeze_trained_identity_fit(self, ops, blobs):
        trained = fit(configure(ops["KNN"], {"k": 3}), blobs)
        frozen = freeze_trained(trained)
        again = fit(frozen, toyml.synth_dataset("blobs", 80, 9))
        assert again == frozen

    def test_freeze_trained_requires_trained(self, ops):
        with pytest.raises(og.NotTrained):
            freeze_trained(configure(ops["KNN"], {}))

    def test_freeze_preserves_state_of_trainable(self, ops):
        op = configure(ops["KNN"], {})
        assert state_of(freeze_trainable(op)) == state_of(op)

    def test_auto_configure_on_frozen_returns_same_config(self, ops, blobs):
        from lalec.optimizer import OptimizerSpec

        frozen = freeze_trainable(configure(ops["KNN"], {"k": 4}))
        trained = og.auto_configure(frozen, blobs, OptimizerSpec(max_trials=5, seed=7))
        assert trained.bound == frozen.bound
        assert state_of(trained) == LifecycleState.TRAINED


class TestCustomizeSchema:
    def test_restrict_range(self, ops):
        grove = og.customize_schema(
            ops["PrunedTree"],
            {"maxDepth": sm.RangeNode(2, 6, integer_valued=True, default=2)},
            rename="Grove",
        )
        assert grove.name == "Grove"
        assert sm.declared_domains(grove.schema)["maxDepth"].hi == 6
        # constraints retained
        assert not sm.validate({"R": True, "C": 0.3}, grove.schema).ok

    def test_singleton_enum_constant(self, ops):
        pinned = og.customize_schema(ops["KNN"], {"weighting": sm.EnumNode(("uniform",), "uniform")})
        assert sm.declared_domains(pinned.schema)["weighting"].values == ("uniform",)

    def test_empty_overrides_identity(self, ops):
        assert og.customize_schema(ops["KNN"], {}) == ops["KNN"]

    def test_unknown_property(self, ops):
        with pytest.raises(og.UnknownProperty):
            og.customize_schema(ops["KNN"], {"zz": sm.EnumNode((1,))})


class TestFitPredict:
    def test_scaler_then_knn_reproduces_training_labels(self, ops, blobs):
        p = pipe(configure(ops["Scaler"], {}), configure(ops["KNN"], {"k": 3}))
        trained = fit(p, blobs)
        preds = predict(trained, blobs.X)
        # Oracle: k-NN applied directly to standardized features.
        mean, std = blobs.X.mean(axis=0), blobs.X.std(axis=0)
        scaled = (blobs.X - mean) / np.where(std == 0, 1, std)
        direct = fit(configure(ops["KNN"], {"k": 3}), toyml.LabeledDataset(scaled, blobs.y))
        assert np.array_equal(preds, predict(direct, scaled))

    def test_fit_planned_choice_errors(self, ops, blobs):
        with pytest.raises(og.UnresolvedChoice):
            fit(choose([ops["KNN"], ops["LR"]]), blobs)

    def test_fit_planned_individual_errors(self, ops, blobs):
        with pytest.raises(og.NotTrainable):
            fit(ops["KNN"], blobs)

    def test_fit_pipeline_containing_choice_errors(self, ops, blobs):
        p = pipe(configure(ops["Scaler"], {}),
                 choose([configure(ops["KNN"], {}), configure(ops["LR"], {})]))
        with pytest.raises(og.UnresolvedChoice):
            fit(p, blobs)

    def test_predict_requires_trained(self, ops, blobs):
        with pytest.raises(og.NotTrained):
            predict(configure(ops["KNN"], {}), blobs.X)

    def test_noop_predict_is_identity(self, ops, blobs):
        trained = fit(configure(ops["NoOp"], {}), blobs)
        assert np.array_equal(predict(trained, blobs.X), blobs.X)

    def test_stump_threshold_hand_computed(self, ops):
        # Four points on one axis split cleanly at 0.5.
        X = np.array([[0.0], [0.2], [0.8], [1.0]])
        y = np.array([0, 0, 1, 1])
        trained = fit(configure(ops["DecisionStump"], {}), toyml.LabeledDataset(X, y))
        grid = np.array([[0.1], [0.4], [0.6], [0.9]])
        assert predict(trained, grid).tolist() == [0, 0, 1, 1]

    def test_pipeline_predict_equals_manual_composition(self, ops, blobs):
        p = pipe(configure(ops["MinMaxScaler"], {}),
                 pipe(configure(ops["SelectKVariance"], {"k": 3}),
                      configure(ops["KNN"], {"k": 5})))
        trained = fit(p, blobs)
        scaler, select, knn = trained.steps
        manual = predict(knn, predict(select, predict(scaler, blobs.X)))
        assert np.array_equal(predict(trained, blobs.X), manual)

    def test_concat_merges_in_step_order(self, ops, blobs):
        p = pipe(both(configure(ops["NoOp"], {}), configure(ops["MinMaxScaler"], {})),
                 configure(ops["Concat"], {}))
        trained = fit(p, blobs)
        out = predict(trained, blobs.X)
        assert out.shape == (len(blobs.X), 2 * blobs.X.shape[1])
        assert np.array_equal(out[:, : blobs.X.shape[1]], blobs.X)

    def test_only_concat_accepts_multiple_inputs(self, ops, blobs):
        p = pipe(both(configure(ops["NoOp"], {}), configure(ops["MinMaxScaler"], {})),
                 configure(ops["KNN"], {}))
        with pytest.raises(og.ShapeMismatch):
            fit(p, blobs)

    def test_mid_pipeline_estimator_becomes_feature(self, ops, blobs):
        p = pipe(configure(ops["DecisionStump"], {}), configure(ops["KNN"], {"k": 1}))
        trained = fit(p, blobs)
        preds = predict(trained, blobs.X)
        assert preds.shape == (len(blobs.X),)

    def test_fit_applies_each_step_once_and_only_for_a_successor(self, ops, blobs,
                                                                  monkeypatch):
        # Every step but the sink feeds a successor, so fitting applies it
        # once; the sink's output is never needed while fitting.
        applies = []
        for name in ("standard_scaler", "decision_stump", "concat", "knn"):
            impl = og.IMPLEMENTATIONS[name]

            def apply(artifacts, X, name=name, inner=impl.apply):
                applies.append(name)
                return inner(artifacts, X)

            monkeypatch.setitem(og.IMPLEMENTATIONS, name, dataclasses.replace(impl, apply=apply))
        union = both(configure(ops["Scaler"], {}), configure(ops["DecisionStump"], {}))
        p = pipe(pipe(union, configure(ops["Concat"], {})), configure(ops["KNN"], {"k": 1}))
        trained = fit(p, blobs)
        assert applies == ["standard_scaler", "decision_stump", "concat"]
        del applies[:]
        predict(trained, blobs.X)
        assert applies == ["standard_scaler", "decision_stump", "concat", "knn"]

    def test_two_sink_pipeline_fits_but_has_no_single_output(self, ops, blobs):
        p = both(configure(ops["NoOp"], {}), configure(ops["KNN"], {}))
        trained = fit(p, blobs)
        assert state_of(trained) == LifecycleState.TRAINED
        with pytest.raises(og.ShapeMismatch, match="exactly one sink"):
            predict(trained, blobs.X)
        [(outcome, _)] = og.fit_predict_many([p], [blobs], [blobs.X], {})
        assert isinstance(outcome, og.ShapeMismatch) and "exactly one sink" in str(outcome)

    def test_two_sink_pipeline_applies_no_sink_before_it_raises(self, ops, blobs, monkeypatch):
        # Fitting step by step fits both sinks, then finds no single output;
        # it never applies a sink, so a sink whose apply raises changes
        # nothing, and scoring raises what fitting raises.
        def apply(artifacts, X):
            raise RuntimeError("applied")

        monkeypatch.setitem(og.IMPLEMENTATIONS, "knn",
                            dataclasses.replace(og.IMPLEMENTATIONS["knn"], apply=apply))
        p = both(configure(ops["KNN"], {}), configure(ops["NoOp"], {}))
        splits = toyml.cv_splits(blobs, 3)
        for score in (reference_cross_val_score, toyml.cross_val_score):
            with pytest.raises(og.ShapeMismatch, match="exactly one sink"):
                score(p, splits)

    def test_fit_does_not_mutate(self, ops, blobs):
        p = pipe(configure(ops["Scaler"], {}), configure(ops["KNN"], {"k": 3}))
        before = copy.deepcopy(p)
        fit(p, blobs)
        assert p == before

    def test_fit_never_lowers_state(self, ops, blobs):
        op = configure(ops["KNN"], {})
        trained = fit(op, blobs)
        assert state_of(trained) == LifecycleState.TRAINED
        assert state_of(fit(trained, blobs)) == LifecycleState.TRAINED


class TestAutoConfigure:
    def test_reproducible_under_seed(self, ops, blobs):
        from lalec.optimizer import OptimizerSpec

        p = pipe(ops["Scaler"], choose([ops["KNN"], ops["LogRegGD"]]))
        spec = OptimizerSpec(max_trials=12, seed=7)
        first = og.auto_configure(p, blobs, spec)
        second = og.auto_configure(p, blobs, spec)
        assert graph_isomorphic(first, second)
        assert [s.bound for s in first.steps] == [s.bound for s in second.steps]

    def test_fully_frozen_runs_single_default_trial(self, ops, blobs):
        from lalec.optimizer import OptimizerSpec

        p = pipe(freeze_trainable(configure(ops["Scaler"], {})),
                 freeze_trainable(configure(ops["KNN"], {"k": 3})))
        trained = og.auto_configure(p, blobs, OptimizerSpec(max_trials=50, seed=0))
        assert state_of(trained) == LifecycleState.TRAINED
        assert trained.steps[1].bound["k"] == 3

    def test_tunes_nested_ensemble_depth(self, ops, xor_data):
        from lalec.optimizer import OptimizerSpec

        ens = configure(ops["BoostedEnsemble"], {"base": ops["PrunedTree"]})
        trained = og.auto_configure(ens, xor_data, OptimizerSpec(max_trials=15, seed=3))
        nested = trained.bound["base"]
        assert nested.name == "PrunedTree"
        assert "maxDepth" in nested.bound

    def test_no_valid_trial_raises(self, ops, blobs):
        from lalec.optimizer import NoValidTrial, OptimizerSpec

        # PCA ships without a toy implementation, so every trial fails.
        with pytest.raises(NoValidTrial):
            og.auto_configure(pipe(ops["PCA"], ops["KNN"]), blobs,
                              OptimizerSpec(max_trials=4, seed=0))


# ---------------------------------------------------------------------------
# Fitting many datasets in one pass


def _three_class(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % 3)
    return toyml.LabeledDataset(np.eye(3)[y] * 2.0 + rng.standard_normal((n, 3)), y)


@st.composite
def dataset_lists(draw, kinds=("blobs", "xor", "moonsApprox", "threeClass")):
    """1-4 datasets of the given kinds, with different row counts and (over
    all kinds) widths."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        n, seed = draw(st.integers(9, 60)), draw(st.integers(0, 2**16))
        out.append(_three_class(n, seed) if kind == "threeClass"
                   else toyml.synth_dataset(kind, n, seed))
    return out


# One or more configurations of each registered implementation, as the last
# (here only) step.
IMPL_CASES = {
    "noop": [("NoOp", {})],
    "standard_scaler": [("StandardScaler", {"withMean": False})],
    "minmax_scaler": [("MinMaxScaler", {})],
    "select_k_variance": [("SelectKVariance", {"k": 2})],
    "concat": [("Concat", {})],
    "knn": [("KNN", {"k": 3, "weighting": "distance"})],
    "logreg_gd": [("LogRegGD", {"solver": "gd", "penalty": "l1", "iterations": 20}),
                  ("LogRegGD", {"solver": "sgd", "iterations": 20})],
    "pruned_tree": [("PrunedTree", {"maxDepth": 3}), ("PrunedTree", {"R": True})],
    "decision_stump": [("DecisionStump", {})],
    "boosted_ensemble": [("BoostedEnsemble", {"n_estimators": 3})],
}


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _fits_alone_and_together(op, datasets):
    """One ``fit(jobs)`` call of op's implementation, with one job of every
    problem and one job per problem, gives every problem the predictions,
    bit for bit, that one call per problem gives."""
    impl, config = og.implementation_of(op), og.effective_config(op)
    problems = [(data.X, data.y) for data in datasets]
    together, *each = impl.fit([(config, problems, None)]
                               + [(config, [problem], None) for problem in problems])
    assert len(together) == len(problems) and len(each) == len(problems)
    for artifacts, [single], (X, y) in zip(together, each, problems):
        [[alone]] = impl.fit([(config, [(X, y)], None)])
        _same_bytes(impl.apply(artifacts, X), impl.apply(alone, X))
        _same_bytes(impl.apply(single, X), impl.apply(alone, X))


def _scored_alone_and_together(op, datasets):
    """Scoring every dataset in one walk, each on its own features, gives
    what fitting and predicting each alone gives."""
    [(together, _)] = og.fit_predict_many([op], datasets, [data.X for data in datasets], {})
    assert len(together) == len(datasets)
    for got, data in zip(together, datasets):
        _same_bytes(got, predict(fit(op, data), data.X))


class TestFitEach:
    """The multi-problem contract of ToyImplementation.fit, and the cases
    of fitting a pipeline that it must keep."""

    def test_every_implementation_has_a_case(self):
        assert set(IMPL_CASES) == set(og.IMPLEMENTATIONS)

    @pytest.mark.parametrize("impl", sorted(IMPL_CASES))
    @given(datasets=dataset_lists())
    @settings(max_examples=15, deadline=None)
    def test_each_implementation_fits_each_dataset_as_alone(self, registry, impl, datasets):
        for name, config in IMPL_CASES[impl]:
            _fits_alone_and_together(configure(registry[name], config), datasets)

    @given(datasets=dataset_lists())
    @settings(max_examples=15, deadline=None)
    def test_boosting_a_logreg_base(self, registry, datasets):
        base = configure(registry["LogRegGD"], {"solver": "sgd", "iterations": 15})
        op = configure(registry["BoostedEnsemble"], {"base": base, "n_estimators": 3})
        _fits_alone_and_together(op, datasets)

    @given(datasets=dataset_lists())
    @settings(max_examples=15, deadline=None)
    def test_mid_pipeline_estimator_merged_by_concat(self, registry, datasets):
        # (LogRegGD & NoOp) >> Concat >> KNN: the LogRegGD step's labels are
        # a feature column next to the raw features.
        union = both(configure(registry["LogRegGD"], {"iterations": 20}),
                     configure(registry["NoOp"], {}))
        op = pipe(pipe(union, configure(registry["Concat"], {})),
                  configure(registry["KNN"], {"k": 3}))
        _scored_alone_and_together(op, datasets)

    @given(datasets=dataset_lists(kinds=("xor", "moonsApprox")))
    @settings(max_examples=15, deadline=None)
    def test_frozen_trained_step_is_kept(self, registry, datasets):
        scaler = freeze_trained(fit(configure(registry["MinMaxScaler"], {}),
                                    toyml.synth_dataset("xor", 40, 3)))
        op = pipe(scaler, configure(registry["LogRegGD"], {"iterations": 20}))
        _scored_alone_and_together(op, datasets)
        for data in datasets:
            assert fit(op, data).steps[0] is scaler

    def test_constraint_trap_raises_the_same_type(self, registry, blobs, xor_data):
        from dataclasses import replace

        from lalec.space_normalizer import drop_constraints

        tree = registry["PrunedTree"]
        bad = configure(replace(tree, schema=drop_constraints(tree.schema)),
                        {"R": True, "C": 0.3})
        op = pipe(configure(registry["Scaler"], {}), bad)
        for data in (blobs, xor_data):
            with pytest.raises(toyml.ConstraintTrap):
                fit(op, data)
        [(outcome, _)] = og.fit_predict_many([op], [blobs, xor_data], [blobs.X, xor_data.X], {})
        assert isinstance(outcome, toyml.ConstraintTrap)

    def test_trained_copy_without_artifacts_is_refused(self, registry, blobs, monkeypatch):
        # Trained copies skip dataclasses.replace; the artifacts rule holds.
        impl = og.ToyImplementation("fits_nothing", "estimator",
                                    fit=lambda jobs, store=None: [[None] * len(p) for _, p, _ in jobs],
                                    apply=lambda artifact, X: X)
        monkeypatch.setitem(og.IMPLEMENTATIONS, "fits_nothing", impl)
        op = dataclasses.replace(configure(registry["KNN"], {}), impl="fits_nothing")
        for fitted in (op, pipe(op, configure(registry["KNN"], {}))):
            with pytest.raises(og.OperatorError, match="artifacts present iff state is Trained"):
                fit(fitted, blobs)


# ---------------------------------------------------------------------------
# configure: one validation when valid, against the two-check reference


def reference_configure(op, partial):
    """configure as it validated every call twice: `partial` alone, then the
    completed configuration (defaults, then bound values, then `partial`)."""
    if not isinstance(op, og.Individual):
        raise og.OperatorError("configure applies to individual operators")
    report = sm.validate(partial, op.schema)
    if not report.ok:
        raise og.ValidationFailed(report, op.name)
    merged = {**op.bound, **partial}
    completed = dict(reference_best_effort_defaults(op.schema))
    completed.update(merged)
    report = sm.validate(completed, op.schema)
    if not report.ok:
        raise og.ValidationFailed(report, op.name)
    if not partial and op.state != LifecycleState.PLANNED:
        return op
    state = op.state if op.state != LifecycleState.PLANNED else LifecycleState.TRAINABLE
    artifacts = op.artifacts
    if partial and op.state == LifecycleState.TRAINED:
        state, artifacts = LifecycleState.TRAINABLE, None
    return dataclasses.replace(op, bound=merged, state=state, artifacts=artifacts)


SIDE_CONSTRAINED = og.Individual("SideConstrained", sm.parse_schema({"allOf": [
    {"type": "object", "additionalProperties": False, "properties": {
        "a": {"enum": ["x", "y", "z"], "default": "x"},
        "b": {"type": "number", "minimum": 0, "maximum": 10, "default": 1},
        "c": {"type": "integer", "minimum": 1, "maximum": 5},
        "d": {"anyOf": [{"enum": [None]}, {"type": "number", "minimum": 0, "maximum": 1}],
              "default": None}}},
    {"anyOf": [{"type": "object", "properties": {"a": {"enum": ["x"]}}},
               {"type": "object", "properties": {"b": {"type": "number", "minimum": 0,
                                                       "maximum": 5}}}]},
    {"not": {"type": "object", "properties": {"a": {"enum": ["y"]}, "c": {"enum": [3]}}}},
    {"not": {"type": "object", "properties": {"d": {"enum": [None]}, "a": {"enum": ["z"]}}}},
]}))

PROPERTY_NEGATION = og.Individual("PropertyNegation", sm.parse_schema({
    "type": "object", "properties": {
        "a": {"not": {"type": "object", "properties": {"z": {"enum": [1]}}}},
        "b": {"enum": [1, 2], "default": 1}}}))

REGISTRY = toyml.load_registry()
ODD_VALUES = [math.nan, math.inf, -math.inf, None, True, False, "x", "", [], {}, 0, -1, 3,
              0.5, 1e9, -1e-9]


def _domain_values(node) -> tuple[list, list]:
    """Values in or on the edges of a declared domain, and values just or
    far outside it."""
    if isinstance(node, sm.EnumNode):
        return list(node.values), []
    if isinstance(node, sm.RangeNode):
        mid = (node.lo + node.hi) / 2
        return ([node.lo, node.hi, mid, int(mid)],
                [node.lo - 1e-9, node.hi + 1e-9, node.lo - 1, node.hi + 1])
    if isinstance(node, sm.AnyOfNode):
        parts = [_domain_values(child) for child in node.children]
        return [v for inside, _ in parts for v in inside], [v for _, out in parts for v in out]
    if isinstance(node, sm.OperatorSlotNode):
        return [REGISTRY["PrunedTree"]], []
    return [], []


@st.composite
def partial_configs(draw, op, odd=True):
    """Some declared names (and, when `odd`, an unknown one) with values
    from their domains; when `odd`, also values outside them, of the wrong
    type, NaN and +-inf."""
    try:
        declared = sm.declared_domains(op.schema)
    except sm.NoBaseObject:
        declared = {}
    pool = [name for name in sorted(declared) if odd or _domain_values(declared[name])[0]]
    pool += ["unknown"] * odd
    names = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)) if pool else []
    config = {}
    for name in names:
        inside, outside = _domain_values(declared.get(name))
        if not odd:
            config[name] = draw(st.sampled_from(inside))
        elif inside:
            config[name] = draw(st.sampled_from(inside) | st.sampled_from(outside + ODD_VALUES))
        else:
            config[name] = draw(st.sampled_from(outside + ODD_VALUES))
    return config


def _outcome(fn, op, partial):
    try:
        result = fn(op, partial)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "report", None))
    return ("returned", result is op, result.name, result.state, result.artifacts,
            list(result.bound.items()))


@st.composite
def configure_cases(draw):
    operators = {**REGISTRY, "SideConstrained": SIDE_CONSTRAINED,
                 "PropertyNegation": PROPERTY_NEGATION}
    op = operators[draw(st.sampled_from(sorted(operators)))]
    # Bind some values first, as a user's earlier configure would; a later
    # partial can then pass alone and fail only once merged. A refuted
    # binding leaves the operator as it was.
    if draw(st.booleans()):
        try:
            op = reference_configure(op, draw(partial_configs(op, odd=False)))
        except og.ValidationFailed:
            pass
    return op, draw(partial_configs(op, odd=draw(st.booleans())))


class TestConfigureMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(case=configure_cases())
    def test_same_result_or_same_exception(self, case):
        op, partial = case
        assert _outcome(configure, op, partial) == _outcome(reference_configure, op, partial)

    def test_cases_cover_every_outcome(self):
        # The two hand-built schemas reach each way configure can end.
        cases = [
            (SIDE_CONSTRAINED, {"a": "x", "b": 7}, "returned"),
            (SIDE_CONSTRAINED, {"a": "y", "b": 7}, "raised"),  # anyOf side constraint
            (SIDE_CONSTRAINED, {"a": "y", "c": 3}, "raised"),  # not side constraint
            (SIDE_CONSTRAINED, {"a": "z"}, "raised"),  # not, through the default of d
            (SIDE_CONSTRAINED, {"c": math.nan}, "raised"),  # ValueError from the validator
            (PROPERTY_NEGATION, {"a": 1}, "raised"),
            (PROPERTY_NEGATION, {"b": 2}, "returned"),
        ]
        for op, partial, expected in cases:
            got = _outcome(configure, op, partial)
            assert got == _outcome(reference_configure, op, partial)
            assert got[0] == expected
